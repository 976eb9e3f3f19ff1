"""Incrementally-maintained inverted text index over a lake table — the
derived-data (secondary index) sibling of the incremental aggregate view:
instead of re-tokenizing the whole corpus after every sync, each committed
epoch's NET row changes (from :func:`.cdc.change_feed`, which carries the
old AND new text) become posting DELTAS:

- insert  → ``present=1`` postings for the new text's terms,
- update  → ``present=0`` for terms the doc LOST, ``present=1`` for the
  new text's terms,
- delete  → ``present=0`` for the old text's terms.

Postings live as one Parquet delta file per (term-hash bucket, epoch); a
term lookup reads ONLY its bucket's files (the same prune shape as the
static ``corpus.build_inverted_index``) and resolves last-writer-wins per
``(term, doc)`` by epoch — exactly the lake's merge philosophy applied to
the index.  Re-running an epoch rewrites the same delta file
(tmp + ``os.replace``), so maintenance is idempotent; the meta commit
(``last_epoch``) is the atomic progress marker.

Postings store the term STRING (not just the hash): the bucket hash only
routes, equality at lookup is exact — no collision false-positives.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.hashing import stable_hash_array

DEFAULT_BUCKETS = 32
TOKEN_PATTERN = "[^a-z0-9]+"

def _meta_path(index_root: str | Path) -> Path:
    return Path(index_root) / "_index_meta.json"


def index_meta(index_root: str | Path) -> dict:
    p = _meta_path(index_root)
    if not p.exists():
        # fresh index: bucket count is fixed by the FIRST sync call
        return {"last_epoch": -1, "num_buckets": None}
    with open(p) as f:
        return json.load(f)


def _write_meta(index_root: str | Path, meta: dict) -> None:
    root = Path(index_root)
    root.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
    with os.fdopen(fd, "w") as f:
        json.dump(meta, f, sort_keys=True)
    os.replace(tmp, _meta_path(index_root))


def _terms_per_row(texts: pa.Array, pattern: str):
    """(flat_terms, parent_row) distinct per row — corpus tokenizer
    conventions (lowercase, regex split, empties dropped)."""
    lst = pc.split_pattern_regex(pc.utf8_lower(texts), pattern)
    flat = pc.list_flatten(lst)
    parent = pc.list_parent_indices(lst)
    ok = pc.not_equal(flat, "")
    flat, parent = flat.filter(ok), parent.filter(ok)
    # distinct (row, term): group on both
    t = (
        pa.table({"_p": parent, "term": flat})
        .group_by(["_p", "term"])
        .aggregate([])
    )
    return t.column("term"), t.column("_p")


def _whole_value_terms(vals: pa.Array, pattern: str):
    """Value-index 'tokenizer': the raw column value IS the single term
    (no case folding, no splitting; nulls emit nothing) — turns the
    incremental text-index machinery into an equality secondary index."""
    if isinstance(vals, pa.ChunkedArray):
        vals = vals.combine_chunks()
    ok = vals.is_valid()
    parent = pc.indices_nonzero(ok)
    return vals.filter(ok).cast(pa.string()), parent


def sync_text_index(
    lake_root: str,
    table: str,
    index_root: str | Path,
    *,
    upto_epoch: int,
    text_col: str = "text",
    num_buckets: int | None = None,
    pattern: str = TOKEN_PATTERN,
    tokenizer=None,
) -> dict:
    """Advance the index from its committed ``last_epoch`` to
    ``upto_epoch``, one change-feed delta per epoch.  Returns per-epoch
    posting counts.  Scale shape per epoch: the change feed streams (net
    changes only, changed-partition pruned on the fast path), tokenizing
    is per-batch vectorized, and the ONLY exchange is the bucket groupby
    over fixed-width ``(term, doc, present)`` rows — document text never
    rides it twice."""
    from .cdc import change_feed

    root = Path(index_root)
    meta = index_meta(root)
    committed = meta.get("num_buckets")
    if committed is not None:
        # bucket routing is part of the on-disk layout: an explicit
        # different count would mis-route lookups — refuse
        if num_buckets is not None and num_buckets != committed:
            raise ValueError(
                f"index at {root} was built with {committed} buckets"
            )
        num_buckets = committed
    elif num_buckets is None:
        num_buckets = DEFAULT_BUCKETS
    meta["num_buckets"] = num_buckets
    stats: dict[str, int] = {}
    old_col, new_col = f"{text_col}_old", f"{text_col}_new"
    tok = tokenizer if tokenizer is not None else _terms_per_row

    from ..state.manifest import ManifestStore, source_epochs

    store = ManifestStore(lake_root, table)
    committed_epochs = source_epochs(
        store.manifest_names(store.table_meta()["generation"])
    )

    for epoch in range(int(meta["last_epoch"]) + 1, upto_epoch + 1):
        if epoch not in committed_epochs:
            # nothing committed at this epoch → the table state is
            # unchanged and the delta is empty by construction; advance
            # the watermark without paying a change-feed diff
            meta["last_epoch"] = epoch
            _write_meta(root, meta)
            continue
        cf = change_feed(
            lake_root, table, epoch=epoch, compare_cols=[text_col]
        )
        def to_postings(batch: pa.Table) -> pa.Table:
            # batch columns: <pk>, op, {text}_old, {text}_new
            names = batch.column_names
            pk = next(
                c for c in names if c not in ("op", old_col, new_col)
            )
            ops = batch.column("op").combine_chunks()
            docs = batch.column(pk).combine_chunks()
            olds = batch.column(old_col).combine_chunks()
            news = batch.column(new_col).combine_chunks()

            pieces = []
            # additions: I and U rows tokenize the NEW text
            add_mask = pc.fill_null(pc.not_equal(ops, "D"), False)
            add_docs = docs.filter(add_mask)
            terms, parent = tok(news.filter(add_mask), pattern)
            pieces.append(
                pa.table(
                    {
                        "term": terms,
                        "doc": add_docs.take(parent),
                        "present": pa.array(
                            np.ones(len(terms), dtype=np.int8)
                        ),
                    }
                )
            )
            # removals: U and D rows tokenize the OLD text; terms the doc
            # still has are re-asserted by the addition rows, so only the
            # LOST terms need a tombstone — emit old−new per row
            rm_mask = pc.fill_null(pc.not_equal(ops, "I"), False)
            rm_docs = docs.filter(rm_mask)
            oterms, oparent = tok(olds.filter(rm_mask), pattern)
            if len(oterms):
                nterms, nparent = tok(
                    news.filter(rm_mask), pattern
                )
                # set-difference per row: (parent, term) pairs of old not
                # present in new — vectorized via a join on (row, term)
                old_t = pa.table({"_p": oparent, "term": oterms})
                new_t = pa.table(
                    {"_p": nparent, "term": nterms}
                ).append_column(
                    "_keep", pa.array(np.zeros(len(nterms), dtype=np.int8))
                )
                joined = old_t.join(
                    new_t,
                    keys=["_p", "term"],
                    join_type="left outer",
                )
                lost = joined.filter(
                    pc.is_null(joined.column("_keep"))
                )
                pieces.append(
                    pa.table(
                        {
                            "term": lost.column("term"),
                            "doc": rm_docs.take(lost.column("_p")),
                            "present": pa.array(
                                np.zeros(lost.num_rows, dtype=np.int8)
                            ),
                        }
                    )
                )
            out = pa.concat_tables(pieces)
            out = out.append_column(
                "epoch",
                pa.array(
                    np.full(out.num_rows, epoch, dtype=np.int64)
                ),
            )
            bucket = (
                stable_hash_array(out.column("term"))
                % np.uint64(num_buckets)
            ).astype(np.int64)
            return out.append_column(
                "_bucket", pa.array(bucket, type=pa.int64())
            )

        def write_bucket(group: pa.Table) -> pa.Table:
            b = int(group.column("_bucket")[0].as_py())
            t = group.drop_columns(["_bucket"])
            bdir = root / f"bucket={b:04d}"
            bdir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=bdir, suffix=".tmp")
            os.close(fd)
            pq.write_table(t, tmp, compression="zstd")
            os.replace(tmp, bdir / f"epoch-{epoch:06d}.parquet")
            return pa.table(
                {"n_postings": pa.array([t.num_rows], type=pa.int64())}
            )

        written = (
            cf.map_batches(
                to_postings, batch_format="pyarrow", batch_size=None
            )
            .groupby("_bucket")
            .map_groups(write_bucket, batch_format="pyarrow")
            .take_all()
        )
        stats[str(epoch)] = int(sum(r["n_postings"] for r in written))
        meta["last_epoch"] = epoch
        _write_meta(root, meta)
    return stats


def probed_files(index_root: str | Path, terms: list[str]) -> list[str]:
    """The delta files a lookup for ``terms`` reads — ONLY the probed
    buckets (exposed so tests can pin the prune)."""
    root = Path(index_root)
    meta = index_meta(root)
    if meta.get("num_buckets") is None:
        return []  # never synced
    nb = int(meta["num_buckets"])
    probes = pa.array(sorted(set(terms)), type=pa.string())
    buckets = sorted(
        {
            int(b)
            for b in (
                stable_hash_array(probes) % np.uint64(nb)
            ).astype(np.int64)
        }
    )
    last = int(meta.get("last_epoch", -1))
    files: list[str] = []
    for b in buckets:
        bdir = root / f"bucket={b:04d}"
        if not bdir.exists():
            continue
        for f in sorted(bdir.glob("epoch-*.parquet")):
            # a crash mid-epoch leaves SOME buckets' delta files on disk
            # before the meta commit; serving them would apply partial
            # tombstones — the committed last_epoch is the read barrier
            if int(f.stem.split("-")[1]) <= last:
                files.append(str(f))
    return files


def lookup_term_docs(
    index_root: str | Path,
    terms: list[str],
    *,
    num_partitions: int = 16,
):
    """Resolve the CURRENT doc set of each probe term as a Dataset: read
    ONLY the probed buckets' delta files (bucket prune), filter to the
    probe terms per batch, ONE hash exchange co-locating each
    ``(term, doc)``, per-partition last-writer-wins by epoch (within an
    epoch a pair is unique by construction: additions and tombstones are
    disjoint per row), keep survivors with ``present=1``.  Returns
    ``(term, doc_id)``; an index with no matching bucket files yields an
    empty Dataset with the right schema."""
    import ray.data

    from ..functions.hashing import partition_ids
    from ..sources.parquet import read_parquet_sized

    probes = pa.array(sorted(set(terms)), type=pa.string())
    files = probed_files(index_root, terms)
    if not files:
        return ray.data.from_arrow(
            pa.table(
                {
                    "term": pa.array([], type=pa.string()),
                    "doc_id": pa.array([], type=pa.int64()),
                }
            )
        )

    def route(batch: pa.Table) -> pa.Table:
        t = batch.filter(
            pc.fill_null(
                pc.is_in(batch.column("term"), value_set=probes), False
            )
        )
        parts = partition_ids(t.column("term"), num_partitions)
        return t.append_column("_part", pa.array(parts, type=pa.int64()))

    def resolve(group: pa.Table) -> pa.Table:
        t = group.drop_columns(["_part"])
        idx = pc.sort_indices(
            t,
            sort_keys=[
                ("term", "ascending"),
                ("doc", "ascending"),
                ("epoch", "descending"),
            ],
        )
        t = t.take(idx)
        n = t.num_rows
        if n == 0:
            return pa.table(
                {
                    "term": t.column("term"),
                    "doc_id": t.column("doc"),
                }
            )
        terms_np = t.column("term").to_numpy(zero_copy_only=False)
        docs_np = t.column("doc").to_numpy(zero_copy_only=False)
        first = np.ones(n, dtype=bool)
        if n > 1:
            first[1:] = (terms_np[1:] != terms_np[:-1]) | (
                docs_np[1:] != docs_np[:-1]
            )
        winners = t.filter(pa.array(first))
        alive = winners.filter(pc.equal(winners.column("present"), 1))
        return pa.table(
            {
                "term": alive.column("term"),
                "doc_id": alive.column("doc"),
            }
        )

    return (
        read_parquet_sized(files)
        .map_batches(route, batch_format="pyarrow", batch_size=None)
        .groupby("_part")
        .map_groups(resolve, batch_format="pyarrow")
    )


def sync_value_index(
    lake_root: str,
    table: str,
    index_root: str | Path,
    *,
    upto_epoch: int,
    column: str,
    num_buckets: int | None = None,
) -> dict:
    """Incrementally-maintained EQUALITY secondary index on a non-pk
    column: the text-index machinery with the whole raw value as the
    single term (no tokenizing, no case folding).  Same epoch deltas,
    bucket layout, idempotent rewrites, and LWW lookup resolution — an
    updated row's old value gets a tombstone posting, so lookups never
    return stale matches."""
    return sync_text_index(
        lake_root,
        table,
        index_root,
        upto_epoch=upto_epoch,
        text_col=column,
        num_buckets=num_buckets,
        tokenizer=_whole_value_terms,
    )


def lookup_value_rows(
    lake_root: str,
    table: str,
    index_root: str | Path,
    values: list[str],
    *,
    columns: list[str] | None = None,
):
    """Equality lookup through the value index: resolve the CURRENT pk
    set of each probe value (bucket-pruned delta read + LWW fold), then
    fetch the rows via :func:`.cdc.lookup_rows` — which reads ONLY the
    partitions those pks hash to.  Total I/O is O(probed buckets +
    matching partitions) at ANY table size; a full scan touches neither
    the index nor non-matching partitions."""
    from .cdc import lookup_rows

    docs = lookup_term_docs(index_root, [str(v) for v in values])
    pks = sorted(
        {
            r["doc_id"]
            for b in docs.iter_batches(batch_format="pyarrow")
            for r in b.to_pylist()
        }
    )
    if not pks:
        import ray.data
        import pyarrow as pa
        import pyarrow.parquet as pq_
        from ..state.manifest import ManifestStore

        # empty but SCHEMA-TYPED: a zero-column from_items([]) breaks any
        # consumer that compares column sets (the driver gate does) — read
        # one committed file's footer for the real schema, no data
        from .cdc import _pin_read_generation

        store = ManifestStore(lake_root, table)
        meta = _pin_read_generation(store.table_meta())
        files = store.committed_files(meta["generation"], mode=meta["mode"])
        if files:
            sch = pq_.read_schema(Path(lake_root) / files[0])
            names = columns or [
                n for n in sch.names if not n.startswith("_")
            ]
            return ray.data.from_arrow(
                pa.table(
                    {n: pa.array([], type=sch.field(n).type) for n in names}
                )
            )
        return ray.data.from_arrow(pa.table({}))
    return lookup_rows(lake_root, table, pks, columns=columns)


def _tri_hex(raw: bytes) -> list[str]:
    """All byte-trigrams of ``raw`` as 6-hex-char terms (probe side —
    must mirror :func:`_trigram_terms` exactly)."""
    import binascii

    return [
        binascii.hexlify(raw[i : i + 3]).decode("ascii")
        for i in range(len(raw) - 2)
    ]


def _trigram_terms(texts: pa.Array, pattern: str):
    """pg_trgm-style tokenizer: DISTINCT byte trigrams of the lowercased
    text per row (``pattern`` unused — substring identity needs the raw
    byte stream, spaces included), each term encoded as 6 HEX chars.
    Hex encoding is load-bearing, not cosmetic: a numpy 'S3' view
    silently truncates at NUL bytes, and raw trigram bytes can split a
    multi-byte UTF-8 character (invalid as an Arrow string) — hex terms
    are pure ASCII, so every byte pattern round-trips.  Buffer access
    via the designated :func:`functions.text._utf8_view` fast path; the
    trigram gather is one (n, 3) fancy index + one hexlify — no Python
    per-row loop."""
    import binascii

    from ..functions.text import _utf8_view

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    low = pc.utf8_lower(texts)
    data, starts, ends = _utf8_view(low)
    tri_counts = np.maximum(ends - starts - 2, 0)
    total = int(tri_counts.sum())
    if total == 0:
        return (
            pa.array([], type=pa.string()),
            pa.array([], type=pa.int64()),
        )
    rows = np.repeat(np.arange(len(low), dtype=np.int64), tri_counts)
    seg_off = np.concatenate(([0], np.cumsum(tri_counts)[:-1]))
    pos = (
        np.repeat(starts, tri_counts)
        + np.arange(total, dtype=np.int64)
        - np.repeat(seg_off, tri_counts)
    )
    mat = data[pos[:, None] + np.arange(3)]
    hexed = np.frombuffer(
        binascii.hexlify(mat.tobytes()), dtype="S6"
    )
    terms = pa.array(
        np.char.decode(hexed, "ascii"), type=pa.string()
    )
    # distinct (row, trigram)
    t = (
        pa.table({"_p": pa.array(rows), "term": terms})
        .group_by(["_p", "term"])
        .aggregate([])
    )
    return t.column("term"), t.column("_p")


def sync_trigram_index(
    lake_root: str,
    table: str,
    index_root: str | Path,
    *,
    upto_epoch: int,
    text_col: str = "text",
    num_buckets: int | None = None,
) -> dict:
    """Substring-search index (pg_trgm analog): the incrementally-
    maintained text-index machinery with byte-trigram terms, so
    arbitrary ``LIKE '%needle%'`` probes resolve through posting-list
    intersection instead of a corpus scan."""
    return sync_text_index(
        lake_root, table, index_root,
        upto_epoch=upto_epoch, text_col=text_col,
        num_buckets=num_buckets, tokenizer=_trigram_terms,
    )


def substring_search(
    lake_root: str,
    table: str,
    index_root: str | Path,
    needle: str,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int = 16,
):
    """``WHERE lower(text) LIKE '%needle%'`` through the trigram index:
    probe the needle's distinct trigrams (bucket-pruned reads), AND the
    posting sets (a doc qualifies only if it matches EVERY trigram —
    one small (term, doc) exchange), then verify the survivors exactly
    against their CURRENT lake text via the hash-layout point lookup
    (``lookup_rows`` — O(candidate partitions), never a corpus scan).
    Trigram filtering is complete for substring search (every length-≥3
    substring's trigrams are present in any containing text), so
    verify-only-candidates equals the full LIKE scan — the oracle.
    Returns ``(doc_id)`` rows; needles shorter than 3 bytes raise (no
    selective trigram exists — scan instead)."""
    from .cdc import lookup_rows

    # lower the needle with the SAME kernel as the index and verify —
    # Python str.lower() diverges from pc.utf8_lower (Greek final
    # sigma, U+0130), which would produce false negatives vs LIKE
    low = pc.utf8_lower(pa.array([needle]))[0].as_py()
    raw = low.encode("utf-8")
    if len(raw) < 3:
        raise ValueError(
            "substring_search needs a needle of >= 3 bytes; use a scan"
        )
    grams = sorted(set(_tri_hex(raw)))
    postings = lookup_term_docs(
        index_root, grams, num_partitions=num_partitions
    )
    n_terms = len(grams)

    def count_part(batch: pa.Table) -> pa.Table:
        from ..functions.hashing import partition_ids

        g = batch.group_by("doc_id", use_threads=False).aggregate(
            [("term", "count")]
        )
        g = g.rename_columns(["doc_id", "n"])
        parts = partition_ids(g.column("doc_id"), num_partitions)
        return g.append_column("_part", pa.array(parts, type=pa.int64()))

    def and_fold(group: pa.Table) -> pa.Table:
        g = group.group_by("doc_id", use_threads=False).aggregate(
            [("n", "sum")]
        )
        g = g.rename_columns(["doc_id", "n"])
        return g.filter(pc.equal(g.column("n"), n_terms)).select(
            ["doc_id"]
        )

    cand = (
        postings.map_batches(
            count_part, batch_format="pyarrow", batch_size=None
        )
        .groupby("_part")
        .map_groups(and_fold, batch_format="pyarrow")
    )
    cand_ids = sorted(
        r["doc_id"] for r in cand.take_all()
    )  # candidate-sized by the AND filter
    if not cand_ids:
        # empty but SCHEMA-TYPED from a committed file footer — a
        # hardcoded int64 id column would flip the schema on string-pk
        # tables depending on data (the lookup_value_rows convention)
        import ray.data

        from ..state.manifest import ManifestStore

        store = ManifestStore(lake_root, table)
        meta = store.table_meta()
        files = store.committed_files(
            int(meta["generation"]), mode=meta["mode"]
        )
        if files:
            sch = pq.read_schema(Path(lake_root) / files[0])
            id_type = sch.field(id_col).type
        else:
            id_type = pa.int64()
        return ray.data.from_arrow(
            pa.table({id_col: pa.array([], type=id_type)})
        )
    rows = lookup_rows(lake_root, table, cand_ids)

    def verify(batch: pa.Table) -> pa.Table:
        hit = pc.match_substring(
            pc.utf8_lower(batch.column(text_col).combine_chunks()), low
        )
        return batch.filter(pc.fill_null(hit, False)).select([id_col])

    return rows.map_batches(verify, batch_format="pyarrow", batch_size=None)


def compact_index(index_root: str | Path) -> dict:
    """Fold every bucket's delta-file stack into ONE resolved snapshot
    file — the index's maintenance compaction (same role as the lake's
    ``compact_table``): per bucket, resolve last-writer-wins per
    ``(term, doc)`` over epochs ≤ the committed ``last_epoch``, keep the
    alive postings (``present=1``) re-stamped at ``last_epoch``, and
    swap them in for the stack.  Lookups resolve identically before and
    after (test-pinned), later sync epochs append deltas on top (their
    higher epoch outranks the snapshot), and probe reads drop from
    O(epochs) files to 1 per bucket.

    Single-writer maintenance op (like ``vacuum``): the bucket swap is
    write-tmp + ``os.replace`` of the snapshot followed by deletion of
    the superseded delta files, so a crash mid-bucket leaves either the
    old stack or snapshot+stack — both resolve correctly (the snapshot
    re-states the survivors; duplicate (term, doc, epoch) rows tie on
    epoch with equal present values).  Like ``vacuum``, run it in a
    maintenance window: an IN-FLIGHT lookup that already listed a
    bucket's files can race the unlink and fail with FileNotFoundError
    (it retries cleanly; committed state is never at risk).  One Ray
    task per bucket.
    """
    import ray.data

    root = Path(index_root)
    meta = index_meta(root)
    last = int(meta.get("last_epoch", -1))
    if last < 0:
        return {"buckets": 0, "files_removed": 0}
    buckets = sorted(p.name for p in root.glob("bucket=*") if p.is_dir())
    if not buckets:
        return {"buckets": 0, "files_removed": 0}

    def compact_one(batch: pa.Table) -> pa.Table:
        import os as _os
        import tempfile as _tf

        out_b, out_rm = [], []
        for bname in batch.column("bucket").to_pylist():
            bdir = root / bname
            files = [
                f for f in sorted(bdir.glob("epoch-*.parquet"))
                if int(f.stem.split("-")[1]) <= last
            ]
            if len(files) <= 1:
                out_b.append(0)
                out_rm.append(0)
                continue
            t = pa.concat_tables(pq.read_table(f) for f in files)
            idx = pc.sort_indices(
                t,
                sort_keys=[("term", "ascending"), ("doc", "ascending"),
                           ("epoch", "descending")],
            )
            t = t.take(idx)
            terms_np = t.column("term").to_numpy(zero_copy_only=False)
            docs_np = t.column("doc").to_numpy(zero_copy_only=False)
            first = np.ones(t.num_rows, dtype=bool)
            if t.num_rows > 1:
                first[1:] = (terms_np[1:] != terms_np[:-1]) | (
                    docs_np[1:] != docs_np[:-1]
                )
            winners = t.filter(pa.array(first))
            alive = winners.filter(
                pc.equal(winners.column("present"), 1)
            )
            snap = pa.table({
                "term": alive.column("term"),
                "doc": alive.column("doc"),
                "present": alive.column("present"),
                "epoch": pa.array(
                    np.full(alive.num_rows, last, dtype=np.int64)
                ),
            })
            fd, tmp = _tf.mkstemp(dir=bdir, suffix=".tmp")
            _os.close(fd)
            pq.write_table(snap, tmp, compression="zstd")
            _os.replace(tmp, bdir / f"epoch-{last:06d}.parquet")
            removed = 0
            for f in files:
                if f.name != f"epoch-{last:06d}.parquet":
                    f.unlink(missing_ok=True)
                    removed += 1
            out_b.append(1)
            out_rm.append(removed)
        return pa.table({
            "compacted": pa.array(out_b, type=pa.int64()),
            "removed": pa.array(out_rm, type=pa.int64()),
        })

    res = (
        ray.data.from_arrow(
            pa.table({"bucket": pa.array(buckets)})
        )
        .map_batches(compact_one, batch_format="pyarrow", batch_size=4)
        .take_all()
    )
    return {
        "buckets": int(sum(r["compacted"] for r in res)),
        "files_removed": int(sum(r["removed"] for r in res)),
    }
