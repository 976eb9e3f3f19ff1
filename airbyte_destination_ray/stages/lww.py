"""Last-writer-wins merge operators (reference semantics A1/A2/A3).

The reference *declares* LWW upsert via ClickHouse table settings —
``ReplacingMergeTree(ver=cursor)`` with ``ORDER BY pk``
(internal/connector/destination.go:337-351) — and its e2e suite pins the
semantics: per PK keep the row with the greatest version, later arrival wins
ties (e2e/main_test.go:86-105).  Here those semantics are explicit Ray Data
operators:

- :func:`lww_compact` — vectorized Arrow kernel: sort by ``(pk, ver, seq)``,
  keep the last row per key.  Associative + commutative, so it doubles as the
  per-batch **pre-reduce** (combiner) that shrinks shuffle volume before the
  hash partition, and as the hot-key salted sub-partition reducer.
- :func:`make_partitioner` — ``map_batches`` stage assigning
  ``_part = stable_hash(pk) % P`` (+ optional in-batch pre-reduce).
- :func:`make_partition_merger` — the per-partition ``map_groups`` task:
  merge (previous snapshot ∪ incoming changes) and commit it through
  :func:`commit_partition`.
- :func:`commit_partition` — the ONE partition commit: exactly-once probe,
  previous-snapshot lookup, atomic file writes + zone maps, manifest CAS,
  stats row.  Every writer (merger, compaction, cluster, maintained views)
  supplies only its fold.
- :func:`commit_epoch` — the ONE epoch commit: partitioner → ``_part``
  exchange → merger per partition → stats table → S6 checkpoint barrier.
  A Dataset epoch runs the exchange as a Ray Data job; a driver-resident
  Arrow table (an Airbyte flush) is split by :func:`split_by_part` and
  committed in-process.

Tombstones: a delete is a row that *wins* LWW at its ``(ver, seq)`` and
suppresses the key from the read view.  Snapshots **retain** tombstone rows
(``_deleted = true``) so a late-arriving older update cannot resurrect a
deleted key; readers filter them out (``read_table``).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.hashing import partition_ids
from ..state.manifest import ManifestStore, PartitionManifest

SEQ_COLUMN = "_seq"
DELETED_COLUMN = "_deleted"

STATS_SCHEMA = pa.schema(
    [
        pa.field("table", pa.string()),
        pa.field("epoch", pa.int64()),
        pa.field("partition", pa.int64()),
        pa.field("rows", pa.int64()),
        pa.field("bytes", pa.int64()),
        pa.field("files", pa.int64()),
        pa.field("changes_in", pa.int64()),
        pa.field("skipped", pa.bool_()),
        pa.field("digest", pa.string()),
    ]
)


def _pk_list(pk: str | list[str]) -> list[str]:
    return [pk] if isinstance(pk, str) else list(pk)


_PACKED_SCHEMA = pa.schema(
    [pa.field("_part", pa.int64()), pa.field("_ipc", pa.binary())]
)


def ipc_bytes(t: pa.Table) -> bytes:
    """Arrow-IPC wire format for packed exchanges — the single writer half
    of the dataset-write route↔merge contract."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


def ipc_table(b) -> pa.Table:
    """Reader half of :func:`ipc_bytes`."""
    return pa.ipc.open_stream(pa.BufferReader(b)).read_all()


def split_by_part(t: pa.Table, parts: "np.ndarray") -> list[tuple[int, pa.Table]]:
    """Cluster ``t`` by partition id into ``(partition, rows)`` pairs in
    ascending partition order: ONE stable take + zero-copy slices (a filter
    per partition would be O(rows × partitions) — the groupby-per-bucket
    anti-pattern).  Rows keep their input order within a partition."""
    if t.num_rows == 0:
        return []
    order = np.argsort(parts, kind="stable")
    clustered = t.take(pa.array(order, type=pa.int64()))
    sp = parts[order]
    starts = np.nonzero(np.concatenate(([True], sp[1:] != sp[:-1])))[0]
    ends = np.append(starts[1:], len(sp))
    return [
        (int(sp[s]), clustered.slice(int(s), int(e - s)))
        for s, e in zip(starts, ends)
    ]


def pack_by_part(batch: pa.Table, parts: "np.ndarray") -> pa.Table:
    """Serialize one IPC envelope per partition of ``batch`` (see
    :func:`split_by_part`).  Empty batches yield the empty packed table."""
    groups = split_by_part(batch, parts)
    return pa.table(
        {
            "_part": pa.array([p for p, _ in groups], type=pa.int64()),
            "_ipc": pa.array([ipc_bytes(g) for _, g in groups], type=pa.binary()),
        },
        schema=_PACKED_SCHEMA,
    )


def lww_compact(
    table: pa.Table,
    pk: str | list[str],
    ver: str,
    seq: str = SEQ_COLUMN,
    *,
    drop_tombstones: bool = False,
    tombstone_col: str = DELETED_COLUMN,
) -> pa.Table:
    """Keep the winning row per key (single or composite): max ``(ver, seq)``.

    Pure vectorized Arrow/numpy — one multi-key sort + a boundary mask; no
    Python per-row work.  Output is sorted by ``pk`` (deterministic layout,
    required for byte-identical replay).
    """
    if table.num_rows == 0:
        return table
    pks = _pk_list(pk)
    # null versions must LOSE to any real version (nulls sort first, and the
    # winner is the last row per key) — default null_placement would put
    # null-ver rows last, making them win LWW
    idx = pc.sort_indices(
        table,
        sort_keys=[(c, "ascending") for c in pks]
        + [(ver, "ascending"), (seq, "ascending")],
        null_placement="at_start",
    )
    t = table.take(idx)
    last = np.zeros(t.num_rows, dtype=bool)
    last[-1] = True
    if t.num_rows > 1:
        boundary = np.zeros(t.num_rows - 1, dtype=bool)
        for c in pks:
            keys = t.column(c).combine_chunks().to_numpy(zero_copy_only=False)
            boundary |= keys[:-1] != keys[1:]
        last[:-1] = boundary
    t = t.filter(pa.array(last))
    if drop_tombstones and tombstone_col in t.column_names:
        t = t.filter(pc.fill_null(pc.invert(t.column(tombstone_col)), True))
    return t


def changes_to_lake_rows(changes: pa.Table, payload_columns: list[str]) -> pa.Table:
    """Normalize the change envelope ``(seq, epoch, op, payload…)`` to the
    lake row shape ``(payload…, _seq, _deleted)``."""
    cols = {name: changes.column(name) for name in payload_columns}
    cols[SEQ_COLUMN] = changes.column("seq").cast(pa.int64())
    if "op" in changes.column_names:
        cols[DELETED_COLUMN] = pc.equal(changes.column("op"), "D")
    else:
        cols[DELETED_COLUMN] = pa.array(np.zeros(changes.num_rows, dtype=bool))
    return pa.table(cols)


def make_envelope_aligner(
    lake_root: str, table_name: str, src_ver: int, dst_ver: int
) -> Callable[[pa.Table], pa.Table] | None:
    """Batch transform upgrading an epoch's envelope batches written under an
    older schema version to the current one (preserves seq/epoch/op)."""
    if src_ver == dst_ver:
        return None

    def align(batch: pa.Table) -> pa.Table:
        from ..state.registry import SchemaStore

        meta_cols = [c for c in ("seq", "epoch", "op") if c in batch.column_names]
        payload = batch.drop_columns(meta_cols)
        aligned = SchemaStore(lake_root, table_name).align(
            payload, source_version=src_ver, target_version=dst_ver
        )
        for c in meta_cols:
            aligned = aligned.append_column(c, batch.column(c))
        return aligned

    return align


def make_partitioner(
    pk: str | list[str],
    num_partitions: int,
    *,
    ver: str | None = None,
    pre_reduce: bool = True,
    payload_columns: list[str] | None = None,
    enrich: bool = False,
    text_column: str = "text",
    extract_text: bool = False,
    html_column: str = "html",
    pre_transform: Callable[[pa.Table], pa.Table] | None = None,
) -> Callable[[pa.Table], pa.Table]:
    """``map_batches`` stage: envelope → lake rows + ``_part`` routing column.

    With ``pre_reduce`` (merge tables), each batch is LWW-compacted before
    the shuffle — the combiner that collapses hot-key update bursts so the
    all-to-all exchange moves one row per (key, batch) instead of every
    change (SURVEY.md §4 skew/pre-aggregation row).

    With ``enrich``, each surviving row is annotated in-flight with the
    text-analysis columns (``lang_id, quality, n_tokens, fingerprint``) —
    after the pre-reduce, so superseded versions are never annotated.
    """

    def fn(batch: pa.Table) -> pa.Table:
        if pre_transform is not None:
            batch = pre_transform(batch)
        if payload_columns is not None:
            batch = changes_to_lake_rows(batch, payload_columns)
        if pre_reduce and ver is not None:
            batch = lww_compact(batch, pk, ver, SEQ_COLUMN)
        if extract_text:
            # derive the text column from the raw html payload in-flight
            # (north-star invariant: byte-identical extracted text per url;
            # null html — tombstones — stays null text).  After the
            # pre-reduce so superseded versions are never extracted.
            from ..functions.html import extract_text_html

            arr = extract_text_html(batch.column(html_column))
            idx = batch.schema.get_field_index(text_column)
            if idx >= 0:
                batch = batch.set_column(idx, text_column, arr)
            else:
                batch = batch.append_column(text_column, arr)
        if enrich:
            from ..functions.text import enrich_text_columns

            batch = enrich_text_columns(batch, text_column)
        pks = _pk_list(pk)
        if len(pks) == 1:
            parts = partition_ids(batch.column(pks[0]), num_partitions)
        else:
            from ..functions.hashing import composite_partition_ids

            parts = composite_partition_ids(batch, pks, num_partitions)
        return batch.append_column("_part", pa.array(parts, type=pa.int64()))

    return fn


def _table_digest(t: pa.Table) -> str:
    """Deterministic content digest for replay-equivalence checks."""
    h = hashlib.sha256()
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    h.update(sink.getvalue())
    return h.hexdigest()


def stat_encode(v) -> int | float | str | None:
    """Canonical JSON encoding for one zone-map bound: ints/floats/strings
    pass through, temporal values become their STORAGE-UNIT integer (us for
    the lake's timestamp[us] columns, days for date32), bools become 0/1.
    Both the manifest writer and ``read_table(range_filter=…)`` bounds go
    through this, so comparisons happen in one consistent domain."""
    if isinstance(v, pa.Scalar):
        if pa.types.is_timestamp(v.type) or pa.types.is_date(v.type):
            return None if v.as_py() is None else v.value
        v = v.as_py()
    if isinstance(v, bool):
        return int(v)
    if v is None or isinstance(v, (int, float, str)):
        return v
    import datetime

    if isinstance(v, datetime.datetime):
        return pa.scalar(v, type=pa.timestamp("us")).value
    if isinstance(v, datetime.date):
        return pa.scalar(v, type=pa.date32()).value
    raise TypeError(f"unsupported zone-map bound type: {type(v).__name__}")


_STAT_TYPES = (
    pa.types.is_integer, pa.types.is_floating, pa.types.is_timestamp,
    pa.types.is_date, pa.types.is_string, pa.types.is_large_string,
    pa.types.is_boolean,
)


# Long string columns (html/text payloads) are poor zone-map candidates:
# nobody range-filters on them, pc.min_max pays full-column bandwidth, and
# the stored bounds would put multi-KB strings in every manifest.  Skip
# string columns whose average value exceeds this many bytes (cheap O(1)
# check via Arrow buffer sizes); short keys like url/event_type stay.
_STRING_STAT_MAX_AVG_BYTES = 64
# Hard cap on a stored string bound — a column whose min/max exceeds this
# is dropped from the zone map entirely (omitted = unprunable; truncating
# a max bound without incrementing it would be UNSAFE).
_STRING_STAT_MAX_BOUND = 256


def _file_column_stats(t: pa.Table) -> dict:
    """Zone-map entry for one committed file: ``{col: [min, max]}`` over
    primitive columns (nulls skipped; an all-null column records
    ``[None, None]``, which readers may prune for any range predicate).
    Nested/binary columns — and string columns with long payloads, see
    ``_STRING_STAT_MAX_AVG_BYTES`` — are omitted; readers treat missing
    as unprunable."""
    out: dict = {}
    for name in t.column_names:
        typ = t.schema.field(name).type
        if not any(check(typ) for check in _STAT_TYPES):
            continue
        if t.num_rows == 0:
            out[name] = [None, None]
            continue
        col = t.column(name)
        is_str = pa.types.is_string(typ) or pa.types.is_large_string(typ)
        if is_str:
            # value-buffer bytes only (exclude offsets/validity): sum of
            # the last buffer of each chunk — O(chunks), no data pass.
            data_bytes = sum(
                b.size for c in col.chunks for b in (c.buffers()[-1],) if b
            )
            if data_bytes / t.num_rows > _STRING_STAT_MAX_AVG_BYTES:
                continue
        mm = pc.min_max(col)
        lo, hi = stat_encode(mm["min"]), stat_encode(mm["max"])
        if is_str and any(
            isinstance(b, str) and len(b) > _STRING_STAT_MAX_BOUND
            for b in (lo, hi)
        ):
            continue
        out[name] = [lo, hi]
    return out


def _atomic_write_parquet(t: pa.Table, path: Path) -> int:
    """Deterministic parquet bytes via fixed writer settings; tmp + rename so
    a crashed/retried task never leaves a partial file visible."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    os.close(fd)
    pq.write_table(t, tmp, compression="zstd", write_statistics=True)
    size = os.path.getsize(tmp)
    os.replace(tmp, path)
    return size


def _stats_row(
    m: PartitionManifest, *, changes_in: int, skipped: bool
) -> pa.Table:
    return pa.table(
        {
            "table": [m.table],
            "epoch": [m.epoch],
            "partition": [m.partition],
            "rows": [m.row_count],
            "bytes": [m.byte_count],
            "files": [len(m.files)],
            "changes_in": [changes_in],
            "skipped": [skipped],
            "digest": [m.digest],
        },
        schema=STATS_SCHEMA,
    )


def stats_sum(stats: pa.Table, column: str) -> int:
    """Total of one ``STATS_SCHEMA`` column (0 for an empty epoch)."""
    return int(pc.sum(stats.column(column)).as_py() or 0)


def read_files(lake_root: str, files: list[str]) -> pa.Table:
    """Concatenate committed lake files (lake-root-relative paths)."""
    return pa.concat_tables(pq.read_table(Path(lake_root) / f) for f in files)


def commit_partition(
    lake_root: str,
    table: str,
    *,
    generation: int,
    epoch: int,
    partition: int,
    changes_in: int,
    fold: Callable,
    prev: PartitionManifest | None = None,
) -> pa.Table:
    """Commit one (generation, epoch, partition): the ONE place a partition
    manifest is built and CAS-committed.  Returns its ``STATS_SCHEMA`` row.

    Exactly-once: if the manifest already exists (resume, Ray task retry,
    speculative re-execution) this is a no-op that reports the committed
    stats without calling ``fold``; losing the CAS to a concurrent
    duplicate is a no-op too.

    ``fold(prev) -> (pieces, fields)`` computes the new partition state
    from ``prev`` — the partition's winning manifest as of ``epoch - 1``
    (looked up here unless the caller already resolved it) or None.
    ``pieces`` are ``(suffix, table)`` pairs, each written atomically to
    ``gen=G/parts/p=P/eE<suffix>.parquet`` with its zone map; ``fields``
    are the remaining ``PartitionManifest`` fields (row_count, max_seq,
    digest, ...), plus ``keep_files=True`` for a delta commit that stacks
    its pieces on ``prev``'s files (and their zone maps)."""
    store = ManifestStore(lake_root, table)
    existing = store.get(generation, epoch, partition)
    if existing is not None:
        return _stats_row(existing, changes_in=changes_in, skipped=True)
    if prev is None:
        prev = store.latest_snapshot(generation, partition, max_epoch=epoch - 1)
    pieces, fields = fold(prev)
    keep = fields.pop("keep_files", False)
    files = list(prev.files) if keep else []
    file_stats = dict(prev.stats) if keep else {}
    nbytes = 0
    base = f"{table}/gen={generation:04d}/parts/p={partition:05d}/e{epoch:06d}"
    for suffix, t in pieces:
        rel = f"{base}{suffix}.parquet"
        nbytes += _atomic_write_parquet(t, Path(lake_root) / rel)
        file_stats[rel] = _file_column_stats(t)
        files.append(rel)
    m = PartitionManifest(
        table=table, generation=generation, epoch=epoch, partition=partition,
        files=files, byte_count=nbytes, stats=file_stats, **fields,
    )
    store.commit(m)  # CAS: losing to a concurrent duplicate is fine
    return _stats_row(m, changes_in=changes_in, skipped=False)


def commit_epoch(
    store: ManifestStore,
    ds,
    *,
    partitioner: Callable[[pa.Table], pa.Table] | None,
    merger: Callable[[pa.Table], pa.Table],
    generation: int,
    epoch: int,
    checkpoint: dict | None = None,
) -> pa.Table:
    """Commit one epoch: ``partitioner`` routes the rows (None: ``ds``
    already carries ``_part``), they are grouped by ``_part``, ``merger``
    commits each partition; returns the gathered stats rows.

    ``ds`` is either a ``ray.data.Dataset`` — distributed input (binlog
    epochs, repartition, views): each block is routed by ``map_batches``
    and ONE ``groupby("_part").map_groups`` exchange runs the merger — or
    a ``pa.Table`` already on the driver (an Airbyte flush): it is routed,
    split by ``_part`` and committed in-process, partition by partition,
    without a Ray job, whose fixed cost is larger than a small commit's
    merges.  Both run the same ``merger`` (so :func:`commit_partition`)
    per partition and write the same lake.

    With a ``checkpoint`` payload, writes the epoch checkpoint — the S6
    barrier — only after every partition has committed (the stats totals
    ride along).  Without one, the caller owns the barrier (an Airbyte
    flush is checkpointed at the next STATE; the quarantine lane rides its
    main lane's checkpoint)."""
    if isinstance(ds, pa.Table):
        routed = ds if partitioner is None else partitioner(ds)
        parts = routed.column("_part").to_numpy()
        batches = [merger(group) for _, group in split_by_part(routed, parts)]
    else:
        if partitioner is not None:
            # batch_size=None → whole-block zero-copy Arrow batches; bigger
            # batches also sharpen the pre-reduce (more duplicates per batch)
            ds = ds.map_batches(partitioner, batch_format="pyarrow", batch_size=None)
        out = ds.groupby("_part").map_groups(merger, batch_format="pyarrow")
        batches = list(out.iter_batches(batch_format="pyarrow"))
    stats = pa.concat_tables(batches) if batches else STATS_SCHEMA.empty_table()
    if checkpoint is not None:
        store.write_checkpoint(
            generation,
            epoch,
            {
                "partitions": stats.num_rows,
                "changes_in": stats_sum(stats, "changes_in"),
                "rows": stats_sum(stats, "rows"),
                **checkpoint,
            },
        )
    return stats


def _align_lake_table(
    t: pa.Table, lake_root: str, table_name: str, src_ver: int, dst_ver: int
) -> pa.Table:
    """Rewrite a snapshot table from schema version src → dst, preserving
    the engine meta columns (they are outside the registered schema)."""
    if src_ver == dst_ver:
        return t
    from ..state.registry import SchemaStore

    meta_cols = [c for c in (SEQ_COLUMN, DELETED_COLUMN) if c in t.column_names]
    payload = t.drop_columns(meta_cols)
    store = SchemaStore(lake_root, table_name)
    aligned = store.align(payload, source_version=src_ver, target_version=dst_ver)
    for c in meta_cols:
        aligned = aligned.append_column(c, t.column(c))
    return aligned


def make_partition_merger(
    lake_root: str,
    table_name: str,
    *,
    generation: int,
    epoch: int,
    mode: str,
    pk: str | list[str],
    ver: str,
    compute_digest: bool = True,
    schema_version: int = 0,
    strategy: str = "snapshot",
    compact_every: int = 8,
    include_prev: bool = True,
    covers_epoch: int = -1,
) -> Callable[[pa.Table], pa.Table]:
    """Per-partition merge/commit task for ``groupby('_part').map_groups``.

    ``strategy``:

    - ``"snapshot"`` (default): each epoch rewrites the touched partition's
      full compacted snapshot — reads stay trivial, write amplification is
      O(partition size) per touched epoch.
    - ``"delta"`` (LSM-style): each epoch writes ONLY the compacted incoming
      changes as a delta file stacked on the previous file set; when a
      partition accumulates ``compact_every`` files, the task compacts them
      into one snapshot.  Write amplification drops to O(changes) per epoch
      (amortized O(partition/compact_every)); readers LWW-compact the file
      stack per partition (see ``read_table``).  The correct choice at
      10^10-event scale where epochs touch a small fraction of each
      partition's keys.

    Exactly-once and the file/manifest writes are
    :func:`commit_partition`'s; this task supplies only the merge fold.

    The task's input is fully determined by (partition id, epoch changes,
    previous committed snapshot), so re-running it yields byte-identical
    output — the replay-equivalence invariant.
    """

    def merge(group: pa.Table, *, partition: int | None = None) -> pa.Table:
        # partition override: maintenance rewrites (delete_rows) may hand in
        # a 0-row group (every row of the partition removed) where the
        # usual first-row _part probe has nothing to read
        part = (
            partition
            if partition is not None
            else int(group.column("_part")[0].as_py())
        )

        def fold(prev: PartitionManifest | None):
            changes = group.drop_columns(["_part"])
            prev_max_seq = prev.max_seq if prev is not None else -1
            # single source of truth for the delta-commit decision (the
            # written pieces and the kept file set must agree)
            is_delta_commit = bool(
                mode == "append_dedup"
                and strategy == "delta"
                and prev is not None
                and prev.files
                and len(prev.files) + 1 < compact_every
                and prev.schema_version == schema_version  # evolution forces compaction
            )
            if mode in ("append", "overwrite"):
                # A2: keep every event; idempotence on re-delivery via the
                # per-partition seq watermark + in-epoch seq dedup (the raw-id
                # dedup role of destination.go:329-335, keyed by the replay-
                # deterministic seq instead of rescanning committed data).
                changes = changes.filter(
                    pc.greater(changes.column(SEQ_COLUMN), pa.scalar(prev_max_seq))
                )
                idx = pc.sort_indices(changes, sort_keys=[(SEQ_COLUMN, "ascending")])
                changes = changes.take(idx)
                seqs = changes.column(SEQ_COLUMN).to_numpy(zero_copy_only=False)
                if len(seqs) > 1:
                    keep = np.empty(len(seqs), dtype=bool)
                    keep[0] = True
                    keep[1:] = seqs[1:] != seqs[:-1]
                    changes = changes.filter(pa.array(keep))
                merged = changes
                keys_changed = merged.num_rows  # post-seq-dedup event count
            elif is_delta_commit:
                # delta commit: persist only this epoch's compacted changes;
                # the logical partition state is the LWW fold over the stack
                merged = lww_compact(changes, pk, ver, SEQ_COLUMN)
                keys_changed = merged.num_rows
            else:  # append_dedup → full LWW merge (snapshot, or delta compaction)
                # pre-compact this epoch's changes before folding in prev (LWW
                # is associative — hypothesis-pinned — so the merge result is
                # identical) to get the deterministic keys_changed count free
                changes = lww_compact(changes, pk, ver, SEQ_COLUMN)
                keys_changed = changes.num_rows
                pieces = [changes]
                if include_prev and prev is not None and prev.files:
                    # in-flight schema upgrade: snapshots written under an
                    # older registry version are rewritten (add→null-fill,
                    # widen→cast, rename-by-id) before the merge
                    pieces.append(_align_lake_table(
                        read_files(lake_root, prev.files), lake_root,
                        table_name, prev.schema_version, schema_version,
                    ))
                # permissive union by name: prev may lack columns the changes
                # carry (e.g. enrichment enabled later) and vice versa —
                # missing columns null-fill instead of raising
                combined = pa.concat_tables(pieces, promote_options="permissive")
                merged = lww_compact(combined, pk, ver, SEQ_COLUMN)
            max_seq = prev_max_seq
            if merged.num_rows:
                max_seq = max(
                    prev_max_seq, int(pc.max(merged.column(SEQ_COLUMN)).as_py())
                )
            # append manifests are additive (files = only the new file, rows
            # accumulate); a delta stack counts physical rows (the logical
            # count materializes at compaction) and skips the digest
            row_count = merged.num_rows
            if prev is not None and (is_delta_commit or mode != "append_dedup"):
                row_count += prev.row_count
            written = merged.num_rows or mode == "append_dedup"
            return [("", merged)] if written else [], dict(
                keep_files=is_delta_commit,
                row_count=row_count,
                max_seq=max_seq,
                digest=(
                    _table_digest(merged)
                    if compute_digest and not is_delta_commit else ""
                ),
                mode=mode,
                schema_version=schema_version,
                covers_epoch=covers_epoch,
                keys_changed=keys_changed,
            )

        return commit_partition(
            lake_root, table_name, generation=generation, epoch=epoch,
            partition=part, changes_in=group.num_rows, fold=fold,
        )

    return merge
