"""The flagship CDC pipeline: binlog tail → partitioned LWW-merged Parquet lake.

Engine equivalent of the reference's ``write`` command (SURVEY.md §3.1): per
epoch (the STATE-barrier analog, destination.go:402-420):

    read_parquet(epoch's binlog segments)            # parallel, column-pruned
    commit_epoch(store, ds, partitioner, merger):    # stages/lww.py
      → map_batches(partitioner)                     # envelope→lake rows, _part
                                                     #   + per-batch LWW pre-reduce
      → groupby("_part").map_groups(merger)          # hash shuffle; per partition
                                                     #   merge → commit_partition
                                                     #   (manifest CAS, exactly-once)
      → stats table (small)                          # per-partition lineage row
      → checkpoint(epoch)                            # only after all commits

Epochs run sequentially (an epoch is a barrier by definition); everything
within an epoch streams through Ray Data with backpressure, and the heavy
data never touches the driver — merge tasks write snapshots + manifests
directly; only the per-partition stats rows come back.

That holds for epochs larger than ``DRIVER_EPOCH_MAX_BYTES`` (uncompressed,
per the segments' Parquet footers).  A smaller payload-exchange epoch costs
less than a Ray Data job's start-up, so it is committed on the driver: each
segment is read with ``pq.read_table`` and routed whole by the same
partitioner, and ``commit_epoch`` takes the routed ``pa.Table`` in-process —
``split_by_part`` → merger per partition, in partition order — with the same
merger, manifests and bytes.  An Airbyte flush (``pipelines/airbyte_write.py``)
commits the same way.  Each epoch summary names its route.
"""

from __future__ import annotations

import time
from functools import partial
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from ..sources.synth import list_epochs, list_segments
from ..stages.lww import (
    DELETED_COLUMN,
    ENVELOPE_META,
    SEQ_COLUMN,
    _pk_list,
    _table_digest,
    align_schema,
    commit_epoch,
    commit_partition,
    lww_compact,
    make_partition_merger,
    make_partitioner,
    read_files,
    stats_sum,
)
from ..state.manifest import (
    ManifestStore,
    next_lane_epoch,
    resolve_state,
)
from ..state.registry import SchemaStore

PAGES_PAYLOAD = ["url", "warc_ts", "html", "text", "lang"]

# Largest binlog epoch committed on the driver, in uncompressed bytes per the
# segments' Parquet footers (52.8 MB in the footer against 57.2 MB decoded
# for a 100k-event synth segment).  One-epoch syncs on 4 CPUs (enrich +
# extract_text, html_pad=8, 32 partitions, 250k-event segments, best of 3),
# Ray Data job → driver, and the driver's peak RSS:
#   100k events,  53 MB: 0.61 → 0.32 s, 187 → 372 MB
#   250k events, 131 MB: 1.31 → 0.77 s, 187 → 609 MB
#   500k events, 263 MB: 2.31 → 1.39 s, 188 → 654 MB
#   1M events,   526 MB: 4.73 → 3.42 s, 189 → 654 MB
# The driver was faster at every size, so memory, not speed, sets the bound:
# the driver holds one decoded segment plus the pre-reduced rows so far.
DRIVER_EPOCH_MAX_BYTES = 256 << 20


def run_cdc_sync(
    lake_root: str,
    binlog_dir: str,
    *,
    table: str = "pages",
    pk: str = "url",
    ver: str = "warc_ts",
    mode: str = "append_dedup",
    num_partitions: int = 32,
    payload_columns: list[str] | None = None,
    epochs: list[int] | None = None,
    resume: bool = True,
    compute_digest: bool = True,
    enrich: bool = False,
    extract_text: bool = False,
    epoch_schema_versions: dict[int, int] | None = None,
    merge_strategy: str = "snapshot",
    compact_every: int = 8,
    shuffle: str = "payload",
    key_only_max_winners: int = 20_000_000,
    expectations: list[tuple] | None = None,
) -> dict:
    """Run (or resume) a sync of the binlog into the lake table.

    Returns a summary with per-epoch stats. Safe to re-run: committed
    (epoch, partition) pairs are no-ops; completed epochs are skipped via the
    checkpoint log.

    ``shuffle``:

    - ``"payload"`` (default): change rows flow through the hash exchange
      whole.  Right when most changes are distinct keys (little cross-batch
      redundancy to exploit).
    - ``"key_only"``: two-pass merge for WIDE payloads (SURVEY §7 hard-point
      (c) — Common-Crawl ``html`` is ~100 KB/row while the merge key is
      ~100 B).  Pass 1 reads ONLY ``(seq, pk, ver)`` (Parquet column
      pruning — the payload bytes never leave storage) and LWW-selects the
      winning ``seq`` per key; pass 2 re-reads the epoch, drops losing rows
      BEFORE the wide exchange, so superseded html/text versions are never
      shuffled, enriched, or merged.  The winner set is one int64 per key
      touched this epoch — broadcast once via ``ray.put`` and read
      zero-copy per task (per node on a cluster); epoch sizing bounds it
      exactly like it bounds the merge state, and ``key_only_max_winners``
      enforces the bound — an epoch whose winner set exceeds it (default
      20M seqs ≈ 160 MB broadcast) falls back to the payload shuffle for
      that epoch instead of building an unbounded driver allocation.  Also
      falls back for epochs needing in-flight schema alignment (renames may
      touch the key columns themselves).  Each fresh epoch's summary names
      the exchange it actually ran: ``"shuffle": "key_only" | "payload"``.

    A payload-exchange epoch without ``expectations`` whose segments hold at
    most ``DRIVER_EPOCH_MAX_BYTES`` (uncompressed, per their footers) is
    committed on the driver, one segment read and pre-reduced at a time;
    every other epoch runs a Ray Data job.  The summary names the route:
    ``"route": "driver" | "ray"``.  Both routes write the same files and
    manifests; ``changes_in`` — the rows entering the merge, in the summary
    and the checkpoint — is route-dependent: Ray's reader may cut one
    segment into several blocks, each pre-reduced on its own, so more rows
    reach the merge than when the segment is pre-reduced whole.
    """
    if shuffle not in ("payload", "key_only"):
        raise ValueError(f"shuffle must be payload|key_only, got {shuffle!r}")
    payload_override = payload_columns
    store = ManifestStore(lake_root, table)
    store.root.mkdir(parents=True, exist_ok=True)
    meta = store.init_table(
        num_partitions=num_partitions,
        mode=mode,
        pk=[pk],
        cursor=ver,
        merge_strategy=merge_strategy,
        compact_every=compact_every,
    )
    num_partitions = meta["num_partitions"]
    merge_strategy = meta.get("merge_strategy", "snapshot")
    compact_every = meta.get("compact_every", 8)
    generation = meta["generation"]
    if mode == "overwrite" and not resume:
        # A3: overwrite starts a fresh generation — the metadata flip that
        # replaces the reference's delete-all-rows job (destination.go:198-241)
        generation = store.bump_generation()

    all_epochs = epochs if epochs is not None else list_epochs(binlog_dir)
    ckpt = store.last_checkpoint(generation) if resume else None
    start_after = ckpt["epoch"] if ckpt else -1

    epoch_summaries = []
    total_changes = 0
    for e in all_epochs:
        if e <= start_after:
            epoch_summaries.append({"epoch": e, "skipped": True})
            continue
        t_epoch = time.perf_counter()
        segments = list_segments(binlog_dir, e)
        if not segments:
            continue
        # schema evolution (north rule): the epoch is pinned to the current
        # registry version; segments written under older versions are aligned
        # in-flight (add → null-fill, widen → cast, rename-by-id → rename)
        schema_store = SchemaStore(lake_root, table)
        target_version = (
            schema_store.current_version() if schema_store.exists() else 0
        )
        src_version = (
            epoch_schema_versions.get(e, target_version)
            if epoch_schema_versions
            else target_version
        )
        if payload_override is not None:
            payload_columns = payload_override
        elif schema_store.exists():
            # payload = the registered schema of this epoch's target version
            payload_columns = list(schema_store.get(target_version).schema.names)
        else:
            payload_columns = PAGES_PAYLOAD
        quarantined = 0
        if expectations:
            # Data-quality gate (Delta-Live-Tables shape, ops.validate_rows
            # kernel): upsert rows failing a rule are EXCLUDED from the
            # merge (the previous valid version keeps winning) and land in
            # the co-partitioned append table `<table>__quarantine` tagged
            # with the first failed rule; tombstones carry no payload and
            # always pass.  Both lanes commit through the same manifest
            # CAS, so replays stay exactly-once.
            quarantined = _commit_quarantine_epoch(
                lake_root,
                table,
                segments,
                epoch=e,
                rules=expectations,
                pk=pk,
                ver=ver,
                num_partitions=num_partitions,
                payload_columns=payload_columns,
            )
        winners = None
        if (
            shuffle == "key_only"
            and mode == "append_dedup"
            and src_version == target_version
            # winner selection reads only key columns and cannot evaluate
            # payload expectations — a quarantined winner must not filter
            # out its older valid loser, so the gate forces payload shuffle
            and not expectations
        ):
            # None = over the broadcast budget → payload shuffle for this
            # epoch (correct either way; key_only is purely an
            # exchange-volume optimization)
            winners = _epoch_winner_seqs(
                segments, pk=pk, ver=ver, num_partitions=num_partitions,
                max_winners=key_only_max_winners,
            )
        epoch_shuffle = "payload" if winners is None else "key_only"
        partitioner = make_partitioner(
            pk,
            num_partitions,
            ver=ver,
            pre_reduce=(mode == "append_dedup"),
            payload_columns=payload_columns,
            enrich=enrich,
            extract_text=extract_text,
            pre_transform=partial(
                align_schema, lake_root=lake_root, table_name=table,
                src_ver=src_version, dst_ver=target_version,
                meta_columns=ENVELOPE_META,
            ),
        )
        merger = make_partition_merger(
            lake_root,
            table,
            generation=generation,
            epoch=e,
            mode=mode,
            pk=pk,
            ver=ver,
            compute_digest=compute_digest,
            schema_version=target_version,
            strategy=merge_strategy,
            compact_every=compact_every,
        )
        on_driver = (
            epoch_shuffle == "payload"
            and not expectations
            and _uncompressed_bytes(segments) <= DRIVER_EPOCH_MAX_BYTES
        )
        if on_driver:
            # one segment at a time: the driver holds one decoded segment
            # plus the routed, pre-reduced output of the ones before it
            epoch_input = pa.concat_tables(
                [partitioner(pq.read_table(seg)) for seg in segments],
                promote_options="permissive",
            )
        else:
            epoch_input = _epoch_dataset(segments, expectations, winners)
        stats_t = commit_epoch(
            store, epoch_input,
            partitioner=None if on_driver else partitioner, merger=merger,
            generation=generation, epoch=e,
            checkpoint={"segments": [str(Path(s).name) for s in segments]},
        )
        changes = stats_sum(stats_t, "changes_in")
        total_changes += changes
        epoch_summary = {
            "epoch": e,
            "skipped": False,
            "partitions": stats_t.num_rows,
            "changes_in": changes,
            "rows": stats_sum(stats_t, "rows"),
            "shuffle": epoch_shuffle,
            "route": "driver" if on_driver else "ray",
            "wall_sec": round(time.perf_counter() - t_epoch, 3),
        }
        if expectations:
            epoch_summary["quarantined"] = quarantined
        epoch_summaries.append(epoch_summary)

    return {
        "table": table,
        "generation": generation,
        "mode": mode,
        "epochs": epoch_summaries,
        "total_changes": total_changes,
    }


def _uncompressed_bytes(segments: list[str]) -> int:
    """Uncompressed size of the segments' row groups, from their footers
    only — what the route choice can see before any data is read."""
    total = 0
    for seg in segments:
        md = pq.read_metadata(seg)
        total += sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))
    return total


def _epoch_dataset(segments: list[str], expectations, winners):
    """The Ray Data input of a binlog epoch: its segments, minus the rows
    the expectations quarantine, minus the key_only pass-1 losers."""
    # Block sizing: one read task per segment file.  Ray's default read
    # splitting targets ≥200 blocks, which at small epoch sizes yields
    # thousands of ~5k-row tasks whose scheduling overhead dominates
    # (measured 4× slower); forcing MORE blocks than files makes tasks
    # re-decode shared row groups (measured 3× slower).  The reader may
    # still cut one file into several blocks, each pre-reduced on its own.
    ds = ray.data.read_parquet(segments, override_num_blocks=len(segments))
    if expectations:
        from .ops import first_failed_rule

        def keep_valid(batch: pa.Table) -> pa.Table:
            idx = first_failed_rule(batch, expectations)
            is_del = pc.equal(batch.column("op"), "D").to_numpy(
                zero_copy_only=False
            )
            return batch.filter(pa.array((idx == -1) | is_del))

        ds = ds.map_batches(keep_valid, batch_format="pyarrow", batch_size=None)
    if winners is not None:
        from .relational import semi_join

        # broadcast membership filter: keep only rows whose seq won pass 1
        ds = semi_join(ds, winners, on="seq")
    return ds


def apply_changes(
    lake_root: str,
    table: str,
    changes,
    *,
    pk: str = "url",
    ver: str = "warc_ts",
    op_col: str | None = "op",
    payload_columns: list[str] | None = None,
    num_partitions: int = 32,
    mode: str = "append_dedup",
    epoch: int | None = None,
    compute_digest: bool = True,
) -> dict:
    """MERGE INTO analog: apply a computed Dataset of upserts/deletes to a
    lake table as ONE new epoch — the binlog-free mutation surface (the
    reference's per-request POST body, re-expressed as a set-oriented
    merge).  ``changes`` carries the payload columns plus, optionally, an
    ``op_col`` ('U'/'I' upsert, 'D' delete; absent → all upserts).

    Rows are assigned a deterministic synthetic seq
    ``(epoch+1)·2⁴⁰ + stable_hash(pk)·mod 2⁴⁰`` — batch-composition
    independent, monotone across epochs (so append-mode watermarks hold),
    and unique per key within the epoch, which makes LWW against existing
    rows well-defined: an applied change with a version EQUAL to the
    stored row's wins on seq (MERGE overwrite semantics).  Two source
    rows with the same (pk, ver) in one apply are a caller error (the
    standard SQL MERGE 'cannot update the same row twice' contract) and
    resolve in unspecified order.

    ``epoch=None`` auto-assigns the next epoch after the last checkpoint —
    each call is a new merge.  Pass an explicit ``epoch`` for replay
    safety: committed (epoch, partition) pairs are CAS no-ops, so a
    crashed apply can be re-run with the same epoch id and the same
    change set to complete exactly-once.

    Distribution shape: identical to the sync path — per-batch LWW
    pre-reduce, one hash exchange, per-partition Arrow merge + manifest
    CAS; nothing driver-side but the tiny stats fold.
    """
    import numpy as np

    from ..functions.hashing import stable_hash_array

    store = ManifestStore(lake_root, table)
    store.root.mkdir(parents=True, exist_ok=True)
    meta = store.init_table(
        num_partitions=num_partitions, mode=mode, pk=[pk], cursor=ver
    )
    num_partitions = meta["num_partitions"]
    generation = meta["generation"]
    if epoch is None:
        ckpt = store.last_checkpoint(generation)
        epoch = (int(ckpt["epoch"]) + 1) if ckpt else 0
    if payload_columns is None:
        schema_store = SchemaStore(lake_root, table)
        if schema_store.exists():
            payload_columns = list(
                schema_store.get(schema_store.current_version()).schema.names
            )
        else:
            # derive from the changes schema (executes the upstream
            # pipeline to its first block — pass payload_columns to keep
            # a derived input fully streaming)
            payload_columns = [
                c for c in changes.schema().names if c != op_col
            ]
    target_version = _target_version(lake_root, table, ())
    e = int(epoch)
    seq_base = np.int64((e + 1) << 40)

    def to_envelope(batch: pa.Table) -> pa.Table:
        cols = {c: batch.column(c) for c in payload_columns}
        h = stable_hash_array(batch.column(pk))
        seq = (
            seq_base
            + (h % np.uint64(1 << 40)).astype(np.int64)
        )
        cols["seq"] = pa.array(seq)
        if op_col is not None and op_col in batch.column_names:
            cols["op"] = batch.column(op_col)
        else:
            cols["op"] = pa.array(["U"] * batch.num_rows, type=pa.string())
        return pa.table(cols)

    env = changes.map_batches(
        to_envelope, batch_format="pyarrow", batch_size=None
    )
    partitioner = make_partitioner(
        pk,
        num_partitions,
        ver=ver,
        pre_reduce=(mode == "append_dedup"),
        payload_columns=payload_columns,
    )
    merger = make_partition_merger(
        lake_root,
        table,
        generation=generation,
        epoch=e,
        mode=mode,
        pk=pk,
        ver=ver,
        compute_digest=compute_digest,
        schema_version=target_version,
        strategy=meta.get("merge_strategy", "snapshot"),
        compact_every=meta.get("compact_every", 8),
    )
    stats_t = commit_epoch(
        store, env, partitioner=partitioner, merger=merger,
        generation=generation, epoch=e,
        checkpoint={"segments": ["<apply_changes>"]},
    )
    return {
        "table": table,
        "generation": generation,
        "epoch": e,
        "partitions": stats_t.num_rows,
        "changes_in": stats_sum(stats_t, "changes_in"),
        "rows": stats_sum(stats_t, "rows"),
    }


def tail_binlog(
    lake_root: str,
    binlog_dir: str,
    *,
    poll_interval: float = 1.0,
    max_idle_polls: int = 3,
    on_epoch=None,
    compact_every_epochs: int | None = None,
    vacuum_after_compact: bool = False,
    **sync_kwargs,
) -> dict:
    """Continuously tail the binlog: poll for epochs newer than the last
    checkpoint, sync each as it appears, stop after ``max_idle_polls``
    consecutive polls with no new epoch (a live deployment would poll
    forever; the bound makes the loop testable and job-submittable).

    This is the long-running ``ray job submit`` shape of the engine: the
    driver loop is control-plane only — every data-plane step inside
    ``run_cdc_sync`` streams through Ray Data.  Resume semantics are
    inherited: killing and restarting the tailer picks up from the last
    committed checkpoint, and re-delivered epochs are no-ops.

    ``compact_every_epochs``: for delta-strategy tables, fold every
    partition's file stack after that many freshly-synced epochs (on top of
    the merger's own per-partition ``compact_every`` bound) — the steady-
    state maintenance loop a long-running tailer owns.
    ``vacuum_after_compact``: reclaim the files each compaction leaves
    unreferenced (``ManifestStore.vacuum``) — safe here because the tailer
    owns the table exclusively between polls.
    """
    idle = 0
    synced: list[int] = []
    compactions = 0
    since_compact = 0
    table = sync_kwargs.get("table", "pages")
    while idle < max_idle_polls:
        summary = run_cdc_sync(lake_root, binlog_dir, resume=True, **sync_kwargs)
        fresh = [e for e in summary["epochs"] if not e.get("skipped")]
        if fresh:
            idle = 0
            for e in fresh:
                synced.append(e["epoch"])
                if on_epoch is not None:
                    on_epoch(e)
            since_compact += len(fresh)
            if (
                compact_every_epochs
                and since_compact >= compact_every_epochs
            ):
                if compact_table(lake_root, table).get("compacted_partitions"):
                    compactions += 1
                    if vacuum_after_compact:
                        ManifestStore(lake_root, table).vacuum()
                since_compact = 0
        else:
            idle += 1
            time.sleep(poll_interval)
    return {
        "table": table,
        "epochs_synced": synced,
        "compactions": compactions,
    }


def _epoch_winner_seqs(
    segments: list[str],
    *,
    pk: str | list[str],
    ver: str,
    num_partitions: int,
    max_winners: int | None = None,
):
    """Pass 1 of the key-only shuffle: LWW over ONLY the key columns →
    sorted array of winning ``seq`` values for this epoch.

    Reads ``(seq, pk, ver)`` with Parquet column projection (the wide
    payload never leaves storage), pre-reduces per batch, and resolves
    cross-batch winners with the usual hash-partition reduce.  The result is
    one int64 per key touched this epoch — the small side that pass 2
    broadcasts.
    """
    import numpy as np

    from ..functions.hashing import composite_partition_ids, partition_ids

    pks = [pk] if isinstance(pk, str) else list(pk)
    key_cols = pks + ([ver] if ver not in pks else [])
    read_cols = list(dict.fromkeys(["seq"] + key_cols))
    ds = ray.data.read_parquet(
        segments, columns=read_cols, override_num_blocks=len(segments)
    )

    def route(batch: pa.Table) -> pa.Table:
        cols = {c: batch.column(c) for c in key_cols}
        cols[SEQ_COLUMN] = batch.column("seq").cast(pa.int64())
        t = pa.table(cols)
        t = lww_compact(t, pks, ver, SEQ_COLUMN)
        if len(pks) == 1:
            parts = partition_ids(t.column(pks[0]), num_partitions)
        else:
            parts = composite_partition_ids(t, pks, num_partitions)
        return t.append_column("_part", pa.array(parts, type=pa.int64()))

    def winners(group: pa.Table) -> pa.Table:
        g = lww_compact(group.drop_columns(["_part"]), pks, ver, SEQ_COLUMN)
        return g.select([SEQ_COLUMN])

    # own exchange, not commit_epoch: pass 1 selects winners, commits nothing
    out = (
        ds.map_batches(route, batch_format="pyarrow", batch_size=None)
        .groupby("_part")
        .map_groups(winners, batch_format="pyarrow")
    )
    chunks, total = [], 0
    for b in out.iter_batches(batch_format="pyarrow"):
        arr = b.column(SEQ_COLUMN).to_numpy(zero_copy_only=False)
        total += len(arr)
        if max_winners is not None and total > max_winners:
            # bail before the driver holds an unbounded winner array; the
            # caller falls back to the payload shuffle for this epoch
            return None
        chunks.append(arr)
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(chunks))


def _prune_files_by_stats(triples, range_filter) -> list[tuple[str, int]]:
    """Zone-map file pruning: drop (file, version, stats) entries whose
    recorded ``[min, max]`` for the filtered column cannot intersect
    ``[lo, hi]``.  Missing stats (pre-zone-map manifests, compaction
    rewrites, nested columns) keep the file — pruning is only ever an
    optimization, never a correctness dependency.  An all-null column
    (``[None, None]``) can never satisfy a range predicate → pruned."""
    from ..stages.lww import stat_encode

    col, lo, hi = range_filter
    lo = stat_encode(lo)
    hi = stat_encode(hi)
    kept: list[tuple[str, int]] = []
    for f, v, st in triples:
        if st is None or col not in st:
            kept.append((f, v))
            continue
        mn, mx = st[col]
        if mn is None and mx is None:
            continue  # all-null column: no row can match a range
        if lo is not None and mx is not None and mx < lo:
            continue
        if hi is not None and mn is not None and mn > hi:
            continue
        kept.append((f, v))
    return kept


def _range_filter_batch(batch: pa.Table, col: str, lo, hi) -> pa.Table:
    """Exact vectorized ``lo <= col <= hi`` row filter (SQL BETWEEN
    semantics: null values never match; either bound may be None)."""
    c = batch.column(col)
    mask = None
    if lo is not None:
        mask = pc.greater_equal(c, pa.scalar(lo, type=c.type))
    if hi is not None:
        m2 = pc.less_equal(c, pa.scalar(hi, type=c.type))
        mask = m2 if mask is None else pc.and_(mask, m2)
    if mask is None:
        return batch
    return batch.filter(pc.fill_null(mask, False))


def _pin_read_generation(meta: dict, *, staging: bool = False) -> dict:
    """Write-audit-publish read pinning: while a staged generation exists
    (``published_generation`` set by :func:`wap_begin`), every reader sees
    the PUBLISHED generation; ``staging=True`` is the audit view over the
    staged (active-writer) generation.  Returns a copy — table meta on disk
    is never mutated by readers."""
    pub = meta.get("published_generation")
    if staging or pub is None:
        return meta
    m = dict(meta)
    m["generation"] = int(pub)
    return m


# -- the read path: plan_read → read_piece ---------------------------------
#
# A read PIECE is one manifest's file set: {partition, files, schema_version,
# covers_epoch, stack}.  ``plan_read`` turns table state into pieces (the
# change feed wraps the two manifests it diffs with the same ``_piece``);
# ``read_piece`` is the only code that turns a piece into visible rows.
# Scans, lookups, time travel, the driver-side read, the change feed and
# the co-partitioned join all run through these two.


def _piece(m, *, with_stats: bool = False) -> dict:
    piece = {
        "partition": m.partition,
        "files": list(m.files),
        "schema_version": m.schema_version,
        "covers_epoch": m.effective_epoch,
    }
    if with_stats:
        piece["stats"] = m.stats
    return piece


def _delta_partition_stacks(
    store: ManifestStore, meta: dict, *, max_epoch: int | None = None,
    partitions=None, with_stats: bool = False,
) -> list[dict]:
    """Winning manifest per partition → one piece per partition (its
    snapshot file set, or its delta stack).  ``max_epoch`` = the state as
    of that source epoch (time travel); ``partitions`` = only those
    partitions' manifests are read; ``with_stats`` adds the manifest's
    per-file zone maps under ``stats``."""
    state = store.table_state(
        meta["generation"], max_epoch=max_epoch, partitions=partitions
    )
    return [
        _piece(m, with_stats=with_stats)
        for _, m in sorted(state.items())
        if m.files
    ]


def plan_read(
    store: ManifestStore,
    meta: dict,
    *,
    partitions=None,
    max_epoch: int | None = None,
    range_filter: tuple | None = None,
) -> list[dict]:
    """Read plan of the table state in ``meta``'s generation: one piece per
    winning manifest of a keyed (``append_dedup``) table — ``stack`` marks
    a delta stack that must be LWW-folded — or one piece per manifest of an
    additive (append/overwrite) table, in ``(partition, epoch)`` order.

    ``range_filter`` = ``(col, lo, hi)`` prunes the files of snapshot and
    additive pieces by the manifests' zone maps (:func:`_prune_files_by_stats`);
    stacks are never pruned — a key's winning version may sit in any file
    of its stack.  When the zone maps prune every file, one file is kept:
    the exact row filter empties it, and the read still carries the
    table's columns."""
    with_stats = range_filter is not None
    keyed = meta["mode"] == "append_dedup"
    stack = keyed and meta.get("merge_strategy") == "delta"
    if keyed:
        pieces = _delta_partition_stacks(
            store, meta, max_epoch=max_epoch, partitions=partitions,
            with_stats=with_stats,
        )
    else:
        manifests = sorted(
            store._iter_manifests(meta["generation"], partitions),
            key=lambda m: (m.partition, m.epoch),
        )
        pieces = [
            _piece(m, with_stats=with_stats)
            for m in manifests
            if m.files and (max_epoch is None or m.effective_epoch <= max_epoch)
        ]
    first_file = pieces[0]["files"][:1] if pieces else []
    for p in pieces:
        p["stack"] = stack
        stats = p.pop("stats", None)
        if with_stats and not stack:
            p["files"] = [
                f for f, _ in _prune_files_by_stats(
                    [(f, None, stats.get(f)) for f in p["files"]], range_filter
                )
            ]
    kept = [p for p in pieces if p["files"]]
    if pieces and not kept:
        kept = [dict(pieces[0], files=first_file)]
    return kept


def read_piece(
    lake_root: str,
    table: str,
    piece: dict,
    *,
    pk: str | list[str],
    ver: str | None,
    target_version: int,
    columns: list[str] | None = None,
    keys: pa.Array | None = None,
    range_filter: tuple | None = None,
    include_deleted: bool = False,
    include_meta: bool = False,
) -> pa.Table:
    """Visible rows of one read piece, pure Arrow.  In order:

    1. read the files — with ``columns``, only those plus pk, cursor,
       ``_seq``, ``_deleted`` and the range column leave Parquet (a piece
       that needs alignment reads everything: renames may map a requested
       name to another physical column);
    2. align to schema version ``target_version``;
    3. keep only ``keys`` (pk values) — before the fold, which is exact
       because LWW is per key, and shrinks the fold to the wanted keys;
    4. LWW-fold if the piece is a delta stack;
    5. exact ``range_filter`` (after the fold: it must not change winners);
    6. drop tombstones unless ``include_deleted``;
    7. drop ``_seq``/``_deleted`` unless ``include_meta``;
    8. select ``columns``.

    Filtering before the select keeps pk and the range column readable
    even when ``columns`` omits them."""
    import pyarrow.parquet as pq

    src_version = piece["schema_version"]
    want = None
    if columns and src_version == target_version:
        extra = [*_pk_list(pk), ver, SEQ_COLUMN, DELETED_COLUMN]
        if range_filter is not None:
            extra.append(range_filter[0])
        want = list(dict.fromkeys(c for c in [*columns, *extra] if c))
    tabs = []
    for f in piece["files"]:
        with pq.ParquetFile(Path(lake_root) / f) as pf:
            names = pf.schema_arrow.names
            tabs.append(
                pf.read(columns=None if want is None else [c for c in want if c in names])
            )
    t = align_schema(
        pa.concat_tables(tabs), lake_root, table, src_version, target_version
    )
    if keys is not None:
        col = t.column(_pk_list(pk)[0])
        t = t.filter(pc.fill_null(pc.is_in(col, value_set=keys.cast(col.type)), False))
    if piece.get("stack"):
        t = lww_compact(t, pk, ver, SEQ_COLUMN)
    if range_filter is not None:
        t = _range_filter_batch(t, *range_filter)
    if not include_deleted and DELETED_COLUMN in t.column_names:
        t = t.filter(pc.fill_null(pc.invert(t.column(DELETED_COLUMN)), True))
    if not include_meta:
        t = t.drop_columns(
            [c for c in (SEQ_COLUMN, DELETED_COLUMN) if c in t.column_names]
        )
    if columns:
        t = t.select(columns)
    return t


def _compact_stack(
    lake_root: str,
    table: str,
    row: dict,
    *,
    pk: str,
    ver: str,
    columns: list[str] | None = None,
    include_deleted: bool = False,
    include_meta: bool = False,
) -> pa.Table:
    # kept by name for perfbench's traced lookup replay, which calls it
    return read_piece(
        lake_root, table, dict(row, stack=True), pk=pk, ver=ver,
        target_version=row["schema_version"], columns=columns,
        include_deleted=include_deleted, include_meta=include_meta,
    )


def _target_version(lake_root, table: str, versions) -> int:
    """Schema version a read or lane rewrite aligns to: the REGISTRY's
    current version, not the newest piece's — a lookup touching only
    partitions untouched since v0 must still read v-current columns.
    Without a registry, the highest of ``versions``."""
    schema_store = SchemaStore(str(lake_root), table)
    if schema_store.exists():
        return schema_store.current_version()
    return max(versions, default=0)


def _piece_reader(lake_root, table: str, meta: dict, pieces: list[dict], **opts):
    """:func:`read_piece` bound to one plan's table-wide arguments."""
    return partial(
        read_piece, str(lake_root), table, pk=meta["pk"], ver=meta.get("cursor"),
        target_version=_target_version(
            lake_root, table, (p["schema_version"] for p in pieces)
        ),
        **opts,
    )


def _cluster_cpus() -> int:
    """CPUs of the cluster a Dataset runs on; before Ray is up, this
    process's CPUs (what Ray Data's automatic local start registers)."""
    import os

    if ray.is_initialized():
        return max(1, int(ray.cluster_resources().get("CPU", 1)))
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _read_pieces(lake_root: str, table: str, meta: dict, pieces: list[dict], **opts):
    """Dataset over ``read_piece`` of every piece: one piece per map call,
    at most one input block per cluster CPU (more blocks than CPUs only
    adds task launches; fewer leaves CPUs idle)."""
    if not pieces:
        return ray.data.from_arrow(pa.table({}))
    read = _piece_reader(lake_root, table, meta, pieces, **opts)
    return ray.data.from_items(
        pieces, override_num_blocks=min(len(pieces), _cluster_cpus())
    ).map_batches(
        lambda b: pa.concat_tables([read(p) for p in b.to_pylist()]),
        batch_format="pyarrow",
        batch_size=1,
    )


def read_table(
    lake_root: str,
    table: str,
    *,
    columns: list[str] | None = None,
    include_deleted: bool = False,
    include_meta: bool = False,
    partitions=None,
    as_of_epoch: int | None = None,
    range_filter: tuple | None = None,
    staging: bool = False,
):
    """Dataset over the committed table state (read view): :func:`plan_read`
    pieces, each read by :func:`read_piece` in a Ray task.

    Tombstone rows are filtered out; ``_seq``/``_deleted`` meta columns are
    dropped unless requested.  ``columns`` is pushed down into the Parquet
    reads.  ``partitions`` (set of partition ids) prunes the scan to those
    partitions via the manifests — the I/O primitive behind
    :func:`lookup_rows`.

    ``as_of_epoch`` = TIME TRAVEL: the table state as of that committed
    source epoch (manifests covering newer epochs are ignored — the
    manifest log is the snapshot index, no data copies).  Works for both
    merge strategies; history lives within the active generation and only
    until ``vacuum`` reclaims superseded files.

    ``range_filter`` = ``(col, lo, hi)`` (either bound may be None): rows
    with ``lo <= col <= hi``; ``col`` need not be in ``columns``.  Files
    whose manifest zone map (per-file column min/max recorded at commit —
    the manifest IS the index, no footer reads) cannot intersect the range
    are pruned from the scan entirely; surviving files get an exact
    vectorized row filter.  On append tables with a commit-correlated
    column (event ids, timestamps) a narrow range touches only its own
    epochs' files.  Delta-strategy stacks skip the FILE pruning (a key's
    winning version may sit in any stack file — pruning pre-merge would
    change winners) and apply only the exact post-merge row filter.

    ``staging`` = the write-audit-publish AUDIT view: read the staged
    generation instead of the published one (no-op outside a WAP window).
    """
    store = ManifestStore(lake_root, table)
    meta = _pin_read_generation(store.table_meta(), staging=staging)
    pieces = plan_read(
        store, meta, partitions=partitions, max_epoch=as_of_epoch,
        range_filter=range_filter,
    )
    return _read_pieces(
        lake_root, table, meta, pieces, columns=columns,
        range_filter=range_filter, include_deleted=include_deleted,
        include_meta=include_meta,
    )


def read_table_arrow(
    lake_root: str,
    table: str,
    *,
    include_deleted: bool = False,
    include_meta: bool = False,
    staging: bool = False,
    as_of_epoch: int | None = None,
) -> pa.Table:
    """Driver-side full read — tests/small results only: the same pieces
    as :func:`read_table`, read in a loop.

    Keyword-explicit on purpose: an earlier ``**kw`` signature silently
    ignored unknown options, so ``as_of_epoch=`` returned the FULL state
    instead of the time-travel snapshot (caught by the rollback_table
    equivalence test)."""
    store = ManifestStore(lake_root, table)
    meta = _pin_read_generation(store.table_meta(), staging=staging)
    pieces = plan_read(store, meta, max_epoch=as_of_epoch)
    if not pieces:
        return pa.table({})
    read = _piece_reader(
        lake_root, table, meta, pieces,
        include_deleted=include_deleted, include_meta=include_meta,
    )
    return pa.concat_tables([read(p) for p in pieces])


# -- lane rewrites: compact_table, cluster_table, delete_rows --------------


def _commit_lane(
    lake_root: str,
    table: str,
    generation: int,
    state: dict,
    rewrite,
    *,
    rows_per_file: int | None = None,
) -> tuple[int, pa.Table]:
    """Rewrite each partition of ``state`` (partition → its winning
    manifest, as ``table_state`` resolved it) in ONE new compaction-lane
    epoch — the one commit path of every lane writer.

    One Ray task per partition reads the manifest's files, aligns them to
    the registry's current schema version (else the highest in ``state``),
    applies ``rewrite(rows) -> (rows, removed)`` and commits the result
    through :func:`commit_partition` as one file (``rows_per_file`` set:
    ``-cNNN`` files of about that many rows).  The lane manifest covers the
    partition's OWN ``effective_epoch``: a rewrite must not change which
    data is current, so a later source epoch of this partition — its
    replay after a crash included — still outranks it.

    Returns the lane epoch and one ``STATS_SCHEMA`` row per partition,
    whose ``changes_in`` is the rewrite's ``removed``."""
    import math

    epoch = next_lane_epoch(ManifestStore(lake_root, table).manifest_names(generation))
    target = _target_version(
        lake_root, table, (m.schema_version for m in state.values())
    )

    def rewrite_one(batch: pa.Table) -> pa.Table:
        out = []
        for p in batch.column("partition").to_pylist():
            prev = state[p]
            # rewritten before commit_partition's exactly-once probe, so
            # a retried task still reports ``removed`` in its stats row
            rows, removed = rewrite(align_schema(
                read_files(lake_root, prev.files), lake_root, table,
                prev.schema_version, target,
            ))
            if rows_per_file is None:
                pieces = [("", rows)]
            else:
                n = rows.num_rows
                n_files = max(1, math.ceil(n / rows_per_file))
                step = math.ceil(n / n_files) if n else 0
                pieces = [
                    (f"-c{j:03d}", rows.slice(j * step, step) if n else rows)
                    for j in range(n_files)
                ]
            fields = dict(
                row_count=rows.num_rows,
                max_seq=prev.max_seq,
                digest=_table_digest(rows),
                schema_version=target,
                covers_epoch=prev.effective_epoch,
            )
            out.append(commit_partition(
                lake_root, table, generation=generation, epoch=epoch,
                partition=p, changes_in=removed,
                fold=lambda _prev: (pieces, fields), prev=prev,
            ))
        return pa.concat_tables(out)

    stats = ray.data.from_items(
        [{"partition": p} for p in sorted(state)], override_num_blocks=len(state)
    ).map_batches(rewrite_one, batch_format="pyarrow", batch_size=1)
    return epoch, pa.concat_tables(list(stats.iter_batches(batch_format="pyarrow")))


def compact_table(lake_root: str, table: str) -> dict:
    """Maintenance compaction for delta-strategy tables: LWW-fold every
    partition's file stack into a single snapshot file.

    A lane rewrite (:func:`_commit_lane`) of every partition with more
    than one file: it commits in the compaction epoch lane
    (≥ COMPACTION_EPOCH_BASE, see ``state.manifest``), so it can never
    collide with a future source epoch's manifest CAS, and each commit
    covers its own partition's newest source epoch, so it never shadows
    a later one.  It writes NO checkpoint — a compaction is not a source
    barrier, and resume positions must keep pointing at real binlog
    epochs.  Stacks written under older schema versions are aligned to
    the current one first.
    """
    store = ManifestStore(lake_root, table)
    meta = store.table_meta()
    pk, ver = meta["pk"], meta["cursor"]
    state = {
        p: m for p, m in store.table_state(meta["generation"]).items()
        if len(m.files) > 1
    }
    if not state:
        return {"compacted_partitions": 0}
    epoch, stats = _commit_lane(
        lake_root, table, meta["generation"], state,
        lambda t: (lww_compact(t, pk, ver, SEQ_COLUMN), 0),
    )
    return {"compacted_partitions": stats.num_rows, "epoch": epoch}


def _zorder_values(t: pa.Table, cols: list[str]) -> "np.ndarray":
    """Morton (Z-order) key per row over ≤4 numeric/temporal columns:
    each column maps to its 16-bit dense-rank quantile within the
    partition (rank-space interleaving, the Delta OPTIMIZE ZORDER recipe —
    rank, not raw value, so skewed distributions still split evenly), and
    the bits interleave column-round-robin.  Nulls rank first."""
    import numpy as np

    if len(cols) > 4:
        raise ValueError("z-order supports at most 4 columns")
    qs = []
    for c in cols:
        arr = t.column(c)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        if pa.types.is_temporal(arr.type):
            arr = arr.cast(pa.int64())  # storage units (µs / days)
        v = pc.fill_null(arr.cast(pa.float64()), -np.inf).to_numpy(
            zero_copy_only=False
        )
        uniq, inv = np.unique(v, return_inverse=True)
        nd = max(len(uniq) - 1, 1)
        qs.append(((inv.astype(np.uint64) * 65535) // np.uint64(nd)))
    ncols = len(qs)
    z = np.zeros(len(t), dtype=np.uint64)
    for b in range(16):
        for ci, q in enumerate(qs):
            bit = (q >> np.uint64(b)) & np.uint64(1)
            z |= bit << np.uint64(b * ncols + ci)
    return z


def cluster_table(
    lake_root: str,
    table: str,
    *,
    by: str | list[str],
    target_rows_per_file: int = 1_000_000,
) -> dict:
    """OPTIMIZE/cluster maintenance (Delta ``OPTIMIZE ZORDER BY`` analog):
    rewrite each partition's visible snapshot ORDERED by ``by`` and split
    into ~``target_rows_per_file``-row files, so the manifest zone maps
    (per-file min/max) become selective for
    ``read_table(range_filter=…)`` — a narrow range then touches one file
    per partition instead of the whole partition.

    ``by`` = one column → plain sort; a LIST of 2–4 numeric/temporal
    columns → true Z-ORDER (rank-space Morton interleave per partition),
    which keeps the zone maps selective on EVERY listed column at once
    (a lexicographic multi-column sort would only help the leading one).

    Hash partitioning by pk is untouched (LWW co-location must survive),
    so clustering is one LOCAL task per partition — no exchange.  It is a
    lane rewrite (:func:`_commit_lane`: ``covers_epoch`` = the partition's
    own covered source epoch), so a later source epoch outranks the
    clustered layout; like any OPTIMIZE, re-run after enough new epochs
    degrade it.  Delta-strategy stacks fold (LWW) before sorting —
    clustering doubles as compaction there.
    """
    store = ManifestStore(lake_root, table)
    meta = store.table_meta()
    if meta["mode"] != "append_dedup":
        raise ValueError(
            "cluster_table needs a keyed snapshot table (append_dedup); "
            f"table {table!r} has mode {meta['mode']!r}"
        )
    gen = meta["generation"]
    pk, ver = meta["pk"], meta["cursor"]
    if not isinstance(pk, str):
        pk = pk[0]
    is_delta = meta.get("merge_strategy") == "delta"
    state = {p: m for p, m in store.table_state(gen).items() if m.files}
    if not state:
        return {"clustered_partitions": 0}

    def order(t: pa.Table):
        import numpy as np

        if is_delta:
            t = lww_compact(t, pk, ver, SEQ_COLUMN)
        if isinstance(by, str):
            t = t.sort_by([(by, "ascending")])
        elif len(by) == 1:
            t = t.sort_by([(by[0], "ascending")])
        else:
            z = _zorder_values(t, list(by))
            t = t.take(pa.array(np.argsort(z, kind="stable")))
        return t, 0

    epoch, stats = _commit_lane(
        lake_root, table, gen, state, order, rows_per_file=target_rows_per_file
    )
    return {"clustered_partitions": stats.num_rows, "epoch": epoch, "by": by}


def lineage_dataset(lake_root: str, table: str, *, generation: int | None = None):
    """Per-partition lineage/metrics as a metadata Dataset (SURVEY §7.8):
    one row per committed (epoch, partition) manifest — files, row counts,
    bytes, seq watermark, digest, schema version.  Global counts are Dataset
    aggregates over this (A5: record counting from manifests, never a data
    scan)."""
    store = ManifestStore(lake_root, table)
    if generation is None:
        generation = store.table_meta()["generation"]
    rows = [
        {
            "table": m.table,
            "generation": m.generation,
            "epoch": m.epoch,
            "partition": m.partition,
            "n_files": len(m.files),
            "row_count": m.row_count,
            "byte_count": m.byte_count,
            "max_seq": m.max_seq,
            "schema_version": m.schema_version,
            "digest": m.digest,
            "keys_changed": m.keys_changed,
        }
        for m in store._iter_manifests(generation)
    ]
    return ray.data.from_items(rows)


def lookup_rows(
    lake_root: str,
    table: str,
    keys,
    *,
    columns: list[str] | None = None,
    include_deleted: bool = False,
):
    """Point lookup by primary key: plan ONLY the partitions the keys hash
    to — the lake's hash layout IS the index, so a k-key lookup costs O(k)
    partitions of I/O at ANY table size (vs a full scan for a filter over
    ``read_table``).  Works for both merge strategies: :func:`read_piece`
    keeps the wanted keys of each planned piece (before folding a delta
    stack).

    The routing hash must be the one the writer used — ``partition_ids``
    over the pk column with the table's ``num_partitions``, guarded by the
    persisted ``hash_scheme`` (``init_table`` refuses mismatched lakes), so
    a lookup can never silently read the wrong partition.

    Tombstoned keys return no row (unless ``include_deleted``); missing
    keys return no row; key type must be comparable to the pk column
    (integers are canonicalized by the stable hash, so int32 keys find an
    int64 pk).
    """
    from ..functions.hashing import partition_ids

    store = ManifestStore(lake_root, table)
    meta = store.table_meta()
    if meta["mode"] != "append_dedup":
        raise ValueError(
            "lookup_rows needs a keyed snapshot table (append_dedup); "
            f"table {table!r} has mode {meta['mode']!r}"
        )
    pk = meta["pk"]
    if not isinstance(pk, str) and len(pk) != 1:
        raise ValueError("lookup_rows supports single-column pks")
    if not isinstance(keys, (pa.Array, pa.ChunkedArray)):
        keys = pa.array(keys)
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    wanted = set(partition_ids(keys, int(meta["num_partitions"])).tolist())
    meta = _pin_read_generation(meta)
    pieces = plan_read(store, meta, partitions=wanted)
    return _read_pieces(
        lake_root, table, meta, pieces, columns=columns,
        keys=keys.drop_null(), include_deleted=include_deleted,
    )


def delete_rows(lake_root: str, table: str, keys) -> dict:
    """Targeted physical deletion by primary key (the GDPR / right-to-be-
    forgotten lake rewrite): remove EVERY row of the given keys — current
    versions AND tombstones — from the partitions they hash to, leaving
    all other partitions untouched.

    A lane rewrite (:func:`_commit_lane`), like :func:`compact_table`:
    keys route to partitions via the table's persisted hash scheme
    (O(keys) partitions of I/O at any table size); each touched
    partition's current state (snapshot files or delta stack) drops the
    keys' rows, is LWW-folded into one snapshot file and commits in the
    COMPACTION epoch lane with ``covers_epoch`` = the partition's own
    covered source epoch.  Consequences of that ranking:

    - replaying any already-committed source epoch is still a no-op (its
      manifest exists), and the delete outranks the pre-delete state at
      the same covered epoch, so replay cannot resurrect deleted keys;
    - a LATER source epoch outranks the delete — new events for a deleted
      key reinsert it (deletion removes history, not the key's future);
    - pre-delete snapshot FILES stay on disk until ``vacuum`` reclaims
      them — a complete GDPR erasure is ``delete_rows`` + ``vacuum``
      (time-travel reads older than the delete see the old state until
      then, same contract as any snapshot lake).

    Idempotent per lane epoch: re-running with the same keys writes a new
    lane manifest over identical content.  Returns touched-partition and
    removed-row counts (physical rows: every version and tombstone of a
    key in a delta stack counts).
    """
    from ..functions.hashing import partition_ids

    store = ManifestStore(lake_root, table)
    meta = store.table_meta()
    if meta["mode"] != "append_dedup":
        raise ValueError(
            "delete_rows needs a keyed snapshot table (append_dedup); "
            f"table {table!r} has mode {meta['mode']!r}"
        )
    pk = meta["pk"]
    if not isinstance(pk, str):
        if len(pk) != 1:
            raise ValueError("delete_rows supports single-column pks")
        pk = pk[0]
    if not isinstance(keys, (pa.Array, pa.ChunkedArray)):
        keys = pa.array(keys)
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    keys = keys.drop_null()
    gen = meta["generation"]
    state = {p: m for p, m in store.table_state(gen).items() if m.files}
    if not state:
        return {"partitions_rewritten": 0, "rows_removed": 0}
    # Route with the pk column's NATIVE type: the lake was partitioned on
    # it, and the stable hash of '13' (string) differs from 13 (int) — a
    # type-mismatched key list (e.g. the CLI always passes strings) would
    # rewrite the wrong partitions and silently delete nothing.  The pk
    # type comes from a committed file's footer (metadata-only read).
    import pyarrow.parquet as pq

    first = state[min(state)].files[0]
    keys = keys.cast(pq.read_schema(Path(lake_root) / first).field(pk).type)
    wanted = set(partition_ids(keys, int(meta["num_partitions"])).tolist())
    state = {p: m for p, m in state.items() if p in wanted}
    if not state:
        return {"partitions_rewritten": 0, "rows_removed": 0}
    ver = meta["cursor"]

    def drop_then_fold(t: pa.Table):
        col = t.column(pk)
        hit = pc.fill_null(pc.is_in(col, value_set=keys.cast(col.type)), False)
        kept = t.filter(pc.invert(hit))
        return lww_compact(kept, pk, ver, SEQ_COLUMN), t.num_rows - kept.num_rows

    epoch, stats = _commit_lane(lake_root, table, gen, state, drop_then_fold)
    return {
        "partitions_rewritten": stats.num_rows,
        "rows_removed": stats_sum(stats, "changes_in"),
        "epoch": epoch,
    }


def change_feed(
    lake_root: str,
    table: str,
    *,
    epoch: int,
    compare_cols: list[str],
):
    """Change data feed (Delta-CDF analog): the NET row changes the lake
    took between its as-of-``epoch-1`` and as-of-``epoch`` states — one
    ``op`` ∈ {'I','U','D'} row per key whose visible state changed, with
    old/new values per compared column.  Pure composition: two time-travel
    reads (manifest index, no data copies) diffed by
    :func:`relational.table_diff` (one co-locating hash exchange; both
    snapshots stream).  Tombstones follow the read view: a key whose
    winning version became a delete in ``epoch`` surfaces as 'D'.

    A key whose newer version carries identical compared values does NOT
    appear (net-change semantics); include the version column in
    ``compare_cols`` to surface every touched key instead.

    ``epoch=0`` (or any epoch at the start of the generation's history)
    has no predecessor state: every visible row is an 'I'.

    Scale path (snapshot tables at one schema version): the old and new
    snapshots are co-partitioned on disk by the same key-hash scheme, so the
    diff needs NO exchange — partitions whose winning manifest did not change
    at ``epoch`` are pruned from the scan outright (the Delta-CDF changed-file
    analog), and each touched partition is diffed locally by one task reading
    only its own old+new snapshot files.  Mixed schema versions and
    delta-strategy file stacks fall back to the generic two-time-travel-reads
    + one-exchange composition.
    """
    from .relational import table_diff

    store = ManifestStore(lake_root, table)
    meta = store.table_meta()
    pk = meta["pk"]
    if not isinstance(pk, str):
        if len(pk) != 1:
            raise ValueError("change_feed supports single-column pks")
        pk = pk[0]
    new_state = store.table_state(meta["generation"], max_epoch=epoch)
    old_state = store.table_state(meta["generation"], max_epoch=epoch - 1)
    if not new_state:
        raise ValueError(
            f"change_feed: table {table!r} has no committed state as of "
            f"epoch {epoch} (nothing to diff — sync first)"
        )
    fast = _change_feed_copartitioned(
        store, meta, old_state, new_state, pk=pk, compare_cols=compare_cols
    )
    if fast is not None:
        return fast
    new = read_table(
        lake_root, table, columns=[pk, *compare_cols], as_of_epoch=epoch
    )
    if not old_state:
        # no predecessor state: the whole epoch-0 view is inserts
        def as_inserts(batch: pa.Table) -> pa.Table:
            cols = {pk: batch.column(pk)}
            cols["op"] = pa.array(["I"] * batch.num_rows, type=pa.string())
            for c in compare_cols:
                col = batch.column(c)
                cols[f"{c}_old"] = pa.nulls(batch.num_rows, col.type)
                cols[f"{c}_new"] = col
            return pa.table(cols)

        return new.map_batches(
            as_inserts, batch_format="pyarrow", batch_size=None
        )
    old = read_table(
        lake_root, table, columns=[pk, *compare_cols], as_of_epoch=epoch - 1
    )
    return table_diff(old, new, key=pk, compare_cols=compare_cols)


def _change_feed_copartitioned(
    store: ManifestStore, meta: dict, old_state: dict, new_state: dict, *,
    pk: str, compare_cols: list[str],
):
    """Exchange-free change feed over a snapshot table, or ``None`` when the
    layout can't support it (delta file stacks, mixed schema versions).

    Both snapshots live under the SAME key-hash partitioning, so a key can
    only change within its own partition: partitions whose winning manifest
    is identical in ``old_state`` (as of ``epoch-1``) and ``new_state`` (as
    of ``epoch``) are pruned from the scan (the
    Delta-CDF changed-file analog), and each touched partition is diffed by
    one task that reads just its own old+new snapshot files — zero shuffle,
    O(touched partitions) work regardless of table size.
    """
    import pyarrow.parquet as pq

    if meta["mode"] != "append_dedup" or meta.get("merge_strategy") == "delta":
        return None
    lake_root = store.root.parent
    table = store.root.name
    schema_store = SchemaStore(str(lake_root), table)
    current_version = (
        schema_store.current_version() if schema_store.exists() else None
    )
    plan: list[dict] = []
    sample_file: str | None = None
    for p, new_m in sorted(new_state.items()):
        if sample_file is None and new_m.files:
            sample_file = new_m.files[0]
        old_m = old_state.get(p)
        if old_m is not None and old_m.key == new_m.key:
            continue  # untouched at `epoch` — contributes no changes
        for m in (old_m, new_m):
            if (
                m is not None
                and current_version is not None
                and m.schema_version != current_version
            ):
                return None  # mixed schema versions → generic aligned path
        plan.append(
            {
                "old": _piece(old_m) if old_m is not None and old_m.files else None,
                "new": _piece(new_m) if new_m.files else None,
            }
        )
    if sample_file is None:
        return None  # empty table state — generic path handles it
    read_cols = list(dict.fromkeys([pk, *compare_cols]))
    sch = pq.read_schema(Path(lake_root) / sample_file)
    empty_cols: dict = {
        pk: pa.array([], type=sch.field(pk).type),
        "op": pa.array([], type=pa.string()),
    }
    for c in compare_cols:
        typ = sch.field(c).type
        empty_cols[f"{c}_old"] = pa.array([], type=typ)
        empty_cols[f"{c}_new"] = pa.array([], type=typ)
    empty_out = pa.table(empty_cols)
    if not plan:
        return ray.data.from_arrow(empty_out)

    read = _piece_reader(
        lake_root, table, meta,
        [p for row in plan for p in row.values() if p is not None],
        columns=read_cols,
    )

    def diff_partition(batch: pa.Table) -> pa.Table:
        import numpy as np

        from .relational import diff_snapshot_sides

        outs = []
        for row in batch.to_pylist():
            tagged = []
            for side, piece in enumerate((row["old"], row["new"])):
                if piece is None:
                    continue
                t = read(piece)
                t = t.filter(t.column(pk).combine_chunks().is_valid())
                t = t.append_column(
                    "_side",
                    pa.array(np.full(t.num_rows, side, dtype=np.int8)),
                )
                tagged.append(t)
            if not tagged:
                continue
            outs.append(
                diff_snapshot_sides(
                    pa.concat_tables(tagged), key=pk,
                    compare_cols=compare_cols,
                )
            )
        if not outs:
            return empty_out
        return pa.concat_tables(outs)

    return ray.data.from_items(
        plan, override_num_blocks=len(plan)
    ).map_batches(diff_partition, batch_format="pyarrow", batch_size=None)


# -- write-audit-publish (WAP) -------------------------------------------


def wap_begin(lake_root: str, table: str) -> dict:
    """Open a write-audit-publish window (Iceberg WAP shape, generation-
    based): readers are pinned to the current generation
    (``published_generation``) while writers move to a fresh staged
    generation — a subsequent :func:`run_cdc_sync` / write rebuilds the
    table invisibly.  Audit the staged state with
    ``read_table(..., staging=True)``; make it visible atomically with
    :func:`wap_publish` (one metadata write) or discard it with
    :func:`wap_abort`.  The rollback window is exactly the audit gate:
    a crash mid-stage leaves the published table untouched.
    """
    store = ManifestStore(lake_root, table)
    meta = store.table_meta()
    if meta.get("published_generation") is not None:
        raise RuntimeError(
            f"table {table!r} already has a staged generation "
            f"{meta['generation']} (published="
            f"{meta['published_generation']}); publish or abort it first"
        )
    published = int(meta["generation"])
    staged = published + 1
    store.update_meta(published_generation=published, generation=staged)
    return {"table": table, "published": published, "staged": staged}


def wap_publish(lake_root: str, table: str) -> dict:
    """Atomically make the staged generation the readers' view: one
    metadata write drops the ``published_generation`` pin.  The previous
    generation's files remain on disk for rollback until ``vacuum``."""
    store = ManifestStore(lake_root, table)
    meta = store.table_meta()
    if meta.get("published_generation") is None:
        raise RuntimeError(f"table {table!r} has no staged generation")
    store.update_meta(published_generation=None)
    return {
        "table": table,
        "published": int(meta["generation"]),
        "superseded": int(meta["published_generation"]),
    }


def wap_abort(lake_root: str, table: str) -> dict:
    """Discard the staged generation: revert the writer generation to the
    published one and remove the staged data directory, its manifests and
    its epoch checkpoints — a later :func:`wap_begin` re-stages from a
    clean slate (stale checkpoints would otherwise make a resumed sync
    skip epochs)."""
    import shutil

    store = ManifestStore(lake_root, table)
    meta = store.table_meta()
    pub = meta.get("published_generation")
    if pub is None:
        raise RuntimeError(f"table {table!r} has no staged generation")
    staged = int(meta["generation"])
    store.update_meta(generation=int(pub), published_generation=None)
    removed_files = 0
    gen_dir = store.root / f"gen={staged:04d}"
    if gen_dir.exists():
        shutil.rmtree(gen_dir)
        removed_files += 1
    prefix = f"g{staged:04d}-"
    for d in (store.manifest_dir, store.checkpoint_dir):
        if d.exists():
            for p in d.iterdir():
                if p.name.startswith(prefix) and p.name.endswith(".json"):
                    p.unlink()
                    removed_files += 1
    return {
        "table": table,
        "published": int(pub),
        "aborted_generation": staged,
        "removed": removed_files,
    }


def repartition_table(
    lake_root: str,
    table: str,
    new_partitions: int | None = None,
    *,
    new_num_partitions: int | None = None,
    compute_digest: bool = True,
) -> dict:
    """Re-hash a merge table to a new partition count — the lake-resize
    operation a growing table needs (more partitions = more merge / read
    parallelism; the hash layout is also the co-partitioned-join and
    point-lookup index, so it must change atomically for the WHOLE
    table).

    Runs as a WAP window: readers stay pinned to the published
    generation while the full internal state — including tombstones and
    per-row ``_seq`` (late older updates must still lose after the
    rebuild) — streams through one re-routing hash exchange into the
    staged generation at ``new_partitions``; the publish is ONE metadata
    write that flips the generation and the partition count together.
    The rebuild commits at the published generation's checkpoint epoch,
    so a later binlog sync resumes exactly where the old layout stopped.

    No driver-side materialization: read (manifest-pruned) → route →
    per-partition merge + manifest CAS, the sync path's own shape.
    Same-count calls are no-ops.  Only snapshot-merge tables qualify
    (append tables' manifests are additive per epoch; delta stacks
    compact on their own lane first).
    """
    if (new_partitions is None) == (new_num_partitions is None):
        raise TypeError(
            "pass exactly one of new_partitions / new_num_partitions"
        )
    if new_partitions is None:
        new_partitions = new_num_partitions
    if int(new_partitions) < 1:
        raise ValueError(f"new partition count must be >= 1, got {new_partitions}")
    store = ManifestStore(lake_root, table)
    meta = store.table_meta()
    if int(meta["num_partitions"]) == int(new_partitions):
        return {
            "table": table,
            "num_partitions": int(new_partitions),
            "skipped": True,
            "repartitioned": False,
        }
    if meta.get("mode", "append_dedup") not in ("append_dedup", "overwrite"):
        raise ValueError(
            "repartition_table supports merge (append_dedup/overwrite) "
            f"tables; {table!r} is mode={meta.get('mode')!r}"
        )
    pk = meta["pk"]
    pk = pk[0] if isinstance(pk, list) and len(pk) == 1 else pk
    ver = meta["cursor"]

    # Crash-resume: a prior repartition_table that died mid-rebuild leaves
    # the WAP window open with our marker in meta.  Re-enter the SAME
    # staged generation — per-(generation, epoch, partition) manifest CAS
    # makes re-merging committed partitions a no-op — instead of raising
    # "already has a staged generation" forever.  A staged generation
    # WITHOUT the marker belongs to someone else's WAP: refuse loudly.
    resume_target = meta.get("repartition_target")
    resuming = meta.get("published_generation") is not None
    if resuming:
        if resume_target is None:
            raise RuntimeError(
                f"table {table!r} has a staged generation from an open WAP "
                "window (not a crashed repartition); publish or abort it "
                "before repartitioning"
            )
        if int(resume_target) != int(new_partitions):
            raise RuntimeError(
                f"table {table!r} has a crashed repartition staged at "
                f"{resume_target} partitions; re-run with that count to "
                "resume, or `wap abort` to discard the partial rebuild"
            )
        published = int(meta["published_generation"])
    else:
        published = int(meta["generation"])
    ckpt = store.last_checkpoint(published)
    rebuild_epoch = int(ckpt["epoch"]) if ckpt else 0

    if not resuming:
        wap_begin(lake_root, table)
    try:
        # marker AFTER wap_begin: a hard crash between the two writes
        # leaves a plain WAP window that `wap abort` cleans, never a
        # silent resume; a soft exception self-cleans via wap_abort below
        if not resuming:
            store.update_meta(repartition_target=int(new_partitions))
        staged = int(store.table_meta()["generation"])
        snap = read_table(
            lake_root, table, include_deleted=True, include_meta=True
        )
        partitioner = make_partitioner(
            pk,
            int(new_partitions),
            ver=ver,
            pre_reduce=False,  # already one winner per key per partition
            payload_columns=None,  # rows are lake rows (_seq/_deleted) already
        )
        merger = make_partition_merger(
            lake_root,
            table,
            generation=staged,
            epoch=rebuild_epoch,
            mode="append_dedup",
            pk=pk,
            ver=ver,
            compute_digest=compute_digest,
            schema_version=_target_version(lake_root, table, ()),
        )
        stats_t = commit_epoch(
            store, snap, partitioner=partitioner, merger=merger,
            generation=staged, epoch=rebuild_epoch,
            checkpoint={"segments": [f"<repartition {meta['num_partitions']}->"
                                     f"{new_partitions}>"]},
        )
        rows = stats_sum(stats_t, "rows")
    except Exception:
        wap_abort(lake_root, table)
        store.update_meta(repartition_target=None)
        raise
    # ONE metadata write: drop the reader pin AND flip the partition count
    # (and clear the crash-resume marker)
    store.update_meta(
        published_generation=None,
        num_partitions=int(new_partitions),
        repartition_target=None,
    )
    return {
        "table": table,
        "generation": staged,
        "num_partitions": int(new_partitions),
        "old_num_partitions": int(meta["num_partitions"]),
        "rows": rows,
        "epoch": rebuild_epoch,
        "skipped": False,
        "repartitioned": True,
    }


def rollback_table(
    lake_root: str,
    table: str,
    to_epoch: int,
    *,
    dry_run: bool = False,
) -> dict:
    """RESTORE analog: rewind a table's ACTIVE generation to its state as
    of checkpoint ``to_epoch`` (Delta ``RESTORE TO VERSION`` / Iceberg
    ``rollback_to_snapshot``).

    Pure metadata surgery — O(manifests), no data scan, no exchange:
    every manifest whose covered source epoch is > ``to_epoch`` is
    removed (including compaction/GDPR-lane manifests that fold LATER
    epochs — a post-``to_epoch`` GDPR delete is undone by rollback, by
    design; re-run ``delete_rows`` afterwards if that matters), along
    with the later checkpoints, so:

    - ``read_table`` immediately serves the epoch-``to_epoch`` snapshot
      (identical to ``read_table(as_of_epoch=to_epoch)`` before the
      rollback — the oracle-checked equivalence);
    - the next binlog sync resumes from ``to_epoch`` and REPLAYS the
      rewound epochs (their manifest CAS slots are free again), landing
      bit-identical to a never-rolled-back sync (test-pinned).

    Data files of rewound epochs stay on disk until ``vacuum`` (they are
    simply unreferenced), so a rollback is itself reversible up to that
    point by restoring from the binlog.  Refused while a WAP window is
    open (the staged generation would dangle) and on ``to_epoch`` values
    that are not a committed checkpoint (a mid-epoch state never existed
    transactionally).  ``to_epoch=-1`` rewinds to empty.
    """
    store = ManifestStore(lake_root, table)
    meta = store.table_meta()
    if meta.get("published_generation") is not None:
        raise RuntimeError(
            f"table {table!r} has an open WAP window; publish or abort it "
            "before rolling back"
        )
    gen = int(meta["generation"])
    to_epoch = int(to_epoch)
    ckpt = store.last_checkpoint(gen)
    last = int(ckpt["epoch"]) if ckpt else -1
    if to_epoch >= last:
        return {
            "table": table,
            "generation": gen,
            "to_epoch": to_epoch,
            "last_epoch": last,
            "removed_manifests": 0,
            "removed_checkpoints": 0,
            "skipped": True,
        }
    if to_epoch != -1 and not (
        store.checkpoint_dir / f"g{gen:04d}-e{to_epoch:06d}.json"
    ).exists():
        raise ValueError(
            f"epoch {to_epoch} is not a committed checkpoint of "
            f"table {table!r} (generation {gen})"
        )
    all_m = store._iter_manifests(gen)
    doomed_m = [m for m in all_m if m.effective_epoch > to_epoch]
    # vacuum() keeps manifests/checkpoints but reclaims superseded data
    # files: validate the SURVIVING snapshot's files exist BEFORE
    # unlinking anything, or a rollback past a vacuum would "succeed"
    # into an unreadable table.
    surviving = resolve_state(all_m, max_epoch=to_epoch)
    missing = [
        f
        for m in surviving.values()
        for f in m.files
        if not (Path(lake_root) / f).exists()
    ]
    if missing:
        raise RuntimeError(
            f"rollback_table: the epoch-{to_epoch} snapshot of table "
            f"{table!r} is no longer restorable — vacuum reclaimed "
            f"{len(missing)} of its files (e.g. {missing[0]!r}); "
            "restore from the binlog instead"
        )
    doomed_c = []
    if store.checkpoint_dir.exists():
        prefix = f"g{gen:04d}-e"
        for p in store.checkpoint_dir.iterdir():
            if p.name.startswith(prefix) and p.name.endswith(".json"):
                if int(p.name[len(prefix):-len(".json")]) > to_epoch:
                    doomed_c.append(p)
    if not dry_run:
        for m in doomed_m:
            (store.manifest_dir / f"{m.key}.json").unlink(missing_ok=True)
        for p in doomed_c:
            p.unlink(missing_ok=True)
    return {
        "table": table,
        "generation": gen,
        "to_epoch": to_epoch,
        "last_epoch": last,
        "removed_manifests": len(doomed_m),
        "removed_checkpoints": len(doomed_c),
        "skipped": False,
        "dry_run": dry_run,
    }


def clone_table(lake_root: str, src: str, dst: str) -> dict:
    """Zero-copy SHALLOW clone (Delta ``SHALLOW CLONE`` analog): a new
    table whose manifests/checkpoints/schema registry are copies of the
    source's — O(metadata), no data movement.  Manifests carry
    lake-root-relative file paths, so the clone's snapshots keep reading
    the SOURCE's data files; any later sync/merge/compaction on the
    clone writes under the clone's own ``gen=`` directories and the two
    tables diverge from that point (copy-on-write at epoch granularity).

    Caveats (the standard shallow-clone contract): ``vacuum`` on the
    clone never touches source files (it only scans the clone's own
    generation dirs), but ``vacuum`` on the SOURCE can delete historical
    files the clone still references — deep-copy or re-sync the clone
    before vacuuming a shared source.  Open WAP windows and in-flight
    txn pins are not cloned; the source must be quiescent (no open WAP).
    """
    import json
    import os
    import shutil as _sh

    src_store = ManifestStore(lake_root, src)
    meta = src_store.table_meta()
    if meta.get("published_generation") is not None:
        raise RuntimeError(
            f"table {src!r} has an open WAP window; publish or abort it "
            "before cloning"
        )
    final_root = Path(lake_root) / dst
    if final_root.exists():
        raise FileExistsError(f"clone target {dst!r} already exists")
    # build in a scratch dir and publish with ONE rename so a crash
    # mid-clone can never leave a half-built table at the target name
    dst_root = Path(lake_root) / f"{dst}.clone-tmp-{os.getpid()}"
    _sh.rmtree(dst_root, ignore_errors=True)
    dst_root.mkdir(parents=True)
    n_manifests = n_checkpoints = 0
    # manifests: rewrite the embedded table name, keep file paths (they
    # point into the source's directories — that's the zero-copy)
    (dst_root / "_manifests").mkdir()
    if src_store.manifest_dir.exists():
        for p in sorted(src_store.manifest_dir.iterdir()):
            if not p.name.endswith(".json"):
                continue
            with open(p) as f:
                payload = json.load(f)
            payload["table"] = dst
            with open(dst_root / "_manifests" / p.name, "w") as f:
                json.dump(payload, f, sort_keys=True)
            n_manifests += 1
    if src_store.checkpoint_dir.exists():
        _sh.copytree(src_store.checkpoint_dir, dst_root / "_checkpoints")
        n_checkpoints = len(list((dst_root / "_checkpoints").iterdir()))
    if (src_store.root / "_schema").exists():
        _sh.copytree(src_store.root / "_schema", dst_root / "_schema")
    meta_payload = {
        k: v for k, v in meta.items() if k != "repartition_target"
    }
    with open(dst_root / "_meta.json", "w") as f:
        json.dump(meta_payload, f, sort_keys=True)
    try:
        os.rename(dst_root, final_root)  # the atomic publish
    except OSError:
        _sh.rmtree(dst_root, ignore_errors=True)
        raise FileExistsError(f"clone target {dst!r} already exists")
    return {
        "src": src,
        "dst": dst,
        "generation": int(meta["generation"]),
        "manifests": n_manifests,
        "checkpoints": n_checkpoints,
    }


def copartitioned_join(
    lake_root: str,
    left_table: str,
    right_table: str,
    *,
    left_cols: list[str] | None = None,
    right_cols: list[str] | None = None,
    how: str = "inner",
    right_suffix: str = "_r",
):
    """ZERO-EXCHANGE join of two lake tables that share the same key-hash
    layout (the sort-merge-bucket / Iceberg bucket-join idea): both tables
    were written with ``partition = stable_hash(pk) % P``, so equal keys
    can only meet inside the same partition id — each partition is joined
    by ONE task that reads just its own two snapshot file sets.  No
    shuffle, no broadcast, O(P) tasks regardless of table size; the lake
    layout IS the exchange.

    Requirements (validated): both tables are snapshot-strategy
    ``append_dedup`` with a single pk of the same name, identical
    ``num_partitions`` and ``hash_scheme``.  ``how`` = ``inner`` | ``left``.
    Tombstones are filtered per side; reads respect a write-audit-publish
    pin.  Column collisions on the right take ``right_suffix``.
    """
    import pyarrow.parquet as pq

    if how not in ("inner", "left"):
        raise ValueError(f"how must be inner|left, got {how!r}")
    ls = ManifestStore(lake_root, left_table)
    rs = ManifestStore(lake_root, right_table)
    lm = _pin_read_generation(ls.table_meta())
    rm = _pin_read_generation(rs.table_meta())
    for name, m in ((left_table, lm), (right_table, rm)):
        if m["mode"] != "append_dedup" or m.get("merge_strategy") == "delta":
            raise ValueError(
                f"copartitioned_join needs snapshot append_dedup tables; "
                f"{name!r} is mode={m['mode']!r} "
                f"strategy={m.get('merge_strategy')!r}"
            )
    lpk, rpk = lm["pk"], rm["pk"]
    lpk = lpk if isinstance(lpk, str) else lpk[0]
    rpk = rpk if isinstance(rpk, str) else rpk[0]
    if lpk != rpk:
        raise ValueError(f"pk mismatch: {lpk!r} vs {rpk!r}")
    if int(lm["num_partitions"]) != int(rm["num_partitions"]):
        raise ValueError(
            "partition-count mismatch: "
            f"{lm['num_partitions']} vs {rm['num_partitions']} — "
            "repartition_table one side first"
        )
    if lm.get("hash_scheme") != rm.get("hash_scheme"):
        raise ValueError("hash-scheme mismatch — tables route keys differently")
    pk = lpk

    lplan, rplan = plan_read(ls, lm), plan_read(rs, rm)
    rpieces = {r["partition"]: r for r in rplan}
    plan = [
        {"left": lp, "right": rpieces.get(lp["partition"])}
        for lp in lplan
        if how == "left" or lp["partition"] in rpieces
    ]
    lsample = lplan[0]["files"][0] if lplan else None
    rsample = rplan[0]["files"][0] if rplan else None

    def side_cols(sample: str | None, want, own_pk: str) -> list[str]:
        if want is not None:
            return list(dict.fromkeys([own_pk, *want]))
        if sample is None:
            return [own_pk]
        sch = pq.read_schema(Path(lake_root) / sample)
        return [
            n for n in sch.names
            if n not in (SEQ_COLUMN, DELETED_COLUMN)
        ]

    lcols = side_cols(lsample, left_cols, pk)
    rcols = side_cols(rsample, right_cols, pk)
    rpayload = [c for c in rcols if c != pk]
    out_names = list(lcols) + [
        c + (right_suffix if c in lcols else "") for c in rpayload
    ]

    def empty_table() -> pa.Table:
        cols = {}
        lsch = (
            pq.read_schema(Path(lake_root) / lsample)
            if lsample is not None
            else None
        )
        rsch = (
            pq.read_schema(Path(lake_root) / rsample)
            if rsample is not None
            else None
        )
        for c in lcols:
            typ = lsch.field(c).type if lsch is not None else pa.int64()
            cols[c] = pa.array([], type=typ)
        for c in rpayload:
            typ = rsch.field(c).type if rsch is not None else pa.int64()
            cols[c + (right_suffix if c in lcols else "")] = pa.array(
                [], type=typ
            )
        return pa.table(cols)

    empty_out = empty_table()
    if not plan:
        return ray.data.from_arrow(empty_out)

    join_type = "inner" if how == "inner" else "left outer"
    read_left = _piece_reader(
        lake_root, left_table, lm, [r["left"] for r in plan], columns=lcols
    )
    read_right = _piece_reader(
        lake_root, right_table, rm,
        [r["right"] for r in plan if r["right"] is not None], columns=rcols,
    )

    def join_partition(batch: pa.Table) -> pa.Table:
        outs = []
        for row in batch.to_pylist():
            lt = read_left(row["left"])
            if row["right"] is None:
                # left join with an empty right side: null-fill payload
                cols = {c: lt.column(c) for c in lcols}
                for c in rpayload:
                    cols[c + (right_suffix if c in lcols else "")] = pa.nulls(
                        lt.num_rows, empty_out.schema.field(
                            c + (right_suffix if c in lcols else "")
                        ).type,
                    )
                outs.append(pa.table(cols))
                continue
            rt = read_right(row["right"])
            j = lt.join(
                rt, keys=pk, join_type=join_type, right_suffix=right_suffix
            )
            outs.append(j.select(out_names))
        if not outs:
            return empty_out
        return pa.concat_tables(outs)

    return ray.data.from_items(
        plan, override_num_blocks=len(plan)
    ).map_batches(join_partition, batch_format="pyarrow", batch_size=None)


def _commit_quarantine_epoch(
    lake_root: str,
    table: str,
    segments: list[str],
    *,
    epoch: int,
    rules: list[tuple],
    pk: str,
    ver: str,
    num_partitions: int,
    payload_columns: list[str],
) -> int:
    """Commit one epoch's rule-failing upsert rows to the co-partitioned
    append table ``<table>__quarantine`` (payload + ``_rule`` = first failed
    rule).  Same manifest CAS as the main lane — re-running a committed
    epoch is a no-op — and the same pk routing, so a key's quarantined
    versions sit in the same partition id as its lake rows.  Returns the
    number of quarantined rows."""
    from .ops import first_failed_rule

    qtable = f"{table}__quarantine"
    qstore = ManifestStore(lake_root, qtable)
    qstore.root.mkdir(parents=True, exist_ok=True)
    qmeta = qstore.init_table(
        num_partitions=num_partitions,
        mode="append",
        pk=[pk],
        cursor=ver,
    )
    # route with the quarantine table's OWN persisted count: after a
    # repartition_table on the main table the two may differ, and routing
    # with the caller's count would commit partitions the quarantine
    # table's meta says don't exist
    num_partitions = int(qmeta["num_partitions"])

    def keep_failed(batch: pa.Table) -> pa.Table:
        from .ops import tag_first_failed

        idx = first_failed_rule(batch, rules)
        is_del = pc.equal(batch.column("op"), "D").to_numpy(
            zero_copy_only=False
        )
        keep = (idx != -1) & ~is_del
        return batch.append_column(
            "_rule", tag_first_failed(idx, rules)
        ).filter(pa.array(keep))

    # Accepted cost: the expectations path reads the epoch twice (main
    # lane + this one) and evaluates the rules twice — the two lanes feed
    # different exchanges/mergers, and a Dataset cannot split into two
    # consumers without materializing the epoch; re-decoding the column-
    # pruned segments is the cheaper side of that trade.
    ds = ray.data.read_parquet(segments, override_num_blocks=len(segments))
    partitioner = make_partitioner(
        pk,
        num_partitions,
        ver=ver,
        pre_reduce=False,  # append lane keeps every failing version
        payload_columns=[*payload_columns, "_rule"],
    )
    merger = make_partition_merger(
        lake_root,
        qtable,
        generation=qmeta["generation"],
        epoch=epoch,
        mode="append",
        pk=pk,
        ver=ver,
        compute_digest=False,
    )
    # no checkpoint: the main lane's epoch barrier covers this lane too
    stats_t = commit_epoch(
        qstore,
        ds.map_batches(keep_failed, batch_format="pyarrow", batch_size=None),
        partitioner=partitioner, merger=merger,
        generation=qmeta["generation"], epoch=epoch,
    )
    return stats_sum(stats_t, "changes_in")


def consistent_snapshot_epoch(lake_root: str, tables: list[str]) -> int:
    """Highest source epoch checkpointed by EVERY listed table — the
    cross-table snapshot barrier.  Tables in one lake ingest the same
    epoch stream but may be at different positions (a lagging sync, a
    mid-backfill table); reading each table AS OF this epoch yields a
    mutually consistent snapshot (no table shows data from an epoch
    another table hasn't committed).  Returns -1 when some table has no
    completed epoch yet."""
    best: int | None = None
    for t in tables:
        store = ManifestStore(lake_root, t)
        meta = _pin_read_generation(store.table_meta())
        ck = store.last_checkpoint(int(meta["generation"]))
        e = -1 if ck is None else int(ck["epoch"])
        best = e if best is None else min(best, e)
    return -1 if best is None else best


def consistent_read(lake_root: str, tables: list[str], **read_kw) -> dict:
    """Cross-table SNAPSHOT-ISOLATED reads: every listed table pinned to
    the same :func:`consistent_snapshot_epoch` via the time-travel path —
    the multi-table transactional-read analog (the write side is already
    per-epoch atomic through checkpoint barriers).  Returns
    ``{table: Dataset}``."""
    e = consistent_snapshot_epoch(lake_root, tables)
    if e < 0:
        raise RuntimeError(
            f"no common committed epoch across tables {tables!r}"
        )
    return {
        t: read_table(lake_root, t, as_of_epoch=e, **read_kw)
        for t in tables
    }


# -- multi-table atomic transactions (cross-table WAP) -----------------------


def _txn_dir(lake_root: str) -> Path:
    return Path(lake_root) / "_txns"


def txn_begin(lake_root: str, tables: list[str]) -> dict:
    """Open ONE write-audit-publish window across SEVERAL tables — the
    multi-stream analog of :func:`wap_begin` (an Airbyte sync writes many
    streams; cross-table atomicity means a reader never sees stream A's
    new data next to stream B's old data).

    All-or-nothing begin: if any table refuses (e.g. an unfinished WAP),
    the already-begun tables are aborted before re-raising.  The returned
    handle carries the deterministic ``txn_id`` (derived from the staged
    generations — unique because generations are monotonic) that
    :func:`txn_publish` / :func:`txn_abort` take.
    """
    begun: list[dict] = []
    try:
        for t in tables:
            begun.append(wap_begin(lake_root, t))
    except Exception:
        for b in begun:
            wap_abort(lake_root, b["table"])
        raise
    txn_id = "txn-" + "-".join(
        f"{b['table']}.g{b['staged']:04d}" for b in begun
    )
    return {
        "txn_id": txn_id,
        "tables": {b["table"]: b["staged"] for b in begun},
    }


def _txn_apply(lake_root: str, tables: dict) -> int:
    """Idempotently drop each table's reader pin IF its staged generation
    matches the transaction record; already-applied tables are skipped."""
    n = 0
    for t, staged in tables.items():
        store = ManifestStore(lake_root, t)
        meta = store.table_meta()
        if (
            meta.get("published_generation") is not None
            and int(meta["generation"]) == int(staged)
        ):
            store.update_meta(published_generation=None)
            n += 1
    return n


def txn_publish(lake_root: str, txn: dict) -> dict:
    """Atomically publish every table staged under ``txn``: the CAS write
    of the transaction record (``os.link`` create-if-absent, same
    primitive as the commit manifests) IS the single commit point — the
    per-table pin drops that follow are idempotent replays, and a crash
    between them is healed by :func:`txn_recover` (readers see either NO
    table published or, transiently, a prefix that recovery completes —
    never a mix that can't converge).  Re-calling publish on a committed
    transaction just re-applies (no-op when done)."""
    import json
    import os

    from ..state.manifest import _atomic_write_json

    d = _txn_dir(lake_root)
    rec = d / f"{txn['txn_id']}.json"
    done = d / f"{txn['txn_id']}.applied.json"
    if not done.exists():
        _atomic_write_json(rec, {"tables": txn["tables"]})
    applied = _txn_apply(lake_root, txn["tables"])
    if rec.exists():
        os.replace(rec, done)
    return {"txn_id": txn["txn_id"], "applied": applied}


def txn_recover(lake_root: str) -> dict:
    """Crash recovery: re-apply every committed-but-unretired transaction
    record under ``<lake>/_txns`` (publish crashed between the commit
    point and the last pin drop).  Safe to run any time — application is
    idempotent and guarded by the staged-generation match."""
    import json
    import os

    d = _txn_dir(lake_root)
    out: dict[str, int | str] = {}
    if d.exists():
        for p in sorted(d.glob("txn-*.json")):
            if p.name.endswith(".applied.json"):
                continue
            # one bad record (corrupt JSON, dropped table dir) must not
            # wedge the sweep for every later record: report and move on,
            # leaving the record in place for a retry after the operator
            # fixes the underlying state
            try:
                with open(p) as f:
                    rec = json.load(f)
                out[p.stem] = _txn_apply(lake_root, rec["tables"])
                os.replace(p, p.with_name(p.stem + ".applied.json"))
            except Exception as ex:  # noqa: BLE001
                out[p.stem] = f"error: {type(ex).__name__}: {ex}"
    return out


def txn_abort(lake_root: str, txn: dict) -> dict:
    """Roll back a transaction that has NOT passed its commit point:
    aborts every member table's staged generation (staged data, manifests
    and checkpoints removed).  Refused once the transaction record exists
    — after the commit point the only forward path is
    :func:`txn_publish` / :func:`txn_recover`."""
    d = _txn_dir(lake_root)
    if (d / f"{txn['txn_id']}.json").exists() or (
        d / f"{txn['txn_id']}.applied.json"
    ).exists():
        raise RuntimeError(
            f"transaction {txn['txn_id']} already committed; cannot abort"
        )
    for t in txn["tables"]:
        wap_abort(lake_root, t)
    return {"txn_id": txn["txn_id"], "aborted": list(txn["tables"])}
