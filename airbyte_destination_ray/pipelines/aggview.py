"""Incrementally-maintained views (materialized-view maintenance).

The CDC tier's other half: instead of upserting ROWS, maintain DERIVED
state across binlog epochs — a per-key AGGREGATE table
(:func:`run_incremental_agg`) and a streaming SESSION table
(:func:`run_incremental_sessions`) — each epoch folding into the previous
committed state under the same per-(generation, epoch, partition) manifest
CAS as the row lake, so replay / retry / resume have exactly the row-lake
guarantees (re-running a committed epoch is a no-op; resume skips
checkpointed epochs; final state is independent of batch composition).

Cost shape: per epoch, ONE narrow hash exchange of per-(key, batch)
partials (never event rows), then O(touched partition) snapshot rewrite —
the same write amplification as the row lake's snapshot strategy; a delta
variant is unnecessary because the aggregate state IS the compaction.

All sums are integer cents (``floor(value·100)``), so the maintained view
is bit-identical to the one-shot SQL ``GROUP BY`` at any epoch split —
which is what the oracle checks.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..functions.hashing import partition_ids
from ..sources.synth import list_epochs, list_segments
from ..stages.lww import commit_epoch, commit_partition, read_files
from ..state.manifest import ManifestStore

AGG_SCHEMA_COLS = ("n", "sum_cents")


def maintain_view(
    lake_root: str,
    table: str,
    generation: int,
    epochs,
    *,
    resume: bool,
    epoch_input,
    partitioner,
    fold,
) -> dict:
    """The maintained-view epoch loop (every view here and in joinview):
    resume after the last checkpoint; per epoch, ``epoch_input(e)`` (None =
    no input this epoch) goes through ONE :func:`commit_epoch` whose merger
    folds each touched partition with ``fold(changes, prev) -> pieces`` —
    ``(suffix, table)`` pairs, the first being the view rows — committed by
    :func:`commit_partition` under the row lake's manifest CAS."""
    store = ManifestStore(lake_root, table)
    ckpt = store.last_checkpoint(generation) if resume else None
    start_after = ckpt["epoch"] if ckpt else -1
    summaries = []
    for e in epochs:
        if e <= start_after:
            summaries.append({"epoch": e, "skipped": True})
            continue
        ds = epoch_input(e)
        if ds is None:
            continue

        def merge(group: pa.Table, *, prev=None) -> pa.Table:
            def view_fold(prev):
                pieces = fold(group.drop_columns(["_part"]), prev)
                return pieces, {"row_count": pieces[0][1].num_rows}

            return commit_partition(
                lake_root, table, generation=generation, epoch=e,
                partition=int(group.column("_part")[0].as_py()),
                changes_in=group.num_rows, fold=view_fold, prev=prev,
            )

        stats = commit_epoch(
            store, ds, partitioner=partitioner, merger=merge,
            generation=generation, epoch=e, checkpoint={},
        )
        summaries.append(
            {"epoch": e, "partitions": stats.num_rows, "skipped": False}
        )
    return {"table": table, "epochs": summaries}


def _binlog_epochs(binlog_dir: str):
    """``epoch_input`` reading one binlog epoch (None when it has no
    segments)."""

    def read(e: int):
        segments = list_segments(binlog_dir, e)
        if not segments:
            return None
        return ray.data.read_parquet(segments, override_num_blocks=len(segments))

    return read


def _sum_by_k(t: pa.Table) -> pa.Table:
    """``k → (n, sum_cents)`` totals of a partials table."""
    g = t.group_by("k", use_threads=False).aggregate(
        [("n", "sum"), ("sum_cents", "sum")]
    )
    return pa.table(
        {
            "k": g.column("k"),
            "n": g.column("n_sum"),
            "sum_cents": g.column("sum_cents_sum"),
        }
    )


def _fold_sums(lake_root: str, changes: pa.Table, prev, *, drop_empty=False):
    """Aggregate-view fold: prev state + this epoch's partials, sorted by
    key (deterministic file bytes: replays are byte-identical regardless
    of batch arrival order)."""
    pieces = [changes]
    if prev is not None and prev.files:
        pieces.append(read_files(lake_root, prev.files))
    merged = _sum_by_k(pa.concat_tables(pieces, promote_options="permissive"))
    if drop_empty:
        # retractions can empty a group: drop n==0 rows (one-shot GROUP BY
        # has no such group)
        merged = merged.filter(pc.not_equal(merged.column("n"), 0))
    return [("", merged.take(pc.sort_indices(merged, sort_keys=[("k", "ascending")])))]


def run_incremental_agg(
    lake_root: str,
    binlog_dir: str,
    *,
    table: str = "agg",
    key: str = "url",
    value_col: str = "warc_ts",
    num_partitions: int = 32,
    epochs: list[int] | None = None,
    resume: bool = True,
) -> dict:
    """Maintain ``key → (n, sum_cents)`` over every change event in the
    binlog, epoch by epoch, exactly-once.  Events with a null key are
    excluded (SQL ``WHERE key IS NOT NULL`` parity); null values count
    toward ``n`` but not ``sum_cents`` (SQL ``count(*)`` / ``sum``)."""
    store = ManifestStore(lake_root, table)
    store.root.mkdir(parents=True, exist_ok=True)
    meta = store.init_table(
        num_partitions=num_partitions,
        mode="append_dedup",  # read view: latest manifest per partition
        pk=[key],
        cursor=value_col,
        view="incremental_agg",
    )
    num_partitions = meta["num_partitions"]

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"k": batch.column(key), "v": batch.column(value_col)})
        t = t.filter(t.column("k").combine_chunks().is_valid())
        v = t.column("v").combine_chunks()
        if pa.types.is_timestamp(v.type):
            v = v.cast(pa.int64())  # µs since epoch as the numeric value
        cents = pc.cast(
            pc.floor(pc.multiply(pc.cast(v, pa.float64()), 100.0)),
            pa.int64(),
        )
        g = _sum_by_k(
            pa.table(
                {
                    "k": t.column("k"),
                    "n": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                    "sum_cents": pc.fill_null(cents, 0),
                }
            )
        )
        parts = partition_ids(g.column("k"), num_partitions)
        return g.append_column("_part", pa.array(parts, type=pa.int64()))

    return maintain_view(
        lake_root, table, meta["generation"],
        epochs if epochs is not None else list_epochs(binlog_dir),
        resume=resume, epoch_input=_binlog_epochs(binlog_dir),
        partitioner=partial,
        fold=lambda changes, prev: _fold_sums(lake_root, changes, prev),
    )


def read_agg(lake_root: str, table: str = "agg", *, key_name: str = "k"):
    """Dataset over the maintained aggregate state (latest snapshot per
    partition via the ordinary manifest listing); ``key_name`` renames the
    key column for downstream consumers."""
    from .cdc import read_table

    ds = read_table(lake_root, table)
    if key_name == "k":
        return ds

    def rename(b: pa.Table) -> pa.Table:
        names = [key_name if c == "k" else c for c in b.column_names]
        return b.rename_columns(names)

    return ds.map_batches(rename, batch_format="pyarrow", batch_size=None)


def run_incremental_sessions(
    lake_root: str,
    binlog_dir: str,
    *,
    table: str = "sessions",
    key: str = "url",
    ts_col: str = "warc_ts",
    seq: str = "seq",
    gap_minutes: float = 30.0,
    num_partitions: int = 32,
    epochs: list[int] | None = None,
    resume: bool = True,
) -> dict:
    """Incrementally-maintained SESSION table — streaming sessionization
    with cross-epoch state: each epoch extends/closes the previous
    snapshot's open sessions and appends new ones, under the same manifest
    CAS as the row lake (replay no-op, resume, epoch-split invariance).

    Maintained state per partition: one row per session
    ``(key, session_id, session_start, session_end, n_events)`` with
    1-based per-key ids; the LAST session of a key is implicitly open
    (a later event within ``gap_minutes`` of its end extends it).  The fold
    prepends one pseudo-event per open session (its end timestamp, seq −1
    so it sorts before any real event at the same ts, carrying the
    session's accumulated start/count/id) and runs the ordinary vectorized
    gap-boundary sessionizer over pseudo + new events.

    ASSUMPTION (the streaming-sessionizer standard): epoch boundaries are
    time-ordered per key — every event in epoch e+1 has ``ts`` ≥ the key's
    last ``ts`` in epochs ≤ e (true for any binlog whose global order is
    time order).  Late events would extend a session retroactively; route
    those through the watermark operator instead.  Null key / null ts
    events are dropped (oracle WHERE parity).  When the assumption holds,
    the maintained table equals the one-shot batch sessionize at any epoch
    split — which is what the oracle checks.
    """
    gap_us = int(gap_minutes * 60 * 1_000_000)
    store = ManifestStore(lake_root, table)
    store.root.mkdir(parents=True, exist_ok=True)
    meta = store.init_table(
        num_partitions=num_partitions,
        mode="append_dedup",
        pk=[key],
        cursor=ts_col,
        view="incremental_sessions",
    )
    num_partitions = meta["num_partitions"]

    def route(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "k": batch.column(key),
                "ts": pc.cast(batch.column(ts_col), pa.int64()),
                "seq": pc.cast(batch.column(seq), pa.int64()),
            }
        )
        t = t.filter(
            pc.and_(
                t.column("k").combine_chunks().is_valid(),
                t.column("ts").combine_chunks().is_valid(),
            )
        )
        parts = partition_ids(t.column("k"), num_partitions)
        return t.append_column("_part", pa.array(parts, type=pa.int64()))

    def fold(ev: pa.Table, prev) -> list:
        if prev is not None and prev.files:
            snap = read_files(lake_root, prev.files)
        else:
            snap = pa.table(
                {
                    "k": pa.array([], ev.schema.field("k").type),
                    "session_id": pa.array([], pa.int64()),
                    "session_start": pa.array([], pa.int64()),
                    "session_end": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                }
            )
        # split prev into closed rows (pass through) and open rows
        # (last session per key)
        sidx = pc.sort_indices(
            snap,
            sort_keys=[("k", "ascending"), ("session_id", "ascending")],
        )
        snap = snap.take(sidx)
        ns = snap.num_rows
        sk = snap.column("k").combine_chunks()
        is_open = np.ones(ns, dtype=bool)
        if ns > 1:
            is_open[:-1] = pc.not_equal(
                sk.slice(1), sk.slice(0, ns - 1)
            ).to_numpy(zero_copy_only=False)
        open_rows = snap.filter(pa.array(is_open))
        closed_rows = snap.filter(pa.array(~is_open))
        # pseudo-event per open session
        pseudo = pa.table(
            {
                "k": open_rows.column("k"),
                "ts": open_rows.column("session_end"),
                "seq": pa.array(
                    np.full(open_rows.num_rows, -1, dtype=np.int64)
                ),
                "c_start": open_rows.column("session_start"),
                "c_n": open_rows.column("n_events"),
                "c_sid": open_rows.column("session_id"),
            }
        )
        evx = pa.table(
            {
                "k": ev.column("k"),
                "ts": ev.column("ts"),
                "seq": ev.column("seq"),
                "c_start": pa.nulls(ev.num_rows, pa.int64()),
                "c_n": pa.array(np.ones(ev.num_rows, dtype=np.int64)),
                "c_sid": pa.nulls(ev.num_rows, pa.int64()),
            }
        )
        allr = pa.concat_tables([pseudo, evx])
        idx = pc.sort_indices(
            allr,
            sort_keys=[
                ("k", "ascending"),
                ("ts", "ascending"),
                ("seq", "ascending"),
            ],
        )
        allr = allr.take(idx)
        n = allr.num_rows
        kk = allr.column("k").combine_chunks()
        ts = allr.column("ts").to_numpy(zero_copy_only=False)
        keychg = np.ones(n, dtype=bool)
        if n > 1:
            keychg[1:] = pc.not_equal(
                kk.slice(1), kk.slice(0, n - 1)
            ).to_numpy(zero_copy_only=False)
        gap = np.ones(n, dtype=bool)
        if n > 1:
            gap[1:] = (ts[1:] - ts[:-1]) > gap_us
        newseg = keychg | gap
        si = np.flatnonzero(newseg)
        ei = np.r_[si[1:], n] - 1
        # nullable int64 columns surface as float64-with-nan; all
        # selected values below are integral floats < 2^53, so the
        # final int64 casts are exact
        c_sid = allr.column("c_sid").to_numpy(zero_copy_only=False)
        c_start = allr.column("c_start").to_numpy(zero_copy_only=False)
        c_n = allr.column("c_n").to_numpy(zero_copy_only=False)
        sq = allr.column("seq").to_numpy(zero_copy_only=False)
        starts_pseudo = sq[si] == -1
        # per-key segment ordinal: segments since the key's first
        # segment (a segment starts a key iff its first row does)
        seg_is_keystart = keychg[si]
        nseg = len(si)
        fk = np.maximum.accumulate(
            np.where(seg_is_keystart, np.arange(nseg), -1)
        )
        seg_ord = np.arange(nseg) - fk
        # base sid per KEY: continuing an open session (its first row
        # is the pseudo-event) starts numbering at that session's id;
        # a fresh key starts at 1
        key_start_rows = si[seg_is_keystart]
        base_per_key = np.where(
            sq[key_start_rows] == -1,
            np.nan_to_num(c_sid[key_start_rows], nan=1.0) - 1.0,
            0.0,
        ).astype(np.int64)
        key_of_seg = np.cumsum(seg_is_keystart) - 1
        sid = base_per_key[key_of_seg] + seg_ord + 1
        seg_start = np.where(
            starts_pseudo, np.nan_to_num(c_start[si], nan=0.0), ts[si]
        ).astype(np.int64)
        seg_end = ts[ei]
        # n_events: sum c_n per segment
        seg_n = np.add.reduceat(c_n, si) if len(si) else np.array(
            [], dtype=np.int64
        )
        new_sessions = pa.table(
            {
                "k": kk.take(pa.array(si, type=pa.int64())),
                "session_id": pa.array(sid, type=pa.int64()),
                "session_start": pa.array(seg_start, type=pa.int64()),
                "session_end": pa.array(seg_end, type=pa.int64()),
                "n_events": pa.array(seg_n, type=pa.int64()),
            }
        )
        merged = pa.concat_tables([closed_rows, new_sessions])
        merged = merged.take(
            pc.sort_indices(
                merged,
                sort_keys=[("k", "ascending"), ("session_id", "ascending")],
            )
        )
        return [("", merged)]

    return maintain_view(
        lake_root, table, meta["generation"],
        epochs if epochs is not None else list_epochs(binlog_dir),
        resume=resume, epoch_input=_binlog_epochs(binlog_dir),
        partitioner=route, fold=fold,
    )


def run_incremental_state_agg(
    lake_root: str,
    *,
    row_table: str,
    table: str = "state_agg",
    group_col: str,
    value_col: str,
    num_partitions: int = 8,
    epochs: list[int] | None = None,
    resume: bool = True,
) -> dict:
    """RETRACTABLE incrementally-maintained aggregate over the row
    table's CURRENT LWW STATE (the Materialize / Flink retract-stream
    analog, and the half :func:`run_incremental_agg` does not cover —
    that one folds every change EVENT; this one maintains
    ``group_col → (n, sum_cents)`` of the visible snapshot, so updates
    RETRACT their old contribution and deletes subtract).

    Per epoch: :func:`cdc.change_feed` derives the net row changes the
    lake took at that epoch (changed-partition-pruned local diffs — no
    exchange on the snapshot path); each 'U'/'D' emits a signed
    retraction of the OLD row's contribution and each 'I'/'U' a signed
    addition of the NEW row's, pre-reduced per batch to per-group
    deltas; ONE tiny group-hash exchange folds them into the persistent
    state under the same per-(generation, epoch, partition) manifest CAS
    as the row lake (replay/resume exactly-once; groups whose count
    reaches 0 drop from the state, matching one-shot ``GROUP BY``).

    The maintained state is bit-identical to the one-shot SQL
    ``GROUP BY`` over the row table's as-of snapshot at EVERY epoch
    (integer cents; test-pinned) — the final state is what the oracle
    checks.  Null groups are excluded (``WHERE group IS NOT NULL``
    parity); null values count toward ``n`` only.
    """
    from .cdc import change_feed

    row_store = ManifestStore(lake_root, row_table)
    row_meta = row_store.table_meta()
    if epochs is None:
        ckpt = row_store.last_checkpoint(int(row_meta["generation"]))
        last = int(ckpt["epoch"]) if ckpt else -1
        epochs = list(range(last + 1))

    store = ManifestStore(lake_root, table)
    store.root.mkdir(parents=True, exist_ok=True)
    meta = store.init_table(
        num_partitions=num_partitions,
        mode="append_dedup",
        pk=[group_col],
        cursor=value_col,
        view="incremental_state_agg",
    )
    num_partitions = meta["num_partitions"]

    go, gn = f"{group_col}_old", f"{group_col}_new"
    vo, vn = f"{value_col}_old", f"{value_col}_new"

    def _cents(col) -> pa.Array:
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        if pa.types.is_timestamp(col.type):
            col = col.cast(pa.int64())
        return pc.fill_null(
            pc.cast(
                pc.floor(pc.multiply(pc.cast(col, pa.float64()), 100.0)),
                pa.int64(),
            ),
            0,
        )

    def partial(batch: pa.Table) -> pa.Table:
        op = batch.column("op").combine_chunks()
        retract = pc.is_in(op, value_set=pa.array(["U", "D"]))
        add = pc.is_in(op, value_set=pa.array(["I", "U"]))
        olds = batch.filter(retract)
        news = batch.filter(add)
        pieces = []
        for side, g_col, v_col, sign in (
            (olds, go, vo, -1),
            (news, gn, vn, 1),
        ):
            side = side.filter(
                side.column(g_col).combine_chunks().is_valid()
            )
            if side.num_rows == 0:
                continue
            pieces.append(
                pa.table(
                    {
                        "k": side.column(g_col),
                        "n": pa.array(
                            np.full(side.num_rows, sign, dtype=np.int64)
                        ),
                        "sum_cents": pc.multiply(
                            _cents(side.column(v_col)), np.int64(sign)
                        ),
                    }
                )
            )
        if not pieces:
            # key type from the batch schema, NOT hardcoded string — an
            # all-null-group block would otherwise emit a mixed-schema
            # empty table for int/other group columns
            ktype = batch.schema.field(gn).type
            return pa.table(
                {
                    "k": pa.array([], type=ktype),
                    "n": pa.array([], type=pa.int64()),
                    "sum_cents": pa.array([], type=pa.int64()),
                    "_part": pa.array([], type=pa.int64()),
                }
            )
        g = _sum_by_k(pa.concat_tables(pieces))
        parts = partition_ids(g.column("k"), num_partitions)
        return g.append_column("_part", pa.array(parts, type=pa.int64()))

    return maintain_view(
        lake_root, table, meta["generation"], epochs, resume=resume,
        epoch_input=lambda e: change_feed(
            lake_root, row_table, epoch=e, compare_cols=[group_col, value_col]
        ),
        partitioner=partial,
        fold=lambda changes, prev: _fold_sums(
            lake_root, changes, prev, drop_empty=True
        ),
    )


def run_incremental_quantile_view(
    lake_root: str,
    binlog_dir: str,
    *,
    table: str = "qview",
    key: str = "event_type",
    value_col: str = "value",
    delta: int = 4096,
    num_partitions: int = 4,
    epochs: list[int] | None = None,
    resume: bool = True,
) -> dict:
    """Incrementally-maintained APPROXIMATE quantile view: a persistent
    per-group mergeable quantile digest (functions/sketches.py — the
    100 TB path where the exact per-group quantile would shuffle every
    row every refresh), folded epoch by epoch under the same
    per-(generation, epoch, partition) manifest CAS as the row lake.
    Each epoch ships ≤ 2·delta float64 per (group, batch) on the only
    exchange and rewrites O(groups) state rows — refresh cost is
    independent of history size.

    Exact-until-compression (DataSketches-style contract): while a
    group's total value count stays ≤ ``delta``, the maintained digest
    reproduces ``quantile_cont`` bit-exactly — which is what makes the
    final read oracle-checkable; past that, accuracy degrades to
    ~1/delta in q-space (pinned vs the exact operator in the sketch unit
    tests).  Stream semantics like :func:`run_incremental_agg` (every
    change event's value folds in; sketches cannot retract)."""
    from ..functions.sketches import (
        qdigest_from_values,
        qdigest_merge,
        qdigest_pack,
        qdigest_unpack,
    )

    store = ManifestStore(lake_root, table)
    store.root.mkdir(parents=True, exist_ok=True)
    meta = store.init_table(
        num_partitions=num_partitions,
        mode="append_dedup",
        pk=[key],
        cursor=value_col,
        view="incremental_quantile",
    )
    num_partitions = meta["num_partitions"]

    def partial(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).combine_chunks()
        if pa.types.is_timestamp(v.type):
            v = v.cast(pa.int64())  # µs since epoch as the numeric value
        t = pa.table({key: batch.column(key), value_col: v})
        t = t.filter(t.column(key).combine_chunks().is_valid())
        t = t.filter(t.column(value_col).combine_chunks().is_valid())
        idx = pc.sort_indices(t, sort_keys=[(key, "ascending")])
        t = t.take(idx)
        karr = t.column(key).combine_chunks().to_numpy(zero_copy_only=False)
        vals = t.column(value_col).to_numpy(zero_copy_only=False)
        if len(karr) == 0:
            # all-null (or empty) block: np.nonzero over the [True]
            # seed would fabricate a segment and index karr[0]
            return pa.table({
                "k": pa.array([], type=t.schema.field(key).type),
                "_digest": pa.array([], type=pa.binary()),
                "_part": pa.array([], type=pa.int64()),
            })
        starts = np.nonzero(
            np.concatenate(([True], karr[1:] != karr[:-1]))
        )[0]
        ends = np.append(starts[1:], len(karr))
        out_keys, bufs = [], []
        for s, e in zip(starts, ends):
            out_keys.append(karr[s])
            bufs.append(
                qdigest_pack(qdigest_from_values(vals[s:e], delta))
            )
        keys_arr = pa.array(out_keys, type=t.schema.field(key).type)
        parts = partition_ids(keys_arr, num_partitions)
        return pa.table(
            {
                "k": keys_arr,
                "_digest": pa.array(bufs, type=pa.binary()),
                "_part": pa.array(parts, type=pa.int64()),
            }
        )

    def fold(group: pa.Table, prev) -> list:
        state: dict = {}
        if prev is not None and prev.files:
            old = read_files(lake_root, prev.files)
            for kk, buf in zip(
                old.column("k").to_pylist(),
                old.column("_digest").to_pylist(),
            ):
                state[kk] = qdigest_unpack(buf)
        for kk, buf in zip(
            group.column("k").to_pylist(),
            group.column("_digest").to_pylist(),
        ):
            d = qdigest_unpack(buf)
            state[kk] = (
                qdigest_merge(state[kk], d, delta)
                if kk in state
                else d
            )
        keys_sorted = sorted(state)
        merged = pa.table(
            {
                "k": pa.array(
                    keys_sorted, type=group.schema.field("k").type
                ),
                "_digest": pa.array(
                    [qdigest_pack(state[kk]) for kk in keys_sorted],
                    type=pa.binary(),
                ),
            }
        )
        return [("", merged)]

    return maintain_view(
        lake_root, table, meta["generation"],
        epochs if epochs is not None else list_epochs(binlog_dir),
        resume=resume, epoch_input=_binlog_epochs(binlog_dir),
        partitioner=partial, fold=fold,
    )


def read_quantile_view(
    lake_root: str,
    table: str = "qview",
    *,
    quantiles: tuple = (0.5, 0.9),
    key_name: str = "k",
):
    """Per-group quantile estimates from the maintained digest state
    (O(groups) rows read; no event data touched)."""
    from ..functions.sketches import qdigest_quantile, qdigest_unpack
    from .cdc import read_table

    ds = read_table(lake_root, table, include_meta=False)
    qcols = [f"p{int(q * 100)}" for q in quantiles]

    def finalize(b: pa.Table) -> pa.Table:
        out = {key_name: b.column("k")}
        ests = {name: [] for name in qcols}
        for buf in b.column("_digest").to_pylist():
            d = qdigest_unpack(buf)
            for q, name in zip(quantiles, qcols):
                ests[name].append(float(qdigest_quantile(d, q)))
        for name in qcols:
            out[name] = pa.array(ests[name], type=pa.float64())
        return pa.table(out)

    return ds.map_batches(finalize, batch_format="pyarrow", batch_size=None)
