"""The flagship CDC pipeline driven by the driver's ``events`` test table.

Deterministically re-shapes ``events.parquet`` into a binlog (pk=user_id,
ver=ts, seq=event_id, ``error`` events as tombstones), runs the full sync —
epochs, hash-partition shuffle, LWW merge, manifests, checkpoints — and
returns the compacted table.  Because every step is deterministic, the final
state equals the one-shot SQL::

    SELECT event_id, ts, user_id, event_type, value, props FROM events
    QUALIFY row_number() OVER (
        PARTITION BY user_id ORDER BY ts DESC, event_id DESC) = 1
      AND event_type <> 'error'

which makes the ENTIRE engine (not just the merge kernel) oracle-checkable.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .cdc import read_table, run_cdc_sync

EVENT_PAYLOAD = ["event_id", "ts", "user_id", "event_type", "value", "props"]


def build_binlog_from_events(
    events_path: str, out_dir: str | Path, *, n_epochs: int = 3
) -> dict:
    """Write the events table as a CDC binlog: op=D for ``error`` events,
    epochs split by event_id range, one segment per epoch."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t = pq.read_table(events_path)
    seq = t.column("event_id").to_numpy(zero_copy_only=False)
    upper = int(seq.max()) + 1
    epoch = ((seq.astype(np.int64) * n_epochs) // upper).astype(np.int32)
    is_del = pc.equal(t.column("event_type"), "error")
    op = pc.if_else(is_del, "D", "U")

    cols = {
        "seq": pa.array(seq, type=pa.int64()),
        "epoch": pa.array(epoch, type=pa.int32()),
        "op": op,
    }
    for name in EVENT_PAYLOAD:
        cols[name] = t.column(name)
    env = pa.table(cols)

    segments = []
    for e in range(n_epochs):
        chunk = env.filter(pc.equal(env.column("epoch"), e))
        name = f"segment-e{e:05d}-0000.parquet"
        pq.write_table(chunk, out / name, compression="zstd")
        segments.append(name)
    summary = {"n_events": env.num_rows, "n_epochs": n_epochs, "segments": segments}
    with open(out / "_binlog.json", "w") as f:
        json.dump(summary, f, sort_keys=True)
    return summary


def lineage_epoch_totals(sf_dir: str, *, workdir: str | Path | None = None) -> pa.Table:
    """Per-epoch lake totals derived ONLY from commit manifests (A5 —
    record counting without a data scan): after ingesting epoch ``e`` the
    lake holds ``total_rows`` = distinct users whose events arrived in
    epochs ≤ e (tombstone rows included — they are physical snapshot rows)
    and ``max_seq`` = highest event_id ingested.

    Because the binlog's epoch assignment is a deterministic function of
    ``event_id`` ((event_id · n_epochs) // (max+1)), these metadata-derived
    numbers are reproducible in SQL from the raw events table — which makes
    the manifest bookkeeping itself (row_count, max_seq per partition,
    recency resolution) hash-checkable against a DuckDB oracle."""
    import os

    from ..state.manifest import ManifestStore, resolve_state, source_epochs

    tag = f"lineage-tot-{Path(sf_dir).name}-{os.getpid()}"
    base = Path(workdir) if workdir else Path("/tmp/adr_query") / tag
    lake = base / "lake"
    sync_events_table(sf_dir, workdir=base).count()  # ensure synced
    store = ManifestStore(str(lake), "events_cdc")
    meta = store.table_meta()
    manifests = store._iter_manifests(meta["generation"])
    out_e, out_rows, out_seq = [], [], []
    for e in sorted(source_epochs(manifests)):
        state = resolve_state(manifests, max_epoch=e).values()
        out_e.append(e)
        out_rows.append(sum(m.row_count for m in state))
        out_seq.append(max(m.max_seq for m in state))
    return pa.table(
        {
            "epoch": pa.array(out_e, type=pa.int64()),
            "total_rows": pa.array(out_rows, type=pa.int64()),
            "max_seq": pa.array(out_seq, type=pa.int64()),
        }
    )


def _ensure_events_lake(
    sf_dir: str,
    workdir: str | Path | None = None,
    *,
    variant: str = "",
) -> Path:
    """Sync the events table into a pid-scoped scratch lake; return its
    root.  CACHED within the process: a second call finds the committed
    checkpoints and the sync resumes into a no-op, so the read-only CDC
    queries (full read, time travel, change feed, lookup) share ONE build
    instead of each paying a full binlog + 3-epoch sync.  Mutating queries
    (GDPR delete) pass a ``variant`` suffix for an isolated copy — their
    own re-runs are idempotent (delete of already-deleted keys is a
    no-op), but they must never touch the shared lake."""
    import os

    tag = f"{Path(sf_dir).name}-{os.getpid()}{variant}"
    base = Path(workdir) if workdir else Path("/tmp/adr_query") / tag
    binlog = base / "binlog"
    lake = base / "lake"
    if not (binlog / "_binlog.json").exists():
        shutil.rmtree(base, ignore_errors=True)
        build_binlog_from_events(f"{sf_dir}/events.parquet", binlog)
    run_cdc_sync(
        str(lake),
        str(binlog),
        table="events_cdc",
        pk="user_id",
        ver="ts",
        payload_columns=EVENT_PAYLOAD,
        num_partitions=16,
        compute_digest=False,
    )
    return lake


def range_scan_events_table(sf_dir: str, *, workdir: str | Path | None = None):
    """Zone-map range scan as a query: read the visible lake state with
    ``event_id`` in ``[3·max//4, max]`` (LWW winners skew to high event
    ids, so this range is the populated one).  The bounds come from
    manifest metadata (``max_seq`` per partition — no data pass), the scan
    prunes files via the manifests' per-file min/max zone maps before the
    exact vectorized row filter.  Oracle: the LWW fold with the same
    BETWEEN."""
    from ..state.manifest import ManifestStore

    lake = _ensure_events_lake(sf_dir, workdir)
    store = ManifestStore(str(lake), "events_cdc")
    state = store.table_state(store.table_meta()["generation"])
    upper = max([0, *(m.max_seq for m in state.values())])
    return read_table(
        str(lake), "events_cdc", columns=EVENT_PAYLOAD,
        range_filter=("event_id", (3 * upper) // 4, upper),
    )


def sync_events_table(sf_dir: str, *, workdir: str | Path | None = None):
    """Run the full CDC engine over the events table; return the compacted
    lake table as a Dataset (columns = the original event columns)."""
    lake = _ensure_events_lake(sf_dir, workdir)
    return read_table(str(lake), "events_cdc")


def lookup_events_table(
    sf_dir: str, keys, *, workdir: str | Path | None = None
):
    """CDC point lookup as a query: sync the events binlog into the lake,
    then read ONLY the partitions the requested user_ids hash to
    (``cdc.lookup_rows``) — the lake's hash layout as an index.  Tombstoned
    users (latest event 'error') and unknown users return no row."""
    from .cdc import lookup_rows

    lake = _ensure_events_lake(sf_dir, workdir)
    return lookup_rows(str(lake), "events_cdc", keys)


def backfill_events_roundtrip(
    sf_dir: str, *, workdir: str | Path | None = None
):
    """Snapshot-diff backfill round trip — upsert ∘ diff = identity:

    1. seed a lake from HALF the stream (even event_ids, epoch 0);
    2. diff the LAKE's current state against the full-stream LWW snapshot
       (``relational.table_diff`` — the changelog-derivation path a source
       without a binlog needs);
    3. convert the I/U rows back into change events (epoch 1) and apply
       them through the ordinary CDC sync — LWW-safe because the new
       snapshot is the max over a SUPERSET of the seed's events, so every
       changed key moves forward in ``(ts, event_id)``, never backward
       (forward-only backfill; a rollback needs an overwrite generation
       flip, not upserts).

    Returns the lake read after the apply; byte-equal to the plain LWW
    snapshot of the full stream (the driver oracle).  The diff is
    collected to build the epoch-1 segment (bounded by changed keys —
    at 100 TB the same conversion is a ``write_parquet`` of the streamed
    diff, no driver hop).
    """
    import os

    import pyarrow.compute as _pc

    from .ops import lww_latest
    from .relational import table_diff
    from ..sources.parquet import read_parquet_sized

    tag = f"bf-{Path(sf_dir).name}-{os.getpid()}"
    base = Path(workdir) if workdir else Path("/tmp/adr_query") / tag
    binlog = base / "binlog"
    lake = str(base / "lake")
    shutil.rmtree(base, ignore_errors=True)
    binlog.mkdir(parents=True, exist_ok=True)

    events = pq.read_table(f"{sf_dir}/events.parquet")
    even = events.filter(
        _pc.equal(_pc.bit_wise_and(events.column("event_id"), 1), 0)
    )
    seg0 = pa.table(
        {
            "seq": even.column("event_id"),
            "epoch": pa.array(
                np.zeros(even.num_rows, dtype=np.int32), pa.int32()
            ),
            "op": pa.array(["U"] * even.num_rows, pa.string()),
            **{c: even.column(c) for c in EVENT_PAYLOAD},
        }
    )
    pq.write_table(seg0, binlog / "segment-e00000-0000.parquet")
    with open(binlog / "_binlog.json", "w") as f:
        json.dump(
            {
                "n_events": int(even.num_rows),
                "n_epochs": 2,
                "segments": [
                    "segment-e00000-0000.parquet",
                    "segment-e00001-0000.parquet",
                ],
            },
            f,
            sort_keys=True,
        )

    def sync(epochs):
        run_cdc_sync(
            lake,
            str(binlog),
            table="events_cdc",
            pk="user_id",
            ver="ts",
            payload_columns=EVENT_PAYLOAD,
            num_partitions=8,
            epochs=epochs,
            compute_digest=False,
        )

    sync([0])

    new_snap = lww_latest(
        read_parquet_sized(f"{sf_dir}/events.parquet"),
        pk="user_id",
        ver="ts",
        seq="event_id",
    )
    compare = [c for c in EVENT_PAYLOAD if c != "user_id"]
    diff = table_diff(
        read_table(lake, "events_cdc"),
        new_snap,
        key="user_id",
        compare_cols=compare,
    )
    # changed keys only; rebuild the NEW row per I/U (no D possible:
    # the new snapshot covers a superset of the seed's keys)
    import ray

    refs = diff.to_arrow_refs()
    parts = [t for t in (ray.get(refs) if refs else []) if t.num_rows]
    if parts:
        d = pa.concat_tables(parts)
        d = d.filter(_pc.is_in(d.column("op"), value_set=pa.array(["I", "U"])))
        seg1 = pa.table(
            {
                "seq": d.column("event_id_new"),
                "epoch": pa.array(
                    np.ones(d.num_rows, dtype=np.int32), pa.int32()
                ),
                "op": pa.array(["U"] * d.num_rows, pa.string()),
                "user_id": d.column("user_id"),
                **{
                    c: d.column(f"{c}_new")
                    for c in compare
                },
            }
        ).select(["seq", "epoch", "op", *EVENT_PAYLOAD])
        pq.write_table(seg1, binlog / "segment-e00001-0000.parquet")
        sync([1])

    return read_table(lake, "events_cdc")


def time_travel_events_table(
    sf_dir: str, *, as_of_epoch: int = 1, workdir: str | Path | None = None
):
    """TIME TRAVEL query: sync the 3-epoch events binlog, then read the lake
    AS OF ``as_of_epoch`` — the manifest log is the snapshot index, so the
    historical read costs the same I/O as a current read and the oracle is
    the LWW fold over only the epochs ≤ the target (epoch assignment is a
    deterministic function of event_id, hence SQL-reproducible)."""
    from .cdc import read_table

    lake = _ensure_events_lake(sf_dir, workdir)
    return read_table(str(lake), "events_cdc", as_of_epoch=as_of_epoch)


def rollback_events_table(
    sf_dir: str, *, to_epoch: int = 1, workdir: str | Path | None = None
):
    """ROLLBACK (RESTORE analog) as a query: sync the 3-epoch events
    binlog into an isolated lake variant, rewind it to ``to_epoch`` with
    :func:`cdc.rollback_table` (metadata-only manifest surgery), then
    read the CURRENT state — which must equal the time-travel read, so
    the oracle is the same LWW fold over epochs ≤ ``to_epoch``.  Re-runs
    are deterministic: the resumed sync replays the rewound epochs (their
    manifest CAS slots are free again) and the rollback rewinds them
    again."""
    from .cdc import read_table, rollback_table

    lake = _ensure_events_lake(sf_dir, workdir, variant="-rollback")
    rollback_table(str(lake), "events_cdc", to_epoch)
    return read_table(str(lake), "events_cdc")


def column_audit_events_table(
    sf_dir: str, *, workdir: str | Path | None = None
):
    """Column-level change audit (CDC observability): per epoch, the
    change feed's I/U/D row counts plus, over the 'U' rows, how many
    keys changed EACH compared column (null-safe IS DISTINCT FROM) —
    the "who changed what, when" rollup a lakehouse audit page shows.
    One changed-partition-pruned change_feed per epoch, per-batch
    fold to a single counts row (aggregate-sized; nothing collects
    beyond 3 rows).  Oracle = per-epoch FULL JOIN of the deterministic
    as-of LWW snapshots."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .cdc import change_feed

    lake = _ensure_events_lake(sf_dir, workdir)
    cols = ["ts", "event_type", "value"]

    def _distinct(a, b):
        both_null = pc.and_(pc.is_null(a), pc.is_null(b))
        eq = pc.fill_null(pc.equal(a, b), False)
        return pc.invert(pc.or_(both_null, eq))

    out_rows = []
    for e in range(3):
        cf = change_feed(
            str(lake), "events_cdc", epoch=e, compare_cols=cols
        )

        def fold(batch: pa.Table) -> pa.Table:
            op = batch.column("op").combine_chunks()
            is_u = pc.equal(op, "U")
            row = {
                "n_insert": int(
                    pc.sum(pc.cast(pc.equal(op, "I"), pa.int64())).as_py()
                    or 0
                ),
                "n_update": int(
                    pc.sum(pc.cast(is_u, pa.int64())).as_py() or 0
                ),
                "n_delete": int(
                    pc.sum(pc.cast(pc.equal(op, "D"), pa.int64())).as_py()
                    or 0
                ),
            }
            for c in cols:
                ch = pc.and_(
                    is_u,
                    _distinct(
                        batch.column(f"{c}_old").combine_chunks(),
                        batch.column(f"{c}_new").combine_chunks(),
                    ),
                )
                row[f"changed_{c}"] = int(
                    pc.sum(pc.cast(ch, pa.int64())).as_py() or 0
                )
            return pa.Table.from_pylist([row])

        parts = cf.map_batches(
            fold, batch_format="pyarrow", batch_size=None
        ).take_all()
        agg = {"epoch": e}
        for k in (
            "n_insert", "n_update", "n_delete",
            *[f"changed_{c}" for c in cols],
        ):
            agg[k] = sum(r[k] for r in parts)
        # a zero-net-change epoch has no diff rows — the SQL GROUP BY
        # emits no row for it, so neither do we
        if agg["n_insert"] + agg["n_update"] + agg["n_delete"] > 0:
            out_rows.append(agg)
    t = pa.Table.from_pylist(out_rows)
    return t.cast(
        pa.schema([(n, pa.int64()) for n in t.column_names])
    )


def binlog_gap_audit(sf_dir: str, *, workdir: str | Path | None = None):
    """Binlog integrity audit (source-completeness observability): per
    epoch, event count, seq min/max, and the implied missing-sequence
    count ``(max - min + 1) - count`` — the check a CDC operator runs
    before trusting a replication slot.  Zero-exchange per-batch
    (epoch → count/min/max) partials; only O(epochs) rows reach the
    driver."""
    import os

    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    from ..sources.synth import list_epochs, list_segments

    tag = f"{Path(sf_dir).name}-{os.getpid()}-gapaudit"
    base = Path(workdir) if workdir else Path("/tmp/adr_query") / tag
    binlog = base / "binlog"
    if not (binlog / "_binlog.json").exists():
        shutil.rmtree(base, ignore_errors=True)
        build_binlog_from_events(f"{sf_dir}/events.parquet", binlog)
    segs = [
        s for e in list_epochs(str(binlog))
        for s in list_segments(str(binlog), e)
    ]
    ds = ray.data.read_parquet(segs, override_num_blocks=len(segs))

    def partial(b: pa.Table) -> pa.Table:
        g = (
            b.select(["epoch", "seq"])
            .group_by("epoch", use_threads=False)
            .aggregate([("seq", "count"), ("seq", "min"), ("seq", "max")])
        )
        return g.rename_columns(["epoch", "cnt", "mn", "mx"])

    parts = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=None
    ).take_all()
    agg: dict[int, list] = {}
    for r in parts:
        e = int(r["epoch"])
        cur = agg.get(e)
        if cur is None:
            agg[e] = [r["cnt"], r["mn"], r["mx"]]
        else:
            cur[0] += r["cnt"]
            cur[1] = min(cur[1], r["mn"])
            cur[2] = max(cur[2], r["mx"])
    rows = [
        {
            "epoch": e,
            "n_events": c,
            "seq_min": mn,
            "seq_max": mx,
            "n_missing": (mx - mn + 1) - c,
        }
        for e, (c, mn, mx) in sorted(agg.items())
    ]
    t = pa.Table.from_pylist(rows)
    return t.cast(pa.schema([(n, pa.int64()) for n in t.column_names]))


def quantile_view_events_table(
    sf_dir: str, *, workdir: str | Path | None = None
):
    """Incrementally-maintained approximate quantile view as a query:
    fold the 3-epoch events binlog into a persistent per-event_type
    quantile digest (delta=4096 → exact-until-compression, so the final
    read reproduces ``quantile_cont`` bit-exactly at driver SF), then
    read p50/p90 per group.  Refresh cost per epoch is O(groups), not
    O(history)."""
    import os

    from .aggview import read_quantile_view, run_incremental_quantile_view

    tag = f"{Path(sf_dir).name}-{os.getpid()}-qview"
    base = Path(workdir) if workdir else Path("/tmp/adr_query") / tag
    binlog = base / "binlog"
    if not (binlog / "_binlog.json").exists():
        shutil.rmtree(base, ignore_errors=True)
        build_binlog_from_events(f"{sf_dir}/events.parquet", binlog)
    run_incremental_quantile_view(
        str(base / "lake"), str(binlog),
        table="events_qview", key="event_type", value_col="value",
        delta=4096, num_partitions=4,
    )
    return read_quantile_view(
        str(base / "lake"), "events_qview",
        quantiles=(0.5, 0.9), key_name="event_type",
    )


def merged_quantile_views_events(
    sf_dir: str, *, workdir: str | Path | None = None
):
    """FEDERATED sketch merge: two independently-maintained quantile
    views — lake A folds binlog epochs 0-1, lake B folds epoch 2 — and
    the merged digests answer for the WHOLE stream (the mergeability
    contract that makes sketch state shippable across clusters /
    regions without touching event data).  Exact-until-compression, so
    merged == one-shot quantile_cont at driver SF (same oracle as
    cdc_quantile_view, entirely different machinery)."""
    import os

    import pyarrow as pa

    from ..functions.sketches import (
        qdigest_merge,
        qdigest_quantile,
        qdigest_unpack,
    )
    from .aggview import run_incremental_quantile_view
    from .cdc import read_table_arrow

    tag = f"{Path(sf_dir).name}-{os.getpid()}-qmerge"
    base = Path(workdir) if workdir else Path("/tmp/adr_query") / tag
    binlog = base / "binlog"
    if not (binlog / "_binlog.json").exists():
        shutil.rmtree(base, ignore_errors=True)
        build_binlog_from_events(f"{sf_dir}/events.parquet", binlog)
    run_incremental_quantile_view(
        str(base / "lakeA"), str(binlog), table="qv",
        key="event_type", value_col="value", delta=4096,
        num_partitions=4, epochs=[0, 1],
    )
    run_incremental_quantile_view(
        str(base / "lakeB"), str(binlog), table="qv",
        key="event_type", value_col="value", delta=4096,
        num_partitions=4, epochs=[2], resume=False,
    )
    merged: dict = {}
    for lake in (base / "lakeA", base / "lakeB"):
        t = read_table_arrow(str(lake), "qv")
        for k, buf in zip(
            t.column("k").to_pylist(), t.column("_digest").to_pylist()
        ):
            d = qdigest_unpack(buf)
            merged[k] = (
                qdigest_merge(merged[k], d, 4096) if k in merged else d
            )
    ks = sorted(merged)
    return pa.table(
        {
            "event_type": pa.array(ks, type=pa.string()),
            "p50": pa.array(
                [float(qdigest_quantile(merged[k], 0.5)) for k in ks]
            ),
            "p90": pa.array(
                [float(qdigest_quantile(merged[k], 0.9)) for k in ks]
            ),
        }
    )


def state_agg_events_table(
    sf_dir: str, *, workdir: str | Path | None = None
):
    """Retractable incrementally-maintained aggregate as a query: maintain
    ``event_type → (n, sum_cents)`` of the row table's VISIBLE LWW
    snapshot across the 3 binlog epochs via change-feed retractions
    (:func:`aggview.run_incremental_state_agg` — updates retract their
    old contribution, deletes subtract), then read the final state.
    Oracle = the one-shot SQL GROUP BY over the final LWW snapshot."""
    import pyarrow as pa

    from .aggview import run_incremental_state_agg
    from .cdc import read_table

    lake = _ensure_events_lake(sf_dir, workdir)
    run_incremental_state_agg(
        str(lake),
        row_table="events_cdc",
        table="events_state_agg",
        group_col="event_type",
        value_col="value",
        num_partitions=8,
    )
    ds = read_table(str(lake), "events_state_agg")

    def rename(b: pa.Table) -> pa.Table:
        return b.rename_columns(
            ["event_type" if c == "k" else c for c in b.column_names]
        )

    return ds.map_batches(rename, batch_format="pyarrow", batch_size=None)


CLONE_DELETE_USER_IDS = [4, 6, 9, 25, 49]


def clone_branch_events_table(
    sf_dir: str, *, workdir: str | Path | None = None
):
    """SHALLOW CLONE + branch divergence as a query: clone the synced
    events table (zero-copy metadata branch), GDPR-delete a key set IN
    THE BRANCH ONLY, and read the branch.  Touched partitions read the
    branch's rewritten files; untouched partitions still read the
    SOURCE's data files through the cloned manifests — the zero-copy
    contract exercised end to end.  Oracle = the full LWW snapshot minus
    the branch-deleted keys (the source table's own queries pin that the
    source is unaffected)."""
    from .cdc import clone_table, delete_rows, read_table

    lake = _ensure_events_lake(sf_dir, workdir, variant="-clonesrc")
    branch = "events_cdc_branch"
    if not (Path(lake) / branch).exists():
        clone_table(str(lake), "events_cdc", branch)
    # idempotent (delete of already-deleted keys is a no-op) — always
    # re-apply so a crash between clone and delete cannot wedge the query
    delete_rows(str(lake), branch, CLONE_DELETE_USER_IDS)
    return read_table(str(lake), branch)


GDPR_DELETE_USER_IDS = [1, 2, 3, 5, 8, 13, 21]


def gdpr_delete_events_table(
    sf_dir: str, *, keys=None, workdir: str | Path | None = None
):
    """GDPR deletion query: sync the events binlog, physically delete the
    requested user_ids (``cdc.delete_rows`` — O(keys) partition rewrites in
    the compaction manifest lane), then read the final table.  Oracle = the
    tombstone-LWW snapshot minus the deleted keys.  Uses an isolated lake
    variant — the delete mutates state and must not touch the lake the
    read-only queries share."""
    from .cdc import delete_rows, read_table

    lake = _ensure_events_lake(sf_dir, workdir, variant="-gdpr")
    delete_rows(str(lake), "events_cdc", keys or GDPR_DELETE_USER_IDS)
    return read_table(str(lake), "events_cdc")


def merge_apply_events_table(sf_dir: str, *, workdir: str | Path | None = None):
    """MERGE INTO as a query: sync the events binlog, then apply ONE
    set-oriented merge computed FROM the lake's own visible state —
    upsert ``value + 1000`` for users with ``user_id % 7 = 0`` (and not in
    the delete set) and delete users with ``user_id % 31 = 0`` — through
    :func:`cdc.apply_changes` (deterministic synthetic seqs, same
    pre-reduce → exchange → merge → CAS path as the sync), then read the
    final table.  The applied versions carry the SAME ``ts`` as the stored
    winners, so they win on the synthetic seq — pinning the
    equal-version MERGE-overwrite tie rule.  Uses an isolated lake
    variant (mutating query)."""
    from .cdc import apply_changes, read_table

    lake = _ensure_events_lake(sf_dir, workdir, variant="-merge")
    state = read_table(str(lake), "events_cdc", columns=EVENT_PAYLOAD)

    def to_changes(batch: pa.Table) -> pa.Table:
        import numpy as np

        uid = batch.column("user_id").to_numpy(zero_copy_only=False)
        is_del = uid % 31 == 0
        is_up = (uid % 7 == 0) & ~is_del
        keep = is_del | is_up
        out = batch.filter(pa.array(keep))
        uid_k = out.column("user_id").to_numpy(zero_copy_only=False)
        del_k = uid_k % 31 == 0
        val = out.column("value").to_numpy(zero_copy_only=False)
        out = out.set_column(
            out.schema.get_field_index("value"),
            "value",
            pa.array(np.where(del_k, val, val + 1000.0)),
        )
        return out.append_column(
            "op", pa.array(np.where(del_k, "D", "U")).cast(pa.string())
        )

    changes = state.map_batches(
        to_changes, batch_format="pyarrow", batch_size=None
    )
    # explicit epoch → re-running this query in the same process is a
    # CAS no-op instead of applying the merge a second time
    apply_changes(
        str(lake),
        "events_cdc",
        changes,
        pk="user_id",
        ver="ts",
        payload_columns=EVENT_PAYLOAD,
        epoch=1000,
    )
    return read_table(str(lake), "events_cdc", columns=EVENT_PAYLOAD)


def repartition_events_table(
    sf_dir: str, *, new_partitions: int = 32,
    workdir: str | Path | None = None,
):
    """Lake repartition as a query: sync at 16 partitions, re-hash the
    whole table (tombstones + seq watermarks included) to 32 through a
    WAP window, then read the final state — byte-equal to the plain LWW
    snapshot, so the entire resize machinery is hash-checked.  Isolated
    lake variant (mutating query); re-runs no-op on the matching
    partition count."""
    from .cdc import read_table, repartition_table

    lake = _ensure_events_lake(sf_dir, workdir, variant="-repart")
    repartition_table(str(lake), "events_cdc", new_partitions)
    return read_table(str(lake), "events_cdc", columns=EVENT_PAYLOAD)


def wap_rebuild_events_table(sf_dir: str, *, workdir: str | Path | None = None):
    """Write-audit-publish rebuild as a query: publish a PARTIAL state
    (epoch 0 only), then rebuild the full table inside a staged generation
    — readers keep the partial state until the audit gate passes and one
    metadata write publishes the rebuild.  Returns the post-publish read
    view (= the plain full-sync LWW state, so the whole WAP machinery is
    hash-checked against the standard LWW oracle)."""
    import os

    from .cdc import wap_abort, wap_begin, wap_publish

    tag = f"{Path(sf_dir).name}-{os.getpid()}-wap"
    base = Path(workdir) if workdir else Path("/tmp/adr_query") / tag
    binlog = base / "binlog"
    lake = base / "lake"
    if not (binlog / "_binlog.json").exists():
        shutil.rmtree(base, ignore_errors=True)
        build_binlog_from_events(f"{sf_dir}/events.parquet", binlog)

    def sync(epochs=None):
        return run_cdc_sync(
            str(lake),
            str(binlog),
            table="events_cdc",
            pk="user_id",
            ver="ts",
            payload_columns=EVENT_PAYLOAD,
            num_partitions=16,
            compute_digest=False,
            epochs=epochs,
        )

    from ..state.manifest import ManifestStore

    store = ManifestStore(str(lake), "events_cdc")
    if not store.exists():
        sync(epochs=[0])  # the published (stale) state
    elif store.table_meta().get("published_generation") is not None:
        wap_abort(str(lake), "events_cdc")  # crashed previous run

    wap_begin(str(lake), "events_cdc")
    sync()  # full rebuild, invisible to readers
    # audit gate: the staged state must cover at least the published rows
    staged_n = read_table(str(lake), "events_cdc", staging=True).count()
    published_n = read_table(str(lake), "events_cdc").count()
    if staged_n < published_n:
        wap_abort(str(lake), "events_cdc")
        raise RuntimeError(
            f"WAP audit failed: staged {staged_n} < published {published_n}"
        )
    wap_publish(str(lake), "events_cdc")
    return read_table(str(lake), "events_cdc")


def copartitioned_join_events(
    sf_dir: str, *, workdir: str | Path | None = None
):
    """Bucket-join query: the current LWW state joined with the
    epochs-0..1 state of a SECOND table in the same lake — both written
    under the same key-hash layout, so the join is per-partition local
    (zero exchange).  Oracle-expressible because epoch assignment is a
    deterministic function of event_id."""
    from .cdc import copartitioned_join

    lake = _ensure_events_lake(sf_dir, workdir)
    binlog = lake.parent / "binlog"
    run_cdc_sync(
        str(lake),
        str(binlog),
        table="events_cdc_v1",
        pk="user_id",
        ver="ts",
        payload_columns=EVENT_PAYLOAD,
        num_partitions=16,
        compute_digest=False,
        epochs=[0, 1],
    )
    return copartitioned_join(
        str(lake),
        "events_cdc",
        "events_cdc_v1",
        left_cols=["event_type", "value"],
        right_cols=["event_type", "value"],
        how="inner",
        right_suffix="_v1",
    )


def quarantine_events_table(
    sf_dir: str, *, workdir: str | Path | None = None
):
    """Expectations-gated sync as a query: run the full CDC engine with a
    value-range rule and return the quarantine lane — every non-tombstone
    version failing a rule, tagged with the first failed rule.  Append
    semantics keep all failing versions, so the lane is exactly the SQL
    filter over the raw events."""
    import os

    tag = f"{Path(sf_dir).name}-{os.getpid()}-exp"
    base = Path(workdir) if workdir else Path("/tmp/adr_query") / tag
    binlog = base / "binlog"
    lake = base / "lake"
    if not (binlog / "_binlog.json").exists():
        shutil.rmtree(base, ignore_errors=True)
        build_binlog_from_events(f"{sf_dir}/events.parquet", binlog)
    run_cdc_sync(
        str(lake),
        str(binlog),
        table="events_cdc",
        pk="user_id",
        ver="ts",
        payload_columns=EVENT_PAYLOAD,
        num_partitions=16,
        compute_digest=False,
        expectations=[
            ("value_range", "in_range", "value", 0.0, 300.0),
        ],
    )
    return read_table(str(lake), "events_cdc__quarantine")


def consistent_snapshot_events(
    sf_dir: str, *, workdir: str | Path | None = None
):
    """Cross-table consistent snapshot as a query: the fully-synced events
    table read AS OF the highest epoch its LAGGING sibling (synced through
    epoch 1 only) has also committed — no table shows an epoch the other
    hasn't.  The pinned state equals LWW over epochs ≤ 1, which the
    deterministic epoch assignment makes SQL-expressible."""
    from .cdc import consistent_read

    lake = _ensure_events_lake(sf_dir, workdir)
    binlog = lake.parent / "binlog"
    run_cdc_sync(
        str(lake),
        str(binlog),
        table="events_cdc_v1",
        pk="user_id",
        ver="ts",
        payload_columns=EVENT_PAYLOAD,
        num_partitions=16,
        compute_digest=False,
        epochs=[0, 1],
    )
    return consistent_read(str(lake), ["events_cdc", "events_cdc_v1"])[
        "events_cdc"
    ]


def txn_sync_events_tables(
    sf_dir: str, *, workdir: str | Path | None = None
) -> pa.Table:
    """Cross-table ATOMIC publish as a query: two event-derived tables
    (the full LWW state and the epochs≤1 LWW state) both start published
    at an epoch-0-only snapshot, are rebuilt inside ONE transaction
    (:func:`.cdc.txn_begin` — a shared WAP window), and become visible
    together at the single commit point.  Returns a per-table
    ``(table_name, n_rows, sum_event_id)`` summary of the post-publish
    read views — reproducible in SQL because the binlog's epoch
    assignment is deterministic, which makes the whole transaction
    machinery (begin, staged syncs, commit record, pin drops)
    hash-checkable."""
    import os

    from .cdc import read_table, run_cdc_sync, txn_begin, txn_publish

    tag = f"{Path(sf_dir).name}-{os.getpid()}-txn2"
    base = Path(workdir) if workdir else Path("/tmp/adr_query") / tag
    binlog = base / "binlog"
    lake = base / "lake"
    if not (binlog / "_binlog.json").exists():
        shutil.rmtree(base, ignore_errors=True)
        build_binlog_from_events(f"{sf_dir}/events.parquet", binlog)

    tables = {"events_txn_full": None, "events_txn_v1": [0, 1]}

    def sync(table: str, epochs):
        return run_cdc_sync(
            str(lake),
            str(binlog),
            table=table,
            pk="user_id",
            ver="ts",
            payload_columns=EVENT_PAYLOAD,
            num_partitions=16,
            compute_digest=False,
            epochs=epochs,
        )

    from ..state.manifest import ManifestStore

    from .cdc import txn_recover, wap_abort

    def stage_and_publish():
        txn = txn_begin(str(lake), list(tables))
        for t, epochs in tables.items():
            sync(t, epochs)  # staged rebuilds, invisible to readers
        txn_publish(str(lake), txn)

    fresh = not ManifestStore(str(lake), "events_txn_full").exists()
    if fresh:
        for t in tables:
            sync(t, epochs=[0])  # the published (stale) starting state
        stage_and_publish()
    else:
        # committed scratch state from an earlier call in this process —
        # but a crash mid-transaction leaves pins that would silently pin
        # the stale epoch-0 view: heal committed-but-unapplied records,
        # then abort + restage anything still pinned (crash BEFORE the
        # commit point)
        txn_recover(str(lake))
        pinned = [
            t
            for t in tables
            if ManifestStore(str(lake), t)
            .table_meta()
            .get("published_generation")
            is not None
        ]
        if pinned:
            for t in pinned:
                wap_abort(str(lake), t)
            stage_and_publish()

    names, rows, sums = [], [], []
    for t in sorted(tables):
        ds = read_table(str(lake), t)
        parts = ds.map_batches(
            lambda b: pa.table(
                {
                    "n": pa.array([b.num_rows], type=pa.int64()),
                    "s": pa.array(
                        [int(pc.sum(b.column("event_id")).as_py() or 0)],
                        type=pa.int64(),
                    ),
                }
            ),
            batch_format="pyarrow",
            batch_size=None,
        ).take_all()
        names.append(t)
        rows.append(sum(r["n"] for r in parts))
        sums.append(sum(r["s"] for r in parts))
    return pa.table(
        {
            "table_name": pa.array(names, type=pa.string()),
            "n_rows": pa.array(rows, type=pa.int64()),
            "sum_event_id": pa.array(sums, type=pa.int64()),
        }
    )
