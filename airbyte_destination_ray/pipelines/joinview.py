"""Incrementally-maintained JOIN view (materialized-view maintenance for a
fact ⋈ dimension equijoin).

The third member of the maintained-view family (`aggview.py` holds the
aggregate and session views): a warehouse-style enriched table
``fact LEFT JOIN dim ON join_key`` kept current across CDC binlog epochs
where EACH epoch may carry fact upserts/deletes AND dimension attribute
updates, under the same per-(generation, epoch, partition) manifest CAS as
the row lake (re-running a committed epoch is a no-op; resume skips
checkpointed epochs; final state is independent of batch composition).

Design (the delta-join trick that makes maintenance exchange-free): the
view, the fact state, and the dim state are all hash-partitioned by the
JOIN KEY, not the fact pk.  Then:

- a fact delta routes to the one partition owning its join key;
- a dim delta routes to the one partition owning ALL facts it can ever
  join — so applying it never touches another partition;
- the join itself is partition-local (sorted-merge via ``searchsorted``),
  zero exchange beyond the single change-routing ``groupby`` per epoch.

A classic fact-pk-partitioned view would instead need a scatter (find all
fact rows of a changed dim key) or a secondary index per dim update.  The
cost accepted for this: per touched partition the snapshot is rewritten
(fact state + dim state + joined view, three files) — the same write
amplification as the row lake's snapshot strategy and ``aggview``.

LWW semantics are the lake's (max (ver, seq), null version loses,
tombstones retained in fact state so late older updates cannot resurrect);
the maintained view at ANY epoch equals the one-shot SQL join of the LWW
states as of that epoch — which is what the oracle checks.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from ..functions.hashing import partition_ids
from ..sources.synth import list_epochs, list_segments
from ..stages.lww import lww_compact
from ..state.manifest import ManifestStore
from .aggview import maintain_view

FACT_COLS = ["event_id", "ts", "user_id", "value"]
DIM_ATTRS = ["last_event_type", "last_value_cents"]


def build_fact_dim_binlogs(
    events_path: str, out_dir: str | Path, *, n_epochs: int = 3
) -> dict:
    """Deterministically reshape ``events.parquet`` into TWO interleaved
    CDC binlogs sharing the same epoch split (by event_id range):

    - ``fact/``: one upsert per event keyed on ``event_id`` (op=D for
      ``error`` events — the fact stream's deletes);
    - ``dim/``: one user-attribute update per event keyed on ``user_id``
      (ver=ts, seq=event_id; attrs = the event's type and integer-cents
      value), so a user's LWW dim state is their LATEST event's attrs —
      reproducible in SQL with one window function.
    """
    out = Path(out_dir)
    t = pq.read_table(events_path)
    seq = t.column("event_id").to_numpy(zero_copy_only=False).astype(np.int64)
    upper = int(seq.max()) + 1
    epoch = ((seq * n_epochs) // upper).astype(np.int32)
    is_del = pc.fill_null(pc.equal(t.column("event_type"), "error"), False)

    fact = pa.table(
        {
            "seq": pa.array(seq),
            "epoch": pa.array(epoch),
            "op": pc.if_else(is_del, "D", "U"),
            "event_id": t.column("event_id"),
            "ts": t.column("ts"),
            "user_id": t.column("user_id"),
            "value": t.column("value"),
        }
    )
    cents = pc.cast(
        pc.floor(pc.multiply(pc.cast(t.column("value"), pa.float64()), 100.0)),
        pa.int64(),
    )
    dim = pa.table(
        {
            "seq": pa.array(seq),
            "epoch": pa.array(epoch),
            "op": pa.array(["U"] * t.num_rows),
            "user_id": t.column("user_id"),
            "ver": t.column("ts").cast(pa.int64()),
            "last_event_type": t.column("event_type"),
            "last_value_cents": cents,
        }
    )
    for name, env in (("fact", fact), ("dim", dim)):
        d = out / name
        d.mkdir(parents=True, exist_ok=True)
        segs = []
        for e in range(n_epochs):
            chunk = env.filter(pc.equal(env.column("epoch"), e))
            fn = f"segment-e{e:05d}-0000.parquet"
            pq.write_table(chunk, d / fn, compression="zstd")
            segs.append(fn)
        with open(d / "_binlog.json", "w") as f:
            json.dump(
                {"n_events": env.num_rows, "n_epochs": n_epochs,
                 "segments": segs},
                f, sort_keys=True,
            )
    return {"n_events": t.num_rows, "n_epochs": n_epochs}


_FACT_STATE_COLS = FACT_COLS + ["_seq", "_deleted"]
_DIM_STATE_COLS = ["user_id", "last_event_type", "last_value_cents",
                   "_ver", "_seq"]


def _empty_fact_state() -> pa.Table:
    return pa.table(
        {
            "event_id": pa.array([], type=pa.int64()),
            "ts": pa.array([], type=pa.timestamp("us")),
            "user_id": pa.array([], type=pa.int64()),
            "value": pa.array([], type=pa.float64()),
            "_seq": pa.array([], type=pa.int64()),
            "_deleted": pa.array([], type=pa.bool_()),
        }
    )


def _empty_dim_state() -> pa.Table:
    return pa.table(
        {
            "user_id": pa.array([], type=pa.int64()),
            "last_event_type": pa.array([], type=pa.string()),
            "last_value_cents": pa.array([], type=pa.int64()),
            "_ver": pa.array([], type=pa.int64()),
            "_seq": pa.array([], type=pa.int64()),
        }
    )


def _join_states(facts: pa.Table, dim: pa.Table) -> pa.Table:
    """Partition-local fact LEFT JOIN dim on user_id — both inputs are
    ``lww_compact`` outputs (sorted by their pk), facts keep their
    event_id order; null fact keys never match (SQL semantics)."""
    live = facts.filter(
        pc.fill_null(pc.invert(facts.column("_deleted")), True)
    )
    fk_arr = live.column("user_id").combine_chunks()
    valid = pc.is_valid(fk_arr).to_numpy(zero_copy_only=False)
    fk = pc.fill_null(fk_arr, np.iinfo(np.int64).min).to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    dk = dim.column("user_id").combine_chunks().to_numpy(
        zero_copy_only=False
    ).astype(np.int64) if dim.num_rows else np.zeros(0, dtype=np.int64)
    # A partition can hold live fact rows but an EMPTY dim state (the dim
    # key simply never hashed there): indexing dk[idx_c] would raise on
    # the empty array, so short-circuit to all-miss.
    if len(dk):
        idx = np.searchsorted(dk, fk)
        idx_c = np.minimum(idx, len(dk) - 1)
        hit = valid & (dk[idx_c] == fk)
    else:
        idx_c = np.zeros(len(fk), dtype=np.int64)
        hit = np.zeros(len(fk), dtype=bool)
    cols = {name: live.column(name) for name in FACT_COLS}
    take_idx = pa.array(
        np.where(hit, idx_c, np.zeros_like(idx_c)), type=pa.int64()
    )
    hit_pa = pa.array(hit)
    for attr in DIM_ATTRS:
        col = (
            dim.column(attr).combine_chunks().take(take_idx)
            if dim.num_rows
            else pa.nulls(live.num_rows, type=pa.string()
                          if attr == "last_event_type" else pa.int64())
        )
        cols[attr] = pc.if_else(
            hit_pa, col,
            pa.nulls(live.num_rows, type=col.type),
        )
    return pa.table(cols)


def run_incremental_join_view(
    lake_root: str,
    fact_binlog: str,
    dim_binlog: str,
    *,
    table: str = "join_view",
    num_partitions: int = 32,
    epochs: list[int] | None = None,
    resume: bool = True,
) -> dict:
    """Maintain the enriched view ``fact LEFT JOIN dim ON user_id`` across
    interleaved fact/dim binlog epochs, exactly-once (see module doc)."""
    store = ManifestStore(lake_root, table)
    store.root.mkdir(parents=True, exist_ok=True)
    meta = store.init_table(
        num_partitions=num_partitions,
        mode="append_dedup",
        pk=["event_id"],
        cursor="_seq",
        view="incremental_join",
    )
    num_partitions = meta["num_partitions"]

    fact_epochs = set(list_epochs(fact_binlog))
    dim_epochs = set(list_epochs(dim_binlog))

    def envelope(side):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            key = batch.column("user_id")
            out = {
                "_side": pa.array(np.full(n, side, dtype=np.int8)),
                "seq": batch.column("seq"),
                "op": batch.column("op"),
                "user_id": key,
            }
            if side == 0:
                out["event_id"] = batch.column("event_id")
                out["ts"] = batch.column("ts")
                out["value"] = batch.column("value")
                out["ver"] = pa.nulls(n, type=pa.int64())
                out["last_event_type"] = pa.nulls(n, type=pa.string())
                out["last_value_cents"] = pa.nulls(n, type=pa.int64())
            else:
                out["event_id"] = pa.nulls(n, type=pa.int64())
                out["ts"] = pa.nulls(n, type=pa.timestamp("us"))
                out["value"] = pa.nulls(n, type=pa.float64())
                out["ver"] = batch.column("ver")
                out["last_event_type"] = batch.column("last_event_type")
                out["last_value_cents"] = batch.column("last_value_cents")
            out["_part"] = pa.array(
                partition_ids(key, num_partitions), type=pa.int64()
            )
            return pa.table(out)

        return fn

    def epoch_input(e: int):
        # each side is routed by its own envelope before the union, so the
        # epoch commits with partitioner=None
        env = None
        for side, binlog, side_epochs in (
            (0, fact_binlog, fact_epochs), (1, dim_binlog, dim_epochs)
        ):
            segs = list_segments(binlog, e) if e in side_epochs else []
            if not segs:
                continue
            part = ray.data.read_parquet(
                segs, override_num_blocks=len(segs)
            ).map_batches(envelope(side), batch_format="pyarrow", batch_size=None)
            env = part if env is None else env.union(part)
        return env

    def fold(group: pa.Table, prev) -> list:
        side = group.column("_side").to_numpy(zero_copy_only=False)
        fmask = pa.array(side == 0)
        fd = group.filter(fmask)
        dd = group.filter(pc.invert(fmask))
        facts_delta = pa.table(
            {
                "event_id": fd.column("event_id"),
                "ts": fd.column("ts"),
                "user_id": fd.column("user_id"),
                "value": fd.column("value"),
                "_seq": fd.column("seq"),
                "_deleted": pc.fill_null(pc.equal(fd.column("op"), "D"), False),
            }
        )
        dim_delta = pa.table(
            {
                "user_id": dd.column("user_id"),
                "last_event_type": dd.column("last_event_type"),
                "last_value_cents": dd.column("last_value_cents"),
                "_ver": dd.column("ver"),
                "_seq": dd.column("seq"),
            }
        )
        prev_facts, prev_dim = _empty_fact_state(), _empty_dim_state()
        if prev is not None and len(prev.files) == 3:
            prev_facts = pq.read_table(Path(lake_root) / prev.files[1])
            prev_dim = pq.read_table(Path(lake_root) / prev.files[2])
        facts_state = lww_compact(
            pa.concat_tables(
                [prev_facts, facts_delta], promote_options="permissive"
            ),
            "event_id", "_seq", "_seq",
        )
        dim_state = lww_compact(
            pa.concat_tables(
                [prev_dim, dim_delta], promote_options="permissive"
            ),
            "user_id", "_ver", "_seq",
        )
        view = _join_states(facts_state, dim_state)
        return [
            (".view", view), (".facts", facts_state), (".dim", dim_state)
        ]

    return maintain_view(
        lake_root, table, meta["generation"],
        epochs if epochs is not None else sorted(fact_epochs | dim_epochs),
        resume=resume, epoch_input=epoch_input, partitioner=None, fold=fold,
    )


def read_join_view(
    lake_root: str, table: str = "join_view", *, as_of_epoch: int | None = None
):
    """Dataset over the maintained view (latest manifest per partition;
    ``as_of_epoch`` time-travels the view like ``read_table``)."""
    store = ManifestStore(lake_root, table)
    state = store.table_state(
        store.table_meta()["generation"], max_epoch=as_of_epoch
    )
    files = [str(Path(lake_root) / m.files[0]) for m in state.values()]
    if not files:
        return ray.data.from_arrow(
            _join_states(_empty_fact_state(), _empty_dim_state())
        )
    # partitioning=None: dir names (gen=…/p=…) are physical layout, not columns
    return ray.data.read_parquet(
        files, override_num_blocks=len(files), partitioning=None
    )
