"""Traced in-process replay: the per-layer numbers, without Ray.

The replay calls the engine's real stage functions in the benchmark process
over the same inputs the Ray run consumed — ``make_partitioner(...)(batch)``,
a local group-by on ``_part`` standing in for the Ray Data exchange,
``make_partition_merger(...)(group)``, ``ManifestStore.write_checkpoint``,
``iter_messages`` and the Airbyte writer's buffering, and the read side of
``read_table``/``lookup_rows``.  Timing wrappers are installed on the
module-level names those functions resolve at call time, so the engine's
source is unchanged.  Spans (name, start, end, parent) and counts stay in
memory until the end; each layer reports its self time.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from airbyte_destination_ray.functions import html as html_mod
from airbyte_destination_ray.functions import text as text_mod
from airbyte_destination_ray.functions.hashing import partition_ids
from airbyte_destination_ray.pipelines import airbyte_write as aw
from airbyte_destination_ray.pipelines import cdc
from airbyte_destination_ray.protocol import MESSAGE_TYPE_RECORD, MESSAGE_TYPE_STATE
from airbyte_destination_ray.sources.synth import list_segments
from airbyte_destination_ray.stages import lww
from airbyte_destination_ray.state.manifest import ManifestStore

# span names whose self time is a per-layer metric (metric = name + "_s")
LAYER_SPANS = [
    "read.decode",
    "lww.envelope",
    "lww.prereduce",
    "html.extract",
    "text.enrich",
    "hashing.route",
    "exchange.local_group",
    "merge.task",
    "merge.prev_read",
    "merge.lww",
    "merge.write",
    "merge.zonemap",
    "manifest.prev_lookup",
    "manifest.commit",
    "manifest.checkpoint",
    "protocol.parse",
    "schema.to_arrow",
    "airbyte.size_acct",
    "airbyte.flush",
    "read_table.plan",
    "read_table.exec",
]
COUNTS = {
    "read.rows": "count",
    "read.bytes": "bytes",
    "exchange.rows": "count",
    "exchange.bytes": "bytes",
    "merge.bytes_written": "bytes",
    "manifest.prev_lookup_calls": "count",
    "manifest.entries_listed": "count",
    "airbyte.flushes": "count",
    "lookup.files_read": "count",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.part_rows: Counter = Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def count(self, name: str, n: float) -> None:
        self.counts[name] += n

    def count_partition(self, part: int, rows: int) -> None:
        """Rows routed to one partition by one exchange (for the skew)."""
        self.part_rows[part] += rows

    def self_times(self) -> Counter:
        dur = [s[2] - s[1] for s in self.spans]
        own = Counter()
        for i, s in enumerate(self.spans):
            own[s[0]] += dur[i]
            if s[3] >= 0:
                own[self.spans[s[3]][0]] -= dur[i]
        return own

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, f)


class NullTracer:
    """Same interface, records nothing: the unwrapped replay."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, n: float) -> None:
        pass

    def count_partition(self, part: int, rows: int) -> None:
        pass


def _timed(tr: Tracer, name: str, fn, *, count=None):
    def wrapper(*a, **kw):
        with tr.span(name):
            out = fn(*a, **kw)
        if count is not None:
            count(out)
        return out

    return wrapper


@contextlib.contextmanager
def instrument(tr: Tracer):
    """Install timing wrappers on the engine names resolved at call time."""
    orig_compact = lww.lww_compact

    def compact(table, *a, **kw):
        parent = tr.current()
        if parent == "partitioner":
            with tr.span("lww.prereduce"):
                out = orig_compact(table, *a, **kw)
            tr.count("lww.prereduce_in", table.num_rows)
            tr.count("lww.prereduce_out", out.num_rows)
            return out
        if parent == "merge.task":
            with tr.span("merge.lww"):
                return orig_compact(table, *a, **kw)
        return orig_compact(table, *a, **kw)

    def prev_read(*a, **kw):
        with tr.span("merge.prev_read"):
            return pq.read_table(*a, **kw)

    def iter_manifests(self, *a, **kw):
        out = orig_iter(self, *a, **kw)
        tr.count("manifest.entries_listed", len(out))
        return out

    def prev_lookup(self, *a, **kw):
        tr.count("manifest.prev_lookup_calls", 1)
        with tr.span("manifest.prev_lookup"):
            return orig_latest(self, *a, **kw)

    orig_iter = ManifestStore._iter_manifests
    orig_latest = ManifestStore.latest_snapshot
    patches = [
        (lww, "lww_compact", compact),
        (lww, "changes_to_lake_rows", _timed(tr, "lww.envelope", lww.changes_to_lake_rows)),
        (lww, "partition_ids", _timed(tr, "hashing.route", lww.partition_ids)),
        (
            lww,
            "_atomic_write_parquet",
            _timed(
                tr, "merge.write", lww._atomic_write_parquet,
                count=lambda n: tr.count("merge.bytes_written", n),
            ),
        ),
        (lww, "_file_column_stats", _timed(tr, "merge.zonemap", lww._file_column_stats)),
        (lww, "pq", SimpleNamespace(read_table=prev_read, write_table=pq.write_table)),
        (html_mod, "extract_text_html", _timed(tr, "html.extract", html_mod.extract_text_html)),
        (text_mod, "enrich_text_columns", _timed(tr, "text.enrich", text_mod.enrich_text_columns)),
        (aw, "go_json_size", _timed(tr, "airbyte.size_acct", aw.go_json_size)),
        (aw, "records_to_arrow", _timed(tr, "schema.to_arrow", aw.records_to_arrow)),
        (
            cdc,
            "_delta_partition_stacks",
            _timed(tr, "read_table.plan", cdc._delta_partition_stacks),
        ),
        (ManifestStore, "_iter_manifests", iter_manifests),
        (ManifestStore, "latest_snapshot", prev_lookup),
        (ManifestStore, "commit", _timed(tr, "manifest.commit", ManifestStore.commit)),
        (
            ManifestStore,
            "write_checkpoint",
            _timed(tr, "manifest.checkpoint", ManifestStore.write_checkpoint),
        ),
        (
            ManifestStore,
            "committed_files_versioned",
            _timed(tr, "read_table.plan", ManifestStore.committed_files_versioned),
        ),
    ]
    saved = [(obj, name, getattr(obj, name)) for obj, name, _ in patches]
    try:
        for obj, name, fn in patches:
            setattr(obj, name, fn)
        yield
    finally:
        for obj, name, fn in saved:
            setattr(obj, name, fn)


# -- the engine's per-epoch / per-flush shape, without Ray ------------------
def _exchange_and_merge(tr, partitioner, blocks: list[pa.Table], merger) -> None:
    """partitioner per block → group by ``_part`` → merger per group: what
    ``map_batches(partitioner).groupby("_part").map_groups(merger)`` runs."""
    outs = []
    for b in blocks:
        with tr.span("partitioner"):
            outs.append(partitioner(b))
    with tr.span("exchange.local_group"):
        routed = pa.concat_tables(outs)
        routed = routed.take(pc.sort_indices(routed, sort_keys=[("_part", "ascending")]))
        parts = routed.column("_part").to_numpy()
        starts = np.flatnonzero(np.r_[True, parts[1:] != parts[:-1]]) if len(parts) else []
        bounds = [int(b) for b in starts] + [len(parts)]
        groups = [routed.slice(s, e - s) for s, e in zip(bounds[:-1], bounds[1:])]
    tr.count("exchange.rows", routed.num_rows)
    tr.count("exchange.bytes", routed.nbytes)
    for s, e in zip(bounds[:-1], bounds[1:]):
        tr.count_partition(int(parts[s]), e - s)
    for g in groups:
        with tr.span("merge.task"):
            merger(g)


def replay_cdc_sync(tr, lake: str, binlog: str, epochs: list[int], cfg: dict) -> None:
    """The body of ``run_cdc_sync`` for the benchmark's arguments (payload
    shuffle, no schema evolution, no expectations)."""
    store = ManifestStore(lake, "pages")
    store.root.mkdir(parents=True, exist_ok=True)
    meta = store.init_table(
        num_partitions=cfg["num_partitions"], mode="append_dedup", pk=["url"],
        cursor="warc_ts", merge_strategy="snapshot", compact_every=8,
    )
    gen = meta["generation"]
    for e in epochs:
        segments = list_segments(binlog, e)
        with tr.span("read.decode"):
            blocks = [pq.read_table(s) for s in segments]
        tr.count("read.rows", sum(b.num_rows for b in blocks))
        tr.count("read.bytes", sum(Path(s).stat().st_size for s in segments))
        partitioner = lww.make_partitioner(
            "url", meta["num_partitions"], ver="warc_ts", pre_reduce=True,
            payload_columns=cdc.PAGES_PAYLOAD, enrich=cfg["enrich"],
            extract_text=cfg["extract_text"],
        )
        merger = lww.make_partition_merger(
            lake, "pages", generation=gen, epoch=e, mode="append_dedup", pk="url",
            ver="warc_ts", compute_digest=False, schema_version=0,
            strategy="snapshot", compact_every=8,
        )
        _exchange_and_merge(tr, partitioner, blocks, merger)
        store.write_checkpoint(gen, e, {"segments": [Path(s).name for s in segments]})


class _InProcessWriter(aw.AirbyteWriter):
    """``AirbyteWriter`` whose flush runs the same partition/merge stages
    in-process instead of as a Ray Data job."""

    def __init__(self, tr, *a, **kw):
        super().__init__(*a, **kw)
        self._tr = tr

    def _flush_table(self, table: str) -> None:
        with self._tr.span("airbyte.flush"):
            buf = self.buffers.pop(table, None)
            if not buf or not buf.records:
                return
            stream = self.catalog.stream_by_table()[table]
            batch = aw.records_to_arrow(buf.records, stream, buf.indices)
            batch = batch.append_column("seq", pa.array(buf.indices, type=pa.int64()))
            pk, ver = stream.pk_columns, stream.cursor
            partitioner = lww.make_partitioner(
                pk, self.table_meta[table]["num_partitions"], ver=ver, pre_reduce=True,
                payload_columns=[c for c in batch.column_names if c != "seq"],
            )
            merger = lww.make_partition_merger(
                self.config.lake_root, table, generation=self.generations[table],
                epoch=self.flush_epoch, mode="append_dedup", pk=pk, ver=ver,
                compute_digest=False, strategy="delta", compact_every=16,
            )
            _exchange_and_merge(self._tr, partitioner, [batch], merger)
            self.flush_epoch += 1
            self.result.flushes += 1
            self._tr.count("airbyte.flushes", 1)


def replay_write(tr, config, catalog, lines: list[str], out) -> None:
    """``run_write`` with the in-process writer; parse time is the time
    spent inside ``iter_messages``."""
    catalog.validate()
    writer = _InProcessWriter(tr, config, catalog, out=out)
    writer.setup_streams()
    it = aw.iter_messages(iter(lines))
    while True:
        with tr.span("protocol.parse"):
            item = next(it, None)
        if item is None:
            break
        index, msg = item
        if msg.type == MESSAGE_TYPE_RECORD:
            writer.add_record(index, msg.record)
        elif msg.type == MESSAGE_TYPE_STATE:
            writer.on_state(msg.state)
    writer.flush_all()
    writer.maybe_full_reset()


def replay_scan(tr, lake: str, table: str) -> pa.Table:
    with tr.span("read_table.exec"):
        return cdc.read_table_arrow(lake, table)


def replay_lookup(tr, lake: str, table: str, key) -> pa.Table:
    """``lookup_rows`` for one key: route, list the wanted partition's files
    from the manifests, read and fold them, keep the key's visible row."""
    with tr.span("read_table.exec"):
        store = ManifestStore(lake, table)
        meta = store.table_meta()
        pk = meta["pk"][0]
        keys = pa.array([key])
        wanted = set(partition_ids(keys, int(meta["num_partitions"])).tolist())
        if meta.get("merge_strategy") == "delta":
            stacks = [
                r for r in cdc._delta_partition_stacks(store, meta)
                if r["partition"] in wanted
            ]
            tr.count("lookup.files_read", sum(len(r["files"]) for r in stacks))
            pieces = [
                cdc._compact_stack(
                    lake, table, r, pk=pk, ver=meta["cursor"], columns=None,
                    include_deleted=False, include_meta=False,
                )
                for r in stacks
            ]
        else:
            files = store.committed_files_versioned(
                meta["generation"], mode=meta["mode"], partitions=wanted
            )
            tr.count("lookup.files_read", len(files))
            pieces = []
            for f, _ in files:
                t = pq.read_table(Path(lake) / f)
                t = t.filter(pc.fill_null(pc.invert(t.column(lww.DELETED_COLUMN)), True))
                pieces.append(t.drop_columns([lww.SEQ_COLUMN, lww.DELETED_COLUMN]))
        if not pieces:
            return pa.table({})
        t = pa.concat_tables(pieces)
        col = t.column(pk)
        return t.filter(pc.fill_null(pc.is_in(col, value_set=keys.cast(col.type)), False))


def committed_bytes(lake: str, table: str) -> int:
    store = ManifestStore(lake, table)
    meta = store.table_meta()
    return sum(
        (Path(lake) / f).stat().st_size
        for f, _ in store.committed_files_versioned(meta["generation"], mode=meta["mode"])
    )


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """name → (value, unit): self time of every layer span, the counts, and
    the two ratios measured where the work happens."""
    own = tr.self_times()
    out = {f"{name}_s": (own.get(name, 0.0), "s") for name in LAYER_SPANS}
    for name, unit in COUNTS.items():
        out[name] = (float(tr.counts.get(name, 0)), unit)
    pin, pout = tr.counts.get("lww.prereduce_in", 0), tr.counts.get("lww.prereduce_out", 0)
    out["lww.prereduce_keep_ratio"] = (pout / pin if pin else 0.0, "ratio")
    rows = list(tr.part_rows.values())
    skew = max(rows) / (sum(rows) / len(rows)) if rows else 0.0
    out["exchange.part_skew"] = (skew, "ratio")
    return out
