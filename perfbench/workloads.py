"""The workloads, driven through the engine's public entry points.

Both are closed loops: one driver, each call waits for the previous one.  A
run is one window of ``--seconds``: a fixed amount of ingest work, sized to
about 60% of the window on one core (so ingest metrics never depend on how
fast the run went), then scans and point lookups alternate until the window
ends.  Every scan and lookup result is checked against the oracle after the
window; so is every table and checkpoint the run wrote.

- ``bulk_sync``: ``seconds / 5`` fresh-lake syncs of one 300k-event, 3-epoch
  binlog, one ``run_cdc_sync(epochs=[e])`` per epoch (per-row kernels
  dominate).
- ``airbyte_write``: ``run_write`` over an NDJSON stream with a STATE every
  700–800 records, ``1.6 × seconds`` STATEs (per-flush Ray Data launch and
  delta merge dominate).
"""

from __future__ import annotations

import gc
import json
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import pyarrow as pa

from airbyte_destination_ray.catalog import Config, catalog_from_json
from airbyte_destination_ray.pipelines.airbyte_write import run_write
from airbyte_destination_ray.pipelines.cdc import lookup_rows, read_table, run_cdc_sync
from airbyte_destination_ray.sources.synth import list_segments

from . import inputs, oracle, replay

LOOKUPS_PER_SCAN = 2
# enough samples for a trimmed mean when a slow host leaves little of the
# window after the fixed-size ingest
MIN_SCANS = 5
UNITS_PER_SECOND = 1.6  # Airbyte STATEs per second of window
# a session's first two scans start and warm new worker processes (~1.6 s
# and ~0.7 s on one core); the set-up warm-up pays that, as users do once
WARM_SCANS = 2
LOOKUPS_PER_CLASS = 128
NUM_PARTITIONS = 32
CDC_SYNC = dict(num_partitions=NUM_PARTITIONS, enrich=True, extract_text=True, compute_digest=False)
HTML_PAD = 8


def warm_reads(lake: Path, table: str, key) -> None:
    for _ in range(WARM_SCANS):
        list(read_table(str(lake), table).iter_batches(batch_format="pyarrow"))
    list(lookup_rows(str(lake), table, [key]).iter_batches(batch_format="pyarrow"))


@dataclass
class Op:
    """One replayable operation of the Ray run and its untraced wall."""

    kind: str  # sync | write | scan | lookup
    arg: object
    wall: float


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    ingest_rows: int = 0
    ingest_wall: float = 0.0
    commit_lat: list = field(default_factory=list)
    scan_lat: list = field(default_factory=list)
    scan_rows: int = 0
    lookup_lat: list = field(default_factory=list)
    ops: list = field(default_factory=list)

    def fail(self, what: str, log) -> None:
        self.failed += 1
        log(f"FAILED {what}:\n{traceback.format_exc()}")


class Workload:
    table = "pages"

    def __init__(self, *, root: Path, work: Path, seed: int, seconds: float,
                 scale: float, perturb: str | None, log):
        self.root, self.work, self.seed = root, work, seed
        self.seconds, self.scale, self.perturb, self.log = seconds, scale, perturb, log
        self.t = Tally()
        self.scan_checks: list = []  # per scan: fingerprint of the result
        self.lookup_checks: list = []  # per lookup: (key, result rows)

    # -- phases --------------------------------------------------------------
    def units(self) -> int:
        return max(2, round(UNITS_PER_SECOND * self.seconds))

    def run_window(self) -> None:
        # Each phase starts right after a full collection, so the driver's
        # gen-2 collections fall on the same operations in every run instead
        # of where set-up left the collector's counters.
        t0 = time.perf_counter()
        gc.collect()
        lake = self.ingest()
        gc.collect()
        self.read_phase(lake, t0 + self.seconds)
        self.final_lake = lake

    def read_phase(self, lake: Path, deadline: float) -> None:
        keys = self.lookup_keys
        i = 0
        for n in range(1_000_000):
            if n >= MIN_SCANS and time.perf_counter() >= deadline:
                return
            self._scan(lake)
            for _ in range(LOOKUPS_PER_SCAN):
                self._lookup(lake, keys[i % len(keys)])
                i += 1

    def _scan(self, lake: Path) -> None:
        self.t.attempted += 1
        try:
            t0 = time.perf_counter()
            batches = list(read_table(str(lake), self.table).iter_batches(batch_format="pyarrow"))
            dt = time.perf_counter() - t0
        except Exception:
            self.t.fail("scan", self.log)
            self.scan_checks.append(None)
            return
        t = pa.concat_tables(batches) if batches else None
        self.t.scan_lat.append(dt)
        self.t.scan_rows = t.num_rows if t is not None else 0
        self.t.ops.append(Op("scan", None, dt))
        self.scan_checks.append(self.fingerprint(t))

    def _lookup(self, lake: Path, key) -> None:
        self.t.attempted += 1
        try:
            t0 = time.perf_counter()
            batches = list(
                lookup_rows(str(lake), self.table, [key]).iter_batches(batch_format="pyarrow")
            )
            dt = time.perf_counter() - t0
        except Exception:
            self.t.fail(f"lookup {key!r}", self.log)
            self.lookup_checks.append((key, "error"))
            return
        self.t.lookup_lat.append(dt)
        self.t.ops.append(Op("lookup", key, dt))
        self.lookup_checks.append((key, pa.concat_tables(batches) if batches else None))

    def post_run_reads(self) -> list:
        """``read_table`` of every lake the run made, outside the window."""
        out = []
        for lake in self.lakes:
            self.t.attempted += 1
            try:
                ds = read_table(str(lake), self.table)
                batches = list(ds.iter_batches(batch_format="pyarrow"))
                out.append(self.fingerprint(pa.concat_tables(batches) if batches else None))
            except Exception:
                self.t.fail(f"post-run read of {lake.name}", self.log)
                out.append(None)
        return out

    def lake_bytes_per_row(self) -> float:
        return replay.committed_bytes(str(self.final_lake), self.table) / max(1, self.t.scan_rows)

    # -- replay ----------------------------------------------------------------
    def replay_ops(self, tr, lake: Path, ops: list | None = None,
                   lookups: list | None = None) -> float:
        """Repeat the logged operations (or ``ops``) in-process into
        ``lake``; returns the replay wall.  Lookup results go to ``lookups``
        as ``(key, table)``."""
        t0 = time.perf_counter()
        for op in self.replay_log() if ops is None else ops:
            with tr.span(f"op.{op.kind}"):
                if op.kind == "scan":
                    replay.replay_scan(tr, str(lake), self.table)
                elif op.kind == "lookup":
                    got = replay.replay_lookup(tr, str(lake), self.table, op.arg)
                    if lookups is not None:
                        lookups.append((op.arg, got))
                else:
                    self.replay_ingest(tr, lake, op)
        return time.perf_counter() - t0

    def replay_log(self) -> list:
        return self.t.ops

    def lookup_mismatches(self, lookups: list) -> int:
        """Lookups whose rows differ from the oracle's (failed calls skip)."""
        return sum(
            1 for key, got in lookups
            if not isinstance(got, str) and self.rows(got) != self.lookup_want[key]
        )

    def replay_check(self, lake: Path, lookups: list) -> None:
        """The replayed table and every replayed lookup must match the
        expectations ``check`` built."""
        self.t.attempted += 1 + len(lookups)
        got = replay.replay_scan(replay.NullTracer(), str(lake), self.table)
        bad = self.fingerprint(got) != self.expected
        bad += self.lookup_mismatches(lookups)
        if bad:
            self.log(f"oracle: {bad} mismatching result(s) in the traced replay")
            self.t.failed += bad


class BulkSync(Workload):
    rows = staticmethod(oracle.cdc_rows)

    def prepare(self) -> None:
        events = max(2_000, int(300_000 * self.scale))
        s = self.generate(events=events, keys=events // 10, epochs=3)
        self.events = s["events"]
        self.synced_epochs = list(range(s["epochs"]))

    def ingest(self) -> Path:
        # one call per epoch, so each commit is timed here, not by the engine
        self.lakes: list[Path] = []
        self.sync_walls: list[float] = []
        for _ in range(max(1, round(self.seconds / 5))):
            lake = self.work / "lakes" / f"bulk{len(self.lakes)}"
            self.t.attempted += 1
            wall = 0.0
            try:
                for e in self.synced_epochs:
                    t0 = time.perf_counter()
                    run_cdc_sync(str(lake), str(self.binlog), epochs=[e], **CDC_SYNC)
                    dt = time.perf_counter() - t0
                    self.t.commit_lat.append(dt)
                    wall += dt
            except Exception:
                self.t.fail("sync", self.log)
                return lake
            self.lakes.append(lake)
            self.sync_walls.append(wall)
            self.t.ingest_rows += self.events
            self.t.ingest_wall += wall
        return lake

    def replay_log(self) -> list:
        # every sync is the same job: replay one, at the median untraced wall
        sync = Op("sync", self.synced_epochs, statistics.median(self.sync_walls))
        return [sync] + [op for op in self.t.ops if op.kind != "sync"]

    def fingerprint(self, t):
        return oracle.table_digest(t) if t is not None else (0, 0)

    def warmup(self, k: int) -> None:
        lake = self.work / "lakes" / f"warm{k}"
        run_cdc_sync(str(lake), str(self.warm_binlog), epochs=[0], **CDC_SYNC)
        warm_reads(lake, self.table, self.lookup_keys[0])

    def generate(self, **binlog) -> dict:
        """The run's binlog plus a tiny one-epoch binlog for the warm-up."""
        self.binlog = self.work / "binlog"
        self.warm_binlog = self.work / "warm_binlog"
        main, _ = inputs.generate(
            [
                dict(kind="binlog", out=str(self.binlog), seed=self.seed, html_pad=HTML_PAD,
                     lookups_per_class=LOOKUPS_PER_CLASS, **binlog),
                dict(kind="binlog", out=str(self.warm_binlog), events=2_000, keys=200,
                     epochs=1, seed=self.seed, html_pad=HTML_PAD, lookups_per_class=1),
            ],
            self.root,
        )
        self.lookup_keys = main["lookup_keys"]
        return main

    def check(self, post_run: list) -> None:
        segs = [s for e in self.synced_epochs for s in list_segments(self.binlog, e)]
        orc = oracle.CdcOracle(segs, perturb=self.perturb)
        self.expected = orc.digest
        bad = sum(1 for fp in self.scan_checks + post_run if fp is not None and fp != orc.digest)
        expected = orc.expected_rows([k for k, _ in self.lookup_checks])
        orc.close()
        self.lookup_want = {k: [w] if w is not None else [] for k, w in expected.items()}
        bad += self.lookup_mismatches(self.lookup_checks)
        bad += sum(self.checkpoint_mismatches(lake) for lake in self.lakes)
        if bad:
            self.log(f"oracle: {bad} mismatching result(s)")
        self.t.failed += bad

    def checkpoint_mismatches(self, lake: Path) -> int:
        """Exactly one checkpoint per synced epoch, naming that epoch's
        segments."""
        ckpt_dir = lake / self.table / "_checkpoints"
        found = sorted(p.name for p in ckpt_dir.glob("*.json")) if ckpt_dir.exists() else []
        want = [f"g0000-e{e:06d}.json" for e in self.synced_epochs]
        bad = len(set(found) ^ set(want))
        for name in set(found) & set(want):
            with open(ckpt_dir / name) as f:
                c = json.load(f)
            if c["segments"] != [Path(s).name for s in list_segments(self.binlog, int(c["epoch"]))]:
                bad += 1
        return bad

    def replay_ingest(self, tr, lake: Path, op: Op) -> None:
        replay.replay_cdc_sync(tr, str(lake), str(self.binlog), op.arg, CDC_SYNC)


class _EchoRecorder:
    """``out`` for ``run_write``: the time and payload of every STATE echo."""

    def __init__(self):
        self.times: list[float] = []
        self.states: list[dict] = []

    def write(self, s: str) -> None:
        if s.startswith('{"type":"STATE"'):
            self.times.append(time.perf_counter())
            self.states.append(json.loads(s)["state"])

    def flush(self) -> None:
        pass


_CATALOG = {
    "streams": [
        {
            "stream": {
                "name": inputs.NDJSON_STREAM,
                "json_schema": {
                    "properties": {
                        "id": {"type": "integer"},
                        "v": {"type": ["null", "string"]},
                        "ts": {"type": "string", "format": "date-time"},
                    }
                },
            },
            "sync_mode": "incremental",
            "destination_sync_mode": "append_dedup",
            "cursor_field": ["ts"],
            "primary_key": [["id"]],
        }
    ]
}


class AirbyteWrite(Workload):
    table = inputs.NDJSON_STREAM
    rows = staticmethod(oracle.airbyte_rows)

    def prepare(self) -> None:
        path, warm = self.work / "stream.ndjson", self.work / "warm.ndjson"
        # STATEs come every 700-800 records
        records = max(1_200, int((800 + 800 * self.units()) * self.scale))
        s, _ = inputs.generate(
            [
                dict(kind="ndjson", out=str(path), records=records, seed=self.seed,
                     lookups_per_class=LOOKUPS_PER_CLASS),
                dict(kind="ndjson", out=str(warm), records=1_200, seed=self.seed,
                     lookups_per_class=1),
            ],
            self.root,
        )
        self.lines = path.read_text().splitlines()
        self.lookup_keys = s["lookup_keys"]
        self.warm_lines = warm.read_text().splitlines()

    def _write(self, lake: Path, lines) -> tuple:
        out = _EchoRecorder()
        res = run_write(Config(lake_root=str(lake)), catalog_from_json(_CATALOG), lines, out=out)
        return res, out

    def warmup(self, k: int) -> None:
        lake = self.work / "lakes" / f"warm{k}"
        self._write(lake, iter(self.warm_lines))
        warm_reads(lake, self.table, 0)

    def ingest(self) -> Path:
        lake = self.work / "lakes" / "write"
        self.lakes = [lake]
        self.sent = 0
        sent_at: list[float] = []

        def feed():
            for line in self.lines:
                is_state = line.startswith('{"type":"STATE"')
                self.sent += 1
                if is_state:
                    sent_at.append(time.perf_counter())
                yield line
                if len(sent_at) == self.units():
                    return

        try:
            t0 = time.perf_counter()
            res, out = self._write(lake, feed())
            dt = time.perf_counter() - t0
        except Exception:
            self.t.attempted += 1
            self.t.fail("run_write", self.log)
            self.echoes = []
            return lake
        self.t.attempted += len(sent_at) + res.flushes
        self.t.ingest_rows += res.records_written
        self.t.ingest_wall += dt
        self.t.commit_lat += [b - a for a, b in zip(sent_at, out.times)]
        self.echoes = out.states
        self.t.ops.append(Op("write", self.sent, dt))
        return lake

    def fingerprint(self, t):
        return oracle.airbyte_rows(t)

    def check(self, post_run: list) -> None:
        orc = oracle.AirbyteOracle(self.lines[: self.sent], perturb=self.perturb)
        self.expected = orc.table
        bad = orc.state_mismatches(self.echoes)
        bad += sum(
            1 for rows in self.scan_checks + post_run if rows is not None and rows != orc.table
        )
        self.lookup_want = {
            key: [(key, *orc.rows[key])] if key in orc.rows else [] for key, _ in self.lookup_checks
        }
        bad += self.lookup_mismatches(self.lookup_checks)
        if bad:
            self.log(f"oracle: {bad} mismatching result(s)")
        self.t.failed += bad

    def replay_ingest(self, tr, lake: Path, op: Op) -> None:
        replay.replay_write(
            tr, Config(lake_root=str(lake)), catalog_from_json(_CATALOG),
            self.lines[: op.arg], _EchoRecorder(),
        )


WORKLOADS = {"bulk_sync": BulkSync, "airbyte_write": AirbyteWrite}
