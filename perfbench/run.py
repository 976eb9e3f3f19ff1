"""Benchmark entry point.

    python3 perfbench/run.py --workload bulk_sync --seed 1 --seconds 12 --trace 0

Runs one workload from the root of a checkout and prints, as the last line
of stdout, ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
gives the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` gives the
per-layer metrics from an in-process replay of the same operations.  Exits
non-zero when any operation failed or an output mismatched its oracle.
See perfbench/README.md for the metrics and what each layer should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_ROUNDS = 3
# share of the samples dropped at each end before a latency is averaged
TRIM = 0.1


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def trimmed_mean(xs) -> float:
    """Mean of the samples without the fastest and slowest ``TRIM`` share,
    and at least one at each end.

    A latency sample either contains a full (gen-2) collection of the
    driver's Python heap or not: 60-100 ms on one vCPU, every two or three
    Ray Data jobs.  A median of such a two-mode mix jumps from one mode to
    the other when the share of slow samples nears a half; this mean keeps
    the collection's amortised cost and drops single outliers, such as the
    first scan of a freshly synced lake (up to 1 s against 0.25 s)."""
    xs = sorted(xs)
    k = max(1, int(len(xs) * TRIM)) if len(xs) >= 3 else 0
    return statistics.fmean(xs[k : len(xs) - k])


def _on_signal(signum, frame):
    raise SystemExit(128 + signum)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["bulk_sync", "airbyte_write"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="input size multiplier (self-tests run at small sizes)")
    p.add_argument("--perturb", choices=["drop", "value"],
                   help="drop one tombstone/winner from the oracle, or change one expected "
                        "value: the run must fail")
    return p.parse_args(argv)


def run(args, result_fd: int) -> int:
    sys.path.insert(0, str(ROOT))
    try:
        import airbyte_destination_ray  # noqa: F401
    except ImportError as e:
        log(f"engine package not found next to perfbench/: {e}")
        return 2
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT), os.environ.get("PYTHONPATH", "")) if p
    )
    # large numpy/Arrow temporaries stay on the brk heap in Ray workers
    # instead of being re-faulted per batch (set before ray.init)
    os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", "1073741824")
    os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", "1073741824")

    from perfbench import session
    from perfbench.workloads import WORKLOADS

    session.become_subreaper()
    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True)
    temp_dir = None
    try:
        wl = WORKLOADS[args.workload](
            root=ROOT, work=work, seed=args.seed, seconds=args.seconds,
            scale=args.scale, perturb=args.perturb, log=log,
        )
        t0 = time.perf_counter()
        wl.prepare()
        gen_s = time.perf_counter() - t0

        # set-up = ray.init + a tiny warm-up through the same operators, done
        # SETUP_ROUNDS times in fresh sessions; the last session stays up
        # for the measurement
        inits, warms = [], []
        for k in range(SETUP_ROUNDS):
            temp_dir = session.ray_temp_dir(work / f"r{k}")
            t0 = time.perf_counter()
            session.start(temp_dir)
            t1 = time.perf_counter()
            wl.warmup(k)
            t2 = time.perf_counter()
            inits.append(t1 - t0)
            warms.append(t2 - t1)
            if k < SETUP_ROUNDS - 1:
                wl.t.attempted += 1
                wl.t.failed += session.stop(temp_dir, log) > 0
                temp_dir = None

        wl.run_window()
        post_run = wl.post_run_reads()
        rss = session.peak_rss_mb(temp_dir)
        wl.t.attempted += 1
        wl.t.failed += session.stop(temp_dir, log) > 0
        temp_dir = None
        wl.check(post_run)
        t = wl.t
        if args.trace:
            metrics = traced_metrics(wl, work, args)
            metrics.update(
                {
                    "setup.ray_init_s": (statistics.median(inits), "s"),
                    "setup.warmup_s": (statistics.median(warms), "s"),
                    "synth.gen_s": (gen_s, "s"),
                }
            )
        else:
            metrics = {
                "setup_s": (statistics.median(i + w for i, w in zip(inits, warms)), "s"),
                "ingest_rows_per_s": (t.ingest_rows / t.ingest_wall, "rows/s"),
                "commit_s": (trimmed_mean(t.commit_lat), "s"),
                "scan_s": (trimmed_mean(t.scan_lat), "s"),
                "lookup_s": (trimmed_mean(t.lookup_lat), "s"),
                "lake_bytes_per_row": (wl.lake_bytes_per_row(), "bytes/row"),
                "peak_rss_mb": (rss, "MB"),
            }
            setups = [round(i + w, 3) for i, w in zip(inits, warms)]
            log(
                f"samples: commits={len(t.commit_lat)} scans={len(t.scan_lat)} "
                f"lookups={len(t.lookup_lat)} setup={setups}"
            )
    finally:
        if temp_dir is not None:
            session.stop(temp_dir, log)
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    out = {
        "correct": t.failed == 0,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    os.write(result_fd, (json.dumps(out) + "\n").encode())
    return 0 if t.failed == 0 else 1


def traced_metrics(wl, work: Path, args) -> dict:
    """Replay the Ray run's operations in-process: once unwrapped, once with
    timing wrappers; the layers come from the wrapped one."""
    from perfbench import replay

    replay_root = work / "replay"
    # pay first-call costs (imports, caches) before either timed replay
    log_ = wl.replay_log()
    first = [next(op for op in log_ if op.kind == k) for k in dict.fromkeys(op.kind for op in log_)]
    wl.replay_ops(replay.NullTracer(), replay_root / "warm", first)
    shutil.rmtree(replay_root / "warm", ignore_errors=True)
    plain_s = wl.replay_ops(replay.NullTracer(), replay_root / "plain")
    tr = replay.Tracer()
    lookups: list = []
    with replay.instrument(tr):
        traced_s = wl.replay_ops(tr, replay_root / "traced", lookups=lookups)
    wl.replay_check(replay_root / "traced", lookups)
    ray_wall = sum(op.wall for op in wl.replay_log())
    out = replay.layer_metrics(tr)
    committed = replay.committed_bytes(str(replay_root / "traced"), wl.table)
    attributed = sum(v for v, unit in out.values() if unit == "s")
    written = out["merge.bytes_written"][0]
    out.update(
        {
            "merge.write_amp": (written / committed if committed else 0.0, "ratio"),
            "ray.overhead_s": (ray_wall - traced_s, "s"),
            "trace.ray_wall_s": (ray_wall, "s"),
            "trace.replay_s": (traced_s, "s"),
            "trace.unattributed_s": (traced_s - attributed, "s"),
            "trace.overhead_s": (traced_s - plain_s, "s"),
        }
    )
    tr.dump(ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json")
    return out


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    # stdout carries only the result: everything else written to fd 1
    # (engine prints, Ray, child processes) goes to stderr
    result_fd = os.dup(1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    return run(args, result_fd)


if __name__ == "__main__":
    sys.exit(main())
