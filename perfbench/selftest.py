"""Self-tests of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py [workload ...]

For each workload:

- a ``--trace 0`` run exits 0, passes its oracle, and prints every
  end-to-end metric of BENCHMARK.json with its unit;
- a ``--trace 1 --perturb drop`` run prints every per-layer metric with its
  unit, and fails its oracle (one tombstone or winning record is dropped
  from the expectation): ``correct`` is false and the exit code is not 0;
- a ``--perturb value`` run fails its oracle too (one expected enrich value,
  or one winning record's payload, is changed);
- after each run returns, no process it started is still listed.

The self-test makes itself a child subreaper, so every process a run leaves
behind is re-parented to it and shows up among its descendants.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import session  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seconds", "2", "--scale", "0.02", "--seed", "3"]


def _run(workload: str, *extra: str) -> tuple[int, dict | None, set[int]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, *TINY, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    # descendants of this process, or processes naming the run's work dir
    leaked = session.session_pids(ROOT / ".bench_work")
    lines = proc.stdout.strip().splitlines()
    if len(lines) > 1:
        raise AssertionError(f"stdout has more than the result line: {lines[:-1]}")
    return proc.returncode, json.loads(lines[-1]) if lines else None, leaked


def _check_metrics(result: dict, wanted: list[dict]) -> None:
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}, sorted(set(got) ^ {m["name"] for m in wanted})
    for m in wanted:
        assert got[m["name"]]["unit"] == m["unit"], (m["name"], got[m["name"]])
        assert isinstance(got[m["name"]]["value"], float), m["name"]


def check(workload: str) -> None:
    code, res, leaked = _run(workload, "--trace", "0")
    assert code == 0 and res is not None, (code, res)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
    _check_metrics(res, SPEC["end_to_end"])
    assert not leaked, f"Ray processes left alive: {sorted(leaked)}"

    code, res, leaked = _run(workload, "--trace", "1", "--perturb", "drop")
    assert res is not None, "a failed oracle still prints its result"
    assert code != 0 and not res["correct"] and res["failed"] > 0, (code, res)
    _check_metrics(res, SPEC["per_layer"])
    assert not leaked, f"Ray processes left alive: {sorted(leaked)}"

    code, res, leaked = _run(workload, "--trace", "0", "--perturb", "value")
    assert res is not None and code != 0 and not res["correct"] and res["failed"] > 0, (code, res)
    assert not leaked, f"Ray processes left alive: {sorted(leaked)}"
    print(f"ok {workload}", flush=True)


if __name__ == "__main__":
    if not session.become_subreaper():
        sys.exit("cannot become a child subreaper: leaked processes would go unseen")
    for w in sys.argv[1:] or [w["name"] for w in SPEC["workloads"]]:
        check(w)
