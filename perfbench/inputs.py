"""Seeded benchmark inputs: CDC binlogs and Airbyte NDJSON streams.

Generation runs in a child process (``python3 -m perfbench.inputs <specs>``)
with Arrow limited to one thread, so it adds no threads to the measured
process and its allocations do not count in the measured memory peak.  The
same spec always gives the same files.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

NDJSON_BLOCK_KEYS = 1_000  # each key appears 4× within a block of 4,000 records
NDJSON_BASE_S = 1_704_067_200  # 2024-01-01T00:00:00Z
NDJSON_STREAM = "events"


def generate(specs: list[dict], root: Path) -> list[dict]:
    """Run generation specs in one child process; return their summaries."""
    env = dict(os.environ, PYTHONPATH=str(root), OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.inputs", json.dumps(specs)],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"input generation failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _binlog(spec: dict) -> dict:
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from airbyte_destination_ray.sources.synth import (
        list_segments,
        synthesize_binlog,
        urls_for_keys,
    )

    out = Path(spec["out"])
    summary = synthesize_binlog(
        out,
        n_events=spec["events"],
        n_keys=spec["keys"],
        n_epochs=spec["epochs"],
        seed=spec["seed"],
        html_pad=spec["html_pad"],
    )
    # lookup candidates: keys of delete events, keys of any event, and keys
    # outside the universe (never written)
    segs = [s for e in range(spec["epochs"]) for s in list_segments(out, e)]
    t = pa.concat_tables(pq.read_table(s, columns=["url", "op"]) for s in segs)
    rng = np.random.default_rng(spec["seed"] + 7)
    n = spec["lookups_per_class"]
    deleted = pc.filter(t.column("url"), pc.equal(t.column("op"), "D")).to_pylist()
    anyk = t.column("url").to_pylist()
    absent = urls_for_keys(np.arange(spec["keys"], spec["keys"] + n)).to_pylist()
    keys = (
        [deleted[i] for i in rng.integers(0, len(deleted), n)] if deleted else []
    ) + [anyk[i] for i in rng.integers(0, len(anyk), n)] + absent
    rng.shuffle(keys)
    return {
        "events": summary["n_events"] + summary["n_duplicates"],
        "epochs": summary["n_epochs"],
        "lookup_keys": keys,
    }


def _ndjson(spec: dict) -> dict:
    """RECORD lines for one append_dedup stream (integer pk ``id``, each key
    4× within its block, date-time cursor ``ts`` with 10% out of order) and a
    STATE line every 700–800 records.  That spacing makes every STATE close
    one 500-record flush plus one of 200–300 records, so every flush touches
    every partition and the delta stacks of all partitions stay in step
    (a 3-record flush after a STATE would desynchronise them, and the stack
    depth at the end of a run would then depend on the seed)."""
    rng = np.random.default_rng(spec["seed"])
    n = spec["records"]
    block = 4 * NDJSON_BLOCK_KEYS
    lines: list[str] = []
    next_state = int(rng.integers(700, 801))
    n_states = 0
    for b0 in range(0, n, block):
        m = min(block, n - b0)
        ids = np.repeat(np.arange(b0 // 4, b0 // 4 + NDJSON_BLOCK_KEYS), 4)[:m]
        rng.shuffle(ids)
        idx = np.arange(b0, b0 + m)
        ts = NDJSON_BASE_S + idx - rng.integers(0, 30, m)
        late = rng.random(m) < 0.10
        ts[late] -= rng.integers(30, 3_600, int(late.sum()))
        stamps = np.datetime_as_string(ts.astype("datetime64[s]"), unit="s")
        words = rng.integers(0, 1 << 30, m)
        for j in range(m):
            i = int(idx[j])
            lines.append(
                json.dumps(
                    {
                        "type": "RECORD",
                        "record": {
                            "stream": NDJSON_STREAM,
                            "data": {
                                "id": int(ids[j]),
                                "v": f"value-{i}-{int(words[j]):x}",
                                "ts": f"{stamps[j]}Z",
                            },
                            "emitted_at": 1_700_000_000_000 + i,
                        },
                    },
                    separators=(",", ":"),
                )
            )
            if i + 1 == next_state:
                lines.append(
                    json.dumps(
                        {"type": "STATE", "state": {"data": {"n": n_states, "records": i + 1}}},
                        separators=(",", ":"),
                    )
                )
                n_states += 1
                next_state += int(rng.integers(700, 801))
    Path(spec["out"]).parent.mkdir(parents=True, exist_ok=True)
    with open(spec["out"], "w") as f:
        f.write("\n".join(lines) + "\n")
    n_ids = -(-n // 4)
    lookup_rng = np.random.default_rng(spec["seed"] + 7)
    k = spec["lookups_per_class"]
    keys = [int(x) for x in lookup_rng.integers(0, min(n_ids, 2 * NDJSON_BLOCK_KEYS), 2 * k)]
    keys += [-1 - j for j in range(k)]  # never written
    lookup_rng.shuffle(keys)
    return {"records": n, "states": n_states, "lookup_keys": keys}


def main(argv: list[str]) -> None:
    import pyarrow as pa

    pa.set_cpu_count(1)
    pa.set_io_thread_count(1)
    kinds = {"binlog": _binlog, "ndjson": _ndjson}
    print(json.dumps([kinds[spec["kind"]](spec) for spec in json.loads(argv[0])]))


if __name__ == "__main__":
    main(sys.argv[1:])
