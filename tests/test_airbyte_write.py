"""Airbyte-protocol write path tests — golden behaviors from the reference
e2e suite (e2e/main_test.go:47-106) and unit suite (destination_test.go).

Fixture mirrors sample_files/: an overwrite stream (append semantics after
the generation flip, duplicates kept — 8 rows incl. the re-sent id=7) and an
append_dedup stream (pk=id, cursor=updated_at, LWW resolves id=1 to the later
'aeromexico' version — 2 rows)."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pyarrow as pa
import pytest

import airbyte_destination_ray
from airbyte_destination_ray.catalog import Catalog, Config, catalog_from_json
from airbyte_destination_ray.pipelines import airbyte_write
from airbyte_destination_ray.pipelines.airbyte_write import run_write
from airbyte_destination_ray.pipelines.cdc import read_table_arrow
from airbyte_destination_ray.stages.lww import commit_epoch
from airbyte_destination_ray.state.manifest import ManifestStore

CATALOG = {
    "streams": [
        {
            "stream": {
                "name": "airlines",
                "json_schema": {
                    "properties": {
                        "id": {"type": "integer"},
                        "name": {"type": ["null", "string"]},
                    }
                },
            },
            "sync_mode": "full_refresh",
            "destination_sync_mode": "overwrite",
        },
        {
            "stream": {
                "name": "deduped_stream",
                "json_schema": {
                    "properties": {
                        "id": {"type": "integer"},
                        "name": {"type": ["null", "string"]},
                        "updated_at": {"type": "string", "format": "date-time"},
                    }
                },
            },
            "sync_mode": "incremental",
            "destination_sync_mode": "append_dedup",
            "cursor_field": ["updated_at"],
            "primary_key": [["id"]],
        },
    ]
}


def rec(stream, data, emitted_at=1700000000000):
    return json.dumps(
        {
            "type": "RECORD",
            "record": {"stream": stream, "data": data, "emitted_at": emitted_at},
        }
    )


def state(n):
    return json.dumps(
        {
            "type": "STATE",
            "state": {
                "state_type": "STREAM",
                "sourceStats": {"recordCount": float(n)},
            },
        }
    )


def airline(i, name):
    return rec("airlines", {"id": i, "name": name})


def _lines():
    return [
        airline(1, "alpha"),
        airline(2, "beta"),
        airline(3, "gamma"),
        state(3),
        airline(5, "delta"),
        airline(6, "epsilon"),
        airline(7, "zeta"),
        state(3),
        airline(7, "zeta"),  # re-sent duplicate (new record index → kept)
        airline(8, "eta"),
        # LWW pair: id=1, later updated_at must win
        rec(
            "deduped_stream",
            {"id": 1, "name": "oldname", "updated_at": "2024-01-01T00:00:00Z"},
        ),
        rec(
            "deduped_stream",
            {"id": 1, "name": "aeromexico", "updated_at": "2024-02-01T00:00:00Z"},
        ),
        rec(
            "deduped_stream",
            {"id": 2, "name": "other", "updated_at": "2024-01-15T00:00:00Z"},
        ),
        state(5),
    ]


@pytest.fixture()
def lake(tmp_path):
    return str(tmp_path / "lake")


def run(lake, lines, **kw):
    out = io.StringIO()
    cfg = Config(lake_root=lake)
    catalog = catalog_from_json(CATALOG)
    result = run_write(cfg, catalog, lines, out=out, **kw)
    return result, out.getvalue()


def test_write_goldens(ray_session, lake):
    result, output = run(lake, _lines())
    assert result.records_written == 11
    assert result.states_echoed == 3

    airlines = read_table_arrow(lake, "airlines")
    # e2e golden (main_test.go:70-71): 8 rows, duplicate id=7 kept twice
    assert airlines.num_rows == 8
    ids = sorted(airlines.column("id").to_pylist())
    assert ids == [1, 2, 3, 5, 6, 7, 7, 8]
    # every row has a raw id and the two metadata columns
    assert "_airbyte_raw_id" in airlines.column_names
    assert "_airbyte_extracted_at" in airlines.column_names
    assert airlines.column("_airbyte_raw_id").null_count == 0

    dedup = read_table_arrow(lake, "deduped_stream")
    # e2e golden (main_test.go:86-105): 2 rows; id=1 → later version
    assert dedup.num_rows == 2
    by_id = {
        r["id"]: r for r in dedup.to_pylist()
    }
    assert by_id[1]["name"] == "aeromexico"
    assert by_id[2]["name"] == "other"


def test_state_echo_carries_destination_stats(ray_session, lake):
    _, output = run(lake, _lines())
    states = [
        json.loads(l) for l in output.splitlines() if '"type": "STATE"' in l
        or '"type":"STATE"' in l
    ]
    assert len(states) == 3
    assert states[-1]["state"]["destinationStats"] == {"recordCount": 5.0}


def test_small_flush_boundary(ray_session, lake):
    """destination_test.go:154-182 analog: shrink the flush threshold and
    check 'Max batch size reached' fires and results are unchanged."""
    result, output = run(lake, _lines(), max_records_per_flush=2)
    assert "Max batch size reached" in output
    airlines = read_table_arrow(lake, "airlines")
    assert airlines.num_rows == 8
    dedup = read_table_arrow(lake, "deduped_stream")
    assert dedup.num_rows == 2


def test_dataset_write_rerun_same_epoch_is_noop(ray_session, tmp_path):
    """Re-running the single-pass dataset write for a committed epoch must
    be a no-op (manifest CAS): identical lake state, no duplicates."""
    from airbyte_destination_ray.pipelines.airbyte_write import run_write_dataset

    lines = [l for l in _lines() if '"STATE"' not in l]
    f = tmp_path / "in.ndjson"
    f.write_text("\n".join(lines) + "\n")
    lake = str(tmp_path / "lake")
    cfg = Config(lake_root=lake)
    run_write_dataset(cfg, catalog_from_json(CATALOG), [str(f)], num_partitions=4)
    before_a = read_table_arrow(lake, "airlines").sort_by("id")
    before_d = read_table_arrow(lake, "deduped_stream").sort_by("id")
    run_write_dataset(cfg, catalog_from_json(CATALOG), [str(f)], num_partitions=4)
    assert read_table_arrow(lake, "airlines").sort_by("id").equals(before_a)
    assert read_table_arrow(lake, "deduped_stream").sort_by("id").equals(before_d)


def test_byte_flush_boundary(ray_session, lake):
    """destination_test.go:171-182 analog: shrink the byte budget (the
    reference shrinks maxBytesPerBatch to 2,500) and check the byte side of
    the dual trigger fires, all three state echoes still arrive, and the
    lake goldens are unchanged."""
    result, output = run(lake, _lines(), max_bytes_per_flush=150)
    assert "Max batch size reached" in output
    assert result.states_echoed == 3
    assert read_table_arrow(lake, "airlines").num_rows == 8
    assert read_table_arrow(lake, "deduped_stream").num_rows == 2


def test_byte_budget_smaller_than_one_record_still_writes(ray_session, lake):
    """A single record larger than the byte budget is still buffered and
    flushed (the reference flushes the — empty — current batch and then
    appends; nothing is dropped)."""
    result, output = run(lake, _lines(), max_bytes_per_flush=10)
    assert result.records_written == 11
    assert read_table_arrow(lake, "airlines").num_rows == 8
    assert read_table_arrow(lake, "deduped_stream").num_rows == 2


def test_record_error_policy_raise_and_log(ray_session, lake):
    """destination.go:485-489 analog: per-event errors are logged and
    swallowed under on_record_error='log'; the default stays fail-fast."""
    bad = rec("airlines", {"id": "not-an-int", "name": "broken"})
    lines = [airline(1, "alpha"), bad, airline(2, "beta"), state(1)]
    with pytest.raises(Exception):
        run(lake + "_raise", lines)
    result, output = run(lake, lines, on_record_error="log")
    assert "failed to store event" in output
    t = read_table_arrow(lake, "airlines")
    assert sorted(t.column("id").to_pylist()) == [1, 2]


def test_overwrite_clears_previous_sync(ray_session, lake):
    run(lake, _lines())
    # second sync with only one airline: overwrite keeps just the new rows
    result, _ = run(lake, [airline(99, "omega"), state(1)])
    airlines = read_table_arrow(lake, "airlines")
    assert airlines.column("id").to_pylist() == [99]
    # dedup stream (not overwrite) keeps its rows
    assert read_table_arrow(lake, "deduped_stream").num_rows == 2


def test_replay_same_input_is_idempotent_for_dedup(ray_session, lake):
    run(lake, _lines())
    before = read_table_arrow(lake, "deduped_stream")
    run(lake, _lines())
    after = read_table_arrow(lake, "deduped_stream")
    assert after.num_rows == before.num_rows == 2


def test_unknown_stream_fails(ray_session, lake):
    with pytest.raises(KeyError):
        run(lake, [rec("nope", {"id": 1})])


def test_full_reset_drops_tables(ray_session, tmp_path):
    lake = str(tmp_path / "lake2")
    overwrite_only = {
        "streams": [
            {
                "stream": {
                    "name": "airlines",
                    "json_schema": {"properties": {"id": {"type": "integer"}}},
                },
                "destination_sync_mode": "overwrite",
            }
        ]
    }
    out = io.StringIO()
    cfg = Config(lake_root=lake)
    run_write(cfg, catalog_from_json(overwrite_only), [airline(1, "x"), state(1)], out=out)
    from pathlib import Path

    assert (Path(lake) / "airlines" / "_meta.json").exists()
    # zero-record all-overwrite sync → A4 full reset
    run_write(cfg, catalog_from_json(overwrite_only), [], out=out)
    assert not (Path(lake) / "airlines").exists()


def test_dataset_write_matches_sequential(ray_session, tmp_path):
    """The distributed Dataset write path produces the same lake state as
    the protocol-faithful sequential path for the dedup stream."""
    import json as _json

    # NDJSON part-files (records only — Dataset path is the bulk loader)
    lines = [l for l in _lines() if '"STATE"' not in l]
    f1 = tmp_path / "part-0.ndjson"
    f1.write_text("\n".join(lines[:6]) + "\n")
    f2 = tmp_path / "part-1.ndjson"
    f2.write_text("\n".join(lines[6:]) + "\n")

    from airbyte_destination_ray.pipelines.airbyte_write import run_write_dataset

    lake_seq = str(tmp_path / "lake_seq")
    run(lake_seq, lines)
    lake_ds = str(tmp_path / "lake_ds")
    cfg = Config(lake_root=lake_ds)
    summary = run_write_dataset(
        cfg, catalog_from_json(CATALOG), [str(f1), str(f2)], num_partitions=4
    )
    assert set(summary) == {"airlines", "deduped_stream"}

    for table in ("airlines", "deduped_stream"):
        a = read_table_arrow(lake_seq, table)
        b = read_table_arrow(lake_ds, table)
        cols = [c for c in a.column_names if not c.startswith("_airbyte")]
        assert a.select(cols).sort_by("id").equals(
            b.select(cols).sort_by("id").cast(a.select(cols).schema)
        )
    # raw ids identical too (same global record numbering)
    a = read_table_arrow(lake_seq, "deduped_stream").sort_by("id")
    b = read_table_arrow(lake_ds, "deduped_stream").sort_by("id")
    assert a.column("_airbyte_raw_id").equals(b.column("_airbyte_raw_id"))


def test_go_json_size_matches_go_marshal():
    """Flush byte accounting parity with Go's json.Marshal
    (destination.go:428-433): HTML-safe escaping of < > & to 6-byte
    \\u00XX sequences, raw UTF-8 for non-ASCII (never \\uXXXX-escaped)."""
    from airbyte_destination_ray.pipelines.airbyte_write import go_json_size

    # plain ASCII: same as compact json.dumps
    assert go_json_size({"a": 1}) == len('{"a":1}')
    # '<b>&' -> Go emits <b>& (6+1+6+6 = 19 bytes in-string)
    assert go_json_size({"a": "<b>&"}) == len('{"a":"') + 19 + len('"}')
    # non-ASCII: Go emits raw UTF-8 ('é' = 2 bytes), not é
    assert go_json_size({"a": "é"}) == len('{"a":"') + 2 + len('"}')
    # U+2028 (3 bytes raw) is HTML-escaped by Go to 6 bytes
    assert go_json_size({"a": " "}) == len('{"a":"') + 6 + len('"}')


def test_emit_records_round_trip(ray_session, lake, tmp_path):
    """Destination-as-source: emit the committed lake state back as
    RECORD NDJSON, re-ingest it into a FRESH lake, and the visible DATA
    state matches (raw ids regenerate — they encode sync position)."""
    from airbyte_destination_ray.pipelines.airbyte_write import emit_records

    run(lake, _lines())
    catalog = catalog_from_json(CATALOG)
    out = io.StringIO()
    total = 0
    for stream in catalog.streams:
        total += emit_records(lake, stream, out)
    assert total == 10  # 8 airlines + 2 deduped rows survive the merges

    lake2 = str(tmp_path / "lake2")
    emitted_lines = [l for l in out.getvalue().splitlines() if l.strip()]
    # every emitted line parses as a protocol RECORD
    for l in emitted_lines:
        msg = json.loads(l)
        assert msg["type"] == "RECORD" and "data" in msg["record"]
    run(lake2, emitted_lines + [json.dumps(
        {"type": "STATE", "state": {"data": {"cursor": 99}}}
    )])

    for stream in catalog.streams:
        a = read_table_arrow(lake, stream.table_name)
        b = read_table_arrow(lake2, stream.table_name)
        data_cols = sorted(
            c for c in a.column_names if not c.startswith("_airbyte")
        )
        aa = a.select(data_cols).sort_by([(c, "ascending")
                                          for c in data_cols])
        bb = b.select(data_cols).sort_by([(c, "ascending")
                                          for c in data_cols])
        assert aa.equals(bb), stream.name


# -- a flush commits in-process ------------------------------------------


def _many_flush_lines(records_per_stream):
    """Both streams interleaved: the overwrite stream (keyed on the raw id)
    and the append_dedup stream, whose ids recur across flushes (some null
    names, cursor ties broken by seq); a STATE every 100 records."""
    lines = []
    for i in range(records_per_stream):
        lines.append(airline(i % 97, f"n{i}"))
        lines.append(rec("deduped_stream", {
            "id": i % 61,
            "name": None if i % 13 == 0 else f"v{i}",
            "updated_at": f"2024-01-{1 + i % 28:02d}T00:00:00Z",
        }))
        if i % 100 == 99:
            lines.append(state(i + 1))
    return lines


def _lake_files(lake):
    root = Path(lake)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _file_ids(lake):
    return {
        p: (p.stat().st_ino, p.stat().st_mtime_ns)
        for p in Path(lake).rglob("*") if p.is_file()
    }


def test_flush_routings_write_the_same_lake(ray_session, tmp_path, monkeypatch):
    """The same flushes committed through ``commit_epoch(pa.Table)`` (the
    in-process form every flush uses) and through
    ``commit_epoch(ray.data.from_arrow(t))`` (the Ray Data exchange) give
    byte-identical Parquet files, manifests and checkpoints and equal stats
    rows — for the raw-id-keyed and the append_dedup table, across a
    ``compact_every=16`` delta compaction.  Re-running a committed flush
    epoch is a no-op either way."""
    import ray.data

    def capture(calls, routing):
        def wrapped(store, ds, **kw):
            stats = commit_epoch(store, routing(ds), **kw)
            calls.append((store, ds, kw, stats))
            return stats

        return wrapped

    lines = _many_flush_lines(760)
    lakes, calls = {}, {}
    for name, routing in (("table", lambda t: t), ("dataset", ray.data.from_arrow)):
        calls[name] = []
        monkeypatch.setattr(
            airbyte_write, "commit_epoch", capture(calls[name], routing)
        )
        lakes[name] = str(tmp_path / name)
        result, _ = run(
            lakes[name], lines, max_records_per_flush=40, num_partitions=4
        )
        assert result.flushes == len(calls[name]) >= 2 * 17
    monkeypatch.undo()

    files = _lake_files(lakes["table"])
    assert files == _lake_files(lakes["dataset"])
    assert sum(f.endswith(".parquet") for f in files) > 100
    for a, b in zip(calls["table"], calls["dataset"]):
        assert a[3].num_rows > 0
        assert a[3].equals(b[3].sort_by("partition"))

    for table in ("airlines", "deduped_stream"):
        store = ManifestStore(lakes["table"], table)
        ms = sorted(
            store._iter_manifests(store.table_meta()["generation"]),
            key=lambda m: (m.partition, m.epoch),
        )
        # a 15-file delta stack folds into one snapshot at the next flush
        assert any(
            len(a.files) == 15 and b.partition == a.partition
            and len(b.files) == 1
            for a, b in zip(ms, ms[1:])
        ), table

    for name in lakes:
        store, ds, kw, _ = calls[name][-1]
        before = _file_ids(lakes[name])
        again = commit_epoch(
            store, ds if name == "table" else ray.data.from_arrow(ds), **kw
        )
        assert again.num_rows > 0
        assert again.column("skipped").to_pylist() == [True] * again.num_rows
        assert _file_ids(lakes[name]) == before


def _two_state_lines():
    return [
        airline(1, "alpha"),
        airline(2, "beta"),
        rec("deduped_stream",
            {"id": 1, "name": "oldname", "updated_at": "2024-01-01T00:00:00Z"}),
        state(3),
        airline(3, "gamma"),
        rec("deduped_stream",
            {"id": 1, "name": "aeromexico", "updated_at": "2024-02-01T00:00:00Z"}),
        rec("deduped_stream",
            {"id": 2, "name": "other", "updated_at": "2024-01-15T00:00:00Z"}),
        state(6),
    ]


def test_flush_launches_no_ray_data_job(monkeypatch, lake):
    """A sync's flushes never build a Ray Data plan: with ``from_arrow``
    and ``Dataset.groupby`` raising, the write still commits every flush,
    echoes both STATEs in order and checkpoints each barrier."""
    import ray.data

    def no_ray_job(*a, **kw):
        raise AssertionError("a flush launched a Ray Data job")

    monkeypatch.setattr(ray.data, "from_arrow", no_ray_job)
    monkeypatch.setattr(ray.data.Dataset, "groupby", no_ray_job)
    result, output = run(lake, _two_state_lines(), max_records_per_flush=2)

    msgs = [json.loads(l) for l in output.splitlines()]
    states = [m["state"] for m in msgs if m["type"] == "STATE"]
    assert [s["sourceStats"] for s in states] == [
        {"recordCount": 3.0}, {"recordCount": 6.0}
    ]
    assert [s["destinationStats"] for s in states] == [
        {"recordCount": 3.0}, {"recordCount": 6.0}
    ]
    # the second STATE is echoed last, after its barrier's flushes
    assert msgs[-1]["type"] == "STATE"
    assert result.flushes == 4 and result.states_echoed == 2

    for table in ("airlines", "deduped_stream"):
        store = ManifestStore(lake, table)
        gen = store.table_meta()["generation"]
        cps = [
            json.loads(p.read_text())
            for p in sorted(store.checkpoint_dir.iterdir())
        ]
        assert [(c["epoch"], c["records_written"]) for c in cps] == [
            (1, 3), (3, 6)
        ]
        assert all(c["generation"] == gen for c in cps)

    airlines = read_table_arrow(lake, "airlines")
    assert sorted(airlines.column("id").to_pylist()) == [1, 2, 3]
    dedup = read_table_arrow(lake, "deduped_stream").to_pylist()
    assert {r["id"]: r["name"] for r in dedup} == {1: "aeromexico", 2: "other"}


def test_cli_write_starts_no_ray_session(tmp_path):
    """``python -m airbyte_destination_ray write`` (run through ``runpy``,
    which is what ``-m`` does, so the process can report afterwards)
    writes the lake and echoes STATE without ever initializing Ray."""
    lake = tmp_path / "lake"
    (tmp_path / "config.json").write_text(json.dumps({"lake_root": str(lake)}))
    (tmp_path / "catalog.json").write_text(json.dumps(CATALOG))
    (tmp_path / "in.ndjson").write_text("\n".join(_lines()) + "\n")
    argv = [
        "airbyte_destination_ray", "write",
        "--config", str(tmp_path / "config.json"),
        "--catalog", str(tmp_path / "catalog.json"),
        "--input", str(tmp_path / "in.ndjson"),
    ]
    script = (
        "import runpy, sys\n"
        f"sys.argv = {argv!r}\n"
        "code = 0\n"
        "try:\n"
        "    runpy.run_module('airbyte_destination_ray', run_name='__main__',"
        " alter_sys=True)\n"
        "except SystemExit as e:\n"
        "    code = e.code\n"
        "import ray\n"
        "print('ray_initialized', ray.is_initialized(), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    repo = str(Path(airbyte_destination_ray.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=repo)
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ray_initialized False" in proc.stderr
    states = [
        json.loads(l) for l in proc.stdout.splitlines()
        if json.loads(l)["type"] == "STATE"
    ]
    assert [s["state"]["destinationStats"] for s in states] == [
        {"recordCount": 3.0}, {"recordCount": 3.0}, {"recordCount": 5.0}
    ]
    assert read_table_arrow(str(lake), "airlines").num_rows == 8
    assert read_table_arrow(str(lake), "deduped_stream").num_rows == 2
