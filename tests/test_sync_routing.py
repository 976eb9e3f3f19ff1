"""The two routes of a binlog epoch: ``run_cdc_sync`` commits an epoch whose
segments fit under ``DRIVER_EPOCH_MAX_BYTES`` (Parquet-footer bytes) on the
driver — each segment read with ``pq.read_table`` and routed whole, then
``commit_epoch(pa.Table)`` — and every other epoch (over the bound,
``key_only``, ``expectations``) through a Ray Data job.  Both write the same
lake; only ``changes_in`` (rows entering the merge) may differ."""

import json
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray.data

from airbyte_destination_ray.pipelines import cdc
from airbyte_destination_ray.pipelines.cdc import read_table_arrow, run_cdc_sync
from airbyte_destination_ray.sources.synth import list_segments, synthesize_binlog
from airbyte_destination_ray.stages.lww import (
    STATS_SCHEMA,
    commit_epoch,
    make_partition_merger,
    make_partitioner,
)
from airbyte_destination_ray.state.manifest import ManifestStore
from airbyte_destination_ray.state.registry import SchemaStore

PAGES_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string(), nullable=False),
        pa.field("warc_ts", pa.timestamp("us"), nullable=False),
        pa.field("html", pa.binary()),
        pa.field("text", pa.string()),
        pa.field("lang", pa.string()),
    ]
)
ALWAYS_RAY, ALWAYS_DRIVER = -1, 1 << 40


def _binlog(path: Path) -> Path:
    """4 epochs of 3-4 segments each; epoch 3 is ~80% deletes."""
    synthesize_binlog(
        path, n_events=9_600, n_keys=900, n_epochs=4, seed=11,
        rows_per_segment=700, html_pad=2,
    )
    for seg in list_segments(path, 3):
        t = pq.read_table(seg)
        d = pa.array(np.arange(t.num_rows) % 5 != 0)
        for name in ("op", "html", "text", "lang"):
            col = t.column(name)
            value = pa.scalar("D") if name == "op" else pa.scalar(None, col.type)
            t = t.set_column(
                t.schema.get_field_index(name), name, pc.if_else(d, value, col)
            )
        pq.write_table(t, seg, compression="zstd")
    return path


def _sync(lake: str, binlog: Path, strategy: str) -> list[dict]:
    """Epochs 0-1 without a registry; then the registry moves to v1 (an
    added column) and epochs 2-3, whose segments are v0, align in flight."""
    kw = dict(num_partitions=4, merge_strategy=strategy, compact_every=3,
              enrich=True, extract_text=True)
    out = run_cdc_sync(lake, str(binlog), epochs=[0, 1], **kw)["epochs"]
    store = SchemaStore(lake, "pages")
    store.init(PAGES_SCHEMA)
    store.add_column("crawl_tier", pa.string())
    out += run_cdc_sync(
        lake, str(binlog), epochs=[2, 3], epoch_schema_versions={2: 0, 3: 0},
        **kw,
    )["epochs"]
    return out


def _lake_files(lake: str) -> dict:
    root = Path(lake)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.mark.parametrize("strategy", ["snapshot", "delta"])
def test_binlog_routings_write_the_same_lake(
    ray_session, tmp_path, monkeypatch, strategy
):
    """The same multi-segment, schema-evolved and delete-heavy epochs
    committed on the driver and through Ray Data give byte-identical
    Parquet files and manifests, and checkpoints equal except
    ``changes_in``, which is never larger on the driver (a whole segment
    pre-reduces at least as well as the blocks Ray cuts it into)."""
    binlog = _binlog(tmp_path / "binlog")
    assert all(len(list_segments(binlog, e)) >= 3 for e in range(4))
    lakes, summaries = {}, {}
    for route, bound in (("ray", ALWAYS_RAY), ("driver", ALWAYS_DRIVER)):
        monkeypatch.setattr(cdc, "DRIVER_EPOCH_MAX_BYTES", bound)
        lakes[route] = str(tmp_path / route)
        summaries[route] = _sync(lakes[route], binlog, strategy)
        assert [s["route"] for s in summaries[route]] == [route] * 4
        assert [s["shuffle"] for s in summaries[route]] == ["payload"] * 4

    files = {route: _lake_files(lake) for route, lake in lakes.items()}
    assert files["driver"].keys() == files["ray"].keys()
    ckpts = [n for n in files["ray"] if "/_checkpoints/" in n]
    assert len(ckpts) == 4
    written = [n for n in files["ray"] if n.endswith(".parquet")]
    assert len(written) >= 12
    for name in files["ray"].keys() - set(ckpts):
        assert files["driver"][name] == files["ray"][name], name
    for name in ckpts:
        a, b = (json.loads(files[r][name]) for r in ("driver", "ray"))
        assert a.pop("changes_in") <= b.pop("changes_in")
        assert a == b
    for a, b in zip(summaries["driver"], summaries["ray"]):
        assert a["changes_in"] <= b["changes_in"]
        assert (a["partitions"], a["rows"]) == (b["partitions"], b["rows"])

    if strategy == "delta":
        store = ManifestStore(lakes["driver"], "pages")
        stacks = [len(m.files) for m in store._iter_manifests(0)]
        assert max(stacks) >= 2  # a delta stack, not only snapshots
    out = read_table_arrow(lakes["driver"], "pages")
    assert out.num_rows > 0 and "crawl_tier" in out.column_names


def _small_binlog(path: Path) -> Path:
    synthesize_binlog(path, n_events=1_200, n_keys=150, n_epochs=1, seed=3,
                      rows_per_segment=500)
    return path


def test_small_epoch_builds_no_ray_data_plan(tmp_path, monkeypatch):
    """An epoch under the bound never builds a Ray Data plan: with
    ``read_parquet`` and ``Dataset.groupby`` raising, the sync commits the
    epoch on the driver, checkpoints it and says so in its summary."""
    def no_ray_job(*a, **kw):
        raise AssertionError("a small epoch launched a Ray Data job")

    monkeypatch.setattr(ray.data, "read_parquet", no_ray_job)
    monkeypatch.setattr(ray.data.Dataset, "groupby", no_ray_job)
    binlog = _small_binlog(tmp_path / "binlog")
    lake = str(tmp_path / "lake")
    res = run_cdc_sync(lake, str(binlog), num_partitions=4)
    [summary] = res["epochs"]
    assert (summary["route"], summary["shuffle"]) == ("driver", "payload")
    ckpt = ManifestStore(lake, "pages").last_checkpoint(0)
    assert ckpt["epoch"] == 0 and ckpt["rows"] == summary["rows"] > 0
    assert read_table_arrow(lake, "pages").num_rows > 0


@pytest.mark.parametrize(
    "case", ["over_bound", "key_only", "expectations"]
)
def test_ray_route_keeps_its_epochs(ray_session, tmp_path, monkeypatch, case):
    """An epoch over the bound, a ``key_only`` epoch and an ``expectations``
    epoch still build a Ray Data plan: the epoch's segments are read by
    ``read_parquet`` and the main table's ``commit_epoch`` gets a Dataset."""
    binlog = _small_binlog(tmp_path / "binlog")
    segments = list_segments(binlog, 0)
    read, committed = [], []
    orig_read, orig_commit = ray.data.read_parquet, cdc.commit_epoch

    def spy_read(paths, **kw):
        read.append(list(paths))
        return orig_read(paths, **kw)

    def spy_commit(store, ds, **kw):
        committed.append((store.root.name, type(ds)))
        return orig_commit(store, ds, **kw)

    monkeypatch.setattr(ray.data, "read_parquet", spy_read)
    monkeypatch.setattr(cdc, "commit_epoch", spy_commit)
    kw = {}
    if case == "over_bound":
        monkeypatch.setattr(
            cdc, "DRIVER_EPOCH_MAX_BYTES", cdc._uncompressed_bytes(segments) - 1
        )
    elif case == "key_only":
        kw["shuffle"] = "key_only"
    else:
        kw["expectations"] = [("text_not_null", "not_null", "text")]
    res = run_cdc_sync(str(tmp_path / "lake"), str(binlog), num_partitions=4, **kw)
    [summary] = res["epochs"]
    assert summary["route"] == "ray"
    assert summary["shuffle"] == ("key_only" if case == "key_only" else "payload")
    assert segments in read
    assert ("pages", ray.data.Dataset) in committed
    assert read_table_arrow(str(tmp_path / "lake"), "pages").num_rows > 0


def test_dataset_epoch_merges_receive_prev_from_the_driver(
    ray_session, tmp_path, monkeypatch
):
    """A Dataset-routed epoch resolves the table state once on the driver
    and hands each merge its partition's manifest as ``prev``, so no merge
    task looks its own state up."""
    lake = str(tmp_path / "lake")
    store = ManifestStore(lake, "t")
    store.root.mkdir(parents=True)
    store.init_table(num_partitions=4, mode="append_dedup", pk=["id"], cursor="ts")

    def changes(epoch):
        n = 64
        return pa.table({
            "id": pa.array(np.arange(n), pa.int64()),
            "ts": pa.array(np.full(n, epoch), pa.int64()),
            "seq": pa.array(np.arange(n) + epoch * n, pa.int64()),
        })

    partitioner = make_partitioner(
        "id", 4, ver="ts", payload_columns=["id", "ts"]
    )

    def merger(epoch):
        merge = make_partition_merger(
            lake, "t", generation=0, epoch=epoch, mode="append_dedup",
            pk="id", ver="ts",
        )

        def recording(group, *, prev=None):
            row = merge(group, prev=prev)
            seen = "none" if prev is None else f"e{prev.epoch}-p{prev.partition}"
            i = STATS_SCHEMA.get_field_index("digest")
            return row.set_column(i, "digest", pa.array([seen]))

        return recording

    commit_epoch(store, changes(0), partitioner=partitioner, merger=merger(0),
                 generation=0, epoch=0, checkpoint={})
    calls = []
    orig_state = ManifestStore.table_state

    def counted(self, *a, **kw):
        calls.append(kw.get("max_epoch"))
        return orig_state(self, *a, **kw)

    monkeypatch.setattr(ManifestStore, "table_state", counted)
    stats = commit_epoch(
        store, ray.data.from_arrow(changes(1)), partitioner=partitioner,
        merger=merger(1), generation=0, epoch=1, checkpoint={},
    )
    assert calls == [0]
    got = sorted(zip(stats.column("partition").to_pylist(),
                     stats.column("digest").to_pylist()))
    assert got == [(p, f"e0-p{p}") for p in range(4)]
