"""Table-state cost does not grow with history (no Ray).

``ManifestStore.table_state`` orders non-lane manifests by filename and
parses one per partition plus the compaction-lane ones, and
``commit_epoch(pa.Table)`` resolves that state once per commit.  These
tests count manifest bodies opened — counts, not timings, so they hold on
any machine: per in-process flush at 300 epochs of depth (and no
per-partition lookup after the one resolution), and none at all when an
Airbyte writer resumes a lake.
"""

import io
import json

import numpy as np
import pyarrow as pa

from airbyte_destination_ray.catalog import Config, catalog_from_json
from airbyte_destination_ray.pipelines.airbyte_write import AirbyteWriter, run_write
from airbyte_destination_ray.pipelines.cdc import read_table_arrow
from airbyte_destination_ray.stages.lww import (
    commit_epoch,
    commit_partition,
    lww_compact,
    make_partition_merger,
    make_partitioner,
    read_files,
)
from airbyte_destination_ray.state.manifest import (
    COMPACTION_EPOCH_BASE as LANE,
    ManifestStore,
    resolve_state,
    source_epochs,
)

PARTITIONS = 8
KEYS = 64


def count_opened(monkeypatch) -> list:
    """Every manifest body opened from now on (``_read_manifest`` is the
    one place a body is read)."""
    opened = []
    orig = ManifestStore._read_manifest

    def counted(self, name):
        opened.append(name)
        return orig(self, name)

    monkeypatch.setattr(ManifestStore, "_read_manifest", counted)
    return opened


def flush(epoch: int) -> pa.Table:
    """32 changes over the 64 keys — every partition is touched."""
    ids = (np.arange(32) * 2 + epoch) % KEYS
    return pa.table({
        "id": pa.array(ids, pa.int64()),
        "v": pa.array([f"e{epoch}-k{k}" for k in ids]),
        "ts": pa.array(np.full(32, epoch), pa.int64()),
        "seq": pa.array(np.arange(32) + 100 * epoch, pa.int64()),
    })


def fold_stack(lake):
    """A lane commit as ``compact_table`` makes one: the partition's stack
    folded into one snapshot that covers the stack's epochs."""

    def fold(prev):
        t = lww_compact(read_files(lake, prev.files), "id", "ts")
        return [("", t)], dict(
            row_count=t.num_rows, max_seq=prev.max_seq,
            covers_epoch=prev.effective_epoch,
        )

    return fold


def test_manifests_opened_per_flush_stay_flat_with_depth(tmp_path, monkeypatch):
    lake = str(tmp_path)
    store = ManifestStore(lake, "t")
    store.root.mkdir(parents=True)
    store.init_table(
        num_partitions=PARTITIONS, mode="append_dedup", pk=["id"], cursor="ts",
        merge_strategy="delta", compact_every=16,
    )
    partitioner = make_partitioner(
        "id", PARTITIONS, ver="ts", payload_columns=["id", "v", "ts"]
    )
    opened = count_opened(monkeypatch)
    # the state is resolved once per commit and handed to every merge: no
    # partition looks its previous manifest up again
    lookups, orig_lookup = [], ManifestStore.latest_snapshot
    monkeypatch.setattr(
        ManifestStore, "latest_snapshot",
        lambda *a, **kw: lookups.append(a) or orig_lookup(*a, **kw),
    )
    per_flush, lanes, latest = [], 0, {}
    for epoch in range(300):
        if epoch in (100, 200):
            commit_partition(
                lake, "t", generation=0, epoch=LANE + lanes, partition=epoch % 8,
                changes_in=0, fold=fold_stack(lake),
            )
            lanes += 1
        t = flush(epoch)
        latest.update(zip(t.column("id").to_pylist(), t.column("v").to_pylist()))
        merger = make_partition_merger(
            lake, "t", generation=0, epoch=epoch, mode="append_dedup",
            pk="id", ver="ts", compute_digest=False, strategy="delta",
            compact_every=16,
        )
        opened.clear()
        lookups.clear()
        stats = commit_epoch(
            store, t, partitioner=partitioner, merger=merger,
            generation=0, epoch=epoch,
        )
        assert stats.num_rows == PARTITIONS
        assert not any(stats.column("skipped").to_pylist())
        per_flush.append(len(opened))
        assert len(opened) <= PARTITIONS + lanes, epoch
        assert len(lookups) == (PARTITIONS if epoch == 0 else 0), epoch
    assert per_flush[-1] == per_flush[1] + lanes  # epoch 0 had no history
    monkeypatch.undo()

    assert store.table_state(0) == resolve_state(store._iter_manifests(0))
    assert len(store.manifest_names(0)) == 300 * PARTITIONS + lanes
    got = read_table_arrow(lake, "t").sort_by("id")
    assert got.column("id").to_pylist() == list(range(KEYS))
    assert got.column("v").to_pylist() == [latest[k] for k in range(KEYS)]


CATALOG = {
    "streams": [{
        "stream": {
            "name": "items",
            "json_schema": {"properties": {
                "id": {"type": "integer"},
                "name": {"type": ["null", "string"]},
            }},
        },
        "sync_mode": "incremental",
        "destination_sync_mode": "append_dedup",
        "cursor_field": ["id"],
        "primary_key": [["id"]],
    }]
}


def lines(start, n):
    return [
        json.dumps({"type": "RECORD", "record": {
            "stream": "items", "data": {"id": i % 50, "name": f"n{i}"},
            "emitted_at": 1_700_000_000_000 + i,
        }})
        for i in range(start, start + n)
    ]


def test_writer_resumes_from_names_without_opening_a_manifest(
    tmp_path, monkeypatch
):
    cfg = Config(lake_root=str(tmp_path))
    first = run_write(
        cfg, catalog_from_json(CATALOG), lines(0, 250), out=io.StringIO(),
        max_records_per_flush=10,
    )
    assert first.flushes == 25
    store = ManifestStore(tmp_path, "items")
    assert max(source_epochs(store.manifest_names(0))) == 24

    opened = count_opened(monkeypatch)
    writer = AirbyteWriter(cfg, catalog_from_json(CATALOG), out=io.StringIO())
    writer.setup_streams()
    assert opened == []
    assert writer.flush_epoch == 25
    monkeypatch.undo()

    run_write(
        cfg, catalog_from_json(CATALOG), lines(250, 30), out=io.StringIO(),
        max_records_per_flush=10,
    )
    assert source_epochs(store.manifest_names(0)) == set(range(28))
