"""The manifest recency rule on hand-written manifests (no Ray, no data).

Every reader of table state goes through ``state.manifest.resolve_state``;
these tests pin the rule itself: compaction-lane ranking, time travel on
the covered source epoch, partition pruning of the listing, the additive
union order, and the next free compaction-lane epoch.
"""

import json
from dataclasses import asdict

import pytest

from airbyte_destination_ray.state.manifest import (
    COMPACTION_EPOCH_BASE as LANE,
    ManifestStore,
    PartitionManifest,
    next_lane_epoch,
    source_epochs,
)


def put(store, *, epoch, partition, generation=0, covers=-1, mode="append_dedup"):
    """Write one manifest JSON straight into ``_manifests/`` (no CAS)."""
    m = PartitionManifest(
        table="t", generation=generation, epoch=epoch, partition=partition,
        files=[f"t/p{partition}/e{epoch}.parquet"], mode=mode,
        covers_epoch=covers,
    )
    store.manifest_dir.mkdir(parents=True, exist_ok=True)
    with open(store.manifest_dir / f"{m.key}.json", "w") as f:
        json.dump(asdict(m), f)
    return m


@pytest.fixture
def store(tmp_path):
    return ManifestStore(tmp_path, "t")


def winner(store, partition=0, **kw):
    m = store.table_state(0, **kw).get(partition)
    return None if m is None else m.epoch


def test_lane_outranks_its_epoch_and_loses_to_the_next(store):
    put(store, epoch=0, partition=0)
    put(store, epoch=1, partition=0)
    put(store, epoch=LANE, partition=0, covers=1)
    assert winner(store) == LANE  # compaction of ≤1 beats plain epoch 1
    put(store, epoch=2, partition=0)
    assert winner(store) == 2  # a later source epoch beats the compaction
    put(store, epoch=LANE + 1, partition=0, covers=2)
    assert winner(store) == LANE + 1
    assert store.latest_snapshot(0, 0).epoch == LANE + 1


def test_max_epoch_filters_on_covered_epoch(store):
    put(store, epoch=0, partition=0)
    put(store, epoch=1, partition=0)
    put(store, epoch=LANE, partition=0, covers=1)
    put(store, epoch=2, partition=0)
    assert winner(store, max_epoch=0) == 0
    # the lane manifest's raw epoch is far above 1, but it covers 1
    assert winner(store, max_epoch=1) == LANE
    assert winner(store, max_epoch=2) == 2
    assert store.table_state(0, max_epoch=-1) == {}
    assert store.latest_snapshot(0, 0, max_epoch=0).epoch == 0


def test_partitions_filter_skips_other_partitions_unparsed(store):
    put(store, epoch=0, partition=0)
    put(store, epoch=0, partition=1)
    put(store, epoch=1, partition=1)
    # a manifest the filtered listing must never open
    (store.manifest_dir / "g0000-e000000-p00002.json").write_text("not json")
    state = store.table_state(0, partitions={1})
    assert list(state) == [1] and state[1].epoch == 1
    assert set(store.table_state(0, partitions=[0, 1])) == {0, 1}
    assert store.latest_snapshot(0, 0).epoch == 0
    assert store.table_state(0, partitions=()) == {}
    with pytest.raises(json.JSONDecodeError):
        store.table_state(0)


def test_generations_are_separate_timelines(store):
    put(store, epoch=0, partition=0)
    put(store, epoch=5, partition=0, generation=1)
    assert winner(store) == 0
    assert store.table_state(1)[0].epoch == 5


def test_committed_files_union_order_for_additive_tables(store):
    for epoch, partition in ((2, 1), (0, 1), (1, 0), (0, 0)):
        put(store, epoch=epoch, partition=partition, mode="append")
    files = store.committed_files(0, mode="append")
    assert files == [
        "t/p0/e0.parquet", "t/p0/e1.parquet",
        "t/p1/e0.parquet", "t/p1/e2.parquet",
    ]
    assert store.committed_files(0, mode="overwrite") == files
    assert store.committed_files_versioned(0, mode="append", max_epoch=0) == [
        ("t/p0/e0.parquet", 0), ("t/p1/e0.parquet", 0),
    ]
    # snapshot tables: only each partition's winner, in partition order
    assert store.committed_files(0, mode="append_dedup") == [
        "t/p0/e1.parquet", "t/p1/e2.parquet",
    ]
    assert store.committed_files_versioned(
        0, mode="append_dedup", partitions={1}, with_stats=True
    ) == [("t/p1/e2.parquet", 0, None)]


def test_next_lane_epoch(store):
    put(store, epoch=0, partition=0)
    put(store, epoch=3, partition=1)
    assert next_lane_epoch(store._iter_manifests(0)) == LANE
    put(store, epoch=LANE, partition=0, covers=0)
    put(store, epoch=LANE + 4, partition=1, covers=1)
    # partition 1's lane manifest has lost to epoch 3 but still holds its slot
    assert winner(store, partition=1) == 3
    assert next_lane_epoch(store._iter_manifests(0)) == LANE + 5
    assert source_epochs(store._iter_manifests(0)) == {0, 3}


def test_absent_manifest_dir(store):
    assert not store.manifest_dir.exists()
    assert store._iter_manifests(0) == []
    assert store.table_state(0) == {}
    assert store.table_state(0, max_epoch=3, partitions={0}) == {}
    assert store.latest_snapshot(0, 0) is None
    assert store.committed_files_versioned(0, mode="append_dedup") == []
    assert store.committed_files(0, mode="append") == []
    assert next_lane_epoch(store._iter_manifests(0)) == LANE
    assert source_epochs(store._iter_manifests(0)) == set()


def test_bump_generation_keeps_the_rest_of_meta(store):
    store.root.mkdir(parents=True)
    store.init_table(num_partitions=4, mode="overwrite", pk=["id"], cursor="ts")
    assert store.bump_generation() == 1
    assert store.bump_generation() == 2
    meta = store.table_meta()
    assert meta["generation"] == 2 and meta["num_partitions"] == 4
    assert not (store.root / "_meta.json.tmp").exists()
