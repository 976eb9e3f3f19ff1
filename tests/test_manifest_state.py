"""The manifest recency rule on hand-written manifests (no Ray, no data).

Every reader of table state goes through ``state.manifest.resolve_state``;
these tests pin the rule itself: compaction-lane ranking, time travel on
the covered source epoch, partition pruning of the listing, the additive
union order, and the next free compaction-lane epoch — and that
``table_state``, which orders non-lane manifests by filename and parses
only the candidates, picks the same winners as the rule over every
manifest.
"""

import json
import tempfile
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airbyte_destination_ray.state.manifest import (
    COMPACTION_EPOCH_BASE as LANE,
    ManifestName,
    ManifestStore,
    PartitionManifest,
    next_lane_epoch,
    resolve_state,
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
    assert store.manifest_names(0) == []
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


def test_commit_writes_the_asdict_json_bytes(store):
    """``commit`` serializes a shallow field dict; the bytes on disk are
    exactly ``json.dumps(asdict(m), sort_keys=True)``, nested ``stats``
    map included, and ``get`` reads the same manifest back."""
    files = [f"t/gen=0000/parts/p=00002/e{e:06d}.parquet" for e in (3, 4)]
    m = PartitionManifest(
        table="t", generation=0, epoch=4, partition=2, files=files,
        row_count=7, byte_count=900, max_seq=41, schema_version=1,
        stats={
            files[0]: {"k": [1, 9], "name": ["a", "z"], "ts": [None, None]},
            files[1]: {"k": [2, 5], "ver": [0.5, 1.5]},
        },
        keys_changed=3,
    )
    assert store.commit(m)
    raw = (store.manifest_dir / f"{m.key}.json").read_text()
    assert raw == json.dumps(asdict(m), sort_keys=True)
    assert store.get(0, 4, 2) == m
    assert not store.commit(m)  # CAS: the second commit loses


def test_manifest_name_round_trips_and_skips_strays(store):
    m = put(store, epoch=LANE + 2, partition=7, generation=3, covers=5)
    name = ManifestName.parse(f"{m.key}.json")
    assert name == (3, LANE + 2, 7) and name.key == m.key
    for stray in (f"{m.key}.json.tmp", "tmpab12.tmp", "g0003-e1-p.json",
                  "notes.txt"):
        assert ManifestName.parse(stray) is None
        (store.manifest_dir / stray).write_text("not json")
    assert store.manifest_names(3) == [name]
    assert store.manifest_names(0) == []
    assert store.table_state(3)[7] == m


def test_table_state_parses_one_manifest_per_partition_plus_lanes(
    store, monkeypatch
):
    for e in range(40):
        put(store, epoch=e, partition=e % 4)
    put(store, epoch=LANE, partition=1, covers=20)
    put(store, epoch=LANE + 1, partition=2, covers=38)
    opened = []
    orig = ManifestStore._read_manifest
    monkeypatch.setattr(
        ManifestStore, "_read_manifest",
        lambda self, n: opened.append(n) or orig(self, n),
    )
    state = store.table_state(0)
    assert {p: m.epoch for p, m in state.items()} == {
        0: 36, 1: 37, 2: LANE + 1, 3: 39,
    }
    assert len(opened) == 4 + 2
    opened.clear()
    assert store.table_state(0, max_epoch=21, partitions={1})[1].epoch == 21
    assert sorted(n.epoch for n in opened) == [21, LANE]
    opened.clear()
    assert source_epochs(store.manifest_names(0)) == set(range(40))
    assert next_lane_epoch(store.manifest_names(0)) == LANE + 2
    assert opened == []


@st.composite
def manifest_sets(draw):
    """Manifests of two generations: per partition a random set of source
    epochs (never a covers_epoch — only lane commits carry one) and lane
    manifests whose covered epoch falls below, on or above the source
    epochs."""
    out = []
    for generation in (0, 1):
        for partition in range(draw(st.integers(1, 4))):
            for e in draw(st.sets(st.integers(0, 12), max_size=6)):
                out.append(dict(generation=generation, epoch=e, partition=partition))
        lanes = draw(st.lists(st.integers(-1, 14), max_size=4))
        for k, covers in enumerate(lanes):
            out.append(dict(
                generation=generation, epoch=LANE + k,
                partition=draw(st.integers(0, 4)), covers=covers,
            ))
    return out


@settings(max_examples=200, deadline=None)
@given(
    manifests=manifest_sets(),
    generation=st.sampled_from([0, 1]),
    max_epoch=st.one_of(st.none(), st.integers(-3, 16)),
    partitions=st.one_of(st.none(), st.sets(st.integers(0, 5))),
)
def test_table_state_equals_resolve_state_over_every_manifest(
    manifests, generation, max_epoch, partitions
):
    """Name-ordered recency picks the same winners as the recency rule
    applied to every parsed manifest, for any generation, time-travel
    bound and partition subset."""
    with tempfile.TemporaryDirectory() as d:
        store = ManifestStore(d, "t")
        for kw in manifests:
            put(store, **kw)
        expected = resolve_state(
            store._iter_manifests(generation, partitions), max_epoch=max_epoch
        )
        assert store.table_state(
            generation, max_epoch=max_epoch, partitions=partitions
        ) == expected
        if partitions is None:
            mode = "append_dedup"
            assert store.committed_files_versioned(
                generation, mode=mode, max_epoch=max_epoch
            ) == [(f, 0) for _, m in sorted(expected.items()) for f in m.files]
