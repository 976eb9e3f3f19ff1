"""The read planner on hand-written manifests (no Ray, no data files).

``plan_read`` is the only code that turns table state into read pieces:
one per winning manifest of a keyed table, one per manifest of an additive
table.  These tests pin zone-map pruning (snapshot and additive pieces
only — never a delta stack), the additive piece order, and time travel; the
last test is a structural guard that keeps every tombstone read filter
inside ``read_piece``.
"""

import ast
import json
from dataclasses import asdict
from pathlib import Path

import pytest

import airbyte_destination_ray
from airbyte_destination_ray.pipelines.cdc import plan_read
from airbyte_destination_ray.state.manifest import ManifestStore, PartitionManifest

KEYED = {"generation": 0, "mode": "append_dedup", "merge_strategy": "snapshot"}
DELTA = dict(KEYED, merge_strategy="delta")
ADDITIVE = {"generation": 0, "mode": "append"}


def put(store, *, epoch, partition, files):
    """One manifest whose files carry ``ts`` zone maps: ``files`` maps a
    file name to its ``[min, max]`` (None = no stats recorded)."""
    m = PartitionManifest(
        table="t", generation=0, epoch=epoch, partition=partition,
        files=list(files),
        stats={f: {"ts": mm} for f, mm in files.items() if mm is not None},
    )
    store.manifest_dir.mkdir(parents=True, exist_ok=True)
    with open(store.manifest_dir / f"{m.key}.json", "w") as f:
        json.dump(asdict(m), f)


@pytest.fixture
def store(tmp_path):
    s = ManifestStore(tmp_path, "t")
    put(s, epoch=0, partition=0, files={"p0e0": [0, 9]})
    put(s, epoch=1, partition=0, files={"p0e1a": [0, 9], "p0e1b": [10, 19]})
    put(s, epoch=1, partition=1, files={"p1e1": [20, 29], "p1e1x": None})
    put(s, epoch=2, partition=1, files={"p1e2": [30, 39]})
    return s


def files(pieces):
    return [(p["partition"], p["files"]) for p in pieces]


def test_keyed_plan_is_one_piece_per_winning_manifest(store):
    pieces = plan_read(store, KEYED)
    assert files(pieces) == [(0, ["p0e1a", "p0e1b"]), (1, ["p1e2"])]
    assert [p["covers_epoch"] for p in pieces] == [1, 2]
    assert not any(p["stack"] for p in pieces)
    assert all(p["stack"] for p in plan_read(store, DELTA))


def test_snapshot_pieces_are_pruned_by_zone_map(store):
    assert files(plan_read(store, KEYED, range_filter=("ts", 12, 15))) == [
        (0, ["p0e1b"])
    ]
    # a file without stats is never pruned
    assert files(plan_read(store, KEYED, max_epoch=1, range_filter=("ts", 25, 26))) == [
        (1, ["p1e1", "p1e1x"])
    ]


def test_stacks_are_never_pruned(store):
    assert files(plan_read(store, DELTA, range_filter=("ts", 12, 15))) == files(
        plan_read(store, DELTA)
    )


def test_additive_plan_is_every_manifest_in_partition_epoch_order(store):
    assert files(plan_read(store, ADDITIVE)) == [
        (0, ["p0e0"]), (0, ["p0e1a", "p0e1b"]),
        (1, ["p1e1", "p1e1x"]), (1, ["p1e2"]),
    ]
    assert files(plan_read(store, ADDITIVE, range_filter=("ts", 5, 12))) == [
        (0, ["p0e0"]), (0, ["p0e1a", "p0e1b"]), (1, ["p1e1x"]),
    ]


def test_max_epoch_is_honoured(store):
    assert files(plan_read(store, KEYED, max_epoch=0)) == [(0, ["p0e0"])]
    assert files(plan_read(store, ADDITIVE, max_epoch=1)) == [
        (0, ["p0e0"]), (0, ["p0e1a", "p0e1b"]), (1, ["p1e1", "p1e1x"]),
    ]
    assert plan_read(store, KEYED, partitions={1}, max_epoch=1)[0]["covers_epoch"] == 1


def test_all_pruned_keeps_one_file_for_the_columns(store):
    # the read of that file is emptied by the exact row filter but keeps
    # the table's schema
    assert files(plan_read(store, KEYED, max_epoch=0, range_filter=("ts", 50, 60))) == [
        (0, ["p0e0"])
    ]
    assert plan_read(ManifestStore(store.root.parent, "empty"), KEYED) == []


def _tombstone_filters(tree):
    """(top-level definition, line) of every ``pc.invert(…)`` over
    ``DELETED_COLUMN`` or a local name bound to it."""
    out = []
    for top in tree.body:
        aliases = {"DELETED_COLUMN"} | {
            t.id
            for n in ast.walk(top)
            if isinstance(n, ast.Assign)
            and isinstance(n.value, ast.Name) and n.value.id == "DELETED_COLUMN"
            for t in n.targets if isinstance(t, ast.Name)
        }
        for n in ast.walk(top):
            if (
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute) and n.func.attr == "invert"
                and any(
                    isinstance(x, ast.Name) and x.id in aliases
                    for a in n.args for x in ast.walk(a)
                )
            ):
                out.append((getattr(top, "name", None), n.lineno))
    return out


def test_only_read_piece_filters_tombstones():
    """Structural guard: the read view's tombstone filter lives in
    ``read_piece`` alone; every other reader goes through it."""
    pkg = Path(airbyte_destination_ray.__file__).parent
    sites = []
    for path in sorted(pkg.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        sites += [(str(path.relative_to(pkg)), fn, line) for fn, line in _tombstone_filters(tree)]
    assert [s for s in sites if s[1] != "read_piece"] == []
    assert [s[:2] for s in sites] == [("pipelines/cdc.py", "read_piece")]
