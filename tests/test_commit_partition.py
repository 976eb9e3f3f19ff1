"""The one partition commit path (no Ray).

``stages.lww.commit_partition`` is the only code that builds and
CAS-commits a ``PartitionManifest``; these tests pin its protocol on tiny
tables: the first commit, the exactly-once replay no-op, a lost CAS, a
delta commit that keeps its previous files, multi-piece naming, and the
refusal of a ``covers_epoch`` below the compaction lane.  The last two
tests are structural guards: every writer stays on this path, and every
compaction-lane writer on the one lane helper.
"""

import ast
from pathlib import Path

import pyarrow as pa
import pytest

import airbyte_destination_ray
from airbyte_destination_ray.stages.lww import commit_partition
from airbyte_destination_ray.state.manifest import (
    COMPACTION_EPOCH_BASE,
    ManifestStore,
)

PART_DIR = "t/gen=0000/parts/p=00003"


def commit(lake, epoch, fold, **kw):
    return commit_partition(
        str(lake), "t", generation=0, epoch=epoch, partition=3,
        changes_in=kw.pop("changes_in", 2), fold=fold, **kw,
    )


def table(*ks):
    return pa.table({"k": pa.array(list(ks), pa.int64())})


def single(t, **fields):
    def fold(prev):
        return [("", t)], {"row_count": t.num_rows, **fields}

    return fold


def test_first_commit_writes_file_manifest_and_stats(tmp_path):
    row = commit(tmp_path, 1, single(table(1, 2), digest="d1"))
    rel = f"{PART_DIR}/e000001.parquet"
    assert (tmp_path / rel).exists()
    m = ManifestStore(tmp_path, "t").get(0, 1, 3)
    assert m.files == [rel]
    assert m.row_count == 2 and m.digest == "d1"
    assert m.byte_count == (tmp_path / rel).stat().st_size
    assert m.stats == {rel: {"k": [1, 2]}}
    assert row.to_pylist() == [{
        "table": "t", "epoch": 1, "partition": 3, "rows": 2,
        "bytes": m.byte_count, "files": 1, "changes_in": 2,
        "skipped": False, "digest": "d1",
    }]


def test_replay_is_a_noop_that_reports_committed_stats(tmp_path):
    first = commit(tmp_path, 1, single(table(1, 2), digest="d1"))
    path = tmp_path / f"{PART_DIR}/e000001.parquet"
    before = path.stat()

    def must_not_run(prev):
        raise AssertionError("fold called for a committed partition")

    again = commit(tmp_path, 1, must_not_run, changes_in=5)
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert again.column("skipped").to_pylist() == [True]
    assert again.column("changes_in").to_pylist() == [5]
    keep = ["rows", "bytes", "files", "digest"]
    assert again.select(keep).equals(first.select(keep))


def test_lost_cas_leaves_the_winner(tmp_path):
    t = table(7)

    def racing(prev):
        # a duplicate task commits the same key while this one folds
        commit(tmp_path, 1, single(t, digest="winner"))
        return [("", t)], {"row_count": 1, "digest": "loser"}

    commit(tmp_path, 1, racing)
    store = ManifestStore(tmp_path, "t")
    assert store.get(0, 1, 3).digest == "winner"
    assert len(list(store.manifest_dir.glob("*.json"))) == 1


def test_delta_commit_keeps_previous_files_and_zone_maps(tmp_path):
    commit(tmp_path, 0, single(table(1, 5)))
    seen = []

    def delta(prev):
        seen.append(prev)
        return [("", table(9))], {"row_count": prev.row_count + 1, "keep_files": True}

    commit(tmp_path, 1, delta)
    e0, e1 = f"{PART_DIR}/e000000.parquet", f"{PART_DIR}/e000001.parquet"
    assert seen[0].epoch == 0 and seen[0].files == [e0]
    m = ManifestStore(tmp_path, "t").get(0, 1, 3)
    assert m.files == [e0, e1]
    assert m.stats == {e0: {"k": [1, 5]}, e1: {"k": [9, 9]}}
    assert m.row_count == 3
    # byte_count covers what this commit wrote, not the kept stack
    assert m.byte_count == (tmp_path / e1).stat().st_size


def test_multi_piece_suffix_naming(tmp_path):
    view, facts, dim = table(1), table(1, 2), table(3, 4, 5)

    def fold(prev):
        pieces = [(".view", view), (".facts", facts), (".dim", dim)]
        return pieces, {"row_count": view.num_rows}

    row = commit(tmp_path, 2, fold)
    base = f"{PART_DIR}/e000002"
    names = [f"{base}.view.parquet", f"{base}.facts.parquet", f"{base}.dim.parquet"]
    m = ManifestStore(tmp_path, "t").get(0, 2, 3)
    assert m.files == names
    assert sorted(m.stats) == sorted(names)
    assert m.byte_count == sum((tmp_path / n).stat().st_size for n in names)
    assert row.column("files").to_pylist() == [3]
    assert row.column("rows").to_pylist() == [1]


def test_covers_epoch_below_the_lane_is_refused(tmp_path):
    """``table_state`` orders non-lane manifests by the epoch in their
    filename, so only a compaction-lane commit may claim a covered epoch:
    below the lane the commit raises before writing anything."""
    commit(tmp_path, 0, single(table(1)))
    with pytest.raises(ValueError, match="covers_epoch"):
        commit(tmp_path, 1, single(table(2), covers_epoch=0))
    store = ManifestStore(tmp_path, "t")
    assert store.get(0, 1, 3) is None
    assert not (tmp_path / f"{PART_DIR}/e000001.parquet").exists()
    # -1 (no claim) is fine below the lane; the lane itself may claim one
    commit(tmp_path, 1, single(table(2), covers_epoch=-1))
    commit(tmp_path, COMPACTION_EPOCH_BASE, single(table(1, 2), covers_epoch=1))
    assert store.latest_snapshot(0, 3).epoch == COMPACTION_EPOCH_BASE


def _calls(tree):
    """(enclosing function name, call) for every call in a module."""
    out = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name if fn is None else fn)
            else:
                if isinstance(child, ast.Call):
                    out.append((fn, child))
                visit(child, fn)

    visit(tree, None)
    return out


def test_only_commit_partition_builds_or_commits_manifests():
    """Structural guard: outside ``commit_partition``, no code constructs a
    ``PartitionManifest`` (parsing one back from JSON, ``**json``, is
    exempt) or calls ``.commit(`` (the package's only ``commit`` is
    ``ManifestStore.commit``)."""
    pkg = Path(airbyte_destination_ray.__file__).parent
    offenders = []
    for path in sorted(pkg.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn, call in _calls(tree):
            if fn == "commit_partition":
                continue
            f = call.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            from_json = (
                not call.args and len(call.keywords) == 1
                and call.keywords[0].arg is None
            )
            if (name == "PartitionManifest" and not from_json) or (
                name == "commit" and isinstance(f, ast.Attribute)
            ):
                offenders.append(f"{path.relative_to(pkg)}:{call.lineno} {name}")
    assert offenders == []


def test_only_the_lane_helper_takes_a_lane_epoch():
    """Structural guard: ``next_lane_epoch(`` is called only inside
    ``pipelines.cdc._commit_lane``, so every compaction-lane writer
    (``compact_table``, ``cluster_table``, ``delete_rows``) commits through
    it — and covers its partition's own epoch, not the table's newest."""
    pkg = Path(airbyte_destination_ray.__file__).parent
    callers = []
    for path in sorted(pkg.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn, call in _calls(tree):
            f = call.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name == "next_lane_epoch":
                callers.append(f"{path.relative_to(pkg).as_posix()}::{fn}")
    assert callers == ["pipelines/cdc.py::_commit_lane"]
