"""LSM-style delta merge strategy: write amplification bounded by
compact_every; read-side LWW fold; oracle equality vs the snapshot strategy."""

import duckdb
import pyarrow as pa
import pytest

from airbyte_destination_ray.pipelines.cdc import (
    read_table,
    read_table_arrow,
    run_cdc_sync,
)
from airbyte_destination_ray.sources.synth import synthesize_binlog, write_custom_binlog
from airbyte_destination_ray.state.manifest import ManifestStore


@pytest.fixture(scope="module")
def binlog(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("delta_binlog")
    synthesize_binlog(d, n_events=3000, n_keys=400, n_epochs=5, seed=7)
    return str(d)


def oracle(binlog_dir: str) -> pa.Table:
    return duckdb.connect().execute(
        f"""
        WITH events AS (SELECT * FROM read_parquet('{binlog_dir}/segment-*.parquet')),
        dedup AS (SELECT DISTINCT ON (seq) * FROM events ORDER BY seq),
        win AS (SELECT *, row_number() OVER
                (PARTITION BY url ORDER BY warc_ts DESC, seq DESC) rn FROM dedup)
        SELECT url, warc_ts, html, text, lang FROM win
        WHERE rn = 1 AND op <> 'D' ORDER BY url
        """
    ).arrow()


def state(lake):
    t = read_table_arrow(lake, "pages")
    return t.select(["url", "warc_ts", "html", "text", "lang"]).sort_by("url")


def test_delta_matches_snapshot_and_oracle(binlog, tmp_path):
    lake_s = str(tmp_path / "snap")
    lake_d = str(tmp_path / "delta")
    run_cdc_sync(lake_s, binlog, num_partitions=4)
    run_cdc_sync(lake_d, binlog, num_partitions=4, merge_strategy="delta",
                 compact_every=3)
    exp = oracle(binlog)
    got_s, got_d = state(lake_s), state(lake_d)
    assert got_s.equals(exp.cast(got_s.schema))
    assert got_d.equals(exp.cast(got_d.schema))


def test_delta_stacks_and_compaction(binlog, tmp_path):
    lake = str(tmp_path / "lake")
    run_cdc_sync(lake, binlog, num_partitions=4, merge_strategy="delta",
                 compact_every=3)
    store = ManifestStore(lake, "pages")
    meta = store.table_meta()
    assert meta["merge_strategy"] == "delta"
    # 5 epochs, compact_every=3 → no partition stack ever reaches 3 files
    for p in range(4):
        m = store.latest_snapshot(meta["generation"], p)
        if m is not None:
            assert 1 <= len(m.files) < 3


def test_delta_read_dataset_path(binlog, tmp_path, ray_session):
    lake = str(tmp_path / "lake_ds")
    run_cdc_sync(lake, binlog, num_partitions=4, merge_strategy="delta",
                 compact_every=3)
    ds = read_table(lake, "pages")
    t = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))
    t = t.select(["url", "warc_ts", "html", "text", "lang"]).sort_by("url")
    exp = oracle(binlog)
    assert t.equals(exp.cast(t.schema))


def test_delta_resume_is_idempotent(binlog, tmp_path):
    lake = str(tmp_path / "lake_resume")
    run_cdc_sync(lake, binlog, num_partitions=4, merge_strategy="delta",
                 compact_every=3, epochs=[0, 1])
    before = state(lake)
    run_cdc_sync(lake, binlog, num_partitions=4, merge_strategy="delta",
                 compact_every=3)
    after = state(lake)
    exp = oracle(binlog)
    assert after.equals(exp.cast(after.schema))
    # re-run everything again: no-op
    run_cdc_sync(lake, binlog, num_partitions=4, merge_strategy="delta",
                 compact_every=3)
    assert state(lake).equals(after)


def test_delta_tombstone_not_resurrected(tmp_path, ray_session):
    lake, binlog = str(tmp_path / "lk"), tmp_path / "bl"
    write_custom_binlog(
        binlog,
        [
            {"seq": 0, "epoch": 0, "op": "I", "url": "u", "warc_ts": 100,
             "html": b"x", "text": "v1", "lang": "en"},
            {"seq": 1, "epoch": 1, "op": "D", "url": "u", "warc_ts": 300,
             "html": None, "text": None, "lang": None},
            {"seq": 2, "epoch": 2, "op": "U", "url": "u", "warc_ts": 200,
             "html": b"y", "text": "late-old", "lang": "en"},
        ],
    )
    run_cdc_sync(lake, str(binlog), num_partitions=2, merge_strategy="delta",
                 compact_every=10)
    t = read_table_arrow(lake, "pages")
    assert t.num_rows == 0  # delete won LWW; late older update cannot resurrect


def test_explicit_compaction(binlog, tmp_path):
    from airbyte_destination_ray.pipelines.cdc import compact_table

    lake = str(tmp_path / "lake_compact")
    run_cdc_sync(lake, binlog, num_partitions=4, merge_strategy="delta",
                 compact_every=10)  # high threshold → stacks accumulate
    before = state(lake)
    store = ManifestStore(lake, "pages")
    meta = store.table_meta()
    assert any(
        len(store.latest_snapshot(meta["generation"], p).files) > 1
        for p in range(4)
        if store.latest_snapshot(meta["generation"], p) is not None
    )
    res = compact_table(lake, "pages")
    assert res["compacted_partitions"] > 0
    # every partition now holds exactly one file; state unchanged
    for p in range(4):
        m = store.latest_snapshot(meta["generation"], p)
        if m is not None:
            assert len(m.files) == 1
    assert state(lake).equals(before)
    # idempotent: a second compaction is a no-op
    assert compact_table(lake, "pages")["compacted_partitions"] == 0


def test_delta_strategy_composes_with_key_only_shuffle(tmp_path, ray_session):
    """merge_strategy="delta" × shuffle="key_only" must equal the
    snapshot/payload reference run (read view + logical content)."""
    from airbyte_destination_ray.pipelines.cdc import (
        read_table_arrow,
        run_cdc_sync,
    )
    from airbyte_destination_ray.sources.synth import synthesize_binlog

    binlog = tmp_path / "binlog"
    synthesize_binlog(binlog, n_events=2400, n_keys=400, n_epochs=4, seed=13)
    ref = tmp_path / "ref"
    combo = tmp_path / "combo"
    run_cdc_sync(str(ref), str(binlog), num_partitions=4)
    run_cdc_sync(str(combo), str(binlog), num_partitions=4,
                 merge_strategy="delta", compact_every=3, shuffle="key_only")
    a = read_table_arrow(str(ref), "pages").sort_by("url")
    b = read_table_arrow(str(combo), "pages").sort_by("url")
    assert a.equals(b)


def test_vacuum_reclaims_compacted_deltas_and_old_generations(tmp_path, ray_session):
    """vacuum() removes delta files left unreferenced by a compaction and
    data dirs of superseded generations; the read view is unchanged."""
    from pathlib import Path

    from airbyte_destination_ray.pipelines.cdc import (
        compact_table,
        read_table_arrow,
        run_cdc_sync,
    )
    from airbyte_destination_ray.sources.synth import synthesize_binlog
    from airbyte_destination_ray.state.manifest import ManifestStore

    binlog = tmp_path / "binlog"
    synthesize_binlog(binlog, n_events=1800, n_keys=300, n_epochs=3, seed=5)
    lake = str(tmp_path / "lake")
    run_cdc_sync(lake, str(binlog), num_partitions=4, merge_strategy="delta",
                 compact_every=16)
    assert compact_table(lake, "pages")["compacted_partitions"] > 0
    before = read_table_arrow(lake, "pages").sort_by("url")
    n_files_before = len(list(Path(lake, "pages").rglob("*.parquet")))
    res = ManifestStore(lake, "pages").vacuum()
    assert res["removed_files"] > 0
    n_files_after = len(list(Path(lake, "pages").rglob("*.parquet")))
    assert n_files_after < n_files_before
    after = read_table_arrow(lake, "pages").sort_by("url")
    assert before.equals(after)
    # idempotent
    assert ManifestStore(lake, "pages").vacuum()["removed_files"] == 0


def test_vacuum_drops_superseded_generations(tmp_path, ray_session):
    from pathlib import Path

    from airbyte_destination_ray.pipelines.cdc import (
        read_table_arrow,
        run_cdc_sync,
    )
    from airbyte_destination_ray.sources.synth import synthesize_binlog
    from airbyte_destination_ray.state.manifest import ManifestStore

    binlog = tmp_path / "binlog"
    synthesize_binlog(binlog, n_events=600, n_keys=100, n_epochs=1, seed=6)
    lake = str(tmp_path / "lake")
    # two overwrite syncs → generation 0 superseded by 1, then 1 by 2
    run_cdc_sync(lake, str(binlog), num_partitions=2, mode="overwrite",
                 resume=False)
    run_cdc_sync(lake, str(binlog), num_partitions=2, mode="overwrite",
                 resume=False)
    run_cdc_sync(lake, str(binlog), num_partitions=2, mode="overwrite",
                 resume=False)
    gens = sorted(Path(lake, "pages").glob("gen=*"))
    assert len(gens) == 3
    before = read_table_arrow(lake, "pages").sort_by("url")
    # keep one old generation for rollback
    res = ManifestStore(lake, "pages").vacuum(keep_generations=1)
    assert res["removed_generation_dirs"] == 1
    assert len(sorted(Path(lake, "pages").glob("gen=*"))) == 2
    # drop the rest
    res = ManifestStore(lake, "pages").vacuum()
    assert res["removed_generation_dirs"] == 1
    assert read_table_arrow(lake, "pages").sort_by("url").equals(before)
