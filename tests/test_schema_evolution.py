"""Schema-evolution suite (north rule: add / widen / rename-by-id between
epochs; FIXTURES.md §B3): snapshots written under older registry versions are
upgraded in-flight during the merge, and mixed-version lakes read cleanly."""

import numpy as np
import pyarrow as pa
import pytest

from airbyte_destination_ray.pipelines.cdc import (
    read_table_arrow,
    run_cdc_sync,
)
from airbyte_destination_ray.sources.synth import write_custom_binlog
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


def row(seq, epoch, url, ts, text="t", lang="en", op="U"):
    return {
        "seq": seq,
        "epoch": epoch,
        "op": op,
        "url": url,
        "warc_ts": ts,
        "html": b"<html>",
        "text": text,
        "lang": lang,
    }


def test_registry_versioning_roundtrip(tmp_path):
    store = SchemaStore(tmp_path, "pages")
    v0 = store.init(PAGES_SCHEMA)
    assert v0.version == 0
    v1 = store.add_column("quality", pa.float64())
    v2 = store.rename_column("lang", "language")
    assert store.current_version() == 2
    reread = store.get(2)
    assert reread.schema.names == ["url", "warc_ts", "html", "text", "language", "quality"]
    # rename kept the column id
    assert reread.column_ids["language"] == v0.column_ids["lang"]


def test_registry_rejects_bad_evolutions(tmp_path):
    store = SchemaStore(tmp_path, "pages")
    store.init(PAGES_SCHEMA)
    with pytest.raises(ValueError):
        store.add_column("url", pa.string())  # exists
    with pytest.raises(ValueError):
        store.widen_column("warc_ts", pa.int32())  # not a widening
    with pytest.raises(ValueError):
        store.rename_column("nope", "x")


def test_add_column_across_epochs(ray_session, tmp_path):
    lake, binlog = str(tmp_path / "lake"), tmp_path / "binlog"
    write_custom_binlog(
        binlog,
        [
            row(0, 0, "u1", 100),
            row(1, 0, "u2", 100),
            row(2, 1, "u1", 200, text="v2"),
        ],
    )
    store = SchemaStore(lake, "pages")
    # epoch 0 under v0
    run_cdc_sync(lake, str(binlog), num_partitions=4, epochs=[0])
    store.init(PAGES_SCHEMA)
    assert store.current_version() == 0
    # evolve: add a nullable column, then run epoch 1 (segments still v0)
    store.add_column("quality", pa.float64())
    run_cdc_sync(
        lake,
        str(binlog),
        num_partitions=4,
        epochs=[1],
        epoch_schema_versions={1: 0},
    )
    out = read_table_arrow(lake, "pages")
    assert "quality" in out.column_names
    assert out.column("quality").null_count == out.num_rows  # null-filled
    by_url = {r["url"]: r for r in out.to_pylist()}
    assert by_url["u1"]["text"] == "v2"  # LWW still correct across versions


def test_rename_by_id_across_epochs(ray_session, tmp_path):
    lake, binlog = str(tmp_path / "lake"), tmp_path / "binlog"
    write_custom_binlog(
        binlog,
        [
            row(0, 0, "u1", 100, lang="de"),
            row(1, 1, "u2", 150, lang="fr"),
        ],
    )
    store = SchemaStore(lake, "pages")
    run_cdc_sync(lake, str(binlog), num_partitions=4, epochs=[0])
    store.init(PAGES_SCHEMA)
    store.rename_column("lang", "language")
    # epoch 1 segments still carry the old column name (written under v0)
    run_cdc_sync(
        lake,
        str(binlog),
        num_partitions=4,
        epochs=[1],
        epoch_schema_versions={1: 0},
        payload_columns=["url", "warc_ts", "html", "text", "language"],
    )
    out = read_table_arrow(lake, "pages")
    assert "language" in out.column_names and "lang" not in out.column_names
    by_url = {r["url"]: r for r in out.to_pylist()}
    # u1's value came from a v0 snapshot (renamed at read/merge time),
    # u2's from a v0 envelope aligned in-flight
    assert by_url["u1"]["language"] == "de"
    assert by_url["u2"]["language"] == "fr"


def test_mixed_version_read_aligns_untouched_partitions(ray_session, tmp_path):
    """A partition with no changes after an evolution keeps old-version
    files; the read view upgrades them on the fly."""
    lake, binlog = str(tmp_path / "lake"), tmp_path / "binlog"
    urls = [f"u{i}" for i in range(8)]
    write_custom_binlog(
        binlog,
        [row(i, 0, u, 100) for i, u in enumerate(urls)]
        + [row(100, 1, "u0", 200, text="updated")],  # only u0's partition moves
    )
    store = SchemaStore(lake, "pages")
    run_cdc_sync(lake, str(binlog), num_partitions=4, epochs=[0])
    store.init(PAGES_SCHEMA)
    store.add_column("quality", pa.float64())
    run_cdc_sync(
        lake, str(binlog), num_partitions=4, epochs=[1],
        epoch_schema_versions={1: 0},
    )
    out = read_table_arrow(lake, "pages")
    assert out.num_rows == 8
    assert "quality" in out.column_names
    by_url = {r["url"]: r for r in out.to_pylist()}
    assert by_url["u0"]["text"] == "updated"


def test_key_only_shuffle_falls_back_on_evolution(tmp_path, ray_session):
    """shuffle="key_only" must still produce the correct evolved lake when
    an epoch's source schema version differs from the registry's current
    version (the key-only pass falls back to the payload shuffle for that
    epoch — renames may touch the key columns)."""
    import pyarrow as pa

    from airbyte_destination_ray.pipelines.cdc import (
        read_table_arrow,
        run_cdc_sync,
    )
    from airbyte_destination_ray.sources.synth import write_custom_binlog
    from airbyte_destination_ray.state.registry import SchemaStore

    binlog = tmp_path / "binlog"
    ts0 = 1_700_000_000_000_000
    rows = [
        dict(seq=0, epoch=0, op="I", url="u/a", warc_ts=ts0, html=b"<a>",
             text="ta", lang="en"),
        dict(seq=1, epoch=1, op="U", url="u/a", warc_ts=ts0 + 5, html=b"<b>",
             text="tb", lang="de"),
    ]
    write_custom_binlog(binlog, rows)

    for shuffle in ("payload", "key_only"):
        lake = tmp_path / f"lake_{shuffle}"
        store = SchemaStore(str(lake), "pages")
        base = pa.schema(
            [
                pa.field("url", pa.string()),
                pa.field("warc_ts", pa.timestamp("us")),
                pa.field("html", pa.binary()),
                pa.field("text", pa.string()),
                pa.field("lang", pa.string()),
            ]
        )
        store.init(base)
        run_cdc_sync(str(lake), str(binlog), num_partitions=4,
                     shuffle=shuffle, epochs=[0])
        # evolve: add a column between epochs; epoch 1 segments still carry v0
        store.add_column("quality_tier", pa.string())
        run_cdc_sync(str(lake), str(binlog), num_partitions=4,
                     shuffle=shuffle, epochs=[1],
                     epoch_schema_versions={1: 0})
        t = read_table_arrow(str(lake), "pages").sort_by("url")
        assert "quality_tier" in t.column_names
        assert t.column("text").to_pylist() == ["tb"]
        assert t.column("quality_tier").to_pylist() == [None]


def test_lookup_rows_aligns_untouched_partition_after_evolution(
    ray_session, tmp_path
):
    """Partition-pruned point lookup of a key whose partition was last
    written under v0 must still return v-current columns (rename applied,
    added column null) — the alignment target is the registry, not the
    max version of the pruned listing (review regression)."""
    from airbyte_destination_ray.pipelines.cdc import lookup_rows

    lake, binlog = str(tmp_path / "lake"), tmp_path / "binlog"
    write_custom_binlog(
        binlog,
        [
            row(0, 0, "u1", 100, lang="de"),
            row(1, 0, "u2", 100, lang="fr"),
            row(2, 1, "u2", 200, lang="it"),  # epoch 1 touches only u2
        ],
    )
    run_cdc_sync(lake, str(binlog), num_partitions=4, epochs=[0])
    store = SchemaStore(lake, "pages")
    store.init(PAGES_SCHEMA)
    store.rename_column("lang", "language")
    store.add_column("quality", pa.float64())
    run_cdc_sync(
        lake,
        str(binlog),
        num_partitions=4,
        epochs=[1],
        epoch_schema_versions={1: 0},
        payload_columns=["url", "warc_ts", "html", "text", "language"],
    )
    got = lookup_rows(lake, "pages", ["u1"]).to_pandas()
    assert list(got["url"]) == ["u1"]
    assert "language" in got.columns and "lang" not in got.columns
    assert "quality" in got.columns and got["quality"].isna().all()
    assert got["language"].iloc[0] == "de"
    # column-pruned lookup of a renamed column also works
    got2 = lookup_rows(lake, "pages", ["u1"], columns=["url", "language"])
    assert got2.to_pandas()["language"].iloc[0] == "de"
