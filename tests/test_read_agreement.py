"""The readers agree: ``read_table`` (Ray Data), ``read_table_arrow`` (driver
loop) and ``lookup_rows`` (partition-pruned, key-filtered) run the same
``plan_read`` pieces through the same ``read_piece``, so they must return the
same rows on every lake layout — snapshot, delta stacks, append — including
pieces written under an older schema version, time travel, and the raw view
with tombstones and meta columns.
"""

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from airbyte_destination_ray.functions.hashing import partition_ids
from airbyte_destination_ray.pipelines.cdc import (
    lookup_rows,
    plan_read,
    read_table,
    read_table_arrow,
    run_cdc_sync,
)
from airbyte_destination_ray.sources.synth import write_custom_binlog
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
PARTS = 4
LAYOUTS = {
    "snapshot": dict(mode="append_dedup", merge_strategy="snapshot"),
    "delta": dict(mode="append_dedup", merge_strategy="delta"),
    "append": dict(mode="append", merge_strategy="snapshot"),
}


def row(seq, epoch, url, ts, op="U"):
    return dict(seq=seq, epoch=epoch, op=op, url=url, warc_ts=ts,
                html=b"<p>", text=f"t{seq}", lang="en")


def collect(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))


def same_rows(got: pa.Table, want: pa.Table) -> None:
    assert got.column_names == want.column_names
    assert sorted(map(repr, got.to_pylist())) == sorted(map(repr, want.to_pylist()))


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_range_filter_on_column_outside_columns(ray_session, tmp_path, layout):
    """The range column need not be among ``columns``: the filter runs
    before the select (a delta-stack read used to select first and raise
    ``KeyError: warc_ts``)."""
    blog = tmp_path / "blog"
    rows = [row(i + 1, 0, f"u{i}", i) for i in range(12)]
    rows += [row(20, 1, "u1", 7), row(21, 1, "u6", 15), row(22, 1, "u8", 16, op="D")]
    write_custom_binlog(blog, rows)
    lake = str(tmp_path / "lake")
    run_cdc_sync(lake, str(blog), num_partitions=PARTS, **LAYOUTS[layout])
    full = read_table_arrow(lake, "pages")
    ts = full.column("warc_ts").cast(pa.int64())
    want = full.filter(pc.and_(pc.greater_equal(ts, 5), pc.less_equal(ts, 9)))
    got = collect(
        read_table(lake, "pages", columns=["url"], range_filter=("warc_ts", 5, 9))
    )
    assert got.column_names == ["url"]
    assert sorted(got.column("url").to_pylist()) == sorted(
        want.column("url").to_pylist()
    )
    assert got.num_rows > 0
    # a range no file can hold: zero rows, but still the table's columns
    none = read_table(lake, "pages", range_filter=("warc_ts", 1000, 2000))
    assert none.count() == 0
    assert none.schema().names == full.column_names


def evolved_lake(tmp_path, layout: str) -> tuple[str, list[str]]:
    """Epoch 0 writes eight keys; epoch 1 updates two keys and deletes a
    third, none in u0's partition; then the registry adds a column and
    epoch 2 updates u0 only — every other partition keeps pieces written
    under v0 (two-file stacks with a tombstone on the delta layout)."""
    urls = [f"u{i}" for i in range(8)]
    parts = partition_ids(pa.array(urls), PARTS)
    others = [u for u, p in zip(urls, parts) if p != parts[0]]
    rows = [row(i + 1, 0, u, 100) for i, u in enumerate(urls)]
    rows += [
        row(20, 1, others[0], 200),
        row(21, 1, others[1], 200),
        row(22, 1, others[2], 200, op="D"),
        row(30, 2, urls[0], 300),
    ]
    blog = tmp_path / "blog"
    write_custom_binlog(blog, rows)
    lake = str(tmp_path / "lake")
    kw = dict(num_partitions=PARTS, **LAYOUTS[layout])
    run_cdc_sync(lake, str(blog), epochs=[0, 1], **kw)
    registry = SchemaStore(lake, "pages")
    registry.init(PAGES_SCHEMA)
    registry.add_column("quality", pa.float64())
    run_cdc_sync(lake, str(blog), epochs=[2], epoch_schema_versions={2: 0}, **kw)
    return lake, urls


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_readers_agree_on_every_layout(ray_session, tmp_path, layout):
    lake, urls = evolved_lake(tmp_path, layout)
    store = ManifestStore(lake, "pages")
    pieces = plan_read(store, store.table_meta())
    assert {p["schema_version"] for p in pieces} == {0, 1}  # some must align
    if layout == "delta":
        assert any(p["stack"] and len(p["files"]) >= 2 for p in pieces)

    for kw in ({}, {"as_of_epoch": 1}, {"include_deleted": True, "include_meta": True}):
        want = read_table_arrow(lake, "pages", **kw)
        assert "quality" in want.column_names and want.num_rows > 0
        same_rows(collect(read_table(lake, "pages", **kw)), want)
    raw = read_table_arrow(lake, "pages", include_deleted=True, include_meta=True)
    assert True in raw.column("_deleted").to_pylist()  # the tombstone is there

    if layout == "append":
        return
    for include_deleted in (False, True):
        want = read_table_arrow(lake, "pages", include_deleted=include_deleted)
        got = collect(lookup_rows(lake, "pages", urls, include_deleted=include_deleted))
        same_rows(got, want)
