"""Regression tests for the round-1 code-review findings — each test pins a
bug that the original suite missed (cross-sync collisions, batch-composition
sensitivity, null-key mass dedup, overwrite read semantics, compaction epoch
collisions)."""

import io

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from airbyte_destination_ray.catalog import Config, catalog_from_json
from airbyte_destination_ray.pipelines.airbyte_write import run_write
from airbyte_destination_ray.pipelines.cdc import (
    compact_table,
    read_table_arrow,
    run_cdc_sync,
)
from airbyte_destination_ray.sources.synth import write_custom_binlog


def _cat(mode="append"):
    return catalog_from_json(
        {
            "streams": [
                {
                    "stream": {
                        "name": "s",
                        "json_schema": {
                            "properties": {"id": {"type": "integer"}}
                        },
                    },
                    "destination_sync_mode": mode,
                }
            ]
        }
    )


def _rec(i):
    import json

    return json.dumps(
        {
            "type": "RECORD",
            "record": {"stream": "s", "data": {"id": i}, "emitted_at": 1000 + i},
        }
    )


def test_second_sync_appends_not_swallowed(ray_session, tmp_path):
    """Finding 1: a later sync must not collide with the previous sync's
    manifests (flush epochs resume) nor lose records to the seq watermark."""
    lake = str(tmp_path / "lake")
    cfg = Config(lake_root=lake)
    out = io.StringIO()
    run_write(cfg, _cat(), [_rec(1)], out=out, num_partitions=1)
    run_write(cfg, _cat(), [_rec(2)], out=out, num_partitions=1)
    t = read_table_arrow(lake, "s")
    assert sorted(t.column("id").to_pylist()) == [1, 2]


def test_multi_epoch_overwrite_reads_all_epochs(ray_session, tmp_path):
    """Finding 2: overwrite is additive WITHIN its generation — a 2-epoch
    overwrite sync must read back both epochs' rows."""
    lake, binlog = str(tmp_path / "lk"), tmp_path / "bl"
    write_custom_binlog(
        binlog,
        [
            {"seq": 0, "epoch": 0, "op": "I", "url": "a", "warc_ts": 100,
             "html": b"", "text": "ta", "lang": "en"},
            {"seq": 1, "epoch": 1, "op": "I", "url": "b", "warc_ts": 200,
             "html": b"", "text": "tb", "lang": "en"},
        ],
    )
    run_cdc_sync(lake, str(binlog), num_partitions=1, mode="overwrite",
                 resume=False)
    t = read_table_arrow(lake, "pages")
    assert sorted(t.column("url").to_pylist()) == ["a", "b"]


def test_compaction_does_not_swallow_future_epochs(ray_session, tmp_path):
    """Finding 3: a compaction between syncs must not claim a future binlog
    epoch number (which would make that epoch's merge a silent no-op)."""
    lake, binlog = str(tmp_path / "lk"), tmp_path / "bl"
    rows = [
        {"seq": i, "epoch": e, "op": "I", "url": f"u{i}", "warc_ts": 100 + i,
         "html": b"", "text": f"t{i}", "lang": "en"}
        for e, i in [(0, 0), (0, 1), (1, 2), (1, 3)]
    ]
    write_custom_binlog(binlog, rows[:2])  # only epoch 0 exists yet
    run_cdc_sync(lake, str(binlog), num_partitions=1, merge_strategy="delta",
                 compact_every=10)
    compact_table(lake, "pages")
    # the source later produces epoch 1
    write_custom_binlog(binlog, rows)
    run_cdc_sync(lake, str(binlog), num_partitions=1, merge_strategy="delta",
                 compact_every=10)
    t = read_table_arrow(lake, "pages")
    assert sorted(t.column("url").to_pylist()) == ["u0", "u1", "u2", "u3"]


def test_simhash_batch_composition_independent():
    """Finding 4: a trailing empty/null doc must not change the preceding
    doc's fingerprint."""
    from airbyte_destination_ray.functions.simhash import simhash64

    alone = simhash64(pa.array(["alpha beta gamma"])).to_pylist()[0]
    with_empty = simhash64(pa.array(["alpha beta gamma", ""])).to_pylist()[0]
    with_null = simhash64(pa.array(["alpha beta gamma", None])).to_pylist()[0]
    assert alone == with_empty == with_null


def test_minhash_batch_composition_independent():
    """Findings 4+6: signatures (incl. short docs) must not depend on
    neighboring documents in the batch."""
    from airbyte_destination_ray.functions.minhash import minhash_signatures

    short = "a b"
    sig1 = minhash_signatures(pa.array([short, "first long document with many words"]))
    sig2 = minhash_signatures(pa.array([short, "totally different neighbor text"]))
    sig3 = minhash_signatures(pa.array([short, None]))
    assert (sig1[0] == sig2[0]).all()
    assert (sig1[0] == sig3[0]).all()
    # and different short docs still differ
    sig4 = minhash_signatures(pa.array(["a c"]))
    assert not (sig1[0] == sig4[0]).all()


def test_null_text_rows_not_mass_deduped(ray_session):
    """Finding 7: documents with null text are not duplicates of each other."""
    import ray.data

    from airbyte_destination_ray.pipelines.dedup import (
        dedup_exact_hash,
        dedup_minhash_lsh,
        dedup_simhash,
    )

    t = pa.table(
        {
            "doc_id": pa.array(range(6), type=pa.int64()),
            "text": pa.array([None, None, None, "real one", "real two", ""]),
        }
    )
    ds = ray.data.from_arrow(t)
    for op in (dedup_exact_hash, dedup_simhash, dedup_minhash_lsh):
        kept = pa.concat_tables(
            list(op(ds).iter_batches(batch_format="pyarrow"))
        )
        assert kept.num_rows == 6, op.__name__


def test_checkpoint_records_committed_epoch(ray_session, tmp_path):
    """Finding 8: the STATE checkpoint names the last COMMITTED flush epoch."""
    import json

    from airbyte_destination_ray.state.manifest import ManifestStore

    lake = str(tmp_path / "lake")
    cfg = Config(lake_root=lake)
    out = io.StringIO()
    state = json.dumps({"type": "STATE", "state": {}})
    run_write(cfg, _cat(), [_rec(1), state], out=out, num_partitions=1)
    store = ManifestStore(lake, "s")
    ckpt = store.last_checkpoint(store.table_meta()["generation"])
    assert ckpt is not None
    assert store.is_committed(0, ckpt["epoch"], 0)


def test_compaction_never_shadows_later_epochs_real_stacks(ray_session, tmp_path):
    """Round-2 finding 1: a REAL compaction (multi-file stacks folded into a
    lane manifest) must not shadow epochs committed after it."""
    lake, binlog = str(tmp_path / "lk2"), tmp_path / "bl2"
    rows = [
        {"seq": i, "epoch": e, "op": "I", "url": f"u{i}", "warc_ts": 100 + i,
         "html": b"", "text": f"t{i}", "lang": "en"}
        for e, i in [(0, 0), (1, 1), (2, 2), (3, 3)]
    ]
    # epochs 0-2 first → 3-file stacks → real compaction happens
    write_custom_binlog(binlog, rows[:3])
    run_cdc_sync(lake, str(binlog), num_partitions=1, merge_strategy="delta",
                 compact_every=10)
    res = compact_table(lake, "pages")
    assert res["compacted_partitions"] == 1
    # a later source epoch arrives after the compaction
    write_custom_binlog(binlog, rows)
    run_cdc_sync(lake, str(binlog), num_partitions=1, merge_strategy="delta",
                 compact_every=10)
    t = read_table_arrow(lake, "pages")
    assert sorted(t.column("url").to_pylist()) == ["u0", "u1", "u2", "u3"]
    # and a further merge builds on the post-compaction stack, not the lane
    write_custom_binlog(
        binlog, rows + [{"seq": 9, "epoch": 4, "op": "U", "url": "u0",
                         "warc_ts": 999, "html": b"", "text": "new",
                         "lang": "en"}]
    )
    run_cdc_sync(lake, str(binlog), num_partitions=1, merge_strategy="delta",
                 compact_every=10)
    t = read_table_arrow(lake, "pages")
    by_url = {r["url"]: r for r in t.to_pylist()}
    assert by_url["u0"]["text"] == "new" and len(by_url) == 4


@pytest.fixture(scope="module")
def three_epoch_binlog(tmp_path_factory):
    from airbyte_destination_ray.sources.synth import synthesize_binlog

    out = tmp_path_factory.mktemp("lane") / "bl"
    synthesize_binlog(out, n_events=3000, n_keys=400, n_epochs=3, seed=7)
    return str(out)


def _visible_rows(lake):
    return sorted(read_table_arrow(lake, "pages").to_pylist(), key=lambda r: r["url"])


@pytest.mark.parametrize("op", ["compact", "cluster", "delete"])
def test_lane_rewrite_never_shadows_a_replayed_epoch(
    ray_session, tmp_path, three_epoch_binlog, op
):
    """A crash inside the newest epoch leaves partition 0 without that
    epoch (its manifest, its data file and the epoch checkpoint are gone).
    A lane rewrite run then must cover partition 0's OWN newest epoch, so
    the resumed sync's replay of the lost epoch outranks it.  A compaction
    stamped with the table-wide newest epoch shadowed the replay: the
    lost epoch's changes to partition 0 never became visible."""
    from pathlib import Path

    from airbyte_destination_ray.functions.hashing import partition_ids
    from airbyte_destination_ray.pipelines.cdc import cluster_table, delete_rows
    from airbyte_destination_ray.sources.synth import list_segments
    from airbyte_destination_ray.state.manifest import ManifestName, ManifestStore

    sync = dict(num_partitions=4, merge_strategy="delta")
    clean, lake = str(tmp_path / "clean"), str(tmp_path / "lake")
    run_cdc_sync(clean, three_epoch_binlog, **sync)
    run_cdc_sync(lake, three_epoch_binlog, **sync)
    store = ManifestStore(lake, "pages")
    (store.manifest_dir / f"{ManifestName(0, 2, 0).key}.json").unlink()
    for f in Path(lake).glob("pages/gen=0000/parts/p=00000/e000002*.parquet"):
        f.unlink()
    (store.checkpoint_dir / "g0000-e000002.json").unlink()

    expected = _visible_rows(clean)
    if op == "compact":
        assert compact_table(lake, "pages")["compacted_partitions"] == 4
    elif op == "cluster":
        assert cluster_table(lake, "pages", by="warc_ts")["clustered_partitions"] == 4
    else:
        # partition-0 keys the replayed epoch does not touch (a later
        # source epoch may reinsert a deleted key, by design), plus
        # keys of the other partitions
        urls = pa.array([r["url"] for r in _visible_rows(lake)])
        replayed = set(
            pa.concat_tables(
                pq.read_table(s, columns=["url"])
                for s in list_segments(three_epoch_binlog, 2)
            ).column("url").to_pylist()
        )
        p0 = partition_ids(urls, 4) == 0
        p0_urls = urls.filter(pa.array(p0)).to_pylist()
        gone = [u for u in p0_urls if u not in replayed][:5]
        gone += urls.filter(pa.array(~p0)).to_pylist()[:5]
        assert len(gone) == 10
        assert delete_rows(lake, "pages", gone)["rows_removed"] >= 10
        expected = [r for r in expected if r["url"] not in set(gone)]
    run_cdc_sync(lake, three_epoch_binlog, **sync)
    assert _visible_rows(lake) == expected


def test_null_version_loses_lww():
    """Round-2 finding 4: a null cursor/version must lose to any real one."""
    from airbyte_destination_ray.stages.lww import lww_compact

    t = pa.table(
        {
            "url": ["k", "k", "j", "j"],
            "warc_ts": pa.array([100, None, None, 50], type=pa.int64()),
            "_seq": pa.array([0, 1, 2, 3], type=pa.int64()),
            "text": ["real", "nullver", "nullver", "real"],
        }
    )
    out = lww_compact(t, "url", "warc_ts")
    got = {r["url"]: r["text"] for r in out.to_pylist()}
    assert got == {"k": "real", "j": "real"}


def test_merge_tolerates_prev_missing_enrich_columns(ray_session, tmp_path):
    """Round-2 finding 3: enabling enrichment on an existing non-enriched
    table must not crash the merge (prev null-fills the new columns)."""
    lake, binlog = str(tmp_path / "lk3"), tmp_path / "bl3"
    write_custom_binlog(
        binlog,
        [
            {"seq": 0, "epoch": 0, "op": "I", "url": "u", "warc_ts": 100,
             "html": b"", "text": "first version here", "lang": "en"},
            {"seq": 1, "epoch": 1, "op": "U", "url": "u", "warc_ts": 200,
             "html": b"", "text": "second version here", "lang": "en"},
        ],
    )
    run_cdc_sync(lake, str(binlog), num_partitions=1, epochs=[0], enrich=False)
    run_cdc_sync(lake, str(binlog), num_partitions=1, epochs=[1], enrich=True)
    t = read_table_arrow(lake, "pages")
    assert t.num_rows == 1
    assert t.column("text").to_pylist() == ["second version here"]
    assert "lang_id" in t.column_names


def test_knn_lsh_supports_more_than_8_planes(ray_session):
    import ray.data

    from airbyte_destination_ray.pipelines.similarity import knn_lsh

    rng = np.random.default_rng(3)
    emb = rng.standard_normal((60, 8)).astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(range(60), type=pa.int64()),
            "embedding": pa.array(
                [e.tolist() for e in emb], type=pa.list_(pa.float32())
            ),
        }
    )
    ds = ray.data.from_arrow(t)
    out = knn_lsh(ds, emb[:2], np.arange(2), k=3, num_planes=12, probes=4)
    res = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow")))
    top1 = res.filter(pa.compute.equal(res.column("rank"), 1))
    by_query = dict(
        zip(top1.column("query_id").to_pylist(), top1.column("vec_id").to_pylist())
    )
    assert by_query == {0: 0, 1: 1}


def test_composite_pk_dedup(ray_session, tmp_path):
    """Round-3 finding 1: multi-column primary keys must dedup per composite
    key, not per first column."""
    import json

    from airbyte_destination_ray.pipelines.airbyte_write import run_write

    cat = catalog_from_json(
        {
            "streams": [
                {
                    "stream": {
                        "name": "c",
                        "json_schema": {
                            "properties": {
                                "user_id": {"type": "integer"},
                                "item_id": {"type": "string"},
                                "updated_at": {
                                    "type": "string", "format": "date-time"
                                },
                            }
                        },
                    },
                    "destination_sync_mode": "append_dedup",
                    "cursor_field": ["updated_at"],
                    "primary_key": [["user_id"], ["item_id"]],
                }
            ]
        }
    )

    def crec(u, i, ts, tag):
        return json.dumps(
            {
                "type": "RECORD",
                "record": {
                    "stream": "c",
                    "data": {"user_id": u, "item_id": i, "updated_at": ts,
                             },
                    "emitted_at": 1700000000000,
                },
            }
        )

    lake = str(tmp_path / "lake")
    cfg = Config(lake_root=lake)
    out = io.StringIO()
    run_write(
        cfg,
        cat,
        [
            crec(1, "A", "2024-01-01T00:00:00Z", "a1"),
            crec(1, "B", "2024-01-01T00:00:00Z", "b1"),
            crec(1, "A", "2024-02-01T00:00:00Z", "a2"),
        ],
        out=out,
        num_partitions=2,
    )
    t = read_table_arrow(lake, "c")
    assert t.num_rows == 2  # (1,A) latest + (1,B)
    pairs = sorted(zip(t.column("user_id").to_pylist(), t.column("item_id").to_pylist()))
    assert pairs == [(1, "A"), (1, "B")]


def test_flush_uses_table_partition_count(ray_session, tmp_path):
    """Round-3 finding 2: cross-sync dedup must respect the table's
    persisted partition count even when the writer default differs."""
    lake = str(tmp_path / "lake")
    cfg = Config(lake_root=lake)
    out = io.StringIO()
    catalog = catalog_from_json(
        {
            "streams": [
                {
                    "stream": {
                        "name": "p",
                        "json_schema": {
                            "properties": {
                                "id": {"type": "integer"},
                                "v": {"type": "string"},
                                "updated_at": {"type": "string", "format": "date-time"},
                            }
                        },
                    },
                    "destination_sync_mode": "append_dedup",
                    "cursor_field": ["updated_at"],
                    "primary_key": [["id"]],
                }
            ]
        }
    )
    import json

    def prec(v, ts):
        return json.dumps(
            {
                "type": "RECORD",
                "record": {"stream": "p", "data": {"id": 7, "v": v, "updated_at": ts},
                           "emitted_at": 1700000000000},
            }
        )

    run_write(cfg, catalog, [prec("old", "2024-01-01T00:00:00Z")], out=out,
              num_partitions=16)
    # second sync with a DIFFERENT writer default must still route id=7 to
    # the same partition and supersede the old version
    run_write(cfg, catalog, [prec("new", "2024-02-01T00:00:00Z")], out=out,
              num_partitions=3)
    t = read_table_arrow(lake, "p")
    assert t.num_rows == 1
    assert t.column("v").to_pylist() == ["new"]


def test_dataset_write_rejects_unknown_stream(ray_session, tmp_path):
    from airbyte_destination_ray.pipelines.airbyte_write import run_write_dataset

    f = tmp_path / "in.ndjson"
    f.write_text(_rec(1).replace('"s"', '"nope"') + "\n")
    with pytest.raises(KeyError):
        run_write_dataset(
            Config(lake_root=str(tmp_path / "lake")), _cat(), [str(f)]
        )


def test_simhash_dedup_keeps_empty_docs(ray_session):
    """Round-3 finding 6: empty/whitespace docs are not duplicates."""
    import ray.data

    from airbyte_destination_ray.pipelines.dedup import dedup_simhash

    t = pa.table(
        {
            "doc_id": pa.array(range(5), type=pa.int64()),
            "text": pa.array(["", "   ", "\t", "real doc here", ""]),
        }
    )
    kept = pa.concat_tables(
        list(dedup_simhash(ray.data.from_arrow(t)).iter_batches(batch_format="pyarrow"))
    )
    assert kept.num_rows == 5


def test_embedding_dedup_empty_block_safe(ray_session):
    import ray.data

    from airbyte_destination_ray.pipelines.dedup import dedup_embedding_cosine

    t = pa.table(
        {
            "vec_id": pa.array([1], type=pa.int64()),
            "embedding": pa.array([[0.1, 0.2]], type=pa.list_(pa.float32())),
        }
    )
    # a filter that empties the only block → empty batches downstream
    ds = ray.data.from_arrow(t).filter(lambda r: False)
    kept = list(dedup_embedding_cosine(ds).iter_batches(batch_format="pyarrow"))
    total = sum(b.num_rows for b in kept)
    assert total == 0


def test_grouped_quantiles_precision_at_large_offsets(ray_session):
    """Review repro: the interpolation fraction must come from the group-
    RELATIVE rank — a 64k-row group before a small group used to shift the
    small group's p90 by ~1e-10 and break the value-hash oracle."""
    import duckdb
    import ray.data

    from airbyte_destination_ray.pipelines.ops import grouped_quantiles

    rng = np.random.default_rng(31)
    big = pa.table(
        {
            "k": pa.array(["a"] * 65536),
            "v": pa.array(rng.uniform(0, 100, 65536)),
        }
    )
    small = pa.table(
        {"k": pa.array(["b"] * 12), "v": pa.array(rng.uniform(0, 100, 12))}
    )
    t = pa.concat_tables([big, small])
    out = (
        grouped_quantiles(
            ray.data.from_arrow(t), key="k", value_col="v", num_partitions=1
        )
        .to_pandas()
        .set_index("k")
    )
    con = duckdb.connect()
    con.register("t", t)
    exp = con.execute(
        """SELECT k, quantile_cont(v, 0.5) p50, quantile_cont(v, 0.9) p90
           FROM t GROUP BY k"""
    ).fetchdf().set_index("k")
    for k in ("a", "b"):
        assert out.loc[k, "p50"] == exp.loc[k, "p50"]
        assert out.loc[k, "p90"] == exp.loc[k, "p90"]


def test_distinct_count_approx_nondefault_p(ray_session):
    import ray.data

    from airbyte_destination_ray.pipelines.relational import (
        distinct_count_approx,
    )

    t = pa.table(
        {
            "k": pa.array(["x"] * 500 + ["y"] * 300),
            "v": pa.array(list(range(500)) + list(range(300)), pa.int64()),
        }
    )
    for p in (10, 14):
        out = (
            distinct_count_approx(
                ray.data.from_arrow(t).repartition(3),
                key="k",
                distinct_col="v",
                p=p,
            )
            .to_pandas()
            .set_index("k")
        )
        assert abs(out.loc["x", "n_distinct_approx"] - 500) / 500 < 0.1
        assert abs(out.loc["y", "n_distinct_approx"] - 300) / 300 < 0.1


def test_knn_ivf_adversarial_sample_fallback(ray_session):
    """Ids that all miss the 25% hash sample must fall back to head rows,
    not crash."""
    import ray.data

    from airbyte_destination_ray.pipelines.similarity import knn_ivf

    rng = np.random.default_rng(7)
    mult, mod = 2654435761, 4_294_967_296
    ids = [i for i in range(5000) if (i * mult) % mod >= mod // 4][:50]
    assert ids, "need ids outside the sample"
    emb = rng.standard_normal((len(ids), 8)).astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(ids, type=pa.int64()),
            "embedding": pa.array(
                [e.tolist() for e in emb], type=pa.list_(pa.float32())
            ),
        }
    )
    out = knn_ivf(
        ray.data.from_arrow(t), emb[:2], np.array(ids[:2]), k=3,
        n_centroids=4, nprobe=2,
    ).to_pandas()
    top1 = out[out["rank"] == 1]
    assert dict(zip(top1.query_id, top1.vec_id)) == {ids[0]: ids[0], ids[1]: ids[1]}


def test_value_histogram_null_bin_counts_rows(ray_session):
    import ray.data

    from airbyte_destination_ray.pipelines.ops import value_histogram

    t = pa.table({"value": pa.array([1.0, 15.0, None, None])})
    out = value_histogram(
        ray.data.from_arrow(t).repartition(2), col="value", bin_width=10.0
    ).to_pandas()
    got = {
        (None if pd.isna(b) else int(b)): int(n)
        for b, n in zip(out.bin, out.n_rows)
    }
    assert got == {0: 1, 1: 1, None: 2}


def test_stable_hash_batch_composition_independent_with_nulls():
    """An int64 key must hash identically whether its block contains nulls
    (→ float64 numpy conversion) or not — mixed-null blocks used to route
    the same key to different partitions (real shuffle-join miss)."""
    from airbyte_destination_ray.functions.hashing import stable_hash_array

    with_null = pa.array([1, 2, None, 4, 4], type=pa.int64())
    without = pa.array([1, 4, 9], type=pa.int64())
    h_a = stable_hash_array(with_null)
    h_b = stable_hash_array(without)
    assert h_a[3] == h_a[4] == h_b[1]  # key 4 everywhere equal
    assert h_a[0] == h_b[0]  # key 1
    # nulls hash deterministically (sentinel), never equal to a real key
    assert h_a[2] not in (h_a[0], h_a[1], h_a[3])


def test_stable_hash_uint64_and_cross_width():
    from airbyte_destination_ray.functions.hashing import stable_hash_array

    # uint64 above int64 max must hash, not crash
    big = stable_hash_array(pa.array([2**63 + 5, 7], type=pa.uint64()))
    assert len(big) == 2 and big[0] != big[1]
    # narrow Arrow ints and numpy ints agree (canonicalized to 64-bit)
    a32 = stable_hash_array(pa.array([-1, 4], type=pa.int32()))
    n32 = stable_hash_array(np.array([-1, 4], dtype=np.int32))
    a64 = stable_hash_array(pa.array([-1, 4], type=pa.int64()))
    assert (a32 == a64).all() and (n32 == a64).all()


def _pa_tables(ds):
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))


def test_anti_semi_join_null_keys_dropped(ray_session):
    """ADVICE r1: SQL three-valued logic — null join keys are dropped by
    BOTH semi (IN) and anti (NOT IN) join; string keys with None must not
    raise in searchsorted."""
    import ray.data

    from airbyte_destination_ray.pipelines.relational import anti_join, semi_join

    ints = pa.table(
        {
            "k": pa.array([1, 2, None, 4], type=pa.int64()),
            "v": pa.array(list("abcd")),
        }
    )
    kept = _pa_tables(semi_join(ray.data.from_arrow(ints), [1, 4], on="k"))
    assert sorted(kept.column("v").to_pylist()) == ["a", "d"]
    dropped = _pa_tables(anti_join(ray.data.from_arrow(ints), [1, 4], on="k"))
    assert sorted(dropped.column("v").to_pylist()) == ["b"]  # null row gone

    strs = pa.table(
        {
            "k": pa.array(["x", None, "y"]),
            "v": pa.array([1, 2, 3], type=pa.int64()),
        }
    )
    kept = _pa_tables(semi_join(ray.data.from_arrow(strs), ["y"], on="k"))
    assert kept.column("v").to_pylist() == [3]
    dropped = _pa_tables(anti_join(ray.data.from_arrow(strs), ["y"], on="k"))
    assert dropped.column("v").to_pylist() == [1]


def test_windowed_counts_null_ts_counts_rows(ray_session):
    """ADVICE r1: a (null, key) window group must report count(*) rows,
    not the null-skipping Arrow count."""
    import ray.data

    from airbyte_destination_ray.pipelines.relational import windowed_counts

    t = pa.table(
        {
            "ts": pa.array(
                [None, None, pd.Timestamp("2024-01-01T10:05:00")],
                type=pa.timestamp("us"),
            ),
            "event_type": pa.array(["a", "a", "a"]),
        }
    )
    out = _pa_tables(windowed_counts(ray.data.from_arrow(t), unit="hour"))
    by_win = {
        (w, k): n
        for w, k, n in zip(
            out.column("window_start").to_pylist(),
            out.column("event_type").to_pylist(),
            out.column("n_events").to_pylist(),
        )
    }
    assert by_win[(None, "a")] == 2


def test_grouped_quantiles_ignores_null_values(ray_session):
    """ADVICE r1: SQL quantile_cont ignores nulls; the rank interpolation
    must never land on a NaN from a null value."""
    import ray.data

    from airbyte_destination_ray.pipelines.ops import grouped_quantiles

    t = pa.table(
        {
            "k": pa.array(["g"] * 5),
            "v": pa.array([1.0, None, 3.0, None, 2.0]),
        }
    )
    out = _pa_tables(grouped_quantiles(ray.data.from_arrow(t), key="k", value_col="v"))
    assert out.column("p50").to_pylist() == [2.0]
    assert abs(out.column("p90").to_pylist()[0] - 2.8) < 1e-12


def test_hash_scheme_mismatch_refuses_resume(tmp_path):
    """ADVICE r1: a lake stamped with an older key-hash scheme must refuse
    to resume (silent int-key mis-routing would break LWW co-location)."""
    import json

    from airbyte_destination_ray.state.manifest import ManifestStore

    store = ManifestStore(str(tmp_path), "t")
    store.root.mkdir(parents=True)
    meta = store.init_table(
        num_partitions=4, mode="append_dedup", pk=["id"], cursor="ts"
    )
    assert meta["hash_scheme"] == 2
    # re-init under the same scheme is fine
    store.init_table(num_partitions=4, mode="append_dedup", pk=["id"], cursor="ts")
    # downgrade the stamp → refusal
    m = json.loads((store.root / "_meta.json").read_text())
    m["hash_scheme"] = 1
    (store.root / "_meta.json").write_text(json.dumps(m))
    with pytest.raises(RuntimeError, match="hash scheme"):
        store.init_table(
            num_partitions=4, mode="append_dedup", pk=["id"], cursor="ts"
        )
