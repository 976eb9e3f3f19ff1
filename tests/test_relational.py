"""Relational & streaming-window operators (pipelines/relational.py) vs
DuckDB oracles on small deterministic synthetic tables — edge cases the
sf-scale oracle gate can't isolate: empty sides, no-match as-of rows,
equal-timestamp ties, single-row keys, session gap boundaries."""

from __future__ import annotations

import datetime as dt

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return (
        df.reindex(cols, axis=1)
        .sort_values(cols)
        .reset_index(drop=True)
    )


def _assert_matches(ds, sql: str, views: dict[str, pa.Table]):
    con = duckdb.connect()
    for name, tbl in views.items():
        con.register(name, tbl)
    exp = con.execute(sql).fetchdf()
    got = ds.to_pandas()
    pd.testing.assert_frame_equal(
        _sorted(got), _sorted(exp), check_dtype=False
    )


def _events_table(n=400, keys=13, seed=7) -> pa.Table:
    rng = np.random.default_rng(seed)
    base = dt.datetime(2024, 3, 1)
    ts = [
        base + dt.timedelta(seconds=int(s))
        for s in rng.integers(0, 5 * 24 * 3600, size=n)
    ]
    return pa.table(
        {
            "event_id": pa.array(np.arange(n), type=pa.int64()),
            "ts": pa.array(ts, type=pa.timestamp("us")),
            "user_id": pa.array(
                rng.integers(0, keys, size=n), type=pa.int64()
            ),
            "event_type": pa.array(
                rng.choice(["click", "purchase", "view"], size=n)
            ),
            "value": pa.array(rng.uniform(0, 100, size=n)),
        }
    )


@pytest.fixture(scope="module")
def events(ray_session):
    return _events_table()


def _ds(table: pa.Table, blocks=4):
    import ray.data

    return ray.data.from_arrow(table).repartition(blocks)


def test_broadcast_join_inner(events):
    from airbyte_destination_ray.pipelines.relational import broadcast_join

    # dimension covers only some keys → inner join drops the rest
    dim = pa.table(
        {
            "user_id": pa.array(list(range(0, 13, 2)), type=pa.int64()),
            "segment": pa.array([f"seg{i}" for i in range(0, 13, 2)]),
        }
    )
    out = broadcast_join(
        _ds(events),
        dim,
        left_on="user_id",
        right_on="user_id",
        select=["event_id", "user_id", "segment"],
        concurrency=(1, 2),
    )
    _assert_matches(
        out,
        """SELECT event_id, e.user_id, segment
           FROM events e JOIN dim USING (user_id)""",
        {"events": events, "dim": dim},
    )


def test_asof_join_ties_and_no_match(events):
    from airbyte_destination_ray.pipelines.relational import asof_conversion

    out = asof_conversion(_ds(events))
    _assert_matches(
        out,
        """WITH p AS (SELECT * FROM events WHERE event_type='purchase'),
                c AS (SELECT * FROM events WHERE event_type='click')
           SELECT p.event_id, p.ts, p.user_id, p.value,
                  (SELECT c.event_id FROM c
                   WHERE c.user_id=p.user_id AND c.ts <= p.ts
                   ORDER BY c.ts DESC, c.event_id DESC LIMIT 1)
                      AS click_event_id
           FROM p""",
        {"events": events},
    )


def test_asof_join_equal_ts_counts_as_match(ray_session):
    from airbyte_destination_ray.pipelines.relational import asof_join

    t = dt.datetime(2024, 1, 1, 12, 0, 0)
    left = pa.table(
        {
            "k": pa.array([1, 1, 2], type=pa.int64()),
            "lts": pa.array([t, t - dt.timedelta(hours=2), t], pa.timestamp("us")),
            "lid": pa.array([10, 11, 12], type=pa.int64()),
        }
    )
    # two right rows at the exact same ts for k=1 → max seq (7) wins;
    # k=2 has no right row at all → null
    right = pa.table(
        {
            "k": pa.array([1, 1, 1], type=pa.int64()),
            "rts": pa.array([t, t, t + dt.timedelta(hours=1)], pa.timestamp("us")),
            "rseq": pa.array([6, 7, 8], type=pa.int64()),
        }
    )
    out = asof_join(
        _ds(left, blocks=2),
        _ds(right, blocks=2),
        on="k",
        left_ts="lts",
        right_ts="rts",
        right_seq="rseq",
        right_keep=["rseq"],
        suffix="_m",
    ).to_pandas()
    got = {
        (r.k, r.lid): (None if pd.isna(r.rseq_m) else int(r.rseq_m))
        for r in out.itertuples()
    }
    assert got == {(1, 10): 7, (1, 11): None, (2, 12): None}


def test_windowed_counts(events):
    from airbyte_destination_ray.pipelines.relational import windowed_counts

    _assert_matches(
        windowed_counts(_ds(events), unit="hour"),
        """SELECT date_trunc('hour', ts) AS window_start, event_type,
                  CAST(count(*) AS BIGINT) AS n_events
           FROM events GROUP BY 1, 2""",
        {"events": events},
    )


def test_sessionize_gap_boundary(ray_session):
    from airbyte_destination_ray.pipelines.relational import sessionize

    base = dt.datetime(2024, 5, 1)
    # gaps: 30min exactly (same session), 30min+1us (new session)
    rows = [
        (0, 1, base),
        (1, 1, base + dt.timedelta(minutes=30)),  # same session
        (2, 1, base + dt.timedelta(minutes=60, microseconds=1)),  # new
        (3, 2, base),  # other key independent
    ]
    t = pa.table(
        {
            "event_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "user_id": pa.array([r[1] for r in rows], type=pa.int64()),
            "ts": pa.array([r[2] for r in rows], type=pa.timestamp("us")),
        }
    )
    out = sessionize(_ds(t, blocks=2), gap_minutes=30.0).to_pandas()
    sess = dict(zip(out.event_id, out.session_id))
    assert sess == {0: 1, 1: 1, 2: 2, 3: 1}


def test_sessionize_matches_sql_windows(events):
    from airbyte_destination_ray.pipelines.relational import sessionize

    _assert_matches(
        sessionize(_ds(events), gap_minutes=45.0),
        """SELECT event_id, user_id,
                  CAST(sum(CASE WHEN prev_ts IS NULL
                                  OR ts - prev_ts > INTERVAL 45 MINUTE
                                THEN 1 ELSE 0 END)
                       OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS BIGINT)
                      AS session_id
           FROM (SELECT event_id, user_id, ts,
                        lag(ts) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id) AS prev_ts
                 FROM events)""",
        {"events": events},
    )


def test_distinct_count(events):
    from airbyte_destination_ray.pipelines.relational import distinct_count_by

    _assert_matches(
        distinct_count_by(
            _ds(events), key="event_type", distinct_col="user_id"
        ),
        """SELECT event_type,
                  CAST(count(DISTINCT user_id) AS BIGINT) AS n_distinct
           FROM events GROUP BY 1""",
        {"events": events},
    )


def test_pricing_summary(ray_session):
    from airbyte_destination_ray.pipelines.relational import pricing_summary

    rng = np.random.default_rng(11)
    n = 500
    li = pa.table(
        {
            "l_returnflag": pa.array(rng.choice(["A", "N", "R"], size=n)),
            "l_linestatus": pa.array(rng.choice(["O", "F"], size=n)),
            "l_quantity": pa.array(rng.integers(1, 50, n).astype(float)),
            "l_extendedprice": pa.array(rng.uniform(100, 10000, n)),
            "l_discount": pa.array(rng.uniform(0, 0.1, n)),
            "l_tax": pa.array(rng.uniform(0, 0.08, n)),
        }
    )
    _assert_matches(
        pricing_summary(_ds(li)),
        """SELECT l_returnflag, l_linestatus,
                  CAST(count(*) AS BIGINT) AS n_rows,
                  CAST(sum(CAST(floor(l_quantity*100) AS BIGINT)) AS BIGINT)
                      AS sum_qty_cents,
                  CAST(sum(CAST(floor(l_extendedprice*100) AS BIGINT))
                      AS BIGINT) AS sum_price_cents,
                  CAST(sum(CAST(floor((l_extendedprice*(1-l_discount))*100)
                      AS BIGINT)) AS BIGINT) AS sum_disc_price_cents,
                  CAST(sum(CAST(floor(((l_extendedprice*(1-l_discount))
                      *(1+l_tax))*100) AS BIGINT)) AS BIGINT)
                      AS sum_charge_cents
           FROM li GROUP BY 1, 2""",
        {"li": li},
    )


def test_hash_sample_deterministic(events):
    from airbyte_destination_ray.pipelines.ops import hash_sample

    _assert_matches(
        hash_sample(_ds(events), key="event_id", percent=10),
        """SELECT * FROM events
           WHERE (event_id * 2654435761) % 4294967296 < 429496729""",
        {"events": events},
    )
    # replay-stable: same rows at different parallelism
    a = hash_sample(_ds(events, blocks=2), key="event_id", percent=10).to_pandas()
    b = hash_sample(_ds(events, blocks=7), key="event_id", percent=10).to_pandas()
    assert sorted(a.event_id) == sorted(b.event_id)


def test_grouped_top_k(events):
    from airbyte_destination_ray.pipelines.ops import grouped_top_k

    _assert_matches(
        grouped_top_k(
            _ds(events), key="user_id", by="value", k=3, tie_break="event_id"
        ),
        """SELECT * FROM events
           QUALIFY row_number() OVER (
               PARTITION BY user_id ORDER BY value DESC, event_id) <= 3""",
        {"events": events},
    )


def test_value_histogram(events):
    from airbyte_destination_ray.pipelines.ops import value_histogram

    _assert_matches(
        value_histogram(_ds(events), col="value", bin_width=10.0),
        """SELECT CAST(floor(value/10.0) AS BIGINT) AS bin,
                  CAST(count(*) AS BIGINT) AS n_rows
           FROM events GROUP BY 1""",
        {"events": events},
    )


def test_hll_sketch_accuracy():
    from airbyte_destination_ray.functions.sketches import (
        distinct_sketch_partial,
        hll_estimate,
        hll_merge,
    )

    def registers(values):
        # the distinct sketch's register form (threshold 0: never exact)
        sketch = distinct_sketch_partial(values, sparse_threshold=0)
        return np.frombuffer(sketch, np.uint8, offset=1)

    rng = np.random.default_rng(3)
    # two overlapping batches; merged estimate ~ true union cardinality
    a = rng.integers(0, 50_000, size=40_000)
    b = rng.integers(25_000, 75_000, size=40_000)
    true = len(set(a.tolist()) | set(b.tolist()))
    regs = hll_merge(registers(a), registers(b))
    est = hll_estimate(regs)
    assert abs(est - true) / true < 0.05
    # merge is commutative/associative and idempotent
    r1 = hll_merge(registers(a), registers(b))
    r2 = hll_merge(registers(b), registers(a))
    assert (r1 == r2).all()
    assert (hll_merge(r1, r1) == r1).all()


def test_distinct_count_approx_close_to_exact(events):
    from airbyte_destination_ray.pipelines.relational import (
        distinct_count_approx,
        distinct_count_by,
    )

    exact = distinct_count_by(
        _ds(events), key="event_type", distinct_col="user_id"
    ).to_pandas()
    approx = distinct_count_approx(
        _ds(events), key="event_type", distinct_col="user_id"
    ).to_pandas()
    merged = exact.merge(approx, on="event_type")
    assert len(merged) == len(exact)
    rel_err = (
        (merged.n_distinct_approx - merged.n_distinct).abs()
        / merged.n_distinct.clip(lower=1)
    )
    assert (rel_err < 0.05).all(), merged


def test_semi_anti_join_broadcast(events):
    from airbyte_destination_ray.pipelines.relational import anti_join, semi_join

    keys = np.array([1, 3, 5, 7, 9, 11])
    _assert_matches(
        semi_join(_ds(events), keys, on="user_id"),
        "SELECT * FROM events WHERE user_id IN (1,3,5,7,9,11)",
        {"events": events},
    )
    _assert_matches(
        anti_join(_ds(events), keys, on="user_id"),
        "SELECT * FROM events WHERE user_id NOT IN (1,3,5,7,9,11)",
        {"events": events},
    )
    # empty key set: semi → nothing, anti → everything
    assert semi_join(_ds(events), np.array([], dtype=np.int64), on="user_id").count() == 0
    assert anti_join(_ds(events), np.array([], dtype=np.int64), on="user_id").count() == events.num_rows


def _asof_brute_force(left, right):
    """Per-row reference: latest right (ts, seq) at or before each left ts."""
    out = []
    for lk, lts, lid in left:
        best = None
        for rk, rts, rseq in right:
            if rk == lk and rts <= lts:
                if best is None or (rts, rseq) > best[:2]:
                    best = (rts, rseq)
        out.append((lid, None if best is None else best[1]))
    return dict(out)


def test_asof_join_property_random(ray_session):
    """Randomized cross-check vs an O(n²) reference — many keys, duplicate
    timestamps, keys missing on either side."""
    from airbyte_destination_ray.pipelines.relational import asof_join

    rng = np.random.default_rng(19)
    for trial in range(5):
        nl, nr = rng.integers(1, 60, 2)
        lk = rng.integers(0, 6, nl)
        rk = rng.integers(0, 6, nr)
        lts = rng.integers(0, 40, nl)
        rts = rng.integers(0, 40, nr)
        left = pa.table(
            {
                "k": pa.array(lk, type=pa.int64()),
                "lts": pa.array(lts * 1_000_000, type=pa.timestamp("us")),
                "lid": pa.array(np.arange(nl) + 100, type=pa.int64()),
            }
        )
        right = pa.table(
            {
                "k": pa.array(rk, type=pa.int64()),
                "rts": pa.array(rts * 1_000_000, type=pa.timestamp("us")),
                "rseq": pa.array(np.arange(nr), type=pa.int64()),
            }
        )
        out = asof_join(
            _ds(left, blocks=3),
            _ds(right, blocks=2),
            on="k",
            left_ts="lts",
            right_ts="rts",
            right_seq="rseq",
            right_keep=["rseq"],
            suffix="_m",
        ).to_pandas()
        got = {
            int(r.lid): (None if pd.isna(r.rseq_m) else int(r.rseq_m))
            for r in out.itertuples()
        }
        exp = _asof_brute_force(
            list(zip(lk.tolist(), (lts * 1_000_000).tolist(), (np.arange(nl) + 100).tolist())),
            list(zip(rk.tolist(), (rts * 1_000_000).tolist(), np.arange(nr).tolist())),
        )
        assert got == exp, f"trial {trial}"


def test_sessionize_parallelism_invariant(events):
    from airbyte_destination_ray.pipelines.relational import sessionize

    a = sessionize(_ds(events, blocks=1), gap_minutes=30.0).to_pandas()
    b = sessionize(_ds(events, blocks=9), gap_minutes=30.0).to_pandas()
    a = a.sort_values("event_id").reset_index(drop=True)
    b = b.sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_grouped_quantiles_matches_quantile_cont(events):
    from airbyte_destination_ray.pipelines.ops import grouped_quantiles

    _assert_matches(
        grouped_quantiles(_ds(events), key="event_type", value_col="value"),
        """SELECT event_type,
                  quantile_cont(value, 0.5) AS p50,
                  quantile_cont(value, 0.9) AS p90
           FROM events GROUP BY event_type""",
        {"events": events},
    )
    # single-row group edge: quantiles of one value are that value
    t = pa.table({"k": pa.array([7], pa.int64()), "v": pa.array([3.5])})
    out = grouped_quantiles(_ds(t, blocks=1), key="k", value_col="v").to_pandas()
    assert out.p50.tolist() == [3.5] and out.p90.tolist() == [3.5]


def test_shuffle_join_big_big(events):
    from airbyte_destination_ray.pipelines.relational import shuffle_join

    # right side: per-user profile rows incl. users with no events and
    # events whose user has no profile (inner join drops both)
    prof = pa.table(
        {
            "uid": pa.array(list(range(2, 20)), type=pa.int64()),
            "tier": pa.array([f"t{i % 3}" for i in range(2, 20)]),
        }
    )
    out = shuffle_join(
        _ds(events),
        _ds(prof, blocks=2),
        left_on="user_id",
        right_on="uid",
        select=["event_id", "user_id", "tier"],
        num_partitions=8,
    )
    _assert_matches(
        out,
        """SELECT event_id, user_id, tier
           FROM events JOIN prof ON user_id = uid""",
        {"events": events, "prof": prof},
    )


def test_shuffle_join_skew_split_matches_oracle(ray_session):
    """One key holds >50% of the left rows: the auto-detected skew split
    (salted hot-left sub-partitions + replicated right-hot rows) must
    produce exactly the plain join result, for inner AND left outer."""
    from airbyte_destination_ray.pipelines.relational import shuffle_join

    rng = np.random.default_rng(3)
    n = 1000
    uid = rng.integers(0, 50, size=n)
    uid[: n * 6 // 10] = 7  # 60% of rows on key 7
    left = pa.table(
        {
            "event_id": pa.array(np.arange(n), type=pa.int64()),
            "user_id": pa.array(uid, type=pa.int64()),
        }
    )
    # right side includes the hot key, cold keys, and keys missing from left
    prof = pa.table(
        {
            "uid": pa.array(list(range(0, 60, 2)), type=pa.int64()),
            "tier": pa.array([f"t{i % 3}" for i in range(0, 60, 2)]),
        }
    )
    for jt in ("inner", "left outer"):
        out = shuffle_join(
            _ds(left, blocks=4),
            _ds(prof, blocks=2),
            left_on="user_id",
            right_on="uid",
            select=["event_id", "user_id", "tier"],
            num_partitions=8,
            join_type=jt,
            hot_keys="auto",
            salt_factor=4,
        )
        plain = shuffle_join(
            _ds(left, blocks=4),
            _ds(prof, blocks=2),
            left_on="user_id",
            right_on="uid",
            select=["event_id", "user_id", "tier"],
            num_partitions=8,
            join_type=jt,
            hot_keys=None,
        )
        sql_jt = "JOIN" if jt == "inner" else "LEFT JOIN"
        _assert_matches(
            out,
            f"""SELECT event_id, user_id, tier
               FROM left_t {sql_jt} prof ON user_id = uid""",
            {"left_t": left, "prof": prof},
        )
        pd.testing.assert_frame_equal(
            _sorted(out.to_pandas()), _sorted(plain.to_pandas()),
            check_dtype=False,
        )


def test_skew_join_no_duplicates_when_salts_collide(ray_session):
    """Review-r2 finding: with salt_factor > num_partitions two salts MUST
    map to the same sub-partition; right-hot rows may only be replicated
    once per DISTINCT target or every hot join pair appears twice."""
    rng = np.random.default_rng(8)
    n = 600
    uid = rng.integers(0, 40, size=n)
    uid[: n // 2] = 7
    left = pa.table(
        {
            "event_id": pa.array(np.arange(n), type=pa.int64()),
            "user_id": pa.array(uid, type=pa.int64()),
        }
    )
    prof = pa.table(
        {
            "uid": pa.array(list(range(0, 40)), type=pa.int64()),
            "tier": pa.array([f"t{i % 3}" for i in range(40)]),
        }
    )
    from airbyte_destination_ray.pipelines.relational import shuffle_join

    out = shuffle_join(
        _ds(left, blocks=3),
        _ds(prof, blocks=2),
        left_on="user_id",
        right_on="uid",
        select=["event_id", "user_id", "tier"],
        num_partitions=4,     # < salt_factor → guaranteed salt collisions
        salt_factor=8,
        hot_keys=[7],
    ).to_pandas()
    assert len(out) == n  # exactly one row per left event (right is unique)
    assert out.event_id.is_unique


def test_detect_hot_keys_finds_only_hot(ray_session):
    from airbyte_destination_ray.pipelines.relational import _detect_hot_keys

    uid = np.r_[np.full(600, 3), np.arange(400)]
    t = pa.table({"k": pa.array(uid, type=pa.int64())})
    hot = _detect_hot_keys(_ds(t, blocks=4), "k", share=0.25)
    assert hot == [3]
    assert _detect_hot_keys(_ds(t, blocks=4), "k", share=0.9) == []


def test_shuffle_join_name_clash_raises(events):
    from airbyte_destination_ray.pipelines.relational import shuffle_join

    other = pa.table(
        {
            "uid": pa.array([1], type=pa.int64()),
            "value": pa.array([1.0]),  # clashes with events.value
        }
    )
    with pytest.raises(ValueError, match="clash"):
        shuffle_join(
            _ds(events), _ds(other, blocks=1), left_on="user_id", right_on="uid"
        )


def test_running_sum_matches_sql_window(events):
    from airbyte_destination_ray.pipelines.relational import running_sum

    _assert_matches(
        running_sum(
            _ds(events), key="user_id", ts_col="ts", seq="event_id",
            value_col="value",
        ),
        """SELECT event_id, user_id,
                  CAST(sum(CAST(floor(value*100) AS BIGINT))
                       OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS BIGINT)
                      AS running_cents
           FROM events""",
        {"events": events},
    )


def test_running_sum_negative_values(ray_session):
    from airbyte_destination_ray.pipelines.relational import running_sum

    base = dt.datetime(2024, 6, 1)
    t = pa.table(
        {
            "event_id": pa.array([0, 1, 2, 3], pa.int64()),
            "user_id": pa.array([1, 1, 2, 2], pa.int64()),
            "ts": pa.array([base + dt.timedelta(seconds=s) for s in range(4)],
                           pa.timestamp("us")),
            "value": pa.array([5.0, -3.0, -2.0, 4.0]),
        }
    )
    out = running_sum(_ds(t, blocks=2), key="user_id", ts_col="ts",
                      seq="event_id", value_col="value").to_pandas()
    got = dict(zip(out.event_id, out.running_cents))
    assert got == {0: 500, 1: 200, 2: -200, 3: 200}


def test_qdigest_sketch_properties():
    from airbyte_destination_ray.functions.sketches import (
        qdigest_from_values,
        qdigest_merge,
        qdigest_quantile,
    )

    rng = np.random.default_rng(23)
    a = rng.normal(50, 10, 20_000)
    b = rng.normal(80, 5, 10_000)
    merged = qdigest_merge(qdigest_from_values(a), qdigest_from_values(b))
    both = np.concatenate([a, b])
    for q in (0.1, 0.5, 0.9, 0.99):
        est = float(qdigest_quantile(merged, q))
        true = float(np.quantile(both, q))
        # rank error ≤ ~1/delta: compare in q-space
        q_of_est = (both <= est).mean()
        assert abs(q_of_est - q) < 0.02, (q, est, true)
    # digest stays bounded
    assert len(merged[0]) <= 256


def test_grouped_quantiles_approx_close_to_exact(events):
    from airbyte_destination_ray.pipelines.ops import grouped_quantiles
    from airbyte_destination_ray.pipelines.relational import (
        grouped_quantiles_approx,
    )

    exact = grouped_quantiles(
        _ds(events), key="event_type", value_col="value"
    ).to_pandas()
    approx = grouped_quantiles_approx(
        _ds(events), key="event_type", value_col="value"
    ).to_pandas()
    m = exact.merge(approx, on="event_type", suffixes=("", "_a"))
    assert len(m) == len(exact)
    # values are uniform(0,100): q-space error ~1/256 → value error ~1
    assert (m.p50 - m.p50_a).abs().max() < 3.0
    assert (m.p90 - m.p90_a).abs().max() < 3.0


def test_shuffle_join_left_outer_and_null_keys(ray_session):
    from airbyte_destination_ray.pipelines.relational import shuffle_join

    left = pa.table(
        {
            "k": pa.array([1, 2, None, 4, 4], type=pa.int64()),
            "lid": pa.array([10, 11, 12, 13, 14], type=pa.int64()),
        }
    )
    right = pa.table(
        {
            "rk": pa.array([1, 4, None, 9], type=pa.int64()),
            "tag": pa.array(["a", "b", "c", "d"]),
        }
    )
    for jt, sql in [
        ("inner", "SELECT lid, k, tag FROM l JOIN r ON k = rk"),
        ("left outer", "SELECT lid, k, tag FROM l LEFT JOIN r ON k = rk"),
    ]:
        out = shuffle_join(
            _ds(left, blocks=2),
            _ds(right, blocks=2),
            left_on="k",
            right_on="rk",
            select=["lid", "k", "tag"],
            join_type=jt,
            num_partitions=4,
        )
        _assert_matches(out, sql, {"l": left, "r": right})


def test_distinct_sketch_sparse_exact_and_degrade():
    from airbyte_destination_ray.functions.sketches import (
        distinct_sketch_estimate,
        distinct_sketch_merge,
        distinct_sketch_partial,
    )

    a = np.arange(100)
    b = np.arange(50, 150)
    # sparse mode: exact union count
    sa = distinct_sketch_partial(a, sparse_threshold=4096)
    sb = distinct_sketch_partial(b, sparse_threshold=4096)
    assert sa[:1] == b"S"
    m = distinct_sketch_merge(sa, sb, sparse_threshold=4096)
    assert distinct_sketch_estimate(m) == 150  # exact
    # crossing the threshold degrades to HLL but stays close
    m2 = distinct_sketch_merge(sa, sb, sparse_threshold=120)
    assert m2[:1] == b"H"
    assert abs(distinct_sketch_estimate(m2) - 150) / 150 < 0.1
    # merge is commutative across modes
    big = distinct_sketch_partial(np.arange(10_000), sparse_threshold=100)
    assert big[:1] == b"H"
    m3 = distinct_sketch_merge(sa, big, sparse_threshold=100)
    m4 = distinct_sketch_merge(big, sa, sparse_threshold=100)
    assert m3 == m4
    assert abs(distinct_sketch_estimate(m3) - 10_000) / 10_000 < 0.05


def test_distinct_count_approx_hll_mode_close(events):
    """Force HLL mode (sparse_threshold=0): estimates stay within 5%."""
    from airbyte_destination_ray.pipelines.relational import (
        distinct_count_approx,
        distinct_count_by,
    )

    exact = distinct_count_by(
        _ds(events), key="event_type", distinct_col="user_id"
    ).to_pandas()
    approx = distinct_count_approx(
        _ds(events), key="event_type", distinct_col="user_id",
        sparse_threshold=0,
    ).to_pandas()
    merged = exact.merge(approx, on="event_type")
    rel_err = (
        (merged.n_distinct_approx - merged.n_distinct).abs()
        / merged.n_distinct.clip(lower=1)
    )
    assert (rel_err < 0.05).all()


def test_qdigest_exact_until_compression():
    """Uncompressed digest (n ≤ delta) reproduces SQL quantile_cont exactly;
    compression keeps ~1/delta accuracy."""
    from airbyte_destination_ray.functions.sketches import (
        qdigest_from_values,
        qdigest_merge,
        qdigest_quantile,
    )

    rng = np.random.default_rng(11)
    vals = rng.uniform(0, 1000, size=500)
    d = qdigest_merge(
        qdigest_from_values(vals[:250], 4096),
        qdigest_from_values(vals[250:], 4096),
        4096,
    )
    s = np.sort(vals)
    for q in (0.1, 0.5, 0.9):
        rel = q * (len(s) - 1)
        lo, hi = int(np.floor(rel)), int(np.ceil(rel))
        frac = rel - lo
        expect = s[lo] * (1 - frac) + s[hi] * frac
        assert float(qdigest_quantile(d, q)) == expect  # bit-exact
    # compressed digest stays accurate
    dc = qdigest_from_values(vals, 64)
    assert abs(float(qdigest_quantile(dc, 0.5)) - np.quantile(vals, 0.5)) < 30


def test_weighted_sample_by_key_deterministic(ray_session):
    import pyarrow as pa

    from airbyte_destination_ray.pipelines.ops import weighted_sample_by_key

    t = pa.table(
        {
            "doc_id": pa.array(range(1000), type=pa.int64()),
            "lang": pa.array((["en"] * 500) + (["de"] * 300) + ([None] * 200)),
        }
    )
    out = weighted_sample_by_key(
        _ds(t), key="lang", id_col="doc_id",
        percents={"en": 100, "de": 0}, default_percent=50,
    ).to_pandas()
    by_lang = out.groupby(out.lang.fillna("null")).size().to_dict()
    assert by_lang.get("en") == 500          # 100% kept
    assert "de" not in by_lang               # 0% kept
    assert 50 <= by_lang.get("null", 0) <= 150  # ~50% of 200
    # replay-invariant: identical on re-run with different block count
    out2 = weighted_sample_by_key(
        _ds(t, blocks=7), key="lang", id_col="doc_id",
        percents={"en": 100, "de": 0}, default_percent=50,
    ).to_pandas()
    assert sorted(out.doc_id) == sorted(out2.doc_id)


def test_budget_sample_by_key_matches_window_prefix(ray_session):
    """Greedy prefix packing equals the SQL window form: keep rows while
    SUM(units) OVER (PARTITION BY key ORDER BY hash, id) <= budget."""
    import numpy as np

    from airbyte_destination_ray.pipelines.ops import budget_sample_by_key

    n = 600
    ids = np.arange(n, dtype=np.int64)
    keys = np.array(["a", "b", "c"])[ids % 3]
    units = (ids * 37) % 50 + 1
    t = pa.table(
        {
            "id": pa.array(ids),
            "k": pa.array(keys),
            "u": pa.array(units, type=pa.int64()),
        }
    )
    budgets = {"a": 300, "b": 150}
    out = budget_sample_by_key(
        _ds(t), key="k", id_col="id", units_col="u",
        budgets=budgets, default_budget=80,
    ).to_pandas()

    # brute-force expected set
    h = (ids * 2654435761) % 4_294_967_296
    expected = set()
    for kv, budget in [("a", 300), ("b", 150), ("c", 80)]:
        mask = keys == kv
        order = np.lexsort((ids[mask], h[mask]))
        cum = np.cumsum(units[mask][order])
        expected |= set(ids[mask][order][cum <= budget].tolist())
    assert set(out.id) == expected
    # every key respects its budget
    spent = out.groupby("k").u.sum().to_dict()
    assert spent.get("a", 0) <= 300
    assert spent.get("b", 0) <= 150
    assert spent.get("c", 0) <= 80
    # parallelism-invariant
    out2 = budget_sample_by_key(
        _ds(t, blocks=9), key="k", id_col="id", units_col="u",
        budgets=budgets, default_budget=80,
    ).to_pandas()
    assert sorted(out.id) == sorted(out2.id)


def test_validate_rows_quarantine_first_fail_and_null_closed(ray_session):
    from airbyte_destination_ray.pipelines.ops import validate_rows

    t = pa.table(
        {
            "id": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
            "u": pa.array([10, None, None, 40, 50], type=pa.int64()),
            "kind": pa.array(["a", "a", "zz", "zz", "b"]),
            "v": pa.array([5.0, 5.0, 5.0, None, 99.0]),
        }
    )
    rules = [
        ("u_not_null", "not_null", "u"),
        ("kind_set", "in_set", "kind", ["a", "b"]),
        ("v_range", "in_range", "v", 0.0, 50.0),
    ]
    quar = (
        validate_rows(_ds(t), rules, emit="quarantine")
        .to_pandas()
        .set_index("id")
    )
    # id=2 fails u first; id=3 fails u FIRST even though kind also bad;
    # id=4 fails kind before the null v; id=5 fails v_range (99 > 50)
    assert quar._rule.to_dict() == {
        2: "u_not_null",
        3: "u_not_null",
        4: "kind_set",
        5: "v_range",
    }
    valid = validate_rows(_ds(t), rules, emit="valid").to_pandas()
    assert sorted(valid.id) == [1]
    assert "_rule" not in valid.columns
    tagged = validate_rows(_ds(t), rules, emit="tagged").to_pandas()
    assert len(tagged) == 5
    assert tagged.set_index("id")._rule.isna().to_dict() == {
        1: True, 2: False, 3: False, 4: False, 5: False,
    }


def test_global_rank_matches_row_number(ray_session):
    """Exact global ROW_NUMBER via range-histogram offsets, nulls last."""
    import numpy as np

    from airbyte_destination_ray.pipelines.relational import global_rank

    n = 500
    ids = np.arange(n, dtype=np.int64)
    vals = ((ids * 17) % 43).astype(np.float64)
    t = pa.table(
        {
            "id": pa.array(ids),
            "v": pa.array(vals).take(
                pa.array(np.arange(n))
            ),
        }
    )
    # inject nulls at a few positions
    v = t.column("v").to_pylist()
    for i in (7, 99, 333):
        v[i] = None
    t = t.set_column(1, "v", pa.array(v, type=pa.float64()))

    out = (
        global_rank(_ds(t, blocks=6), by="v", tie_break="id", bin_width=5.0)
        .to_pandas()
        .sort_values("rank")
        .reset_index(drop=True)
    )
    # brute force: ORDER BY v DESC NULLS LAST, id
    import pandas as pd

    df = t.to_pandas()
    df = df.sort_values(
        ["v", "id"], ascending=[False, True], na_position="last"
    ).reset_index(drop=True)
    df["rank"] = np.arange(1, n + 1)
    pd.testing.assert_frame_equal(out[["id", "v", "rank"]], df[["id", "v", "rank"]])
    # ascending direction too
    out_asc = (
        global_rank(
            _ds(t, blocks=6), by="v", tie_break="id",
            descending=False, bin_width=5.0,
        )
        .to_pandas()
        .sort_values("rank")
        .reset_index(drop=True)
    )
    df2 = t.to_pandas().sort_values(
        ["v", "id"], ascending=[True, True], na_position="last"
    ).reset_index(drop=True)
    df2["rank"] = np.arange(1, n + 1)
    pd.testing.assert_frame_equal(
        out_asc[["id", "v", "rank"]], df2[["id", "v", "rank"]]
    )


def test_asof_join_string_and_float_right_payload(ray_session):
    """right_keep columns join through in their native types (string /
    float) — the former int64-only envelope restriction is gone."""
    import datetime as dt

    from airbyte_destination_ray.pipelines.relational import asof_join

    t = dt.datetime(2024, 1, 1, 12, 0, 0)
    left = pa.table(
        {
            "k": pa.array([1, 1, 2, 3], type=pa.int64()),
            "lts": pa.array(
                [t, t - dt.timedelta(hours=3), t, t], pa.timestamp("us")
            ),
            "lid": pa.array([10, 11, 12, 13], type=pa.int64()),
        }
    )
    right = pa.table(
        {
            "k": pa.array([1, 1, 2], type=pa.int64()),
            "rts": pa.array(
                [t - dt.timedelta(hours=1), t - dt.timedelta(hours=2),
                 t + dt.timedelta(hours=1)],
                pa.timestamp("us"),
            ),
            "rseq": pa.array([1, 2, 3], type=pa.int64()),
            "label": pa.array(["recent", "older", "future"]),
            "score": pa.array([0.5, 0.25, 0.75], type=pa.float64()),
        }
    )
    out = (
        asof_join(
            _ds(left, blocks=2),
            _ds(right, blocks=2),
            on="k",
            left_ts="lts",
            right_ts="rts",
            right_seq="rseq",
            right_keep=["label", "score"],
            num_partitions=4,
        )
        .to_pandas()
        .sort_values("lid")
        .reset_index(drop=True)
    )
    # lid=10 (k=1, ts=t): latest right <= t is "recent";
    # lid=11 (k=1, t-3h): no right at/before -> nulls;
    # lid=12 (k=2, ts=t): only right is at t+1h -> nulls;
    # lid=13 (k=3): no right rows for the key at all -> nulls
    assert out["label_right"].tolist() == ["recent", None, None, None]
    assert out["score_right"].tolist()[0] == 0.5
    assert out["score_right"].isna().tolist() == [False, True, True, True]


def test_sliding_window_counts_matches_sql(ray_session):
    """Every event lands in exactly window/slide windows; null ts dropped;
    non-multiple slide refused."""
    import datetime

    import duckdb
    import ray
    import pandas as pd
    import pytest as _pytest

    from airbyte_destination_ray.pipelines.relational import (
        sliding_window_counts,
    )

    base = datetime.datetime(2024, 1, 1)
    rows = [
        (base + datetime.timedelta(minutes=m), "a" if m % 3 else "b")
        for m in range(0, 200, 7)
    ] + [(None, "a")]
    t = pa.table(
        {
            "ts": pa.array([r[0] for r in rows], type=pa.timestamp("us")),
            "event_type": pa.array([r[1] for r in rows]),
        }
    )
    out = (
        sliding_window_counts(
            ray.data.from_arrow(t).repartition(3),
            window_minutes=60,
            slide_minutes=15,
        )
        .to_pandas()
        .sort_values(["window_start", "event_type"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("events", t)
    want = con.execute(
        """
        WITH x AS (
            SELECT event_type,
                   (epoch_us(ts) // 900000000) * 900000000
                       - unnest(generate_series(0, 3)) * 900000000 AS wsus
            FROM events WHERE ts IS NOT NULL
        )
        SELECT make_timestamp(wsus) AS window_start, event_type,
               CAST(count(*) AS BIGINT) AS n_events
        FROM x GROUP BY 1, 2 ORDER BY 1, 2
        """
    ).df().reset_index(drop=True)
    pd.testing.assert_frame_equal(out, want, check_dtype=False)
    # conservation: 4 windows per non-null event
    assert out.n_events.sum() == (len(rows) - 1) * 4
    with _pytest.raises(ValueError, match="multiple"):
        sliding_window_counts(
            ray.data.from_arrow(t), window_minutes=60, slide_minutes=25
        )


def test_shuffle_join_full_outer_matches_sql(ray_session):
    from airbyte_destination_ray.pipelines.relational import shuffle_join

    left = pa.table(
        {
            "k": pa.array([1, 2, None, 4, 4], type=pa.int64()),
            "lid": pa.array([10, 11, 12, 13, 14], type=pa.int64()),
        }
    )
    right = pa.table(
        {
            "rk": pa.array([1, 4, None, 9, 9], type=pa.int64()),
            "tag": pa.array(["a", "b", "c", "d", "e"]),
        }
    )
    out = shuffle_join(
        _ds(left, blocks=2),
        _ds(right, blocks=2),
        left_on="k",
        right_on="rk",
        select=["lid", "k", "tag"],
        join_type="full outer",
        num_partitions=4,
    )
    # Acero coalesces keys: right-only rows carry rk in k (= COALESCE)
    _assert_matches(
        out,
        "SELECT lid, COALESCE(k, rk) AS k, tag "
        "FROM l FULL OUTER JOIN r ON k = rk",
        {"l": left, "r": right},
    )


def test_shuffle_join_full_outer_disables_skew_split(ray_session):
    """A hot LEFT key must not duplicate unmatched right rows under the
    replicate-broadcast skew split — full outer forces it off."""
    from airbyte_destination_ray.pipelines.relational import shuffle_join

    n = 600
    left = pa.table(
        {
            "k": pa.array(
                np.where(np.arange(n) % 3 == 0, 7, np.arange(n)),
                type=pa.int64(),
            ),
            "lid": pa.array(np.arange(n), type=pa.int64()),
        }
    )
    right = pa.table(
        {
            "rk": pa.array([7, 1000, 1001], type=pa.int64()),
            "tag": pa.array(["hot", "only-r1", "only-r2"]),
        }
    )
    out = shuffle_join(
        _ds(left, blocks=3),
        _ds(right, blocks=1),
        left_on="k",
        right_on="rk",
        select=["lid", "k", "tag"],
        join_type="full outer",
        hot_keys="auto",  # must be ignored for full outer
        num_partitions=4,
    )
    _assert_matches(
        out,
        "SELECT lid, COALESCE(k, rk) AS k, tag "
        "FROM l FULL OUTER JOIN r ON k = rk",
        {"l": left, "r": right},
    )


def test_inter_event_gaps_matches_lag_window(events):
    from airbyte_destination_ray.pipelines.relational import inter_event_gaps

    out = inter_event_gaps(
        _ds(events, blocks=5),
        key="user_id",
        ts_col="ts",
        seq="event_id",
        num_partitions=6,
    )
    _assert_matches(
        out,
        """
        WITH g AS (
            SELECT user_id,
                   epoch_us(ts) - lag(epoch_us(ts)) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                   ) AS gap_us
            FROM ev)
        SELECT user_id, CAST(count(*) AS BIGINT) AS n_gaps,
               CAST(sum(gap_us) AS BIGINT) AS sum_gap_us,
               CAST(max(gap_us) AS BIGINT) AS max_gap_us,
               CAST(min(gap_us) AS BIGINT) AS min_gap_us
        FROM g WHERE gap_us IS NOT NULL GROUP BY user_id
        """,
        {"ev": events},
    )


def test_inter_event_gaps_single_row_keys_and_ties(ray_session):
    from airbyte_destination_ray.pipelines.relational import inter_event_gaps

    base = dt.datetime(2024, 1, 1)
    t = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
            "ts": pa.array(
                [base, base, base + dt.timedelta(seconds=3), base, base],
                type=pa.timestamp("us"),
            ),
            # user 1: tie + 3s gap; users 2, 3: single row → dropped
            "user_id": pa.array([1, 1, 1, 2, 3], type=pa.int64()),
        }
    )
    out = inter_event_gaps(
        _ds(t, blocks=2), key="user_id", ts_col="ts", seq="event_id",
        num_partitions=4,
    ).to_pandas().set_index("user_id")
    assert list(out.index) == [1]
    assert out.loc[1, "n_gaps"] == 2
    assert out.loc[1, "sum_gap_us"] == 3_000_000
    assert out.loc[1, "max_gap_us"] == 3_000_000
    assert out.loc[1, "min_gap_us"] == 0


def test_distinct_set_op_except_intersect_and_nulls(ray_session):
    from airbyte_destination_ray.pipelines.relational import distinct_set_op

    left = pa.table(
        {"k": pa.array([1, 1, 2, 3, None, None], type=pa.int64())}
    )
    right = pa.table({"k": pa.array([2, 4, None], type=pa.int64())})
    # SQL set semantics: NULL groups with NULL in EXCEPT/INTERSECT
    exc = sorted(
        distinct_set_op(
            _ds(left, blocks=2), _ds(right, blocks=2), on="k", op="except"
        )
        .to_pandas()["k"]
        .tolist(),
        key=lambda v: (v != v if isinstance(v, float) else False, v or 0),
    )
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    exp_exc = con.execute(
        "SELECT k FROM l EXCEPT SELECT k FROM r"
    ).fetchall()
    assert sorted(
        [None if pd.isna(v) else int(v) for v in exc],
        key=lambda v: (v is None, v),
    ) == sorted(
        [None if v[0] is None else int(v[0]) for v in exp_exc],
        key=lambda v: (v is None, v),
    )
    inter = distinct_set_op(
        _ds(left, blocks=2), _ds(right, blocks=2), on="k", op="intersect"
    ).to_pandas()["k"]
    exp_int = con.execute(
        "SELECT k FROM l INTERSECT SELECT k FROM r"
    ).fetchall()
    assert sorted(
        [None if pd.isna(v) else int(v) for v in inter],
        key=lambda v: (v is None, v),
    ) == sorted(
        [None if v[0] is None else int(v[0]) for v in exp_int],
        key=lambda v: (v is None, v),
    )


def test_distinct_set_op_rejects_bad_op(ray_session):
    from airbyte_destination_ray.pipelines.relational import distinct_set_op

    t = pa.table({"k": pa.array([1], type=pa.int64())})
    with pytest.raises(ValueError):
        distinct_set_op(_ds(t, 1), _ds(t, 1), on="k", op="union")


def test_dense_rank_filter_ties_survive(ray_session):
    from airbyte_destination_ray.pipelines.relational import dense_rank_filter

    t = pa.table(
        {
            "g": pa.array(["a"] * 5 + ["b"] * 3),
            "v": pa.array([9, 9, 7, 7, 1, 5, 5, 5], type=pa.int64()),
            "id": pa.array(list(range(8)), type=pa.int64()),
        }
    )
    out = dense_rank_filter(
        _ds(t, blocks=3), key="g", order_col="v", k=2, num_partitions=4
    ).to_pandas()
    # group a: v=9 (rank 1, 2 rows) and v=7 (rank 2, 2 rows); v=1 dropped
    # group b: all three rows share v=5 → rank 1, all survive
    a = out[out["g"] == "a"]
    assert sorted(a["v"]) == [7, 7, 9, 9]
    assert sorted(a["rnk"]) == [1, 1, 2, 2]
    b = out[out["g"] == "b"]
    assert len(b) == 3 and set(b["rnk"]) == {1}


def test_dense_rank_filter_matches_sql_qualify(events):
    from airbyte_destination_ray.pipelines.relational import dense_rank_filter

    _assert_matches(
        dense_rank_filter(
            _ds(events, blocks=5),
            key="event_type",
            order_col="value",
            k=3,
            num_partitions=4,
        ),
        """
        SELECT event_id, ts, user_id, event_type, value,
               CAST(dense_rank() OVER (
                   PARTITION BY event_type ORDER BY value DESC
               ) AS BIGINT) AS rnk
        FROM ev
        QUALIFY rnk <= 3
        """,
        {"ev": events},
    )


def test_interval_join_matches_sql_inequality_join(ray_session):
    """Overlapping + nested + empty intervals, null ts, vs DuckDB."""
    import datetime as dt

    import duckdb
    import ray.data
    from airbyte_destination_ray.pipelines.relational import interval_join

    base = dt.datetime(2024, 1, 1)
    ts = [base + dt.timedelta(hours=h) for h in [1, 5, 10, 24, 30, 49]]
    t = pa.table(
        {
            "row_id": pa.array(range(7), type=pa.int64()),
            "ts": pa.array(ts + [None], type=pa.timestamp("us")),
            "v": pa.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0]),
        }
    )
    iv = pa.table(
        {
            "interval_id": pa.array([0, 1, 2, 3], type=pa.int64()),
            "start_ts": pa.array(
                [
                    base,
                    base + dt.timedelta(hours=4),  # overlaps 0
                    base + dt.timedelta(hours=9),  # nested reach
                    base + dt.timedelta(days=30),  # empty
                ],
                type=pa.timestamp("us"),
            ),
            "end_ts": pa.array(
                [
                    base + dt.timedelta(hours=12),
                    base + dt.timedelta(hours=26),
                    base + dt.timedelta(hours=10, minutes=1),
                    base + dt.timedelta(days=31),
                ],
                type=pa.timestamp("us"),
            ),
        }
    )
    out = interval_join(
        ray.data.from_arrow(t).repartition(3),
        iv,
        ts_col="ts",
        select=["row_id"],
    )
    res = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow")))
    got = sorted(
        zip(
            res.column("row_id").to_pylist(),
            res.column("interval_id").to_pylist(),
        )
    )
    con = duckdb.connect()
    con.register("t", t)
    con.register("iv", iv)
    want = sorted(
        map(
            tuple,
            con.execute(
                "SELECT row_id, interval_id FROM t JOIN iv "
                "ON t.ts >= iv.start_ts AND t.ts < iv.end_ts"
            ).fetchall(),
        )
    )
    assert got == want
    # row 2 (hour 10) lands in both interval 0 and 1 -> duplicated
    assert (2, 0) in got and (2, 1) in got
    # empty interval 3 absent, null-ts row 6 absent
    assert all(i != 3 for _, i in got)
    assert all(r != 6 for r, _ in got)


def test_moving_window_sum_matches_sql_window(ray_session):
    """5-row moving sum vs DuckDB ROWS BETWEEN window; null value occupies
    a slot but adds 0; short partitions; equal-ts tie broken by seq."""
    import datetime as dt

    import duckdb
    import ray.data
    from airbyte_destination_ray.pipelines.relational import moving_window_sum

    base = dt.datetime(2024, 1, 1)
    n = 40
    rng = np.random.default_rng(5)
    t = pa.table(
        {
            "event_id": pa.array(range(n), type=pa.int64()),
            "user_id": pa.array(
                (rng.integers(0, 5, n)).tolist(), type=pa.int64()
            ),
            "ts": pa.array(
                # duplicate timestamps to exercise the seq tie-break
                [base + dt.timedelta(minutes=int(m)) for m in rng.integers(0, 12, n)],
                type=pa.timestamp("us"),
            ),
            "value": pa.array(
                [None if i % 11 == 0 else float(v) for i, v in
                 enumerate(rng.normal(10, 5, n))]
            ),
        }
    )
    out = moving_window_sum(
        ray.data.from_arrow(t).repartition(4),
        key="user_id",
        ts_col="ts",
        seq="event_id",
        value_col="value",
        window_rows=3,
    )
    res = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow")))
    res = res.sort_by("event_id")

    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(
        """
        WITH e AS (SELECT event_id, user_id, ts,
                   COALESCE(CAST(floor(value*100) AS BIGINT), 0) AS cents
                   FROM t)
        SELECT event_id,
               CAST(sum(cents) OVER w AS BIGINT) AS s,
               CAST(count(*) OVER w AS BIGINT) AS c
        FROM e
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
        ORDER BY event_id
        """
    ).fetchall()
    assert res.column("win_sum_cents").to_pylist() == [w[1] for w in want]
    assert res.column("win_n").to_pylist() == [w[2] for w in want]


def test_scd2_history_matches_sql_lead(ray_session):
    """SCD2 versions == SQL LEAD windows; deletes close intervals but emit
    no version row; a key ending in a delete has no current row."""
    import ray.data
    from airbyte_destination_ray.pipelines.relational import scd2_history

    t = _events_table(n=300, keys=9, seed=21)
    # plant hard cases: key 50 -> single delete only; key 51 -> version
    # then delete (closed, no current); duplicate-ts tie broken by event_id
    extra = pa.table(
        {
            "event_id": pa.array([1000, 1001, 1002, 1003, 1004], type=pa.int64()),
            "ts": pa.array(
                [dt.datetime(2024, 3, 2)] * 2
                + [dt.datetime(2024, 3, 3)] * 3,
                type=pa.timestamp("us"),
            ),
            "user_id": pa.array([50, 51, 51, 52, 52], type=pa.int64()),
            "event_type": pa.array(
                ["purchase", "click", "purchase", "view", "view"]
            ),
            "value": pa.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        }
    )
    t = pa.concat_tables([t, extra])
    ds = ray.data.from_arrow(t).repartition(5)
    out = scd2_history(
        ds,
        key="user_id",
        ts_col="ts",
        seq="event_id",
        attr_cols=["value"],
        delete_when=("event_type", "purchase"),
    )
    _assert_matches(
        out,
        """
        WITH v AS (
            SELECT user_id, value, ts,
                   LEAD(ts) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                   ) AS valid_to,
                   event_type
            FROM events)
        SELECT user_id, value, ts AS valid_from, valid_to,
               valid_to IS NULL AS is_current
        FROM v WHERE event_type <> 'purchase'
        """,
        {"events": t},
    )


def test_scd2_delete_only_key_absent(ray_session):
    """A key whose entire history is tombstones emits nothing."""
    import ray.data
    from airbyte_destination_ray.pipelines.relational import scd2_history

    t = pa.table(
        {
            "event_id": pa.array([1, 2], type=pa.int64()),
            "ts": pa.array(
                [dt.datetime(2024, 1, 1), dt.datetime(2024, 1, 2)],
                type=pa.timestamp("us"),
            ),
            "user_id": pa.array([7, 7], type=pa.int64()),
            "event_type": pa.array(["del", "del"]),
            "value": pa.array([1.0, 2.0]),
        }
    )
    out = scd2_history(
        ray.data.from_arrow(t),
        key="user_id",
        ts_col="ts",
        seq="event_id",
        attr_cols=["value"],
        delete_when=("event_type", "del"),
    )
    assert out.count() == 0


def test_table_diff_changelog(ray_session):
    """I/U/D derivation with null-safe compare; unchanged keys dropped."""
    import ray.data
    from airbyte_destination_ray.pipelines.relational import table_diff

    old = pa.table(
        {
            "k": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
            "v": pa.array([10.0, 20.0, None, 40.0, None]),
        }
    )
    new = pa.table(
        {
            "k": pa.array([2, 3, 4, 5, 6], type=pa.int64()),
            # 2 unchanged, 3 null->30, 4 40->null, 5 null==null unchanged
            "v": pa.array([20.0, 30.0, None, None, 60.0]),
        }
    )
    out = table_diff(
        ray.data.from_arrow(old).repartition(3),
        ray.data.from_arrow(new).repartition(2),
        key="k",
        compare_cols=["v"],
    )
    _assert_matches(
        out,
        """
        SELECT COALESCE(o.k, n.k) AS k,
               CASE WHEN o.k IS NULL THEN 'I'
                    WHEN n.k IS NULL THEN 'D' ELSE 'U' END AS op,
               o.v AS v_old, n.v AS v_new
        FROM old_s o FULL OUTER JOIN new_s n ON o.k = n.k
        WHERE o.k IS NULL OR n.k IS NULL OR o.v IS DISTINCT FROM n.v
        """,
        {"old_s": old, "new_s": new},
    )


def test_table_diff_rejects_duplicate_keys(ray_session):
    import ray.data
    from airbyte_destination_ray.pipelines.relational import table_diff

    dup = pa.table(
        {"k": pa.array([1, 1], type=pa.int64()), "v": pa.array([1.0, 2.0])}
    )
    ok = pa.table({"k": pa.array([1], type=pa.int64()), "v": pa.array([1.0])})
    out = table_diff(
        ray.data.from_arrow(dup),
        ray.data.from_arrow(ok),
        key="k",
        compare_cols=["v"],
    )
    with pytest.raises(Exception, match="snapshot"):
        out.count()


def test_bloom_semi_filter_complete_and_pruning(ray_session):
    """Every matching row survives (completeness is the correctness
    property); at 1 MiB bloom / 300 build keys the false-positive rate is
    ~0, so the filtered set equals the exact semi-join on this corpus;
    null probe keys are dropped."""
    import ray.data
    from airbyte_destination_ray.pipelines.relational import (
        bloom_semi_filter,
    )

    rng = np.random.default_rng(3)
    build = pa.table(
        {"k": pa.array(rng.choice(10_000, 300, replace=False), type=pa.int64())}
    )
    probe_keys = list(rng.integers(0, 20_000, size=5_000)) + [None] * 7
    probe = pa.table(
        {
            "k": pa.array(probe_keys, type=pa.int64()),
            "v": pa.array(np.arange(5_007), type=pa.int64()),
        }
    )
    out = bloom_semi_filter(
        ray.data.from_arrow(probe).repartition(4),
        ray.data.from_arrow(build).repartition(3),
        on="k",
    ).to_pandas()
    member = set(build.column("k").to_pylist())
    expect = {
        (k, v)
        for k, v in zip(probe_keys, range(5_007))
        if k is not None and k in member
    }
    got = set(zip(out["k"], out["v"]))
    assert expect <= got  # completeness: no matching row lost
    # with m=2^23 and 300 keys, every kept row is a true match here
    assert got == expect


@pytest.mark.parametrize("join_type", ["inner", "left outer"])
def test_shuffle_join_bloom_prefilter_equality(ray_session, join_type):
    """prefilter='bloom' must not change the join result — only shrink the
    right exchange; full outer refuses the prefilter."""
    import ray.data
    from airbyte_destination_ray.pipelines.relational import shuffle_join

    rng = np.random.default_rng(9)
    left = pa.table(
        {
            "lk": pa.array(rng.integers(0, 50, 200), type=pa.int64()),
            "lv": pa.array(rng.integers(0, 9, 200), type=pa.int64()),
        }
    )
    # right: 90% of keys outside the left key range -> heavy pruning
    right = pa.table(
        {
            "rk": pa.array(rng.integers(0, 500, 2_000), type=pa.int64()),
            "rv": pa.array(rng.integers(0, 9, 2_000), type=pa.int64()),
        }
    )

    def run(pf):
        return (
            shuffle_join(
                ray.data.from_arrow(left).repartition(3),
                ray.data.from_arrow(right).repartition(4),
                left_on="lk",
                right_on="rk",
                join_type=join_type,
                num_partitions=8,
                prefilter=pf,
            )
            .to_pandas()
            .sort_values(["lk", "lv", "rv"], na_position="last")
            .reset_index(drop=True)
        )

    pd.testing.assert_frame_equal(run(None), run("bloom"))

    with pytest.raises(ValueError, match="bloom"):
        shuffle_join(
            ray.data.from_arrow(left),
            ray.data.from_arrow(right),
            left_on="lk",
            right_on="rk",
            join_type="full outer",
            prefilter="bloom",
        )


def test_windowed_counts_late_matches_streaming_sql(ray_session):
    """Watermark semantics vs the SQL running-max formulation: late iff
    ts < (exclusive prefix max of ts in arrival order) - lateness.  Arrival
    order (event_id) deliberately decorrelated from event time so late
    rows actually occur; small span forces multi-range prefix seeding."""
    import ray.data
    from airbyte_destination_ray.pipelines.relational import (
        windowed_counts_late,
    )

    rng = np.random.default_rng(13)
    n = 3000
    base = dt.datetime(2024, 5, 1)
    # mostly increasing with heavy jitter -> a real mix of on-time and late
    ts_us = np.cumsum(rng.integers(0, 10_000_000, n)) + rng.integers(
        -30_000_000, 30_000_000, n
    )
    ts_us = np.maximum(ts_us, 0)
    t = pa.table(
        {
            "event_id": pa.array(np.arange(n), type=pa.int64()),
            "ts": pa.array(
                ts_us + int(base.timestamp() * 1_000_000),
                type=pa.int64(),
            ).cast(pa.timestamp("us")),
        }
    )
    lateness = 5_000_000
    out = windowed_counts_late(
        ray.data.from_arrow(t).repartition(6),
        ts_col="ts",
        seq="event_id",
        window="hour",
        lateness_us=lateness,
        span=256,  # force ~12 ranges
        num_partitions=5,
    )
    _assert_matches(
        out,
        f"""
        WITH w AS (
            SELECT ts, epoch_us(ts) AS tus,
                   max(epoch_us(ts)) OVER (
                       ORDER BY event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                   ) AS hw
            FROM events)
        SELECT CAST(date_trunc('hour', ts) AS TIMESTAMP) AS window_start,
               CAST(count(*) FILTER (hw IS NULL OR tus >= hw - {lateness})
                    AS BIGINT) AS n_ontime,
               CAST(count(*) FILTER (hw IS NOT NULL AND tus < hw - {lateness})
                    AS BIGINT) AS n_late
        FROM w GROUP BY 1
        """,
        {"events": t},
    )
    # sanity: the corpus must exercise BOTH classes
    df = out.to_pandas()
    assert df["n_late"].sum() > 0 and df["n_ontime"].sum() > 0


def test_funnel_counts_matches_sql_greedy(ray_session):
    """Ordered funnel vs the SQL greedy-earliest formulation: equal-ts
    ties broken by seq, repeated steps, users entering mid-funnel (never
    counted), strictly-after semantics."""
    import ray.data
    from airbyte_destination_ray.pipelines.relational import funnel_counts

    rng = np.random.default_rng(23)
    n = 2500
    base = int(dt.datetime(2024, 6, 1).timestamp() * 1_000_000)
    t = pa.table(
        {
            "event_id": pa.array(np.arange(n), type=pa.int64()),
            "ts": pa.array(
                base + rng.integers(0, 3_600_000_000, n), type=pa.int64()
            ).cast(pa.timestamp("us")),
            "user_id": pa.array(rng.integers(0, 60, n), type=pa.int64()),
            "event_type": pa.array(
                rng.choice(
                    ["view", "click", "purchase", "error"], size=n
                )
            ),
        }
    )
    out = funnel_counts(
        ray.data.from_arrow(t).repartition(5),
        key="user_id",
        ts_col="ts",
        seq="event_id",
        step_col="event_type",
        steps=["view", "click", "purchase"],
    )
    _assert_matches(
        out,
        """
        WITH e AS (SELECT user_id, epoch_us(ts) AS t, event_id AS s,
                          event_type FROM events),
        l1 AS (SELECT user_id, t, s FROM e WHERE event_type = 'view'
               QUALIFY row_number() OVER (
                   PARTITION BY user_id ORDER BY t, s) = 1),
        l2 AS (SELECT e.user_id, e.t, e.s FROM e JOIN l1 USING (user_id)
               WHERE e.event_type = 'click'
                 AND (e.t > l1.t OR (e.t = l1.t AND e.s > l1.s))
               QUALIFY row_number() OVER (
                   PARTITION BY e.user_id ORDER BY e.t, e.s) = 1),
        l3 AS (SELECT e.user_id, e.t, e.s FROM e JOIN l2 USING (user_id)
               WHERE e.event_type = 'purchase'
                 AND (e.t > l2.t OR (e.t = l2.t AND e.s > l2.s))
               QUALIFY row_number() OVER (
                   PARTITION BY e.user_id ORDER BY e.t, e.s) = 1)
        SELECT 'view' AS step, CAST(1 AS BIGINT) AS level,
               (SELECT count(*) FROM l1) AS n_keys
        UNION ALL SELECT 'click', 2, (SELECT count(*) FROM l2)
        UNION ALL SELECT 'purchase', 3, (SELECT count(*) FROM l3)
        """,
        {"events": t},
    )


def test_cohort_retention_matches_sql(ray_session):
    """Retention matrix vs SQL: multi-day activity with gaps, single-day
    users (offset 0 only), null keys/ts dropped."""
    import ray.data
    from airbyte_destination_ray.pipelines.relational import cohort_retention

    rng = np.random.default_rng(31)
    n = 2000
    base = dt.datetime(2024, 7, 1)
    rows_ts = [
        base + dt.timedelta(hours=int(h))
        for h in rng.integers(0, 24 * 21, n)
    ]
    t = pa.table(
        {
            "user_id": pa.array(
                list(rng.integers(0, 40, n - 2)) + [None, 7],
                type=pa.int64(),
            ),
            "ts": pa.array(
                rows_ts[: n - 1] + [None], type=pa.timestamp("us")
            ),
        }
    )
    out = cohort_retention(
        ray.data.from_arrow(t).repartition(4), key="user_id", ts_col="ts"
    )
    con = duckdb.connect()
    con.register("events", t)
    exp = con.execute(
        """
        WITH p AS (SELECT DISTINCT user_id,
                          CAST(date_trunc('day', ts) AS DATE) AS period
                   FROM events
                   WHERE user_id IS NOT NULL AND ts IS NOT NULL),
        c AS (SELECT user_id, period,
                     min(period) OVER (PARTITION BY user_id) AS cohort_day
              FROM p)
        SELECT cohort_day,
               CAST(date_diff('day', cohort_day, period) AS BIGINT)
                   AS offset_days,
               CAST(count(*) AS BIGINT) AS n_keys
        FROM c GROUP BY 1, 2
        """
    ).arrow()
    got = pa.concat_tables(
        out.to_arrow_refs() and
        [__import__("ray").get(r) for r in out.to_arrow_refs()]
    )
    key_cols = ["cohort_day", "offset_days"]
    gd = got.to_pandas().sort_values(key_cols).reset_index(drop=True)
    ed = exp.to_pandas().sort_values(key_cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        gd[sorted(gd.columns)], ed[sorted(ed.columns)], check_dtype=False
    )


def test_funnel_pre_epoch_timestamps(ray_session):
    """Step-0 events before 1970 (negative µs) still enter the funnel —
    the no-previous-completion sentinel must be -inf, not -1."""
    import ray.data
    from airbyte_destination_ray.pipelines.relational import funnel_counts

    t = pa.table(
        {
            "event_id": pa.array([0, 1], type=pa.int64()),
            "ts": pa.array([-5_000_000, -4_000_000], type=pa.int64()).cast(
                pa.timestamp("us")
            ),
            "user_id": pa.array([1, 1], type=pa.int64()),
            "event_type": pa.array(["view", "click"]),
        }
    )
    out = (
        funnel_counts(
            ray.data.from_arrow(t),
            key="user_id",
            ts_col="ts",
            seq="event_id",
            step_col="event_type",
            steps=["view", "click"],
        )
        .to_pandas()
        .sort_values("level")
    )
    assert list(out["n_keys"]) == [1, 1]


def test_percent_rank_by_key_matches_sql(ray_session):
    """percent_rank per key vs SQL: heavy ties (RANK, not row_number),
    single-row keys at 0.0, null values get null pr, null keys dropped."""
    import ray.data
    from airbyte_destination_ray.pipelines.relational import (
        percent_rank_by_key,
    )

    rng = np.random.default_rng(37)
    n = 700
    t = pa.table(
        {
            "event_id": pa.array(np.arange(n), type=pa.int64()),
            "user_id": pa.array(
                list(rng.integers(0, 9, n - 2)) + [None, 77],
                type=pa.int64(),
            ),
            "value": pa.array(
                list(rng.integers(0, 5, n - 1).astype(float)) + [None]
            ),
        }
    )
    out = percent_rank_by_key(
        ray.data.from_arrow(t).repartition(4),
        key="user_id",
        value_col="value",
        seq="event_id",
    )
    _assert_matches(
        out,
        """
        SELECT event_id, user_id,
               CASE WHEN value IS NULL THEN NULL
                    ELSE percent_rank() OVER (
                        PARTITION BY user_id,
                                     (value IS NULL)
                        ORDER BY value) END AS pr
        FROM events WHERE user_id IS NOT NULL
        """,
        {"events": t},
    )


def test_percent_rank_nan_values_tie(ray_session):
    """NaN values tie together like SQL ORDER BY (numpy NaN != NaN would
    split them into singleton tie groups — review regression)."""
    import ray.data
    from airbyte_destination_ray.pipelines.relational import (
        percent_rank_by_key,
    )

    t = pa.table(
        {
            "event_id": pa.array([0, 1, 2], type=pa.int64()),
            "user_id": pa.array([7, 7, 7], type=pa.int64()),
            "value": pa.array([1.0, float("nan"), float("nan")]),
        }
    )
    out = (
        percent_rank_by_key(
            ray.data.from_arrow(t),
            key="user_id",
            value_col="value",
            seq="event_id",
        )
        .to_pandas()
        .sort_values("event_id")
    )
    assert list(out["pr"]) == [0.0, 0.5, 0.5]


# ---------------------------------------------------------------------------
# derived-input schema guard: upstream pipelines must never execute twice
# ---------------------------------------------------------------------------


def _instrumented_upstream(tmp_dir, n=200):
    """A derived Dataset whose map stage records every row it processes
    (marker file per invocation, named by batch size) — summing the
    markers after consumption tells us how many times the upstream ran."""
    import os
    import uuid

    import ray.data

    marker_dir = str(tmp_dir)

    def tag(batch: pa.Table) -> pa.Table:
        with open(
            os.path.join(marker_dir, f"{uuid.uuid4().hex}_{batch.num_rows}"), "w"
        ):
            pass
        return batch.append_column(
            "k", pa.array(np.zeros(batch.num_rows, dtype=np.int64))
        )

    base = ray.data.from_arrow(
        pa.table({"id": pa.array(range(n), type=pa.int64())})
    ).repartition(4)
    return base.map_batches(tag, batch_format="pyarrow", batch_size=None)


def _rows_processed(tmp_dir) -> int:
    import os

    return sum(int(f.rsplit("_", 1)[1]) for f in os.listdir(str(tmp_dir)))


def test_shuffle_join_schema_hint_no_double_execution(ray_session, tmp_path):
    """With explicit schemas + hot_keys=None the derived left side streams
    into the exchange and its upstream executes exactly once."""
    import ray.data

    from airbyte_destination_ray.pipelines.relational import shuffle_join

    n = 200
    left = _instrumented_upstream(tmp_path, n)
    right = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([0], type=pa.int64()),
                "v": pa.array(["x"]),
            }
        )
    )
    schema = pa.schema([("id", pa.int64()), ("k", pa.int64())])
    out = shuffle_join(
        left,
        right,
        left_on="k",
        right_on="k",
        hot_keys=None,
        left_schema=schema,
        num_partitions=4,
    )
    assert out.count() == n
    assert _rows_processed(tmp_path) == n


def test_shuffle_join_derived_input_materializes_once(ray_session, tmp_path):
    """Omitting the schema hints on a derived input must WARN and fall back
    to a single materialization — never the silent double execution."""
    import ray.data

    from airbyte_destination_ray.pipelines.relational import shuffle_join

    n = 200
    left = _instrumented_upstream(tmp_path, n)
    right = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([0], type=pa.int64()),
                "v": pa.array(["x"]),
            }
        )
    )
    with pytest.warns(RuntimeWarning, match="derived Dataset"):
        out = shuffle_join(
            left,
            right,
            left_on="k",
            right_on="k",
            hot_keys="auto",
            num_partitions=4,
        )
    assert out.count() == n
    assert _rows_processed(tmp_path) == n


def test_asof_join_schema_guard_single_execution(ray_session, tmp_path):
    import ray.data

    from airbyte_destination_ray.pipelines.relational import asof_join

    n = 200
    marker = tmp_path
    import os
    import uuid

    def tag(batch: pa.Table) -> pa.Table:
        with open(
            os.path.join(str(marker), f"{uuid.uuid4().hex}_{batch.num_rows}"), "w"
        ):
            pass
        return batch

    left = (
        ray.data.from_arrow(
            pa.table(
                {
                    "u": pa.array([i % 5 for i in range(n)], type=pa.int64()),
                    "ts": pa.array([100 + i for i in range(n)], type=pa.int64()),
                }
            )
        )
        .repartition(4)
        .map_batches(tag, batch_format="pyarrow", batch_size=None)
    )
    right = ray.data.from_arrow(
        pa.table(
            {
                "u": pa.array([0, 1], type=pa.int64()),
                "rts": pa.array([50, 60], type=pa.int64()),
                "seq": pa.array([1, 2], type=pa.int64()),
                "label": pa.array(["a", "b"]),
            }
        )
    )
    with pytest.warns(RuntimeWarning, match="derived Dataset"):
        out = asof_join(
            left,
            right,
            on="u",
            left_ts="ts",
            right_ts="rts",
            right_seq="seq",
            right_keep=["label"],
            num_partitions=4,
        )
    assert out.count() == n
    assert _rows_processed(tmp_path) == n


def test_temporal_join_scd2_lookup(ray_session):
    """SCD2 validity-window enrichment: before-first-version and
    after-tombstone probes get nulls; same-timestamp version ties resolve
    to the surviving (non-zero-width) interval — matching the SQL interval
    join."""
    import ray.data

    from airbyte_destination_ray.pipelines.relational import (
        scd2_history,
        temporal_join,
    )

    ev = pa.table(
        {
            "user_id": pa.array([1, 1, 1, 1, 2, 2, 3], type=pa.int64()),
            "ts": pa.array(
                [100, 200, 300, 400, 100, 100, 50], type=pa.timestamp("us")
            ),
            "event_id": pa.array([1, 2, 3, 4, 5, 6, 7], type=pa.int64()),
            "value": pa.array([10.0, 20.0, 30.0, None, 1.0, 2.0, 9.0]),
            "event_type": pa.array(["u", "u", "u", "error", "u", "u", "u"]),
        }
    )
    hist = scd2_history(
        ray.data.from_arrow(ev).repartition(3),
        key="user_id", ts_col="ts", seq="event_id",
        attr_cols=["value"], delete_when=("event_type", "error"),
    )
    hist_schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("value", pa.float64()),
            ("valid_from", pa.timestamp("us")),
            ("valid_to", pa.timestamp("us")),
            ("is_current", pa.bool_()),
        ]
    )
    facts = pa.table(
        {
            "fid": pa.array(range(8), type=pa.int64()),
            "user_id": pa.array([1, 1, 1, 1, 2, 2, 3, 3], type=pa.int64()),
            "fts": pa.array(
                [50, 150, 350, 450, 100, 500, 60, 40],
                type=pa.timestamp("us"),
            ),
        }
    )
    out = (
        temporal_join(
            ray.data.from_arrow(facts).repartition(2), hist,
            on="user_id", left_ts="fts", right_keep=["value"],
            left_schema=facts.schema, right_schema=hist_schema,
            num_partitions=4,
        )
        .to_pandas()
        .sort_values("fid")
        .reset_index(drop=True)
    )
    got = out["value_dim"].tolist()
    # fid0: before first version -> null; fid1: v1 (10); fid2: v3 (30);
    # fid3: after tombstone -> null; fid4: same-ts tie -> surviving
    # version (2.0); fid5: current open interval (2.0);
    # fid6: v (9.0); fid7: before first -> null
    import math

    expect = [None, 10.0, 30.0, None, 2.0, 2.0, 9.0, None]
    for g, e in zip(got, expect):
        if e is None:
            assert g is None or (isinstance(g, float) and math.isnan(g))
        else:
            assert g == e


def test_running_distinct_by_key_matches_window_rewrite(ray_session):
    import ray.data

    from airbyte_destination_ray.pipelines.relational import (
        running_distinct_by_key,
    )

    rng = np.random.default_rng(13)
    nrow = 3000
    t = pa.table(
        {
            "u": pa.array(rng.integers(0, 40, nrow), type=pa.int64()),
            "v": pa.array(
                [
                    None if rng.random() < 0.1 else f"t{rng.integers(0, 6)}"
                    for _ in range(nrow)
                ]
            ),
            "ts": pa.array(rng.integers(0, 10000, nrow), type=pa.int64()),
            "s": pa.array(np.arange(nrow), type=pa.int64()),
        }
    )
    out = (
        running_distinct_by_key(
            ray.data.from_arrow(t).repartition(5),
            key="u", value_col="v", ts_col="ts", seq="s", num_partitions=4,
        )
        .to_pandas()
        .sort_values(["u", "ts", "s"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", t)
    oracle = (
        con.sql(
            """
            SELECT u, v, ts, s,
                CAST(SUM(CASE WHEN rn = 1 THEN 1 ELSE 0 END) OVER (
                    PARTITION BY u ORDER BY ts, s ROWS UNBOUNDED PRECEDING
                ) AS BIGINT) AS n_distinct_so_far
            FROM (SELECT *, row_number() OVER (
                      PARTITION BY u, v ORDER BY ts, s) AS rn FROM t)
            """
        )
        .df()
        .sort_values(["u", "ts", "s"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        out[sorted(out.columns)], oracle[sorted(oracle.columns)],
        check_dtype=False,
    )


def test_running_distinct_null_ts_matches_oracle(ray_session):
    """A null ts must not steal the first-occurrence flag (NULLS LAST,
    matching the SQL window ordering)."""
    import ray.data

    from airbyte_destination_ray.pipelines.relational import (
        running_distinct_by_key,
    )

    t = pa.table(
        {
            "u": pa.array([1, 1, 1], type=pa.int64()),
            "v": pa.array(["a", "a", "b"]),
            "ts": pa.array([None, 1, 2], type=pa.int64()),
            "s": pa.array([5, 1, 2], type=pa.int64()),
        }
    )
    out = (
        running_distinct_by_key(
            ray.data.from_arrow(t), key="u", value_col="v",
            ts_col="ts", seq="s", num_partitions=2,
        )
        .to_pandas()
        .sort_values("s")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", t)
    oracle = (
        con.sql(
            """
            SELECT u, v, ts, s,
                CAST(SUM(CASE WHEN rn = 1 THEN 1 ELSE 0 END) OVER (
                    PARTITION BY u ORDER BY ts, s ROWS UNBOUNDED PRECEDING
                ) AS BIGINT) AS n_distinct_so_far
            FROM (SELECT *, row_number() OVER (
                      PARTITION BY u, v ORDER BY ts, s) AS rn FROM t)
            """
        )
        .df()
        .sort_values("s")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        out[sorted(out.columns)], oracle[sorted(oracle.columns)],
        check_dtype=False,
    )


def test_asof_join_forward_direction(ray_session):
    """direction='forward': earliest right with rts >= lts, equal ts
    included, ties broken by MIN seq; unmatched lefts keep nulls."""
    import ray.data

    from airbyte_destination_ray.pipelines.relational import asof_join

    left = pa.table(
        {
            "u": pa.array([1, 1, 1, 2], type=pa.int64()),
            "lts": pa.array([100, 200, 300, 100], type=pa.int64()),
            "lid": pa.array([1, 2, 3, 4], type=pa.int64()),
        }
    )
    right = pa.table(
        {
            "u": pa.array([1, 1, 1, 1], type=pa.int64()),
            "rts": pa.array([150, 200, 200, 250], type=pa.int64()),
            "rid": pa.array([10, 21, 20, 30], type=pa.int64()),
            "tag": pa.array(["a", "b1", "b0", "c"]),
        }
    )
    out = (
        asof_join(
            ray.data.from_arrow(left).repartition(2),
            ray.data.from_arrow(right),
            on="u", left_ts="lts", right_ts="rts", right_seq="rid",
            right_keep=["tag"], direction="forward",
            left_schema=left.schema, right_schema=right.schema,
            num_partitions=3,
        )
        .to_pandas()
        .sort_values("lid")
        .reset_index(drop=True)
    )
    # lid1 (ts100) -> earliest at/after = 150 'a'; lid2 (ts200) -> equal-ts
    # tie between rid 20/21 -> MIN rid = 20 'b0'; lid3 (ts300) -> none;
    # lid4 (user 2) -> none
    assert out["tag_right"].tolist()[:2] == ["a", "b0"]
    assert pd.isna(out["tag_right"][2]) and pd.isna(out["tag_right"][3])


def test_asof_join_forward_matches_pandas(ray_session):
    import ray.data

    from airbyte_destination_ray.pipelines.relational import asof_join

    rng = np.random.default_rng(17)
    nl, nr = 800, 600
    left = pa.table(
        {
            "u": pa.array(rng.integers(0, 20, nl), type=pa.int64()),
            "lts": pa.array(rng.integers(0, 5000, nl), type=pa.int64()),
            "lid": pa.array(np.arange(nl), type=pa.int64()),
        }
    )
    right = pa.table(
        {
            "u": pa.array(rng.integers(0, 20, nr), type=pa.int64()),
            "rts": pa.array(
                np.sort(rng.integers(0, 5000, nr)), type=pa.int64()
            ),
            "rid": pa.array(np.arange(nr), type=pa.int64()),
        }
    )
    out = (
        asof_join(
            ray.data.from_arrow(left).repartition(3),
            ray.data.from_arrow(right).repartition(2),
            on="u", left_ts="lts", right_ts="rts", right_seq="rid",
            right_keep=["rid"], direction="forward",
            left_schema=left.schema, right_schema=right.schema,
        )
        .to_pandas()
        .sort_values("lid")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    oracle = (
        con.sql(
            """
            SELECT u, lts, lid, rid_right FROM (
                SELECT l.*, r.rid AS rid_right,
                    row_number() OVER (
                        PARTITION BY l.lid ORDER BY r.rts, r.rid) AS rn
                FROM l LEFT JOIN r ON l.u = r.u AND r.rts >= l.lts
            ) WHERE rn = 1
            """
        )
        .df()
        .sort_values("lid")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        out[sorted(out.columns)], oracle[sorted(oracle.columns)],
        check_dtype=False,
    )


def test_window_join_matches_band_join_sql(ray_session):
    import ray.data

    from airbyte_destination_ray.pipelines.relational import window_join

    rng = np.random.default_rng(29)
    nl, nr = 900, 700
    left = pa.table(
        {
            "u": pa.array(rng.integers(0, 15, nl), type=pa.int64()),
            "lts": pa.array(rng.integers(0, 2000, nl), type=pa.int64()),
            "lid": pa.array(np.arange(nl), type=pa.int64()),
        }
    )
    right = pa.table(
        {
            "u": pa.array(rng.integers(0, 15, nr), type=pa.int64()),
            "rts": pa.array(rng.integers(0, 2000, nr), type=pa.int64()),
            "rid": pa.array(np.arange(nr), type=pa.int64()),
        }
    )
    out = window_join(
        ray.data.from_arrow(left).repartition(4),
        ray.data.from_arrow(right).repartition(3),
        on="u", left_ts="lts", right_ts="rts",
        before_us=25, after_us=60, right_keep=["rid"],
        left_schema=left.schema, right_schema=right.schema,
        num_partitions=5,
    ).to_pandas()
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    oracle = con.sql(
        """SELECT l.u, l.lts, l.lid, r.rid AS rid_right
           FROM l JOIN r ON l.u = r.u
            AND r.rts BETWEEN l.lts - 25 AND l.lts + 60"""
    ).df()
    cols = sorted(out.columns)
    pd.testing.assert_frame_equal(
        out[cols].sort_values(cols).reset_index(drop=True),
        oracle[cols].sort_values(cols).reset_index(drop=True),
        check_dtype=False,
    )


def test_window_join_edges(ray_session):
    """Boundary inclusivity both ends, zero-width window, key with no
    right rows, empty pair count."""
    import ray.data

    from airbyte_destination_ray.pipelines.relational import window_join

    left = pa.table(
        {
            "u": pa.array([1, 1, 2, 3], type=pa.int64()),
            "lts": pa.array([100, 500, 100, 100], type=pa.int64()),
            "lid": pa.array([1, 2, 3, 4], type=pa.int64()),
        }
    )
    right = pa.table(
        {
            "u": pa.array([1, 1, 1, 2], type=pa.int64()),
            "rts": pa.array([90, 110, 200, 100], type=pa.int64()),
            "rid": pa.array([10, 11, 12, 13], type=pa.int64()),
        }
    )
    out = (
        window_join(
            ray.data.from_arrow(left),
            ray.data.from_arrow(right),
            on="u", left_ts="lts", right_ts="rts",
            before_us=10, after_us=10, right_keep=["rid"],
            left_schema=left.schema, right_schema=right.schema,
            num_partitions=3,
        )
        .to_pandas()
        .sort_values(["lid", "rid_right"])
        .reset_index(drop=True)
    )
    # lid1 [90,110] -> rids 10,11 (both boundary-inclusive); lid2 none;
    # lid3 (u2, zero offsets around 100) -> rid 13; lid4 (u3) no rights
    pairs = list(zip(out["lid"], out["rid_right"]))
    assert pairs == [(1, 10), (1, 11), (3, 13)]


def test_windowed_ohlc_matches_ordered_aggregates(ray_session):
    """OHLC vs DuckDB first/last ORDER BY aggregates — incl. equal-ts
    open/close ties broken by seq and single-row windows; null values
    excluded."""
    import ray.data

    from airbyte_destination_ray.pipelines.relational import windowed_ohlc

    rng = np.random.default_rng(31)
    n = 4000
    base = 1_700_000_000_000_000
    t = pa.table(
        {
            "ts": pa.array(
                base + rng.integers(0, 6 * 3_600_000_000, n),
                type=pa.timestamp("us"),
            ),
            "k": pa.array(rng.choice(["a", "b", "c"], n)),
            "s": pa.array(rng.permutation(n), type=pa.int64()),
            "v": pa.array(
                np.where(rng.random(n) < 0.05, np.nan, rng.random(n) * 100)
            ),
        }
    )
    vv = t.column("v").to_pandas()
    t = t.set_column(3, "v", pa.array(vv.where(~np.isnan(vv), None)))
    out = (
        windowed_ohlc(
            ray.data.from_arrow(t).repartition(6),
            ts_col="ts", key="k", seq="s", value_col="v", unit="hour",
        )
        .to_pandas()
        .sort_values(["window_start", "k"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", t)
    oracle = (
        con.sql(
            """
            SELECT date_trunc('hour', ts) AS window_start, k,
                first(v ORDER BY ts, s) AS open, max(v) AS high,
                min(v) AS low, last(v ORDER BY ts, s) AS close,
                CAST(count(*) AS BIGINT) AS n
            FROM t WHERE v IS NOT NULL GROUP BY 1, 2
            """
        )
        .df()
        .sort_values(["window_start", "k"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        out[sorted(out.columns)], oracle[sorted(oracle.columns)],
        check_dtype=False,
    )


def test_winsorize_clamps_at_exact_quantiles(ray_session):
    import numpy as np

    from airbyte_destination_ray.pipelines.ops import winsorize

    vals = np.concatenate([np.arange(100, dtype=np.float64), [1e6, -1e6]])
    t = pa.table({"id": pa.array(range(len(vals)), type=pa.int64()),
                  "v": pa.array(vals)})
    out = winsorize(_ds(t, blocks=5), value_col="v", q_lo=0.05, q_hi=0.95)
    df = out.to_pandas().sort_values("id").reset_index(drop=True)
    # bounds must equal DuckDB quantile_disc (rank = ceil(q·n)−1) exactly —
    # the oracle-side formulation the sf-scale gate compares against
    con = duckdb.connect()
    con.register("t", t)
    lo, hi = con.execute(
        "SELECT quantile_disc(v, 0.05), quantile_disc(v, 0.95) FROM t"
    ).fetchone()
    assert np.array_equal(df.v_w.to_numpy(), np.clip(vals, lo, hi))
    assert df.v_w.max() == hi and df.v_w.min() == lo  # outliers clamped


def test_mixture_stats_shares(ray_session):
    import numpy as np

    from airbyte_destination_ray.pipelines.ops import mixture_stats

    t = pa.table(
        {
            "src": pa.array(["a", "a", "b", "b", "b"]),
            "lang": pa.array(["en", "en", "en", "de", "de"]),
            "n": pa.array([10, 20, 30, 5, 35], type=pa.int64()),
        }
    )
    out = mixture_stats(_ds(t, blocks=3), keys=["src", "lang"], units_col="n")
    df = out.to_pandas().set_index(["src", "lang"]).sort_index()
    assert df.n_units.to_dict() == {("a", "en"): 30, ("b", "de"): 40, ("b", "en"): 30}
    assert df.n_docs.sum() == 5
    assert abs(df.unit_share.sum() - 1.0) < 1e-12
    assert df.loc[("b", "de"), "unit_share"] == 40 / 100


def test_throttle_by_key_lag_semantics(ray_session):
    import datetime as dt

    from airbyte_destination_ray.pipelines.relational import throttle_by_key

    t0 = dt.datetime(2024, 1, 1)

    def ts(minutes):
        return t0 + dt.timedelta(minutes=minutes)

    # u1: 0, 3, 6, 20 → 3min gaps dropped under 5min rule except the 20
    # u2: 0, 5 → exactly at the gap → kept (>= semantics)
    rows = [
        (1, "u1", ts(0)), (2, "u1", ts(3)), (3, "u1", ts(6)), (4, "u1", ts(20)),
        (5, "u2", ts(0)), (6, "u2", ts(5)),
    ]
    t = pa.table(
        {
            "event_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "user_id": pa.array([r[1] for r in rows]),
            "ts": pa.array([r[2] for r in rows], type=pa.timestamp("us")),
        }
    )
    out = throttle_by_key(
        _ds(t, blocks=3), key="user_id", ts_col="ts",
        seq="event_id", min_gap_minutes=5.0,
    ).to_pandas()
    # LAG form: event 3 is judged against event 2 (gap 3min) → dropped
    # even though event 2 itself was dropped
    assert sorted(out.event_id) == [1, 4, 5, 6]


def test_asof_join_tolerance(ray_session):
    """merge_asof tolerance: matches farther than the window null out,
    in-window matches and exact boundary survive."""
    import datetime as dt

    from airbyte_destination_ray.pipelines.relational import asof_join

    t0 = dt.datetime(2024, 1, 1, 12, 0, 0)

    def ts(minutes):
        return t0 + dt.timedelta(minutes=minutes)

    left = pa.table(
        {
            "k": pa.array([1, 2, 3], type=pa.int64()),
            "lts": pa.array([ts(60), ts(60), ts(60)], pa.timestamp("us")),
        }
    )
    right = pa.table(
        {
            "k": pa.array([1, 2, 3], type=pa.int64()),
            "rts": pa.array([ts(50), ts(0), ts(30)], pa.timestamp("us")),
            "rseq": pa.array([10, 20, 30], type=pa.int64()),
            "tag": pa.array(["near", "far", "edge"]),
        }
    )
    out = asof_join(
        _ds(left, blocks=2),
        _ds(right, blocks=2),
        on="k",
        left_ts="lts",
        right_ts="rts",
        right_seq="rseq",
        right_keep=["tag"],
        tolerance_us=30 * 60 * 1_000_000,  # 30 minutes
    ).to_pandas().set_index("k").sort_index()
    import pandas as pd

    # k=1 gap 10min → kept; k=2 gap 60min → nulled; k=3 gap exactly 30min → kept
    assert out.loc[1, "tag_right"] == "near"
    assert pd.isna(out.loc[2, "tag_right"])
    assert out.loc[3, "tag_right"] == "edge"
    # rts was added internally for masking and must NOT leak
    assert "rts_right" not in out.columns


def test_throttle_by_key_null_keys_group_together(ray_session):
    """SQL PARTITION BY groups NULL keys together: null-key events must
    debounce against each other (the nullable-int64 → NaN numpy trap would
    otherwise split them into singletons)."""
    import datetime as dt

    from airbyte_destination_ray.pipelines.relational import throttle_by_key

    t0 = dt.datetime(2024, 1, 1)
    t = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "user_id": pa.array([None, None, None, 5], type=pa.int64()),
            "ts": pa.array(
                [t0, t0 + dt.timedelta(minutes=2),
                 t0 + dt.timedelta(minutes=10), t0],
                type=pa.timestamp("us"),
            ),
        }
    )
    out = throttle_by_key(
        _ds(t, blocks=2), key="user_id", ts_col="ts",
        seq="event_id", min_gap_minutes=5.0,
    ).to_pandas()
    # event 2 is 2min after event 1 within the NULL partition → dropped
    assert sorted(out.event_id) == [1, 3, 4]


def test_gap_rows_lag_diffs(ray_session):
    import datetime as dt

    from airbyte_destination_ray.pipelines.relational import gap_rows

    t0 = dt.datetime(2024, 1, 1)
    t = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
            "user_id": pa.array(["a", "a", "a", "b", None]),
            "ts": pa.array(
                [t0, t0 + dt.timedelta(seconds=10),
                 t0 + dt.timedelta(seconds=40), t0, t0],
                type=pa.timestamp("us"),
            ),
        }
    )
    out = gap_rows(
        _ds(t, blocks=2), key="user_id", ts_col="ts", seq="event_id"
    ).to_pandas()
    # a: gaps 10s and 30s; b and the null key are singletons → no rows
    assert sorted(out.gap_us) == [10_000_000, 30_000_000]
    assert set(out.user_id) == {"a"}


# --- ntile -------------------------------------------------------------


def test_ntile_matches_sql(events):
    from airbyte_destination_ray.pipelines.relational import ntile

    out = ntile(
        _ds(events),
        by="value",
        tie_break="event_id",
        n_tiles=4,
        total_rows=events.num_rows,
    )
    _assert_matches(
        out,
        """
        SELECT event_id, ts, user_id, event_type, value,
               CAST(NTILE(4) OVER (ORDER BY value, event_id) AS BIGINT)
                   AS tile
        FROM events
        """,
        {"events": events},
    )


def test_ntile_more_tiles_than_rows(ray_session):
    """q == 0 path: each row its own tile, NTILE leaves the rest empty."""
    from airbyte_destination_ray.pipelines.relational import ntile

    t = pa.table(
        {
            "event_id": pa.array([1, 2, 3], type=pa.int64()),
            "value": pa.array([30.0, 10.0, 20.0]),
        }
    )
    out = ntile(
        _ds(t, blocks=2),
        by="value",
        tie_break="event_id",
        n_tiles=7,
        total_rows=3,
    )
    _assert_matches(
        out,
        """
        SELECT event_id, value,
               CAST(NTILE(7) OVER (ORDER BY value, event_id) AS BIGINT)
                   AS tile
        FROM t
        """,
        {"t": t},
    )


def test_ntile_remainder_rule(ray_session):
    """n=10, k=4 → tiles of 3,3,2,2 (SQL remainder-first rule)."""
    from airbyte_destination_ray.pipelines.relational import ntile

    t = pa.table(
        {
            "event_id": pa.array(list(range(10)), type=pa.int64()),
            "value": pa.array([float(9 - i) for i in range(10)]),
        }
    )
    out = ntile(
        _ds(t, blocks=3),
        by="value",
        tie_break="event_id",
        n_tiles=4,
        total_rows=10,
    ).take_all()
    sizes: dict[int, int] = {}
    for r in out:
        sizes[r["tile"]] = sizes.get(r["tile"], 0) + 1
    assert sizes == {1: 3, 2: 3, 3: 2, 4: 2}


# --- item co-occurrence --------------------------------------------------


_COOC_SQL = """
    WITH p AS (
        SELECT DISTINCT user_id, event_type FROM events
        WHERE user_id IS NOT NULL AND event_type IS NOT NULL),
    u AS (SELECT count(DISTINCT user_id) AS nu FROM p),
    c AS (SELECT event_type, count(*) AS n FROM p GROUP BY 1),
    co AS (
        SELECT a.event_type AS item_a, b.event_type AS item_b,
               count(*) AS nco
        FROM p a JOIN p b
            ON a.user_id = b.user_id AND a.event_type < b.event_type
        GROUP BY 1, 2)
    SELECT co.item_a, co.item_b,
           CAST(ca.n AS BIGINT) AS n_a, CAST(cb.n AS BIGINT) AS n_b,
           CAST(co.nco AS BIGINT) AS n_co,
           CAST(u.nu * co.nco AS DOUBLE) / (ca.n * cb.n) AS lift
    FROM co, u
    JOIN c ca ON ca.event_type = co.item_a
    JOIN c cb ON cb.event_type = co.item_b
"""


def test_item_cooccurrence_matches_sql(events):
    import ray.data

    from airbyte_destination_ray.pipelines.relational import (
        item_cooccurrence,
    )

    out = item_cooccurrence(
        _ds(events), basket="user_id", item="event_type"
    )
    _assert_matches(
        ray.data.from_arrow(out), _COOC_SQL, {"events": events}
    )


def test_item_cooccurrence_null_rows_dropped(ray_session):
    import ray.data

    from airbyte_destination_ray.pipelines.relational import (
        item_cooccurrence,
    )

    t = pa.table(
        {
            "user_id": pa.array([1, 1, 2, 2, None, 3], type=pa.int64()),
            "event_type": pa.array(["a", "b", "a", "b", "a", None]),
        }
    )
    out = item_cooccurrence(_ds(t, blocks=2), basket="user_id", item="event_type")
    _assert_matches(
        ray.data.from_arrow(out), _COOC_SQL.replace("events", "t"), {"t": t}
    )


def test_item_cooccurrence_explicit_vocab_filters(ray_session):
    from airbyte_destination_ray.pipelines.relational import (
        item_cooccurrence,
    )

    t = pa.table(
        {
            "user_id": pa.array([1, 1, 1, 2, 2], type=pa.int64()),
            "event_type": pa.array(["a", "b", "zz", "a", "b"]),
        }
    )
    out = item_cooccurrence(
        _ds(t, blocks=2),
        basket="user_id",
        item="event_type",
        items=["a", "b"],
    )
    assert out.column("item_a").to_pylist() == ["a"]
    assert out.column("n_co").to_pylist() == [2]


# --- max concurrency -----------------------------------------------------


def _concurrency_sql(dur_s: int) -> str:
    return f"""
        WITH d AS (
            SELECT event_type, ts AS t, 1 AS d FROM events
            WHERE ts IS NOT NULL AND event_type IS NOT NULL
            UNION ALL
            SELECT event_type, ts + INTERVAL {dur_s} SECOND, -1 FROM events
            WHERE ts IS NOT NULL AND event_type IS NOT NULL),
        r AS (
            SELECT event_type,
                   SUM(d) OVER (PARTITION BY event_type ORDER BY t, d)
                       AS run
            FROM d)
        SELECT event_type, CAST(max(run) AS BIGINT) AS max_concurrent
        FROM r GROUP BY event_type
    """


def test_max_concurrency_matches_sql(events):
    from airbyte_destination_ray.pipelines.relational import (
        max_concurrency_by_key,
    )

    out = max_concurrency_by_key(
        _ds(events),
        key="event_type",
        start_col="ts",
        duration_us=3_600_000_000,
    )
    _assert_matches(out, _concurrency_sql(3600), {"events": events})


def test_max_concurrency_tiny_bins_cross_boundaries(events):
    """bin_us far smaller than the interval length: every interval spans
    many bins, so correctness rests entirely on the cross-bin offsets."""
    from airbyte_destination_ray.pipelines.relational import (
        max_concurrency_by_key,
    )

    out = max_concurrency_by_key(
        _ds(events),
        key="event_type",
        start_col="ts",
        duration_us=3_600_000_000,
        bin_us=600_000_000,  # 10-minute bins under 1-hour intervals
    )
    _assert_matches(out, _concurrency_sql(3600), {"events": events})


def test_max_concurrency_end_before_start_tie(ray_session):
    """Half-open intervals: an interval ending exactly when another starts
    does not overlap it (the -1 sorts before the +1 at the same t)."""
    from airbyte_destination_ray.pipelines.relational import (
        max_concurrency_by_key,
    )

    base = dt.datetime(2024, 1, 1)
    t = pa.table(
        {
            "event_type": pa.array(["k"] * 2),
            "ts": pa.array(
                [base, base + dt.timedelta(seconds=60)],
                type=pa.timestamp("us"),
            ),
        }
    )
    out = max_concurrency_by_key(
        _ds(t, blocks=1),
        key="event_type",
        start_col="ts",
        duration_us=60_000_000,
    ).take_all()
    assert out == [{"event_type": "k", "max_concurrent": 1}]


STREAK_SQL = """
    WITH d AS (
        SELECT user_id, CAST(date_trunc('day', ts) AS DATE) AS day
        FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL
        GROUP BY user_id, day HAVING count(*) >= {m}
    ), i AS (
        SELECT user_id, day,
            datediff('day', DATE '1970-01-01', day)
              - row_number() OVER (PARTITION BY user_id ORDER BY day) AS grp
        FROM d
    ), r AS (
        SELECT user_id, grp, count(*) AS run_len FROM i GROUP BY user_id, grp
    )
    SELECT user_id, CAST(max(run_len) AS BIGINT) AS longest_streak
    FROM r GROUP BY user_id
"""


def _streak_table():
    import datetime as dt

    def ts(day, hour):
        return dt.datetime(2024, 1, 1) + dt.timedelta(days=day, hours=hour)

    rows = [
        # user 1: days 0,1 active (2 ev), day 2 single, day 4,5 active
        (1, ts(0, 1)), (1, ts(0, 2)), (1, ts(1, 1)), (1, ts(1, 23)),
        (1, ts(2, 5)), (1, ts(4, 0)), (1, ts(4, 1)), (1, ts(5, 3)),
        (1, ts(5, 4)),
        # user 2: one active day
        (2, ts(10, 0)), (2, ts(10, 1)),
        # user 3: never reaches 2 events on any day -> no row at m=2
        (3, ts(0, 0)), (3, ts(1, 0)),
        # null user dropped
        (None, ts(0, 0)), (None, ts(0, 1)),
        # user 4: 5-day unbroken streak
        *[(4, ts(d, h)) for d in range(20, 25) for h in (1, 2)],
    ]
    return pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "ts": pa.array(
                [r[1] for r in rows], type=pa.timestamp("us")
            ),
        }
    )


@pytest.mark.parametrize("min_events", [1, 2])
def test_longest_streak_matches_sql(ray_session, min_events):
    from airbyte_destination_ray.pipelines.relational import (
        longest_streak_by_key,
    )

    t = _streak_table()
    out = longest_streak_by_key(
        _ds(t, blocks=5), key="user_id", ts_col="ts",
        min_events=min_events, num_partitions=3,
    )
    con = duckdb.connect()
    con.register("events", t)
    exp = con.execute(STREAK_SQL.format(m=min_events)).fetchdf()
    got = out.to_pandas()
    cols = ["user_id", "longest_streak"]
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols).reset_index(drop=True),
        exp[cols].sort_values(cols).reset_index(drop=True),
        check_dtype=False,
    )
    if min_events == 2:
        d = dict(zip(got["user_id"], got["longest_streak"]))
        assert d == {1: 2, 2: 1, 4: 5}


def test_longest_streak_cross_batch_day_merge(ray_session):
    """The same (user, day) pair split across MANY blocks must merge its
    partial counts before the threshold test."""
    import datetime as dt

    from airbyte_destination_ray.pipelines.relational import (
        longest_streak_by_key,
    )

    base = dt.datetime(2024, 6, 1)
    # 8 events on one day, one per block: qualifies at min_events=8 only
    # if partials merge.
    t = pa.table(
        {
            "user_id": pa.array([7] * 8, type=pa.int64()),
            "ts": pa.array(
                [base + dt.timedelta(hours=h) for h in range(8)],
                type=pa.timestamp("us"),
            ),
        }
    )
    out = longest_streak_by_key(
        _ds(t, blocks=8), key="user_id", ts_col="ts", min_events=8,
        num_partitions=2,
    ).to_pandas()
    assert list(out["user_id"]) == [7]
    assert list(out["longest_streak"]) == [1]
