"""TPC-H-shaped composite pipelines (Q9/Q12/Q19/Q22 analogs over the
synthetic star schema).

Each composite follows the repo's exactness + scale conventions:

- money in integer cents (``floor(x·100)`` per row, int64 sums) so the
  aggregates are order-independent and hash-comparable to the DuckDB
  oracle;
- dimensions broadcast (``ray.put`` once via ``broadcast_join`` /
  ``semi_join``), facts stream; big×big goes through ONE hash exchange
  with explicit schemas (``ds.schema()`` on a derived Dataset executes
  the upstream pipeline — the measured 2× trap);
- group-by finals with tiny group counts (nation × year, returnflag,
  …) fold per-batch Arrow partials driver-side — the exchange carries
  one row per (group, batch), never per input row.

The adaptations to the synthetic schema (no partsupp/shipmode/phone
columns) are noted per function.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

__all__ = [
    "q2_min_cost_supplier",
    "q3_shipping_priority",
    "q4_priority_late_orders",
    "q5_local_supplier_volume",
    "q6_discount_revenue",
    "q7_nation_trade_by_year",
    "q8_market_share_by_year",
    "q9_profit_by_nation_year",
    "q10_returned_item_customers",
    "q11_important_parts",
    "q12_late_shipments_by_flag",
    "q13_customer_order_histogram",
    "q14_promo_revenue_ratio",
    "q15_top_supplier",
    "q17_small_qty_revenue",
    "q18_large_volume_orders",
    "q19_special_revenue",
    "q20_excess_suppliers",
    "q21_waiting_suppliers",
    "q22_idle_customer_balance",
]


def _cents(col, factor=None) -> pa.Array:
    x = col if factor is None else pc.multiply(col, factor)
    return pc.cast(pc.floor(pc.multiply(x, 100.0)), pa.int64())


def _fold_partials(ds, keys: list[str], sums: list[str]) -> pa.Table:
    """Driver-side fold of per-batch partials — valid ONLY for tiny group
    counts (the partial stream is one row per (group, batch))."""
    parts = [
        pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) else b
        for b in ds.iter_batches(batch_format="pyarrow")
    ]
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return None
    t = pa.concat_tables(parts, promote_options="permissive")
    if not keys:  # global scalar fold
        return pa.table(
            {
                c: pa.array(
                    [int(pc.sum(t.column(c)).as_py() or 0)], type=pa.int64()
                )
                for c in sums
            }
        )
    agg = t.group_by(keys).aggregate([(c, "sum") for c in sums])
    # this pyarrow returns key columns first; rename positionally
    return agg.rename_columns(keys + sums)


def q9_profit_by_nation_year(sf_dir: str, *, name_token: str = "red"):
    """Q9 analog (no partsupp in the synthetic schema, so profit =
    revenue): Σ cents of ``l_extendedprice·(1−l_discount)`` per
    (supplier nation, order year) over parts whose name contains
    ``name_token``.

    Shape: part filter → broadcast partkey set (semi join, zero
    shuffle); supplier⋈nation pre-joined driver-side and broadcast into
    the fact scan (suppkey → nation name); ONE big×big hash exchange
    (lineitem revenue rows ⋈ orders years, unique right keys); final =
    (25 nations × ~7 years) partials folded driver-side."""
    import pyarrow.parquet as pq

    from ..sources.parquet import read_parquet_sized
    from .relational import broadcast_join, semi_join, shuffle_join

    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"]
    )
    wanted = part.filter(
        pc.match_substring(part.column("p_name"), name_token)
    ).column("p_partkey")

    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    sn = supp.join(
        nation, keys="s_nationkey", right_keys="n_nationkey"
    ).select(["s_suppkey", "n_name"])

    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_orderkey", "l_partkey", "l_suppkey",
            "l_extendedprice", "l_discount",
        ],
    )
    li = semi_join(li, wanted, on="l_partkey")
    li = broadcast_join(
        li,
        sn,
        left_on="l_suppkey",
        right_on="s_suppkey",
        select=["l_orderkey", "l_extendedprice", "l_discount", "n_name"],
    )

    def rev(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "n_name": b.column("n_name"),
                "_rev": _cents(
                    b.column("l_extendedprice"),
                    pc.subtract(1.0, b.column("l_discount")),
                ),
            }
        )

    li = li.map_batches(rev, batch_format="pyarrow", batch_size=None)

    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
    ).map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": b.column("o_orderkey"),
                "o_year": pc.cast(pc.year(b.column("o_orderdate")), pa.int64()),
            }
        ),
        batch_format="pyarrow",
        batch_size=None,
    )
    i64 = pa.int64()
    joined = shuffle_join(
        li,
        orders,
        left_on="l_orderkey",
        right_on="o_orderkey",
        select=["n_name", "o_year", "_rev"],
        hot_keys=None,  # right keys unique; left ≤ ~7 rows per order
        left_schema=pa.schema(
            [("l_orderkey", i64), ("n_name", pa.string()), ("_rev", i64)]
        ),
        right_schema=pa.schema([("o_orderkey", i64), ("o_year", i64)]),
    )
    partials = joined.map_batches(
        lambda b: b.group_by(["n_name", "o_year"])
        .aggregate([("_rev", "sum")])
        .rename_columns(["n_name", "o_year", "profit_cents"]),
        batch_format="pyarrow",
        batch_size=None,
    )
    return _fold_partials(partials, ["n_name", "o_year"], ["profit_cents"])


def q12_late_shipments_by_flag(sf_dir: str, *, late_days: int = 30):
    """Q12 analog (the synthetic lineitem has no shipmode/commitdate, so
    the group key is ``l_returnflag`` and "late" = shipped more than
    ``late_days`` after the order date): per returnflag, CASE-count line
    items on high-priority (1-URGENT / 2-HIGH) vs lower-priority orders
    among the late ones.

    ONE big×big hash exchange (lineitem ⋈ orders on the order key) with
    explicit schemas; final = 3-row driver fold of per-batch partials."""
    from ..sources.parquet import read_parquet_sized
    from .relational import shuffle_join

    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_shipdate"],
    )
    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )
    i64 = pa.int64()
    joined = shuffle_join(
        li,
        orders,
        left_on="l_orderkey",
        right_on="o_orderkey",
        select=["l_returnflag", "l_shipdate", "o_orderdate", "o_orderpriority"],
        hot_keys=None,
        left_schema=pa.schema(
            [
                ("l_orderkey", i64),
                ("l_returnflag", pa.string()),
                ("l_shipdate", pa.timestamp("us")),
            ]
        ),
        right_schema=pa.schema(
            [
                ("o_orderkey", i64),
                ("o_orderdate", pa.timestamp("us")),
                ("o_orderpriority", pa.string()),
            ]
        ),
    )
    late_us = late_days * 86_400_000_000

    def partial(b: pa.Table) -> pa.Table:
        late = pc.greater(
            pc.cast(b.column("l_shipdate"), i64),
            pc.add(pc.cast(b.column("o_orderdate"), i64), late_us),
        )
        b = b.filter(pc.fill_null(late, False))
        hi = pc.is_in(
            b.column("o_orderpriority"),
            value_set=pa.array(["1-URGENT", "2-HIGH"]),
        )
        t = pa.table(
            {
                "l_returnflag": b.column("l_returnflag"),
                "high_line_count": pc.cast(hi, i64),
                "low_line_count": pc.cast(pc.invert(hi), i64),
            }
        )
        return (
            t.group_by("l_returnflag")
            .aggregate([("high_line_count", "sum"), ("low_line_count", "sum")])
            .rename_columns(
                ["l_returnflag", "high_line_count", "low_line_count"]
            )
        )

    partials = joined.map_batches(
        partial, batch_format="pyarrow", batch_size=None
    )
    return _fold_partials(
        partials, ["l_returnflag"], ["high_line_count", "low_line_count"]
    )


def q19_special_revenue(sf_dir: str):
    """Q19 analog: revenue cents from lineitem ⋈ part where ONE of three
    (brand, size-range, quantity-range) conjunctions holds — the
    OR-of-ANDs predicate benchmark.  The part dimension broadcasts
    (zero shuffle of the fact side); the predicate is one vectorized
    Arrow expression; the final is a single global cents sum folded from
    per-batch scalars."""
    import numpy as np
    import pyarrow.parquet as pq

    from ..sources.parquet import read_parquet_sized
    from .relational import broadcast_join

    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"]
    )
    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    )
    joined = broadcast_join(
        li,
        part,
        left_on="l_partkey",
        right_on="p_partkey",
        select=["l_quantity", "l_extendedprice", "l_discount",
                "p_brand", "p_size"],
    )

    def partial(b: pa.Table) -> pa.Table:
        brand = b.column("p_brand")
        size = b.column("p_size")
        qty = b.column("l_quantity")

        def clause(bname, smax, qlo, qhi):
            return pc.and_(
                pc.and_(
                    pc.equal(brand, bname),
                    pc.and_(
                        pc.greater_equal(size, 1), pc.less_equal(size, smax)
                    ),
                ),
                pc.and_(
                    pc.greater_equal(qty, float(qlo)),
                    pc.less_equal(qty, float(qhi)),
                ),
            )

        keep = pc.or_(
            pc.or_(
                clause("Brand#12", 5, 1, 11), clause("Brand#23", 10, 10, 20)
            ),
            clause("Brand#34", 15, 20, 30),
        )
        b = b.filter(pc.fill_null(keep, False))
        rev = _cents(
            b.column("l_extendedprice"),
            pc.subtract(1.0, b.column("l_discount")),
        )
        s = pc.sum(rev).as_py()
        return pa.table(
            {"revenue_cents": pa.array([0 if s is None else int(s)])}
        )

    partials = joined.map_batches(
        partial, batch_format="pyarrow", batch_size=None
    )
    out = _fold_partials(partials, [], ["revenue_cents"])
    if out is None:
        return pa.table({"revenue_cents": pa.array([0], type=pa.int64())})
    return out


def q22_idle_customer_balance(sf_dir: str, *, max_orders: int = 2):
    """Q22 analog (no phone column, so the group key is the customer's
    nation; the synthetic corpus gives nearly every customer an order, so
    "idle" = at most ``max_orders`` orders instead of NOT EXISTS):
    customers with account balance above the positive-balance average and
    low purchase activity, counted + balance-summed per nation.

    The average is computed in one streaming partial pass (exact int
    cents sum + count, ONE float division on the driver — IEEE-safe on
    both sides); the activity filter is a distributed per-custkey count
    followed by a broadcast anti join against the active-customer key
    set (bounded by customer cardinality — the shuffle anti-join variant
    exists in the dedup family for keys that outgrow a broadcast); the
    final folds ≤25 nation partials."""
    import pyarrow.parquet as pq

    from ..sources.parquet import read_parquet_sized
    from .ops import grouped_count
    from .relational import anti_join, broadcast_join

    cust = read_parquet_sized(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey", "c_acctbal"],
    )

    def bal_partial(b: pa.Table) -> pa.Table:
        pos = b.filter(pc.greater(b.column("c_acctbal"), 0.0))
        cents = _cents(pos.column("c_acctbal"))
        s = pc.sum(cents).as_py()
        return pa.table(
            {
                "s": pa.array([0 if s is None else int(s)]),
                "n": pa.array([pos.num_rows], type=pa.int64()),
            }
        )

    tot = _fold_partials(
        cust.map_batches(bal_partial, batch_format="pyarrow", batch_size=None),
        [],
        ["s", "n"],
    )
    thresh_cents = tot.column("s")[0].as_py() / max(
        tot.column("n")[0].as_py(), 1
    )

    counts = grouped_count(
        read_parquet_sized(
            f"{sf_dir}/orders.parquet", columns=["o_custkey"]
        ),
        key="o_custkey",
        out_col="_n",
    ).map_batches(
        lambda b: b.filter(pc.greater(b.column("_n"), max_orders)),
        batch_format="pyarrow",
        batch_size=None,
    )
    key_parts = [
        pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) else b
        for b in counts.iter_batches(batch_format="pyarrow")
        if b.num_rows
    ]
    # all-empty blocks (no customer over max_orders) yield ZERO batches
    # from Ray — every customer is "idle", the anti-join set is empty
    keys = (
        pa.concat_tables(key_parts).column("o_custkey")
        if key_parts
        else pa.array([], type=pa.int64())
    )

    rich = cust.map_batches(
        lambda b: b.filter(
            pc.greater(_cents(b.column("c_acctbal")), thresh_cents)
        ),
        batch_format="pyarrow",
        batch_size=None,
    )
    idle = anti_join(rich, keys, on="c_custkey")
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    idle = broadcast_join(
        idle,
        nation,
        left_on="c_nationkey",
        right_on="n_nationkey",
        select=["n_name", "c_acctbal"],
    )

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "n_name": b.column("n_name"),
                "numcust": pa.array([1] * b.num_rows, type=pa.int64()),
                "totacctbal_cents": _cents(b.column("c_acctbal")),
            }
        )
        return (
            t.group_by("n_name")
            .aggregate([("numcust", "sum"), ("totacctbal_cents", "sum")])
            .rename_columns(["n_name", "numcust", "totacctbal_cents"])
        )

    out = _fold_partials(
        idle.map_batches(partial, batch_format="pyarrow", batch_size=None),
        ["n_name"],
        ["numcust", "totacctbal_cents"],
    )
    if out is None:  # zero qualifying customers → typed empty result
        return pa.table(
            {
                "n_name": pa.array([], type=pa.string()),
                "numcust": pa.array([], type=pa.int64()),
                "totacctbal_cents": pa.array([], type=pa.int64()),
            }
        )
    return out


def q15_top_supplier(
    sf_dir: str,
    *,
    start: str = "1996-01-01",
    end: str = "1996-04-01",
):
    """Q15 (top supplier — faithful: lineitem + supplier only): revenue
    per supplier over a one-quarter shipdate window, return the
    supplier(s) achieving the MAX revenue (ties all kept, like the
    reference query's ``= (SELECT max(...))``).

    Shape: one column-pruned lineitem scan → vectorized date filter →
    per-batch (suppkey → cents) partials; the fold is dim-sized
    (one row per supplier per batch), so the max + winner select +
    name join all happen on aggregate-sized data driver-side — zero
    payload exchanges, exact integer cents end-to-end."""
    import datetime as _dt

    import pyarrow.parquet as pq

    from ..sources.parquet import read_parquet_sized

    lo = _dt.datetime.fromisoformat(start)
    hi = _dt.datetime.fromisoformat(end)
    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def partial(b: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.greater_equal(b.column("l_shipdate"), lo),
            pc.less(b.column("l_shipdate"), hi),
        )
        t = b.filter(m)
        rev = _cents(
            t.column("l_extendedprice"),
            pc.subtract(1.0, t.column("l_discount")),
        )
        return (
            pa.table({"s_suppkey": t.column("l_suppkey"), "_rev": rev})
            .group_by("s_suppkey")
            .aggregate([("_rev", "sum")])
            .rename_columns(["s_suppkey", "_rev"])
        )

    rev = _fold_partials(
        li.map_batches(partial, batch_format="pyarrow", batch_size=None),
        ["s_suppkey"],
        ["_rev"],
    )
    if rev is None:
        return pa.table(
            {
                "s_suppkey": pa.array([], type=pa.int64()),
                "s_name": pa.array([], type=pa.string()),
                "total_revenue_cents": pa.array([], type=pa.int64()),
            }
        )
    best = pc.max(rev.column("_rev"))
    winners = rev.filter(pc.equal(rev.column("_rev"), best))
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    )
    out = winners.join(supp, keys="s_suppkey").sort_by("s_suppkey")
    return pa.table(
        {
            "s_suppkey": out.column("s_suppkey"),
            "s_name": out.column("s_name"),
            "total_revenue_cents": out.column("_rev"),
        }
    )


def q2_min_cost_supplier(
    sf_dir: str,
    *,
    size: int = 15,
    num_partitions: int = 32,
):
    """Q2 analog (no partsupp in the synthetic schema, so a supplier's
    "cost" for a part is its cheapest single lineitem extendedprice):
    for every part of the probed size, the supplier offering the minimum
    cost — tie-broken like Q2's ORDER BY (higher ``s_acctbal`` first,
    then lower ``s_suppkey``) — with the supplier's nation attached.

    Shape: broadcast part-subset semi join (zero shuffle) → per-batch
    (part, supp) min-cents partials → broadcast supplier⋈nation dim onto
    the partial stream → ONE hash exchange keyed on partkey → a
    partition-LEVEL vectorized argmin (lexsort + first-per-part mask, no
    per-key Python).  The exchange carries one row per (part, supplier,
    batch) — never per lineitem."""
    import numpy as np
    import pyarrow.parquet as pq

    from ..functions.hashing import partition_ids
    from ..sources.parquet import read_parquet_sized
    from .relational import broadcast_join, semi_join

    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_size"]
    )
    wanted = part.filter(
        pc.equal(part.column("p_size"), size)
    ).column("p_partkey")

    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name", "s_acctbal", "s_nationkey"],
    )
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    sn = supp.join(
        nation, keys="s_nationkey", right_keys="n_nationkey"
    ).select(["s_suppkey", "s_name", "s_acctbal", "n_name"])

    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice"],
    )
    li = semi_join(li, wanted, on="l_partkey")

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "p_partkey": b.column("l_partkey"),
                "s_suppkey": b.column("l_suppkey"),
                "cost_cents": _cents(b.column("l_extendedprice")),
            }
        )
        agg = (
            t.group_by(["p_partkey", "s_suppkey"])
            .aggregate([("cost_cents", "min")])
            .rename_columns(["p_partkey", "s_suppkey", "cost_cents"])
        )
        parts = partition_ids(agg.column("p_partkey"), num_partitions)
        return agg.append_column(
            "_part", pa.array(parts, type=pa.int64())
        )

    partials = broadcast_join(
        li.map_batches(partial, batch_format="pyarrow", batch_size=None),
        sn,
        left_on="s_suppkey",
        right_on="s_suppkey",
        select=[
            "p_partkey", "s_suppkey", "cost_cents",
            "s_name", "s_acctbal", "n_name", "_part",
        ],
    )

    def argmin(group: pa.Table) -> pa.Table:
        g = group.drop_columns(["_part"])
        # re-min across batch partials, then argmin per part with the Q2
        # tie order (cost asc, acctbal desc, suppkey asc)
        g = (
            g.group_by(["p_partkey", "s_suppkey", "s_name", "n_name"])
            .aggregate([("cost_cents", "min"), ("s_acctbal", "min")])
            .rename_columns(
                [
                    "p_partkey", "s_suppkey", "s_name", "n_name",
                    "cost_cents", "s_acctbal",
                ]
            )
        )
        idx = pc.sort_indices(
            g,
            sort_keys=[
                ("p_partkey", "ascending"),
                ("cost_cents", "ascending"),
                ("s_acctbal", "descending"),
                ("s_suppkey", "ascending"),
            ],
        )
        t = g.take(idx)
        pk = t.column("p_partkey").to_numpy(zero_copy_only=False)
        first = np.ones(len(pk), dtype=bool)
        if len(pk) > 1:
            first[1:] = pk[1:] != pk[:-1]
        t = t.filter(pa.array(first))
        return t.select(
            [
                "p_partkey", "s_suppkey", "s_name",
                "s_acctbal", "n_name", "cost_cents",
            ]
        )

    return (
        partials.groupby("_part")
        .map_groups(argmin, batch_format="pyarrow")
    )


def q11_important_parts(sf_dir: str, *, fraction: float = 0.0006):
    """Q11 analog (no partsupp: a part's "value" is its total lineitem
    revenue): parts whose value exceeds ``fraction`` of the corpus-wide
    total value.

    Shape: per-batch (partkey → cents) partials → ONE hash exchange →
    partition-level per-part sums, materialized ONCE; the global total
    folds the per-part stream's aggregate-sized partition sums
    driver-side, and the threshold filter re-streams the same
    materialized per-part Dataset — the fact table is scanned exactly
    once and the comparison is int-vs-one-IEEE-product on both sides."""
    import numpy as np

    from ..functions.hashing import partition_ids
    from ..sources.parquet import read_parquet_sized

    num_partitions = 32
    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount"],
    )

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "p_partkey": b.column("l_partkey"),
                "value_cents": _cents(
                    b.column("l_extendedprice"),
                    pc.subtract(1.0, b.column("l_discount")),
                ),
            }
        )
        agg = (
            t.group_by("p_partkey")
            .aggregate([("value_cents", "sum")])
            .rename_columns(["p_partkey", "value_cents"])
        )
        parts = partition_ids(agg.column("p_partkey"), num_partitions)
        return agg.append_column("_part", pa.array(parts, type=pa.int64()))

    def per_part(group: pa.Table) -> pa.Table:
        return (
            group.drop_columns(["_part"])
            .group_by("p_partkey")
            .aggregate([("value_cents", "sum")])
            .rename_columns(["p_partkey", "value_cents"])
        )

    values = (
        li.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby("_part")
        .map_groups(per_part, batch_format="pyarrow")
        .materialize()
    )
    total = 0
    for b in values.iter_batches(batch_format="pyarrow"):
        t = pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) else b
        s = pc.sum(t.column("value_cents")).as_py()
        total += 0 if s is None else int(s)
    thresh = fraction * float(total)  # ONE IEEE product, same on both sides

    return values.map_batches(
        lambda b: b.filter(pc.greater(b.column("value_cents"), thresh)),
        batch_format="pyarrow",
        batch_size=None,
    )


def q21_waiting_suppliers(
    sf_dir: str,
    *,
    top_n: int = 20,
    num_partitions: int = 32,
):
    """Q21 analog (no commit/receipt dates: the "waiting" supplier of a
    finished multi-supplier order is the UNIQUE latest shipper): for
    every finished ('F') order with ≥2 distinct suppliers where exactly
    one supplier ships on the order's max shipdate, credit that
    supplier; output the top-N suppliers by count (Q21's numwait),
    ordered count desc then suppkey asc.

    Shape: lineitem rows and order-status rows ride ONE tagged-union
    hash exchange keyed on orderkey (no broadcast of the fact-sized
    order set); the per-partition kernel is fully vectorized
    (sort + run masks + reduceat, no per-order Python); the winner
    stream is dim-sized, so the count + name join + top-N run on
    aggregate-sized data driver-side."""
    import numpy as np
    import pyarrow.parquet as pq

    from ..functions.hashing import partition_ids
    from ..sources.parquet import read_parquet_sized

    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_shipdate"],
    )
    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderstatus"]
    )

    def tag_lines(b: pa.Table) -> pa.Table:
        parts = partition_ids(b.column("l_orderkey"), num_partitions)
        return pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "l_suppkey": b.column("l_suppkey"),
                "_ship": pc.cast(b.column("l_shipdate"), pa.int64()),
                "_tag": pa.array([0] * b.num_rows, type=pa.int8()),
                "_part": pa.array(parts, type=pa.int64()),
            }
        )

    def tag_orders(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b.column("o_orderstatus"), "F"))
        parts = partition_ids(t.column("o_orderkey"), num_partitions)
        return pa.table(
            {
                "l_orderkey": t.column("o_orderkey"),
                "l_suppkey": pa.array([0] * t.num_rows, type=pa.int64()),
                "_ship": pa.array([0] * t.num_rows, type=pa.int64()),
                "_tag": pa.array([1] * t.num_rows, type=pa.int8()),
                "_part": pa.array(parts, type=pa.int64()),
            }
        )

    union = li.map_batches(
        tag_lines, batch_format="pyarrow", batch_size=None
    ).union(
        orders.map_batches(tag_orders, batch_format="pyarrow", batch_size=None)
    )

    def winners(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "s_suppkey": pa.array([], type=pa.int64()),
                "numwait": pa.array([], type=pa.int64()),
            }
        )
        tags = group.column("_tag").to_numpy(zero_copy_only=False)
        fkeys = group.filter(pa.array(tags == 1)).column("l_orderkey")
        lines = group.filter(pa.array(tags == 0))
        if fkeys.length() == 0 or lines.num_rows == 0:
            return empty
        fset = np.unique(fkeys.to_numpy(zero_copy_only=False))
        ok = lines.column("l_orderkey").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(fset, ok)
        m = pos < len(fset)
        m &= fset[np.clip(pos, 0, len(fset) - 1)] == ok
        lines = lines.filter(pa.array(m))
        if lines.num_rows == 0:
            return empty
        t = lines.sort_by(
            [("l_orderkey", "ascending"), ("l_suppkey", "ascending")]
        )
        okey = t.column("l_orderkey").to_numpy(zero_copy_only=False)
        skey = t.column("l_suppkey").to_numpy(zero_copy_only=False)
        ship = t.column("_ship").to_numpy(zero_copy_only=False)
        n = len(okey)
        ostart = np.ones(n, dtype=bool)
        ostart[1:] = okey[1:] != okey[:-1]
        oid = np.cumsum(ostart) - 1
        n_orders = oid[-1] + 1
        # distinct suppliers per order
        sstart = ostart.copy()
        sstart[1:] |= skey[1:] != skey[:-1]
        nsupp = np.bincount(oid[sstart], minlength=n_orders)
        # per-order max shipdate (orders are contiguous after the sort, so
        # reduceat beats ufunc.at by orders of magnitude)
        maxship = np.maximum.reduceat(ship, np.nonzero(ostart)[0])
        at_max = ship == maxship[oid]
        # sstart marks the first row of each (order, supp) run, but the max
        # may occur on a later row of the run — mark (order, supp) runs
        # that contain ANY at_max row.
        run_id = np.cumsum(sstart) - 1
        run_hit = np.zeros(run_id[-1] + 1, dtype=bool)
        np.logical_or.at(run_hit, run_id[at_max], True)
        runs_first = np.nonzero(sstart)[0]
        hit_rows = runs_first[run_hit]  # one row per (order, supp) at max
        hit_oid = oid[hit_rows]
        n_at_max = np.bincount(hit_oid, minlength=n_orders)
        solo = (n_at_max == 1) & (nsupp >= 2)
        if not solo.any():
            return empty
        win_rows = hit_rows[solo[hit_oid]]
        win_supp = skey[win_rows]
        sup, cnt = np.unique(win_supp, return_counts=True)
        return pa.table(
            {
                "s_suppkey": pa.array(sup, type=pa.int64()),
                "numwait": pa.array(cnt, type=pa.int64()),
            }
        )

    counts = _fold_partials(
        union.groupby("_part").map_groups(winners, batch_format="pyarrow"),
        ["s_suppkey"],
        ["numwait"],
    )
    if counts is None:
        return pa.table(
            {
                "s_suppkey": pa.array([], type=pa.int64()),
                "s_name": pa.array([], type=pa.string()),
                "numwait": pa.array([], type=pa.int64()),
            }
        )
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    )
    out = counts.join(supp, keys="s_suppkey").sort_by(
        [("numwait", "descending"), ("s_suppkey", "ascending")]
    )
    out = out.slice(0, top_n)
    return out.select(["s_suppkey", "s_name", "numwait"])


def q20_excess_suppliers(
    sf_dir: str,
    *,
    name_token: str = "widget",
    year: int = 1996,
    num_partitions: int = 32,
):
    """Q20 analog (no partsupp in the synthetic schema, so a supplier's
    "stock position" for a part is its shipped quantity that year):
    suppliers who, for at least one part whose name contains
    ``name_token``, shipped MORE THAN HALF of that part's total shipped
    quantity in ``year`` — the Q20 correlated threshold
    ``ps_availqty > 0.5 * sum(l_quantity)`` made exact in integers as
    ``2·qty > total`` (quantities are integral-valued doubles; cast).

    Shape (reference: Q20's nested EXISTS chain, TPC-H spec §B.20):
    part-name filter → broadcast partkey set (semi join, zero shuffle);
    fact scan prunes to 4 columns and the year window; per-batch
    (partkey, suppkey) integer-qty partials → ONE hash exchange keyed on
    partkey → partition-level vectorized correlated compare (sorted
    reduceat totals per part, no per-key Python); qualifying suppkeys are
    dim-bounded, so the final distinct + supplier⋈nation name join folds
    driver-side."""
    import numpy as np
    import pyarrow.parquet as pq

    from ..functions.hashing import partition_ids
    from ..sources.parquet import read_parquet_sized
    from .relational import semi_join

    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"]
    )
    wanted = part.filter(
        pc.match_substring(part.column("p_name"), name_token)
    ).column("p_partkey")

    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
    )
    li = semi_join(li, wanted, on="l_partkey")

    def partial(b: pa.Table) -> pa.Table:
        mask = pc.equal(pc.year(b.column("l_shipdate")), year)
        b = b.filter(mask)
        t = pa.table(
            {
                "p_partkey": b.column("l_partkey"),
                "s_suppkey": b.column("l_suppkey"),
                "qty": pc.cast(b.column("l_quantity"), pa.int64()),
            }
        )
        agg = (
            t.group_by(["p_partkey", "s_suppkey"])
            .aggregate([("qty", "sum")])
            .rename_columns(["p_partkey", "s_suppkey", "qty"])
        )
        parts = partition_ids(agg.column("p_partkey"), num_partitions)
        return agg.append_column("_part", pa.array(parts, type=pa.int64()))

    def qualify(group: pa.Table) -> pa.Table:
        g = (
            group.drop_columns(["_part"])
            .group_by(["p_partkey", "s_suppkey"])
            .aggregate([("qty", "sum")])
            .rename_columns(["p_partkey", "s_suppkey", "qty"])
        )
        idx = pc.sort_indices(g, sort_keys=[("p_partkey", "ascending")])
        g = g.take(idx)
        pk = g.column("p_partkey").to_numpy(zero_copy_only=False)
        qty = g.column("qty").to_numpy(zero_copy_only=False)
        if len(pk) == 0:
            return pa.table({"s_suppkey": pa.array([], type=pa.int64())})
        starts = np.flatnonzero(
            np.concatenate(([True], pk[1:] != pk[:-1]))
        )
        totals = np.add.reduceat(qty, starts)
        per_row_total = np.repeat(totals, np.diff(np.append(starts, len(pk))))
        keep = 2 * qty > per_row_total
        sk = g.column("s_suppkey").filter(pa.array(keep))
        return pa.table({"s_suppkey": pc.unique(sk)})

    partials = li.map_batches(
        partial, batch_format="pyarrow", batch_size=None
    )
    winners = _fold_partials(
        partials.groupby("_part").map_groups(
            qualify, batch_format="pyarrow"
        ).map_batches(
            # dummy count column so _fold_partials' group-by dedups suppkeys
            lambda b: b.append_column(
                "_one", pa.array(np.ones(b.num_rows, dtype=np.int64))
            ),
            batch_format="pyarrow",
            batch_size=None,
        ),
        ["s_suppkey"],
        ["_one"],
    )
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name", "s_nationkey"],
    )
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    sn = supp.join(
        nation, keys="s_nationkey", right_keys="n_nationkey"
    ).select(["s_suppkey", "s_name", "n_name"])
    if winners is None:
        return pa.table(
            {
                "s_suppkey": pa.array([], type=pa.int64()),
                "s_name": pa.array([], type=pa.string()),
                "n_name": pa.array([], type=pa.string()),
            }
        )
    out = winners.select(["s_suppkey"]).join(sn, keys="s_suppkey")
    return out.sort_by(
        [("s_name", "ascending"), ("s_suppkey", "ascending")]
    ).select(["s_suppkey", "s_name", "n_name"])


def q18_large_volume_orders(sf_dir: str):
    """TPC-H Q18-shaped composite (GROUP BY + HAVING semi-join + dim join
    + top-k): lineitem is scanned ONCE into a per-order integer-cents
    quantity aggregate (combiner pre-reduce); the HAVING filter bounds the
    qualifying set, which broadcasts onto orders (zero shuffle) together
    with the customer dim; global top-100 via local-top-k merge — no
    global sort, no payload exchange anywhere."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    import ray

    from airbyte_destination_ray.pipelines.ops import grouped_sum, top_k_by
    from airbyte_destination_ray.sources.parquet import read_parquet_sized

    lineitem = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
    )

    def to_cents(b: "pa.Table") -> "pa.Table":
        q = b.column("l_quantity").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "cents": pa.array(
                    np.floor(q * 100).astype(np.int64), type=pa.int64()
                ),
            }
        )

    qty = grouped_sum(
        lineitem.map_batches(to_cents, batch_format="pyarrow", batch_size=None),
        key="l_orderkey",
        value_col="cents",
        out_col="sum_qty_cents",
    )

    def having(b: "pa.Table") -> "pa.Table":
        return b.filter(pc.greater(b.column("sum_qty_cents"), 15000))

    qual_t = pa.concat_tables(
        list(
            qty.map_batches(
                having, batch_format="pyarrow", batch_size=None
            ).iter_batches(batch_format="pyarrow")
        )
    )
    orderkeys = qual_t.column("l_orderkey").to_numpy(zero_copy_only=False)
    sums = qual_t.column("sum_qty_cents").to_numpy(zero_copy_only=False)
    srt = np.argsort(orderkeys)
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    ck = cust.column("c_custkey").to_numpy(zero_copy_only=False)
    cs = np.argsort(ck)
    lookup_ref = ray.put(
        (
            orderkeys[srt],
            sums[srt],
            ck[cs],
            cust.column("c_name").combine_chunks().take(pa.array(cs)),
        )
    )

    def enrich(b: "pa.Table") -> "pa.Table":
        import numpy as np

        okeys, osums, ckeys, cnames = ray.get(lookup_ref)
        ok = b.column("o_orderkey").to_numpy(zero_copy_only=False)
        if len(okeys) == 0:  # no order passed the HAVING filter
            hit = np.zeros(len(ok), dtype=bool)
        else:
            pos = np.minimum(np.searchsorted(okeys, ok), len(okeys) - 1)
            hit = okeys[pos] == ok
        t = b.filter(pa.array(hit))
        if t.num_rows == 0:
            return pa.table(
                {
                    "c_name": pa.array([], type=pa.string()),
                    "o_custkey": pa.array([], type=pa.int64()),
                    "o_orderkey": pa.array([], type=pa.int64()),
                    "o_orderdate": pa.array(
                        [], type=b.schema.field("o_orderdate").type
                    ),
                    "o_totalprice": pa.array([], type=pa.float64()),
                    "sum_qty_cents": pa.array([], type=pa.int64()),
                }
            )
        ok2 = t.column("o_orderkey").to_numpy(zero_copy_only=False)
        qsum = osums[np.searchsorted(okeys, ok2)]
        cust_k = t.column("o_custkey").to_numpy(zero_copy_only=False)
        # clamped + verified lookup: a custkey missing from the dim gets a
        # NULL name instead of a silently-wrong neighbor (TPC-H FKs always
        # hit, but an unverified searchsorted is the documented crash class)
        cpos = np.minimum(np.searchsorted(ckeys, cust_k), len(ckeys) - 1)
        chit = ckeys[cpos] == cust_k
        names = pc.if_else(
            pa.array(chit),
            cnames.take(pa.array(cpos)),
            pa.scalar(None, type=pa.string()),
        )
        return pa.table(
            {
                "c_name": names,
                "o_custkey": t.column("o_custkey"),
                "o_orderkey": t.column("o_orderkey"),
                "o_orderdate": t.column("o_orderdate"),
                "o_totalprice": t.column("o_totalprice"),
                "sum_qty_cents": pa.array(qsum, type=pa.int64()),
            }
        )

    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )
    enriched = orders.map_batches(
        enrich, batch_format="pyarrow", batch_size=None
    )
    return top_k_by(
        enriched, by="o_totalprice", k=100, tie_break="o_orderkey"
    )


def q10_returned_item_customers(sf_dir: str):
    """TPC-H Q10-shaped composite (returned-item revenue by customer):
    lineitem pre-aggregates returned revenue to ONE integer-cents row per
    order (combiner) before the single big×big shuffle join against the
    date-windowed orders; per-customer sum (partition-level reduce) →
    global top-20 via local-top-k merge → 20-row dim enrich (customer ⋈
    nation broadcast).  No payload shuffles, explicit join schemas (the
    derived-input re-execution trap)."""
    import datetime as dt

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from airbyte_destination_ray.pipelines.ops import grouped_sum, top_k_by
    from airbyte_destination_ray.pipelines.relational import shuffle_join
    from airbyte_destination_ray.sources.parquet import read_parquet_sized

    lo, hi = dt.datetime(1996, 1, 1), dt.datetime(1997, 1, 1)

    def rev_cents(b: "pa.Table") -> "pa.Table":
        b = b.filter(pc.equal(b.column("l_returnflag"), "R"))
        cents = pc.cast(
            pc.floor(
                pc.multiply(
                    pc.multiply(
                        b.column("l_extendedprice"),
                        pc.subtract(1.0, b.column("l_discount")),
                    ),
                    100.0,
                )
            ),
            pa.int64(),
        )
        return pa.table(
            {"l_orderkey": b.column("l_orderkey"), "cents": cents}
        )

    li = grouped_sum(
        read_parquet_sized(
            f"{sf_dir}/lineitem.parquet",
            columns=[
                "l_orderkey", "l_returnflag", "l_extendedprice", "l_discount",
            ],
        ).map_batches(rev_cents, batch_format="pyarrow", batch_size=None),
        key="l_orderkey",
        value_col="cents",
        out_col="revenue_cents",
    )

    def window(b: "pa.Table") -> "pa.Table":
        keep = pc.and_(
            pc.greater_equal(b.column("o_orderdate"), lo),
            pc.less(b.column("o_orderdate"), hi),
        )
        return b.filter(keep).select(["o_orderkey", "o_custkey"])

    ords = read_parquet_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(window, batch_format="pyarrow", batch_size=None)

    joined = shuffle_join(
        li,
        ords,
        left_on="l_orderkey",
        right_on="o_orderkey",
        select=["o_custkey", "revenue_cents"],
        hot_keys=None,  # order keys are unique on both sides
        left_schema=pa.schema(
            [("l_orderkey", pa.int64()), ("revenue_cents", pa.int64())]
        ),
        right_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("o_custkey", pa.int64())]
        ),
    )
    by_cust = grouped_sum(
        joined, key="o_custkey", value_col="revenue_cents",
        out_col="revenue_cents",
    )
    top = top_k_by(
        by_cust, by="revenue_cents", k=20, tie_break="o_custkey"
    )

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_acctbal", "c_nationkey"],
    ).sort_by("c_custkey")
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).sort_by("n_nationkey")
    ck = cust.column("c_custkey").to_numpy(zero_copy_only=False)
    nk = nation.column("n_nationkey").to_numpy(zero_copy_only=False)

    def enrich(b: "pa.Table") -> "pa.Table":
        import numpy as np

        keys = b.column("o_custkey").to_numpy(zero_copy_only=False)
        cpos = np.minimum(np.searchsorted(ck, keys), len(ck) - 1)
        assert (ck[cpos] == keys).all()  # TPC-H FK: every custkey exists
        nat = cust.column("c_nationkey").to_numpy(zero_copy_only=False)[cpos]
        npos = np.minimum(np.searchsorted(nk, nat), len(nk) - 1)
        return pa.table(
            {
                "c_custkey": b.column("o_custkey"),
                "c_name": cust.column("c_name").take(pa.array(cpos)),
                "n_name": nation.column("n_name").take(pa.array(npos)),
                "c_acctbal": cust.column("c_acctbal").take(pa.array(cpos)),
                "revenue_cents": b.column("revenue_cents"),
            }
        )

    return top.map_batches(enrich, batch_format="pyarrow", batch_size=None)


def q3_shipping_priority(sf_dir: str):
    """TPC-H Q3-shaped composite (customer ⋈ orders ⋈ lineitem → revenue
    per order → global top 10): broadcast semi-join on the dimension side,
    per-batch integer-cents revenue pre-aggregation so the keyed exchange
    carries one row per (order, batch), one shuffle join against the
    filtered orders, local-top-k merge — the dataset is never globally
    sorted and never materialized."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from airbyte_destination_ray.pipelines.ops import grouped_sum, top_k_by
    from airbyte_destination_ray.pipelines.relational import (
        semi_join,
        shuffle_join,
    )
    from airbyte_destination_ray.sources.parquet import read_parquet_sized

    import datetime as dt

    cutoff = dt.datetime(1998, 7, 1)

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    building = (
        cust.filter(pc.equal(cust.column("c_mktsegment"), "BUILDING"))
        .column("c_custkey")
        .to_numpy(zero_copy_only=False)
    )

    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(
        lambda b: b.filter(pc.less(b.column("o_orderdate"), cutoff)),
        batch_format="pyarrow",
        batch_size=None,
    )
    orders = semi_join(orders, building, on="o_custkey").map_batches(
        lambda b: b.select(["o_orderkey", "o_orderdate", "o_orderpriority"]),
        batch_format="pyarrow",
        batch_size=None,
    )

    def rev_cents(b: "pa.Table") -> "pa.Table":
        keep = pc.greater(b.column("l_shipdate"), cutoff)
        b = b.filter(keep)
        rev = pc.cast(
            pc.floor(
                pc.multiply(
                    pc.multiply(
                        b.column("l_extendedprice"),
                        pc.subtract(1.0, b.column("l_discount")),
                    ),
                    100.0,
                )
            ),
            pa.int64(),
        )
        return pa.table({"l_orderkey": b.column("l_orderkey"), "_rev": rev})

    lineitem = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(rev_cents, batch_format="pyarrow", batch_size=None)
    revenue = grouped_sum(
        lineitem, key="l_orderkey", value_col="_rev", out_col="revenue_cents"
    )

    ord_schema = pq.read_schema(f"{sf_dir}/orders.parquet")
    joined = shuffle_join(
        revenue,
        orders,
        left_on="l_orderkey",
        right_on="o_orderkey",
        select=["l_orderkey", "revenue_cents", "o_orderdate", "o_orderpriority"],
        hot_keys=None,  # both sides unique per order key
        # explicit schemas: ds.schema() would EXECUTE the revenue exchange
        # a second time just to learn two column names (measured ~2×)
        left_schema=pa.schema(
            [("l_orderkey", pa.int64()), ("revenue_cents", pa.int64())]
        ),
        right_schema=pa.schema(
            [
                ("o_orderkey", ord_schema.field("o_orderkey").type),
                ("o_orderdate", ord_schema.field("o_orderdate").type),
                ("o_orderpriority", ord_schema.field("o_orderpriority").type),
            ]
        ),
    ).map_batches(
        lambda b: b.rename_columns(
            ["o_orderkey", "revenue_cents", "o_orderdate", "o_orderpriority"]
        ),
        batch_format="pyarrow",
        batch_size=None,
    )
    return top_k_by(
        joined, by="revenue_cents", k=10, tie_break="o_orderkey"
    )


def q5_local_supplier_volume(sf_dir: str):
    """TPC-H Q5-shaped composite (6-table star: region/nation dims driver-
    joined + broadcast, customer ⋈ orders through ONE shuffle-join exchange,
    supplier map broadcast into the lineitem scan with per-batch revenue
    pre-reduction, second shuffle join on order key, same-nation filter,
    tiny final rollup).  The two fact tables each cross exactly one
    exchange; dims ride `ray.put` once.  Supplier is broadcast because
    TPC-H sizes it at 1% of customers — if it outgrew worker memory the
    same step becomes a third shuffle_join on l_suppkey."""
    import datetime as dt

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray

    from airbyte_destination_ray.pipelines.ops import grouped_sum
    from airbyte_destination_ray.pipelines.relational import shuffle_join
    from airbyte_destination_ray.sources.parquet import read_parquet_sized

    lo, hi = dt.datetime(1996, 1, 1), dt.datetime(1997, 1, 1)

    # dims: nation ⋈ region, filtered to one region, driver-side (≤25 rows)
    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    region = pq.read_table(f"{sf_dir}/region.parquet")
    asia = region.filter(pc.equal(region.column("r_name"), "ASIA"))
    nat = nation.join(
        asia.select(["r_regionkey"]),
        keys="n_regionkey",
        right_keys="r_regionkey",
        join_type="inner",
    )
    nat_keys = np.sort(
        nat.column("n_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
    )
    nat_names = dict(
        zip(
            nat.column("n_nationkey").to_pylist(),
            nat.column("n_name").to_pylist(),
        )
    )

    # supplier → nationkey map, pruned to the region, broadcast once
    sup = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    s_key = sup.column("s_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
    s_nat = sup.column("s_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
    in_region = np.isin(s_nat, nat_keys)
    order_idx = np.argsort(s_key[in_region])
    sup_ref = ray.put((s_key[in_region][order_idx], s_nat[in_region][order_idx]))

    def cust_prep(b: pa.Table) -> pa.Table:
        nk = pc.cast(b.column("c_nationkey"), pa.int64())
        keep = np.isin(nk.to_numpy(zero_copy_only=False), nat_keys)
        return pa.table(
            {"c_custkey": b.column("c_custkey"), "c_nationkey": nk}
        ).filter(pa.array(keep))

    customer = read_parquet_sized(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(cust_prep, batch_format="pyarrow", batch_size=None)

    orders = read_parquet_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(
        lambda b: b.filter(
            pc.and_(
                pc.greater_equal(b.column("o_orderdate"), lo),
                pc.less(b.column("o_orderdate"), hi),
            )
        ).select(["o_orderkey", "o_custkey"]),
        batch_format="pyarrow",
        batch_size=None,
    )

    import pyarrow.parquet as _pq

    _osch = _pq.read_schema(f"{sf_dir}/orders.parquet")
    _csch = _pq.read_schema(f"{sf_dir}/customer.parquet")
    oc = shuffle_join(
        orders,
        customer,
        left_on="o_custkey",
        right_on="c_custkey",
        select=["o_orderkey", "c_nationkey"],
        hot_keys=None,  # uniform TPC-H custkeys
        left_schema=pa.schema(
            [
                ("o_orderkey", _osch.field("o_orderkey").type),
                ("o_custkey", _osch.field("o_custkey").type),
            ]
        ),
        right_schema=pa.schema(
            [
                ("c_custkey", _csch.field("c_custkey").type),
                ("c_nationkey", pa.int64()),
            ]
        ),
    )

    class _LineRev:
        """Broadcast supplier lookup + integer-cents revenue pre-reduce:
        the orderkey exchange carries one row per (order, nation, batch)."""

        def __init__(self):
            self.s_key, self.s_nat = ray.get(sup_ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            sk = b.column("l_suppkey").to_numpy(zero_copy_only=False)
            if len(self.s_key) == 0:
                ok = np.zeros(len(sk), dtype=bool)
                pos = np.zeros(len(sk), dtype=np.int64)
            else:
                pos = np.searchsorted(self.s_key, sk)
                ok = pos < len(self.s_key)
                ok &= self.s_key[np.clip(pos, 0, len(self.s_key) - 1)] == sk
            b = b.filter(pa.array(ok))
            if b.num_rows == 0:
                return pa.table(
                    {
                        "l_orderkey": pa.array([], type=pa.int64()),
                        "s_nationkey": pa.array([], type=pa.int64()),
                        "_rev": pa.array([], type=pa.int64()),
                    }
                )
            snat = self.s_nat[pos[ok]]
            rev = pc.cast(
                pc.floor(
                    pc.multiply(
                        pc.multiply(
                            b.column("l_extendedprice"),
                            pc.subtract(1.0, b.column("l_discount")),
                        ),
                        100.0,
                    )
                ),
                pa.int64(),
            )
            t = pa.table(
                {
                    "l_orderkey": b.column("l_orderkey"),
                    "s_nationkey": pa.array(snat),
                    "_rev": rev,
                }
            )
            agg = t.group_by(["l_orderkey", "s_nationkey"]).aggregate(
                [("_rev", "sum")]
            )
            return agg.rename_columns(["l_orderkey", "s_nationkey", "_rev"])

    lineitem = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(
        _LineRev, batch_format="pyarrow", batch_size=None, concurrency=(1, 8)
    )

    joined = shuffle_join(
        oc,
        lineitem,
        left_on="o_orderkey",
        right_on="l_orderkey",
        select=["c_nationkey", "s_nationkey", "_rev"],
        hot_keys=None,  # ≤7 lineitems per order; no skew possible
        # oc is itself a shuffle-join output: ds.schema() would execute the
        # whole first exchange again just to list these two columns
        left_schema=pa.schema(
            [
                ("o_orderkey", _osch.field("o_orderkey").type),
                ("c_nationkey", pa.int64()),
            ]
        ),
        right_schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("s_nationkey", pa.int64()),
                ("_rev", pa.int64()),
            ]
        ),
    )

    def same_nation(b: pa.Table) -> pa.Table:
        keep = pc.equal(b.column("c_nationkey"), b.column("s_nationkey"))
        b = b.filter(keep)
        return pa.table(
            {"n_nationkey": b.column("s_nationkey"), "_rev": b.column("_rev")}
        )

    per_nation = grouped_sum(
        joined.map_batches(same_nation, batch_format="pyarrow", batch_size=None),
        key="n_nationkey",
        value_col="_rev",
        out_col="revenue_cents",
    )

    def name_it(b: pa.Table) -> pa.Table:
        names = [nat_names[k] for k in b.column("n_nationkey").to_pylist()]
        return pa.table(
            {
                "n_name": pa.array(names, type=pa.string()),
                "revenue_cents": b.column("revenue_cents"),
            }
        )

    return per_nation.map_batches(
        name_it, batch_format="pyarrow", batch_size=None
    )


def q14_promo_revenue_ratio(sf_dir: str):
    """TPC-H Q14-shaped promo-revenue share: date-windowed lineitem scan
    with the part-type flag broadcast (searchsorted lookup, no join
    exchange), exact integer-cents partials, ONE division at the end."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    import datetime as dt

    lo = dt.datetime(1996, 1, 1)
    hi = dt.datetime(1997, 1, 1)

    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    )
    promo_keys = np.sort(
        part.filter(pc.equal(part.column("p_type"), "PROMO"))
        .column("p_partkey")
        .to_numpy(zero_copy_only=False)
    )

    def partial(b: "pa.Table") -> "pa.Table":
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        keep = pc.and_(
            pc.greater_equal(b.column("l_shipdate"), lo),
            pc.less(b.column("l_shipdate"), hi),
        )
        b = b.filter(keep)
        cents = pc.cast(
            pc.floor(
                pc.multiply(
                    pc.multiply(
                        b.column("l_extendedprice"),
                        pc.subtract(1.0, b.column("l_discount")),
                    ),
                    100.0,
                )
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        pk = b.column("l_partkey").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(promo_keys, pk)
        pos_c = np.clip(pos, 0, max(0, len(promo_keys) - 1))
        is_promo = (
            (promo_keys[pos_c] == pk) if len(promo_keys) else
            np.zeros(len(pk), dtype=bool)
        )
        return pa.table(
            {
                "_p": pa.array(
                    [int(cents[is_promo].sum())], type=pa.int64()
                ),
                "_t": pa.array([int(cents.sum())], type=pa.int64()),
            }
        )

    from airbyte_destination_ray.sources.parquet import read_parquet_sized

    parts = pa.concat_tables(
        list(
            read_parquet_sized(
                f"{sf_dir}/lineitem.parquet",
                columns=[
                    "l_partkey",
                    "l_extendedprice",
                    "l_discount",
                    "l_shipdate",
                ],
            )
            .map_batches(partial, batch_format="pyarrow", batch_size=None)
            .iter_batches(batch_format="pyarrow")
        )
    )
    promo = int(pc.sum(parts.column("_p")).as_py() or 0)
    total = int(pc.sum(parts.column("_t")).as_py() or 0)
    return pa.table(
        {
            "promo_cents": pa.array([promo], type=pa.int64()),
            "total_cents": pa.array([total], type=pa.int64()),
            "promo_pct": pa.array(
                [(100.0 * float(promo)) / float(total)], type=pa.float64()
            ),
        }
    )


def q4_priority_late_orders(sf_dir: str):
    """TPC-H Q4-shaped composite: orders with ANY lineitem shipped more
    than 60 days after the order date, counted per priority.  EXISTS is
    rewritten as per-order MAX(shipdate) (partition-level grouped max) →
    one unique-key shuffle join → vectorized date filter → tiny rollup."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from airbyte_destination_ray.pipelines.ops import grouped_count, grouped_max
    from airbyte_destination_ray.pipelines.relational import shuffle_join
    from airbyte_destination_ray.sources.parquet import read_parquet_sized

    li_max = grouped_max(
        read_parquet_sized(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_orderkey", "l_shipdate"],
        ),
        key="l_orderkey",
        value_col="l_shipdate",
        out_col="max_ship",
    )
    ords = read_parquet_sized(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )
    joined = shuffle_join(
        ords,
        li_max,
        left_on="o_orderkey",
        right_on="l_orderkey",
        select=["o_orderdate", "o_orderpriority", "max_ship"],
        hot_keys=None,  # order keys unique on both sides
        left_schema=pa.schema(
            [
                ("o_orderkey", pa.int64()),
                ("o_orderdate", pa.timestamp("us")),
                ("o_orderpriority", pa.string()),
            ]
        ),
        right_schema=pa.schema(
            [("l_orderkey", pa.int64()), ("max_ship", pa.timestamp("us"))]
        ),
    )

    def late(b: "pa.Table") -> "pa.Table":
        keep = pc.fill_null(
            pc.greater(
                pc.cast(b.column("max_ship"), pa.int64()),
                pc.add(
                    pc.cast(b.column("o_orderdate"), pa.int64()),
                    60 * 86_400_000_000,
                ),
            ),
            False,
        )
        return b.filter(keep).select(["o_orderpriority"])

    return grouped_count(
        joined.map_batches(late, batch_format="pyarrow", batch_size=None),
        key="o_orderpriority",
        out_col="n_orders",
    )


def q7_nation_trade_by_year(sf_dir: str):
    """TPC-H Q7-shaped composite (two-nation trade volume by ship year):
    supplier side resolved with a broadcast tag lookup (supplier is the
    small dimension), customer side through a shuffle join (customer
    scales with the fact tables), lineitem pre-aggregated to integer
    cents per (order, year, supplier-nation) before its exchange, final
    rollup partition-level over the tiny (pair, year) key space."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from airbyte_destination_ray.pipelines.relational import shuffle_join
    from airbyte_destination_ray.sources.parquet import read_parquet_sized

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    keys = dict(
        zip(
            nation.column("n_name").to_pylist(),
            nation.column("n_nationkey").to_pylist(),
        )
    )
    nk1, nk2 = keys["NATION_1"], keys["NATION_2"]

    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    snk = supp.column("s_nationkey").to_numpy(zero_copy_only=False)
    skeys = supp.column("s_suppkey").to_numpy(zero_copy_only=False)
    supp1 = pa.array(np.sort(skeys[snk == nk1]), type=pa.int64())
    supp2 = pa.array(np.sort(skeys[snk == nk2]), type=pa.int64())

    def li_partial(b: "pa.Table") -> "pa.Table":
        sk = b.column("l_suppkey").combine_chunks()
        t1 = pc.fill_null(pc.is_in(sk, value_set=supp1), False)
        t2 = pc.fill_null(pc.is_in(sk, value_set=supp2), False)
        stag = pc.add(
            pc.cast(t1, pa.int64()),
            pc.multiply(pc.cast(t2, pa.int64()), 2),
        )
        keep = pc.greater(stag, 0)
        t = pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "_stag": stag,
                "_year": pc.cast(pc.year(b.column("l_shipdate")), pa.int64()),
                "_cents": pc.cast(
                    pc.floor(
                        pc.multiply(
                            pc.multiply(
                                b.column("l_extendedprice"),
                                pc.subtract(1.0, b.column("l_discount")),
                            ),
                            100.0,
                        )
                    ),
                    pa.int64(),
                ),
            }
        ).filter(keep)
        return (
            t.group_by(["l_orderkey", "_stag", "_year"])
            .aggregate([("_cents", "sum")])
            .rename_columns(["l_orderkey", "_stag", "_year", "_cents"])
        )

    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_orderkey", "l_suppkey", "l_shipdate",
            "l_extendedprice", "l_discount",
        ],
    ).map_batches(li_partial, batch_format="pyarrow", batch_size=None)

    def cust_tag(b: "pa.Table") -> "pa.Table":
        nkv = pc.cast(b.column("c_nationkey"), pa.int64())
        t1 = pc.fill_null(pc.equal(nkv, nk1), False)
        t2 = pc.fill_null(pc.equal(nkv, nk2), False)
        ctag = pc.add(
            pc.cast(t1, pa.int64()),
            pc.multiply(pc.cast(t2, pa.int64()), 2),
        )
        return pa.table(
            {"c_custkey": b.column("c_custkey"), "_ctag": ctag}
        ).filter(pc.greater(ctag, 0))

    cust = read_parquet_sized(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(cust_tag, batch_format="pyarrow", batch_size=None)

    ords = shuffle_join(
        read_parquet_sized(
            f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
        ),
        cust,
        left_on="o_custkey",
        right_on="c_custkey",
        select=["o_orderkey", "_ctag"],
        hot_keys=None,  # custkeys unique on the right, FK on the left
        left_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("o_custkey", pa.int64())]
        ),
        right_schema=pa.schema(
            [("c_custkey", pa.int64()), ("_ctag", pa.int64())]
        ),
    )

    joined = shuffle_join(
        li,
        ords,
        left_on="l_orderkey",
        right_on="o_orderkey",
        select=["_stag", "_ctag", "_year", "_cents"],
        hot_keys=None,
        left_schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("_stag", pa.int64()),
                ("_year", pa.int64()),
                ("_cents", pa.int64()),
            ]
        ),
        right_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("_ctag", pa.int64())]
        ),
    )

    name1, name2 = "NATION_1", "NATION_2"

    def rollup_partial(b: "pa.Table") -> "pa.Table":
        keep = pc.and_(
            pc.not_equal(b.column("_stag"), b.column("_ctag")),
            pc.and_(
                pc.less_equal(b.column("_stag"), 2),
                pc.less_equal(b.column("_ctag"), 2),
            ),
        )
        t = b.filter(keep)
        return (
            t.group_by(["_stag", "_ctag", "_year"])
            .aggregate([("_cents", "sum")])
            .rename_columns(["_stag", "_ctag", "_year", "_cents"])
        )

    def final(group: "pa.Table") -> "pa.Table":
        g = (
            group.drop_columns(["_rpart"])
            .group_by(["_stag", "_ctag", "_year"])
            .aggregate([("_cents", "sum")])
            .rename_columns(["_stag", "_ctag", "_year", "_cents"])
        )
        stag = g.column("_stag").to_numpy(zero_copy_only=False)
        ctag = g.column("_ctag").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "supp_nation": pa.array(
                    np.where(stag == 1, name1, name2), type=pa.string()
                ),
                "cust_nation": pa.array(
                    np.where(ctag == 1, name1, name2), type=pa.string()
                ),
                "l_year": g.column("_year"),
                "revenue_cents": g.column("_cents").cast(pa.int64()),
            }
        )

    def route(b: "pa.Table") -> "pa.Table":
        from airbyte_destination_ray.functions.hashing import partition_ids

        parts = partition_ids(b.column("_year"), 8)
        return b.append_column("_rpart", pa.array(parts, type=pa.int64()))

    return (
        joined.map_batches(rollup_partial, batch_format="pyarrow", batch_size=None)
        .map_batches(route, batch_format="pyarrow", batch_size=None)
        .groupby("_rpart")
        .map_groups(final, batch_format="pyarrow")
    )


def q8_market_share_by_year(sf_dir: str):
    """TPC-H Q8-shaped composite (NATION_3 suppliers' market share of
    PROMO-part revenue among ASIA customers, by order year): part filter
    through a streaming shuffle join (part scales with the facts; no
    bloom — the filtered part side is the SMALL one, so a bloom of the
    huge lineitem keys would cost more than it prunes), orders enriched
    with year, ASIA customers through a second
    shuffle join, supplier nation as a broadcast tag, conditional cents
    sums per year, ONE IEEE division for the share."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from airbyte_destination_ray.pipelines.relational import shuffle_join
    from airbyte_destination_ray.sources.parquet import read_parquet_sized

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet",
        columns=["n_nationkey", "n_name", "n_regionkey"],
    )
    region = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    )
    rk_asia = region.column("r_regionkey")[
        region.column("r_name").to_pylist().index("ASIA")
    ].as_py()
    nmap = dict(
        zip(
            nation.column("n_name").to_pylist(),
            nation.column("n_nationkey").to_pylist(),
        )
    )
    nk3 = nmap["NATION_3"]
    asia_nations = pa.array(
        sorted(
            nation.filter(
                pc.equal(nation.column("n_regionkey"), rk_asia)
            ).column("n_nationkey").to_pylist()
        ),
        type=pa.int64(),
    )
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    snk = supp.column("s_nationkey").to_numpy(zero_copy_only=False)
    skeys = supp.column("s_suppkey").to_numpy(zero_copy_only=False)
    supp3 = pa.array(np.sort(skeys[snk == nk3]), type=pa.int64())

    def li_prep(b: "pa.Table") -> "pa.Table":
        hit = pc.fill_null(
            pc.is_in(b.column("l_suppkey").combine_chunks(), value_set=supp3),
            False,
        )
        return pa.table(
            {
                "l_partkey": b.column("l_partkey"),
                "l_orderkey": b.column("l_orderkey"),
                "_is3": pc.cast(hit, pa.int64()),
                "_cents": pc.cast(
                    pc.floor(
                        pc.multiply(
                            pc.multiply(
                                b.column("l_extendedprice"),
                                pc.subtract(1.0, b.column("l_discount")),
                            ),
                            100.0,
                        )
                    ),
                    pa.int64(),
                ),
            }
        )

    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_partkey", "l_orderkey", "l_suppkey",
            "l_extendedprice", "l_discount",
        ],
    ).map_batches(li_prep, batch_format="pyarrow", batch_size=None)

    promo = read_parquet_sized(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    ).map_batches(
        lambda b: b.filter(
            pc.fill_null(pc.equal(b.column("p_type"), "PROMO"), False)
        ).select(["p_partkey"]),
        batch_format="pyarrow",
        batch_size=None,
    )

    li_promo = shuffle_join(
        li,
        promo,
        left_on="l_partkey",
        right_on="p_partkey",
        select=["l_orderkey", "_is3", "_cents"],
        hot_keys=None,
        left_schema=pa.schema(
            [
                ("l_partkey", pa.int64()),
                ("l_orderkey", pa.int64()),
                ("_is3", pa.int64()),
                ("_cents", pa.int64()),
            ]
        ),
        right_schema=pa.schema([("p_partkey", pa.int64())]),
    )

    def cust_asia(b: "pa.Table") -> "pa.Table":
        hit = pc.fill_null(
            pc.is_in(
                pc.cast(b.column("c_nationkey"), pa.int64()),
                value_set=asia_nations,
            ),
            False,
        )
        return b.filter(hit).select(["c_custkey"])

    cust = read_parquet_sized(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(cust_asia, batch_format="pyarrow", batch_size=None)

    ords = shuffle_join(
        read_parquet_sized(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_custkey", "o_orderdate"],
        ),
        cust,
        left_on="o_custkey",
        right_on="c_custkey",
        select=["o_orderkey", "o_orderdate"],
        hot_keys=None,
        left_schema=pa.schema(
            [
                ("o_orderkey", pa.int64()),
                ("o_custkey", pa.int64()),
                ("o_orderdate", pa.timestamp("us")),
            ]
        ),
        right_schema=pa.schema([("c_custkey", pa.int64())]),
    ).map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": b.column("o_orderkey"),
                "_year": pc.cast(pc.year(b.column("o_orderdate")), pa.int64()),
            }
        ),
        batch_format="pyarrow",
        batch_size=None,
    )

    joined = shuffle_join(
        li_promo,
        ords,
        left_on="l_orderkey",
        right_on="o_orderkey",
        select=["_is3", "_cents", "_year"],
        hot_keys=None,
        left_schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("_is3", pa.int64()),
                ("_cents", pa.int64()),
            ]
        ),
        right_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("_year", pa.int64())]
        ),
    )

    def partial(b: "pa.Table") -> "pa.Table":
        t = pa.table(
            {
                "_year": b.column("_year"),
                "_nat": pc.multiply(b.column("_is3"), b.column("_cents")),
                "_tot": b.column("_cents"),
            }
        )
        return (
            t.group_by("_year")
            .aggregate([("_nat", "sum"), ("_tot", "sum")])
            .rename_columns(["_year", "_nat", "_tot"])
        )

    def final(group: "pa.Table") -> "pa.Table":
        g = (
            group.drop_columns(["_rpart"])
            .group_by("_year")
            .aggregate([("_nat", "sum"), ("_tot", "sum")])
            .rename_columns(["_year", "_nat", "_tot"])
        )
        nat = g.column("_nat").to_numpy(zero_copy_only=False).astype(np.int64)
        tot = g.column("_tot").to_numpy(zero_copy_only=False).astype(np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            share = nat.astype(np.float64) / tot.astype(np.float64)
        ok = tot != 0
        return pa.table(
            {
                "o_year": g.column("_year"),
                "nation_cents": pa.array(nat, type=pa.int64()),
                "total_cents": pa.array(tot, type=pa.int64()),
                "mkt_share": pa.array(share, type=pa.float64(), mask=~ok),
            }
        )

    def route(b: "pa.Table") -> "pa.Table":
        from airbyte_destination_ray.functions.hashing import partition_ids

        parts = partition_ids(b.column("_year"), 8)
        return b.append_column("_rpart", pa.array(parts, type=pa.int64()))

    return (
        joined.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .map_batches(route, batch_format="pyarrow", batch_size=None)
        .groupby("_rpart")
        .map_groups(final, batch_format="pyarrow")
    )


def q6_discount_revenue(sf_dir: str):
    """TPC-H Q6-shaped forecast-revenue scan: pure column-pruned filter +
    per-batch integer-cents partial sums, ONE tiny fold — the zero-shuffle
    aggregate baseline."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.compute as pc

    from airbyte_destination_ray.sources.parquet import read_parquet_sized

    lo, hi = dt.datetime(1997, 1, 1), dt.datetime(1998, 1, 1)

    def partial(b: "pa.Table") -> "pa.Table":
        keep = pc.and_(
            pc.and_(
                pc.and_(
                    pc.greater_equal(b.column("l_shipdate"), lo),
                    pc.less(b.column("l_shipdate"), hi),
                ),
                pc.and_(
                    pc.greater_equal(b.column("l_discount"), 0.05),
                    pc.less_equal(b.column("l_discount"), 0.07),
                ),
            ),
            pc.less(b.column("l_quantity"), 24.0),
        )
        t = b.filter(pc.fill_null(keep, False))
        if t.num_rows == 0:
            # no partial row: SQL SUM over the empty set is NULL, so an
            # all-miss dataset must fold to a null, not 0
            return pa.table({"_s": pa.array([], type=pa.int64())})
        cents = pc.cast(
            pc.floor(
                pc.multiply(
                    pc.multiply(
                        t.column("l_extendedprice"), t.column("l_discount")
                    ),
                    100.0,
                )
            ),
            pa.int64(),
        )
        s = pc.sum(cents).as_py()
        return pa.table({"_s": pa.array([int(s or 0)], type=pa.int64())})

    def final(batch: "pa.Table") -> "pa.Table":
        if batch.num_rows == 0:
            return pa.table(
                {"revenue_cents": pa.array([None], type=pa.int64())}
            )
        tot = int(batch.column("_s").to_numpy(zero_copy_only=False).sum())
        return pa.table(
            {"revenue_cents": pa.array([tot], type=pa.int64())}
        )

    return (
        read_parquet_sized(
            f"{sf_dir}/lineitem.parquet",
            columns=[
                "l_shipdate", "l_discount", "l_quantity", "l_extendedprice",
            ],
        )
        .map_batches(partial, batch_format="pyarrow", batch_size=None)
        .repartition(1)
        .map_batches(final, batch_format="pyarrow", batch_size=None)
    )


def q13_customer_order_histogram(sf_dir: str):
    """TPC-H Q13-shaped customer order-count distribution (including the
    zero-order bucket): partition-level per-customer counts, per-batch
    count histograms, zero bucket from two aggregate scalars — no
    customer⋈orders join needed (order custkeys are FK-valid, pinned by
    the fk audit query)."""
    import numpy as np
    import pyarrow as pa

    from airbyte_destination_ray.pipelines.ops import grouped_count
    from airbyte_destination_ray.sources.parquet import read_parquet_sized

    counts = grouped_count(
        read_parquet_sized(f"{sf_dir}/orders.parquet", columns=["o_custkey"]),
        key="o_custkey",
        out_col="c_count",
    ).materialize()  # consumed twice: the scalar count + the histogram
    n_customers = read_parquet_sized(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    ).count()
    n_with_orders = counts.count()
    n_zero = n_customers - n_with_orders

    def hist_partial(b: "pa.Table") -> "pa.Table":
        v = b.column("c_count").to_numpy(zero_copy_only=False)
        vals, cnt = np.unique(v, return_counts=True)
        return pa.table(
            {
                "c_count": pa.array(vals.astype(np.int64), type=pa.int64()),
                "_n": pa.array(cnt.astype(np.int64), type=pa.int64()),
            }
        )

    def final(batch: "pa.Table") -> "pa.Table":
        g = (
            batch.group_by("c_count")
            .aggregate([("_n", "sum")])
            .rename_columns(["c_count", "n_customers"])
        )
        g = pa.table(
            {
                "c_count": g.column("c_count"),
                "n_customers": g.column("n_customers").cast(pa.int64()),
            }
        )
        if n_zero > 0:
            g = pa.concat_tables(
                [
                    g,
                    pa.table(
                        {
                            "c_count": pa.array([0], type=pa.int64()),
                            "n_customers": pa.array(
                                [n_zero], type=pa.int64()
                            ),
                        }
                    ),
                ]
            )
        return g

    return (
        counts.map_batches(hist_partial, batch_format="pyarrow", batch_size=None)
        .repartition(1)
        .map_batches(final, batch_format="pyarrow", batch_size=None)
    )


def q17_small_qty_revenue(sf_dir: str):
    """TPC-H Q17-shaped small-quantity revenue: Brand#13 lineitems through
    a streaming shuffle join (both sides stream — see the Q8 bloom note),
    then ONE partkey exchange whose
    groups compute the per-part quantity mean AND apply the
    below-one-fifth filter in place (co-location makes the correlated
    aggregate local — no second pass, no threshold join)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from airbyte_destination_ray.pipelines.relational import shuffle_join
    from airbyte_destination_ray.sources.parquet import read_parquet_sized

    def li_prep(b: "pa.Table") -> "pa.Table":
        return pa.table(
            {
                "l_partkey": b.column("l_partkey"),
                "_qi": pc.cast(
                    pc.floor(pc.multiply(b.column("l_quantity"), 100.0)),
                    pa.int64(),
                ),
                "_pc": pc.cast(
                    pc.floor(
                        pc.multiply(b.column("l_extendedprice"), 100.0)
                    ),
                    pa.int64(),
                ),
            }
        )

    li = read_parquet_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    ).map_batches(li_prep, batch_format="pyarrow", batch_size=None)

    brand = read_parquet_sized(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"]
    ).map_batches(
        lambda b: b.filter(
            pc.fill_null(pc.equal(b.column("p_brand"), "Brand#13"), False)
        ).select(["p_partkey"]),
        batch_format="pyarrow",
        batch_size=None,
    )

    li_brand = shuffle_join(
        li,
        brand,
        left_on="l_partkey",
        right_on="p_partkey",
        select=["l_partkey", "_qi", "_pc"],
        hot_keys=None,
        left_schema=pa.schema(
            [
                ("l_partkey", pa.int64()),
                ("_qi", pa.int64()),
                ("_pc", pa.int64()),
            ]
        ),
        right_schema=pa.schema([("p_partkey", pa.int64())]),
    )

    def route(b: "pa.Table") -> "pa.Table":
        from airbyte_destination_ray.functions.hashing import partition_ids

        parts = partition_ids(b.column("l_partkey"), 64)
        return b.append_column("_part", pa.array(parts, type=pa.int64()))

    def group_filter(group: "pa.Table") -> "pa.Table":
        g = group.drop_columns(["_part"])
        idx = pc.sort_indices(g, sort_keys=[("l_partkey", "ascending")])
        g = g.take(idx)
        n = g.num_rows
        if n == 0:
            return pa.table({"_s": pa.array([], type=pa.int64())})
        keys = g.column("l_partkey").to_numpy(zero_copy_only=False)
        qi = g.column("_qi").to_numpy(zero_copy_only=False).astype(np.int64)
        pcv = g.column("_pc").to_numpy(zero_copy_only=False).astype(np.int64)
        start = np.ones(n, dtype=bool)
        if n > 1:
            start[1:] = keys[1:] != keys[:-1]
        si = np.flatnonzero(start)
        seg_id = np.cumsum(start) - 1
        cnt = np.add.reduceat(np.ones(n, dtype=np.int64), si)
        sq = np.add.reduceat(qi, si)
        thr = 0.2 * (sq.astype(np.float64) / cnt.astype(np.float64))
        keep = qi.astype(np.float64) < thr[seg_id]
        if not keep.any():
            return pa.table({"_s": pa.array([], type=pa.int64())})
        return pa.table(
            {"_s": pa.array([int(pcv[keep].sum())], type=pa.int64())}
        )

    def final(batch: "pa.Table") -> "pa.Table":
        if batch.num_rows == 0:
            # SQL SUM over the empty set is NULL
            return pa.table(
                {
                    "revenue_cents": pa.array([None], type=pa.int64()),
                    "avg_yearly_cents": pa.array([None], type=pa.float64()),
                }
            )
        tot = int(batch.column("_s").to_numpy(zero_copy_only=False).sum())
        return pa.table(
            {
                "revenue_cents": pa.array([tot], type=pa.int64()),
                "avg_yearly_cents": pa.array(
                    [float(tot) / 7.0], type=pa.float64()
                ),
            }
        )

    return (
        li_brand.map_batches(route, batch_format="pyarrow", batch_size=None)
        .groupby("_part")
        .map_groups(group_filter, batch_format="pyarrow")
        .repartition(1)
        .map_batches(final, batch_format="pyarrow", batch_size=None)
    )
