"""Scan-centric reimplementations of the 22 TPC-H query templates.

Each factory takes a seeded ``numpy`` RNG and returns a concrete
:class:`~repro.engine.query.QuerySpec`.  The templates preserve what the
paper's mechanism cares about: which tables are scanned, over which
(date-clustered, hotspot-biased) ranges, with what predicate selectivity
and per-row CPU weight.  Join/sort work above the scans is folded into
``extra_units_per_row``, keeping every query's CPU:I/O balance close to
its TPC-H original (Q1 CPU-bound, Q6 I/O-bound, etc.).

Date-range parameters are drawn with a recency bias — the paper's
motivating observation is that analysts concentrate on the most recent
year or month of a warehouse, which is what creates overlapping scans.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.engine.expressions import col, lit
from repro.engine.operators import AggSpec
from repro.engine.query import HashJoin, QuerySpec, ScanStep
from repro.workloads.tpch_schema import DATE_RANGE_DAYS, YEAR_START

QueryFactory = Callable[[np.random.Generator], QuerySpec]

#: Recency-biased sampling weights for the seven data years.
_YEAR_WEIGHTS = np.array([0.04, 0.05, 0.07, 0.10, 0.16, 0.25, 0.33])
_YEARS = sorted(YEAR_START)


def _pick_year(rng: np.random.Generator) -> int:
    """Draw a year, biased toward the warehouse's most recent data."""
    return int(rng.choice(_YEARS, p=_YEAR_WEIGHTS))


def _year_range(year: int, days: float = 365.0) -> Tuple[float, float]:
    """Day-number range starting at ``year`` and spanning ``days``."""
    start = YEAR_START[year]
    return (start, min(start + days, DATE_RANGE_DAYS))


def _revenue():
    return col("l_extendedprice") * (lit(1.0) - col("l_discount"))


def _charge():
    return _revenue() * (lit(1.0) + col("l_tax"))


def q1(rng: np.random.Generator) -> QuerySpec:
    """Pricing summary report: near-full lineitem scan, heavy aggregation."""
    delta = float(rng.integers(60, 121))
    return QuerySpec(
        name="Q1",
        steps=(
            ScanStep(
                table="lineitem",
                cluster_range=(0.0, DATE_RANGE_DAYS - delta),
                group_by=("l_returnflag", "l_linestatus"),
                aggregates=(
                    AggSpec("sum_qty", "sum", col("l_quantity")),
                    AggSpec("sum_base_price", "sum", col("l_extendedprice")),
                    AggSpec("sum_disc_price", "sum", _revenue()),
                    AggSpec("sum_charge", "sum", _charge()),
                    AggSpec("avg_qty", "avg", col("l_quantity")),
                    AggSpec("avg_price", "avg", col("l_extendedprice")),
                    AggSpec("avg_disc", "avg", col("l_discount")),
                    AggSpec("count_order", "count"),
                ),
                # Q1's dominant cost in real engines is per-row decimal
                # arithmetic and expression evaluation; this weight makes
                # the template genuinely CPU-bound, as the paper requires
                # for its CPU-intensive staggered experiment.
                extra_units_per_row=60.0,
                label="lineitem",
            ),
        ),
    )


def q2(rng: np.random.Generator) -> QuerySpec:
    """Minimum-cost supplier: part + partsupp + supplier scans."""
    size = int(rng.integers(1, 51))
    return QuerySpec(
        name="Q2",
        steps=(
            ScanStep(
                table="part",
                predicate=col("p_size").eq(lit(size)),
                aggregates=(AggSpec("parts", "count"),),
                extra_units_per_row=2.0,
                label="part",
            ),
            ScanStep(
                table="partsupp",
                aggregates=(AggSpec("min_cost", "min", col("ps_supplycost")),),
                extra_units_per_row=4.0,
                label="partsupp",
            ),
            ScanStep(
                table="supplier",
                aggregates=(AggSpec("suppliers", "count"),),
                label="supplier",
            ),
        ),
    )


def q3(rng: np.random.Generator) -> QuerySpec:
    """Shipping priority: customer + orders + lineitem on a recent window."""
    year = _pick_year(rng)
    lo, hi = _year_range(year, days=120.0)
    segment = str(
        rng.choice(["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"])
    )
    return QuerySpec(
        name="Q3",
        steps=(
            ScanStep(
                table="customer",
                predicate=col("c_mktsegment").eq(lit(segment)),
                aggregates=(AggSpec("customers", "count"),),
                label="customer",
            ),
            ScanStep(
                table="orders",
                cluster_range=(lo, hi),
                aggregates=(AggSpec("orders", "count"),),
                extra_units_per_row=3.0,
                label="orders",
            ),
            ScanStep(
                table="lineitem",
                cluster_range=(lo, hi + 30.0),
                aggregates=(AggSpec("revenue", "sum", _revenue()),),
                extra_units_per_row=3.0,
                label="lineitem",
            ),
        ),
    )


def q4(rng: np.random.Generator) -> QuerySpec:
    """Order priority checking: one quarter of orders + lineitem probe."""
    year = _pick_year(rng)
    lo, hi = _year_range(year, days=92.0)
    return QuerySpec(
        name="Q4",
        steps=(
            ScanStep(
                table="orders",
                cluster_range=(lo, hi),
                group_by=("o_orderpriority",),
                aggregates=(AggSpec("order_count", "count"),),
                label="orders",
            ),
            ScanStep(
                table="lineitem",
                cluster_range=(lo, hi + 30.0),
                predicate=col("l_commitdate") < col("l_receiptdate"),
                aggregates=(AggSpec("late", "count"),),
                extra_units_per_row=2.0,
                label="lineitem",
            ),
        ),
    )


def q5(rng: np.random.Generator) -> QuerySpec:
    """Local supplier volume: one year across four tables."""
    year = _pick_year(rng)
    lo, hi = _year_range(year)
    return QuerySpec(
        name="Q5",
        steps=(
            ScanStep(
                table="customer",
                aggregates=(AggSpec("customers", "count"),),
                label="customer",
            ),
            ScanStep(
                table="orders",
                cluster_range=(lo, hi),
                aggregates=(AggSpec("orders", "count"),),
                extra_units_per_row=3.0,
                label="orders",
            ),
            ScanStep(
                table="lineitem",
                cluster_range=(lo, hi),
                aggregates=(AggSpec("revenue", "sum", _revenue()),),
                extra_units_per_row=5.0,
                label="lineitem",
            ),
            ScanStep(
                table="supplier",
                aggregates=(AggSpec("suppliers", "count"),),
                label="supplier",
            ),
        ),
    )


def q6(rng: np.random.Generator) -> QuerySpec:
    """Forecasting revenue change: the I/O-bound staple — one year of
    lineitem, a cheap predicate, a single aggregate."""
    year = _pick_year(rng)
    lo, hi = _year_range(year)
    discount = float(rng.uniform(0.02, 0.09))
    quantity = int(rng.integers(24, 26))
    return QuerySpec(
        name="Q6",
        steps=(
            ScanStep(
                table="lineitem",
                cluster_range=(lo, hi),
                predicate=(
                    col("l_discount").between(discount - 0.01, discount + 0.01)
                    & (col("l_quantity") < lit(quantity))
                ),
                aggregates=(
                    AggSpec("revenue", "sum", col("l_extendedprice") * col("l_discount")),
                ),
                label="lineitem",
            ),
        ),
    )


def q7(rng: np.random.Generator) -> QuerySpec:
    """Volume shipping: two years of lineitem plus dimension scans."""
    year = min(_pick_year(rng), 1997)
    lo, hi = _year_range(year, days=730.0)
    return QuerySpec(
        name="Q7",
        steps=(
            ScanStep(
                table="supplier",
                aggregates=(AggSpec("suppliers", "count"),),
                label="supplier",
            ),
            ScanStep(
                table="lineitem",
                cluster_range=(lo, hi),
                aggregates=(AggSpec("volume", "sum", _revenue()),),
                extra_units_per_row=4.0,
                label="lineitem",
            ),
            ScanStep(
                table="customer",
                aggregates=(AggSpec("customers", "count"),),
                extra_units_per_row=2.0,
                label="customer",
            ),
        ),
    )


def q8(rng: np.random.Generator) -> QuerySpec:
    """National market share: part + two years of orders and lineitem."""
    lo, hi = _year_range(1995, days=730.0)
    return QuerySpec(
        name="Q8",
        steps=(
            ScanStep(
                table="part",
                predicate=col("p_type").eq(lit("ECONOMY")),
                aggregates=(AggSpec("parts", "count"),),
                label="part",
            ),
            ScanStep(
                table="orders",
                cluster_range=(lo, hi),
                aggregates=(AggSpec("orders", "count"),),
                extra_units_per_row=3.0,
                label="orders",
            ),
            ScanStep(
                table="lineitem",
                cluster_range=(lo, hi),
                aggregates=(AggSpec("volume", "sum", _revenue()),),
                extra_units_per_row=5.0,
                label="lineitem",
            ),
        ),
    )


def q9(rng: np.random.Generator) -> QuerySpec:
    """Product type profit: full lineitem with heavy join work."""
    return QuerySpec(
        name="Q9",
        steps=(
            ScanStep(
                table="part",
                aggregates=(AggSpec("parts", "count"),),
                label="part",
            ),
            ScanStep(
                table="partsupp",
                aggregates=(AggSpec("avg_cost", "avg", col("ps_supplycost")),),
                extra_units_per_row=3.0,
                label="partsupp",
            ),
            ScanStep(
                table="lineitem",
                aggregates=(
                    AggSpec(
                        "profit",
                        "sum",
                        _revenue() - col("l_quantity") * lit(1.0),
                    ),
                ),
                extra_units_per_row=8.0,
                label="lineitem",
            ),
        ),
    )


def q10(rng: np.random.Generator) -> QuerySpec:
    """Returned items: one quarter, returnflag filter."""
    year = _pick_year(rng)
    lo, hi = _year_range(year, days=92.0)
    return QuerySpec(
        name="Q10",
        steps=(
            ScanStep(
                table="customer",
                aggregates=(AggSpec("customers", "count"),),
                label="customer",
            ),
            ScanStep(
                table="orders",
                cluster_range=(lo, hi),
                aggregates=(AggSpec("orders", "count"),),
                extra_units_per_row=2.0,
                label="orders",
            ),
            ScanStep(
                table="lineitem",
                cluster_range=(lo, hi + 90.0),
                predicate=col("l_returnflag").eq(lit("R")),
                aggregates=(AggSpec("revenue", "sum", _revenue()),),
                extra_units_per_row=3.0,
                label="lineitem",
            ),
        ),
    )


def q11(rng: np.random.Generator) -> QuerySpec:
    """Important stock identification: partsupp + supplier."""
    return QuerySpec(
        name="Q11",
        steps=(
            ScanStep(
                table="partsupp",
                aggregates=(
                    AggSpec(
                        "value",
                        "sum",
                        col("ps_supplycost") * col("ps_availqty"),
                    ),
                ),
                extra_units_per_row=3.0,
                label="partsupp",
            ),
            ScanStep(
                table="supplier",
                aggregates=(AggSpec("suppliers", "count"),),
                label="supplier",
            ),
        ),
    )


def q12(rng: np.random.Generator) -> QuerySpec:
    """Shipping modes: one year of lineitem with an IN predicate."""
    year = _pick_year(rng)
    lo, hi = _year_range(year)
    modes = [str(m) for m in rng.choice(
        ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"], size=2,
        replace=False)]
    return QuerySpec(
        name="Q12",
        steps=(
            ScanStep(
                table="lineitem",
                cluster_range=(lo, hi),
                predicate=col("l_shipmode").isin(modes)
                & (col("l_commitdate") < col("l_receiptdate")),
                group_by=("l_shipmode",),
                aggregates=(AggSpec("line_count", "count"),),
                extra_units_per_row=2.0,
                label="lineitem",
            ),
        ),
    )


def q13(rng: np.random.Generator) -> QuerySpec:
    """Customer distribution: full customer and orders scans."""
    return QuerySpec(
        name="Q13",
        steps=(
            ScanStep(
                table="customer",
                aggregates=(AggSpec("customers", "count"),),
                extra_units_per_row=3.0,
                label="customer",
            ),
            ScanStep(
                table="orders",
                group_by=("o_orderstatus",),
                aggregates=(AggSpec("orders", "count"),),
                extra_units_per_row=4.0,
                label="orders",
            ),
        ),
    )


def q14(rng: np.random.Generator) -> QuerySpec:
    """Promotion effect: one month of lineitem + part."""
    year = _pick_year(rng)
    lo, hi = _year_range(year, days=30.0)
    return QuerySpec(
        name="Q14",
        steps=(
            ScanStep(
                table="lineitem",
                cluster_range=(lo, hi),
                aggregates=(AggSpec("revenue", "sum", _revenue()),),
                extra_units_per_row=3.0,
                label="lineitem",
            ),
            ScanStep(
                table="part",
                predicate=col("p_type").eq(lit("PROMO")),
                aggregates=(AggSpec("promo_parts", "count"),),
                label="part",
            ),
        ),
    )


def q15(rng: np.random.Generator) -> QuerySpec:
    """Top supplier: one quarter of lineitem + supplier."""
    year = _pick_year(rng)
    lo, hi = _year_range(year, days=92.0)
    return QuerySpec(
        name="Q15",
        steps=(
            ScanStep(
                table="lineitem",
                cluster_range=(lo, hi),
                aggregates=(AggSpec("revenue", "sum", _revenue()),),
                extra_units_per_row=2.0,
                label="lineitem",
            ),
            ScanStep(
                table="supplier",
                aggregates=(AggSpec("max_bal", "max", col("s_acctbal")),),
                label="supplier",
            ),
        ),
    )


def q16(rng: np.random.Generator) -> QuerySpec:
    """Parts/supplier relationship: partsupp + part with filters."""
    size = int(rng.integers(1, 46))
    return QuerySpec(
        name="Q16",
        steps=(
            ScanStep(
                table="partsupp",
                aggregates=(AggSpec("pairs", "count"),),
                extra_units_per_row=2.0,
                label="partsupp",
            ),
            ScanStep(
                table="part",
                predicate=(col("p_size") >= lit(size)) & (col("p_size") < lit(size + 5)),
                group_by=("p_brand",),
                aggregates=(AggSpec("parts", "count"),),
                label="part",
            ),
        ),
    )


def q17(rng: np.random.Generator) -> QuerySpec:
    """Small-quantity-order revenue: full lineitem + part."""
    return QuerySpec(
        name="Q17",
        steps=(
            ScanStep(
                table="part",
                predicate=col("p_container").eq(lit("MED BOX")),
                aggregates=(AggSpec("parts", "count"),),
                label="part",
            ),
            ScanStep(
                table="lineitem",
                predicate=col("l_quantity") < lit(10),
                aggregates=(AggSpec("avg_qty", "avg", col("l_quantity")),
                            AggSpec("revenue", "sum", col("l_extendedprice"))),
                extra_units_per_row=4.0,
                label="lineitem",
            ),
        ),
    )


def q18(rng: np.random.Generator) -> QuerySpec:
    """Large volume customers: full lineitem + orders + customer, heavy."""
    return QuerySpec(
        name="Q18",
        steps=(
            ScanStep(
                table="lineitem",
                group_by=("l_returnflag",),
                aggregates=(AggSpec("sum_qty", "sum", col("l_quantity")),),
                extra_units_per_row=6.0,
                label="lineitem",
            ),
            ScanStep(
                table="orders",
                aggregates=(AggSpec("max_price", "max", col("o_totalprice")),),
                extra_units_per_row=3.0,
                label="orders",
            ),
            ScanStep(
                table="customer",
                aggregates=(AggSpec("customers", "count"),),
                label="customer",
            ),
        ),
    )


def q19(rng: np.random.Generator) -> QuerySpec:
    """Discounted revenue: one year with an expensive disjunctive predicate."""
    year = _pick_year(rng)
    lo, hi = _year_range(year)
    return QuerySpec(
        name="Q19",
        steps=(
            ScanStep(
                table="lineitem",
                cluster_range=(lo, hi),
                predicate=(
                    (col("l_quantity").between(1, 11)
                     & col("l_shipmode").isin(["AIR", "REG AIR"]))
                    | (col("l_quantity").between(10, 20)
                       & col("l_shipinstruct").eq(lit("DELIVER IN PERSON")))
                    | (col("l_quantity").between(20, 30)
                       & col("l_returnflag").eq(lit("N")))
                ),
                aggregates=(AggSpec("revenue", "sum", _revenue()),),
                extra_units_per_row=3.0,
                label="lineitem",
            ),
        ),
    )


def q20(rng: np.random.Generator) -> QuerySpec:
    """Potential part promotion: partsupp + one year of lineitem + supplier."""
    year = _pick_year(rng)
    lo, hi = _year_range(year)
    return QuerySpec(
        name="Q20",
        steps=(
            ScanStep(
                table="partsupp",
                aggregates=(AggSpec("pairs", "count"),),
                label="partsupp",
            ),
            ScanStep(
                table="lineitem",
                cluster_range=(lo, hi),
                aggregates=(AggSpec("sum_qty", "sum", col("l_quantity")),),
                extra_units_per_row=3.0,
                label="lineitem",
            ),
            ScanStep(
                table="supplier",
                aggregates=(AggSpec("suppliers", "count"),),
                label="supplier",
            ),
        ),
    )


def q21(rng: np.random.Generator) -> QuerySpec:
    """Suppliers who kept orders waiting: lineitem scanned TWICE (the
    original's self-join), plus orders — the query the paper's evaluation
    singles out as benefiting most from scan sharing."""
    return QuerySpec(
        name="Q21",
        steps=(
            ScanStep(
                table="supplier",
                aggregates=(AggSpec("suppliers", "count"),),
                label="supplier",
            ),
            ScanStep(
                table="lineitem",
                predicate=col("l_receiptdate") > col("l_commitdate"),
                aggregates=(AggSpec("late_lines", "count"),),
                extra_units_per_row=4.0,
                label="lineitem-1",
            ),
            ScanStep(
                table="lineitem",
                aggregates=(AggSpec("all_lines", "count"),),
                extra_units_per_row=4.0,
                label="lineitem-2",
            ),
            ScanStep(
                table="orders",
                predicate=col("o_orderstatus").eq(lit("F")),
                aggregates=(AggSpec("orders", "count"),),
                label="orders",
            ),
        ),
    )


def q22(rng: np.random.Generator) -> QuerySpec:
    """Global sales opportunity: customer + a slice of orders."""
    return QuerySpec(
        name="Q22",
        steps=(
            ScanStep(
                table="customer",
                predicate=col("c_acctbal") > lit(0.0),
                aggregates=(AggSpec("avg_bal", "avg", col("c_acctbal")),),
                label="customer",
            ),
            ScanStep(
                table="orders",
                fraction=(0.0, 0.25),
                aggregates=(AggSpec("orders", "count"),),
                label="orders",
            ),
        ),
    )


#: All query factories, keyed by template name.
QUERY_FACTORIES: Dict[str, QueryFactory] = {
    "Q1": q1, "Q2": q2, "Q3": q3, "Q4": q4, "Q5": q5, "Q6": q6, "Q7": q7,
    "Q8": q8, "Q9": q9, "Q10": q10, "Q11": q11, "Q12": q12, "Q13": q13,
    "Q14": q14, "Q15": q15, "Q16": q16, "Q17": q17, "Q18": q18, "Q19": q19,
    "Q20": q20, "Q21": q21, "Q22": q22,
}


def ag1(rng: np.random.Generator) -> QuerySpec:
    """Q1-shaped pricing summary under a frame budget.

    Same scan and aggregate shape as :func:`q1`, but the aggregation
    negotiates a bufferpool reservation (auto-sized by the executor) and
    spills under pressure.  Group cardinality is tiny (six groups), so
    this template only spills when the pool claws its frames back — the
    clean-run digest matches the operator-memory overhead, not temp I/O.
    """
    delta = float(rng.integers(60, 121))
    return QuerySpec(
        name="AG1",
        steps=(
            ScanStep(
                table="lineitem",
                cluster_range=(0.0, DATE_RANGE_DAYS - delta),
                group_by=("l_returnflag", "l_linestatus"),
                aggregates=(
                    AggSpec("sum_qty", "sum", col("l_quantity")),
                    AggSpec("sum_base_price", "sum", col("l_extendedprice")),
                    AggSpec("avg_disc", "avg", col("l_discount")),
                    AggSpec("count_order", "count"),
                ),
                extra_units_per_row=40.0,
                agg_budget_pages=-1,
                label="lineitem",
            ),
        ),
    )


def ag18(rng: np.random.Generator) -> QuerySpec:
    """Q18-shaped high-cardinality grouping that always spills.

    Grouping lineitem on ``l_orderkey`` (uniform over six million keys)
    produces tens of thousands of groups at any scale — far beyond what
    an auto budget of a quarter of the pool holds — so this template
    demonstrably exercises the spill path on every run.
    """
    year = _pick_year(rng)
    lo, hi = _year_range(year, days=540.0)
    return QuerySpec(
        name="AG18",
        steps=(
            ScanStep(
                table="lineitem",
                cluster_range=(lo, hi),
                group_by=("l_orderkey",),
                aggregates=(
                    AggSpec("sum_qty", "sum", col("l_quantity")),
                    AggSpec("lines", "count"),
                ),
                extra_units_per_row=8.0,
                agg_budget_pages=-1,
                label="lineitem",
            ),
            ScanStep(
                table="orders",
                aggregates=(AggSpec("max_price", "max", col("o_totalprice")),),
                extra_units_per_row=3.0,
                label="orders",
            ),
        ),
    )


def mj1(rng: np.random.Generator) -> QuerySpec:
    """Multibuffer hash join: part ⋈ lineitem on the part key.

    The build side hashes every part key under a deliberately small
    frame budget; the probe side re-scans lineitem once per multibuffer
    chunk when the build table outgrew the grant.  ``p_partkey`` is a
    dense sequence and ``l_partkey`` samples a wider domain, so matches
    are plentiful without being total.
    """
    budget = int(rng.integers(6, 13))
    return QuerySpec(
        name="MJ1",
        steps=(
            HashJoin(
                build=ScanStep(table="part", label="build-part"),
                probe=ScanStep(table="lineitem", label="probe-lineitem"),
                build_key="p_partkey",
                probe_key="l_partkey",
                budget_pages=budget,
            ),
        ),
    )


def mj18(rng: np.random.Generator) -> QuerySpec:
    """Q18-shaped join: orders build side, lineitem probe side."""
    year = _pick_year(rng)
    lo, hi = _year_range(year, days=720.0)
    return QuerySpec(
        name="MJ18",
        steps=(
            HashJoin(
                build=ScanStep(table="orders", label="build-orders"),
                probe=ScanStep(
                    table="lineitem",
                    cluster_range=(lo, hi),
                    label="probe-lineitem",
                ),
                build_key="o_orderkey",
                probe_key="l_orderkey",
                budget_pages=-1,
            ),
        ),
    )


#: Memory-budgeted templates.  Kept OUT of :data:`QUERY_FACTORIES` on
#: purpose: the default TPC-H stream composition (and therefore every
#: pre-existing experiment digest) is derived from that dict's keys, so
#: these are only reachable by explicit name.
BUDGETED_QUERY_FACTORIES: Dict[str, QueryFactory] = {
    "AG1": ag1, "AG18": ag18, "MJ1": mj1, "MJ18": mj18,
}


def make_query(name: str, rng: Optional[np.random.Generator] = None) -> QuerySpec:
    """Instantiate one template by name with a seeded RNG."""
    factory = QUERY_FACTORIES.get(name) or BUDGETED_QUERY_FACTORIES.get(name)
    if factory is None:
        known = sorted(QUERY_FACTORIES) + sorted(BUDGETED_QUERY_FACTORIES)
        raise KeyError(f"unknown query {name!r}; known: {known}")
    return factory(rng or np.random.default_rng(0))
