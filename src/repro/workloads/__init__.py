"""Workloads: the TPC-H-shaped schema, queries, and stream generators.

The paper evaluates on a 100 GB TPC-H database with a bufferpool of
about 5 % of the database size.  This package builds the scaled-down
synthetic equivalent: the same tables (clustered on their date columns,
as DB2's MDC layout would be), 22 scan-centric query templates matching
the originals' table usage, selectivity, and CPU weight, and
official-style stream permutations for throughput runs, plus the
offered-load model the service and cluster layers describe open
workloads with (:mod:`repro.workloads.arrivals`).
"""

from repro.workloads.tpch_schema import (
    TPCH_BASE_PAGES,
    make_tpch_database,
    tpch_schemas,
)
from repro.workloads.tpch_queries import (
    QUERY_FACTORIES,
    make_query,
    q1,
    q6,
)
from repro.workloads.arrivals import (
    ArrivalPlan, Closed, Lognormal, Mmpp, Pareto, Poisson, plan_arrivals,
)
from repro.workloads.loadgen import (
    LoadPlan,
    LoadSpec,
    UserArrival,
    UserClass,
    generate_load,
)
from repro.workloads.streams import tpch_stream, tpch_streams

__all__ = [
    "ArrivalPlan",
    "Closed",
    "Lognormal",
    "Mmpp",
    "Pareto",
    "Poisson",
    "LoadPlan",
    "LoadSpec",
    "QUERY_FACTORIES",
    "UserArrival",
    "UserClass",
    "generate_load",
    "plan_arrivals",
    "TPCH_BASE_PAGES",
    "make_query",
    "make_tpch_database",
    "q1",
    "q6",
    "tpch_schemas",
    "tpch_stream",
    "tpch_streams",
]
