"""Query engine: expressions, operators, queries, execution, the facade.

The public entry point is :class:`~repro.engine.database.Database` plus
the executor functions — build a database, declare
:class:`~repro.engine.query.QuerySpec` objects, and run them as
concurrent streams with :func:`~repro.engine.executor.run_workload`.
"""

from repro.engine.costs import CostModel, DEFAULT_COST_MODEL
from repro.engine.database import Database, SystemConfig
from repro.engine.executor import (
    QueryResult,
    StepResult,
    StreamResult,
    WorkloadResult,
    execute_query,
    run_stream,
    run_workload,
)
from repro.engine.expressions import Expression, col, lit
from repro.engine.operators import AggSpec, Pipeline
from repro.engine.query import HashJoin, QuerySpec, ScanStep

__all__ = [
    "AggSpec",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "Database",
    "Expression",
    "HashJoin",
    "Pipeline",
    "QueryResult",
    "QuerySpec",
    "ScanStep",
    "StepResult",
    "StreamResult",
    "SystemConfig",
    "WorkloadResult",
    "col",
    "execute_query",
    "lit",
    "run_stream",
    "run_workload",
]
