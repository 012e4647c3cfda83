"""repro — reproduction of *"Increasing Buffer-Locality for Multiple
Relational Table Scans through Grouping and Throttling"* (ICDE 2007).

The package builds a complete simulated DBMS execution stack (discrete-
event kernel, disk model, priority bufferpool, storage layer, vectorized
query engine) and, on top of it, the paper's contribution: a scan
sharing manager that places, groups, throttles, and re-prioritizes
concurrent table scans to maximize bufferpool reuse.

Quickstart::

    from repro import SystemConfig, SharingConfig, run_workload
    from repro.workloads import make_tpch_database, tpch_streams

    db = make_tpch_database(SystemConfig(sharing=SharingConfig(enabled=True)))
    result = run_workload(db, tpch_streams(5))
    print(result.makespan, result.pages_read, result.seeks)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.buffer import BufferPool, PageKey, Priority, make_policy
from repro.core import (
    ScanDescriptor,
    ScanGroup,
    ScanSharingManager,
    ScanState,
    SharingConfig,
)
from repro.disk import Disk, DiskGeometry
from repro.engine import (
    AggSpec,
    CostModel,
    Database,
    HashJoin,
    QuerySpec,
    ScanStep,
    SystemConfig,
    WorkloadResult,
    col,
    execute_query,
    lit,
    run_workload,
)
from repro.scans import TableScan
from repro.sim import Simulator
from repro.storage import Catalog, ColumnSpec, Table, TableSchema

__version__ = "1.0.0"

__all__ = [
    "AggSpec",
    "BufferPool",
    "Catalog",
    "ColumnSpec",
    "CostModel",
    "Database",
    "Disk",
    "DiskGeometry",
    "HashJoin",
    "PageKey",
    "Priority",
    "QuerySpec",
    "ScanDescriptor",
    "ScanGroup",
    "ScanSharingManager",
    "ScanState",
    "ScanStep",
    "SharingConfig",
    "Simulator",
    "SystemConfig",
    "Table",
    "TableSchema",
    "TableScan",
    "WorkloadResult",
    "col",
    "execute_query",
    "lit",
    "make_policy",
    "run_workload",
    "__version__",
]
