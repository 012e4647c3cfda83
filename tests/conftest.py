"""Shared fixtures: tiny databases and helpers used across the suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.buffer.pool import BufferPool
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.engine.database import Database, SystemConfig
from repro.engine.operators import AggSpec, Operator
from repro.engine.query import QuerySpec, ScanStep
from repro.core.config import SharingConfig
from repro.sim.kernel import Simulator
from repro.storage.schema import ColumnSpec, TableSchema


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--regen-golden", action="store_true", default=False,
        help="rewrite tests/golden/ reference files from the current run",
    )


@pytest.fixture
def regen_golden(request: pytest.FixtureRequest) -> bool:
    """True when golden files should be rewritten instead of compared.

    Enabled by ``pytest --regen-golden`` or ``REPRO_REGEN_GOLDEN=1``.
    """
    return bool(
        request.config.getoption("--regen-golden")
        or os.environ.get("REPRO_REGEN_GOLDEN")
    )


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def disk(sim: Simulator) -> Disk:
    """A small disk for unit tests."""
    return Disk(sim, DiskGeometry(total_pages=4096))


def make_pool(sim: Simulator, disk: Disk, capacity: int = 32,
              policy=None) -> BufferPool:
    """A pool whose page keys map 1:1 onto disk addresses."""
    return BufferPool(
        sim, disk, capacity=capacity, address_of=lambda key: key.page_no,
        policy=policy,
    )


class RowCounter(Operator):
    """Terminal operator that just counts rows (a cheap test sink)."""

    def __init__(self) -> None:
        super().__init__(None)
        self.rows = 0

    def required_columns(self):
        return frozenset()

    def push(self, batch, page_rows):
        page_rows = np.atleast_1d(np.asarray(page_rows, dtype=np.int64))
        self.rows += int(page_rows.sum())
        return 0.1 * page_rows

    def finish(self) -> object:
        return self.rows


def make_schema(name: str, columns, rows_per_page: int = 100) -> TableSchema:
    """A table schema from any column sequence."""
    return TableSchema(name=name, columns=tuple(columns), rows_per_page=rows_per_page)


def simple_table_schema(name: str = "t", rows_per_page: int = 100) -> TableSchema:
    """A minimal test table: a sequence key, a value, and a cluster date."""
    return TableSchema(
        name=name,
        rows_per_page=rows_per_page,
        columns=(
            ColumnSpec("id", "sequence"),
            ColumnSpec("value", "float_uniform", 0.0, 100.0),
            ColumnSpec("flag", "choice", categories=("a", "b", "c")),
            ColumnSpec("day", "clustered", 0.0, 1000.0),
        ),
    )


def uniform_scan_query(table: str, lo_frac: float = 0.0, hi_frac: float = 1.0,
                       cpu_units_per_row: float = 0.0, predicate=None,
                       name: str = None) -> QuerySpec:
    """A single-step row-counting scan over a fractional slice of a table."""
    return QuerySpec(
        name=name or f"scan-{table}-{lo_frac:.2f}-{hi_frac:.2f}",
        steps=(
            ScanStep(
                table=table,
                fraction=(lo_frac, hi_frac),
                predicate=predicate,
                aggregates=(AggSpec("rows", "count"),),
                extra_units_per_row=cpu_units_per_row,
                label=table,
            ),
        ),
    )


def make_database(
    n_pages: int = 128,
    pool_pages: int = 32,
    sharing: SharingConfig = None,
    n_cpus: int = 2,
    table_name: str = "t",
    extent_size: int = 8,
    **config_kwargs,
) -> Database:
    """A one-table database, opened and ready for scans."""
    config = SystemConfig(
        n_cpus=n_cpus,
        pool_pages=pool_pages,
        sharing=sharing or SharingConfig(),
        extent_size=extent_size,
        **config_kwargs,
    )
    db = Database(config)
    db.create_table(simple_table_schema(table_name), n_pages=n_pages)
    return db.open()


def flat_cost(seconds: float):
    """An ``on_run`` callback charging every page the same CPU seconds."""

    def on_run(first_page, batch, page_rows):
        return [seconds] * len(page_rows)

    return on_run


@pytest.fixture
def small_db() -> Database:
    """A small single-table database with sharing enabled."""
    return make_database()


@pytest.fixture
def base_db() -> Database:
    """Same database with the sharing mechanism disabled."""
    return make_database(sharing=SharingConfig(enabled=False))
