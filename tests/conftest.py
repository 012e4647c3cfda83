"""Shared fixtures: tiny databases and helpers used across the suite."""

from __future__ import annotations

import os

import pytest

from repro.buffer.pool import BufferPool
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.engine.database import Database, SystemConfig
from repro.core.config import SharingConfig
from repro.sim.kernel import Simulator
from repro.workloads.synthetic import simple_table_schema


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
        min_pool_pages=pool_pages,
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
