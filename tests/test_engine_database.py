"""Unit tests for the database facade and system config."""

import pytest

from repro.buffer.replacement import PriorityLruPolicy
from repro.core.config import SharingConfig
from repro.engine.database import Database, SystemConfig

from tests.conftest import simple_table_schema


class TestSystemConfig:
    def test_defaults_valid(self):
        SystemConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [{"n_cpus": 0}, {"pool_fraction": 0.0}, {"pool_fraction": 1.5},
         {"extent_size": 0}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SystemConfig(**kwargs)


class TestDatabaseLifecycle:
    def test_open_requires_tables(self):
        db = Database()
        with pytest.raises(RuntimeError):
            db.open()

    def test_pool_sized_from_fraction(self):
        db = Database(SystemConfig(pool_fraction=0.5))
        db.create_table(simple_table_schema(), n_pages=1000)
        db.open()
        assert db.pool.capacity == 500

    def test_pool_floor_applies(self):
        db = Database(SystemConfig(pool_fraction=0.01))
        db.create_table(simple_table_schema(), n_pages=100)
        db.open()
        assert db.pool.capacity == 96

    def test_explicit_pool_pages_wins(self):
        db = Database(SystemConfig(pool_pages=128))
        db.create_table(simple_table_schema(), n_pages=1000)
        db.open()
        assert db.pool.capacity == 128

    def test_no_tables_after_open(self):
        db = Database(SystemConfig(pool_pages=32))
        db.create_table(simple_table_schema("a"), n_pages=64)
        db.open()
        with pytest.raises(RuntimeError):
            db.create_table(simple_table_schema("b"), n_pages=64)

    def test_double_open_rejected(self):
        db = Database(SystemConfig(pool_pages=32))
        db.create_table(simple_table_schema(), n_pages=64)
        db.open()
        with pytest.raises(RuntimeError):
            db.open()

    def test_accessors_before_open_raise(self):
        db = Database()
        with pytest.raises(RuntimeError):
            _ = db.pool
        with pytest.raises(RuntimeError):
            _ = db.sharing

    def test_sharing_enabled_reflects_config(self):
        db = Database(SystemConfig(pool_pages=32,
                                   sharing=SharingConfig(enabled=False)))
        db.create_table(simple_table_schema(), n_pages=64)
        db.open()
        assert not db.sharing_enabled

    def test_default_scan_speed_estimate_positive(self):
        db = Database(SystemConfig(pool_pages=32))
        db.create_table(simple_table_schema(), n_pages=64)
        db.open()
        assert db.default_scan_speed_estimate("t") > 0

    def test_policy_from_config(self):
        """Outside PBM sharing the pool evicts by priority-LRU."""
        db = Database(SystemConfig(pool_pages=32))
        db.create_table(simple_table_schema(), n_pages=64)
        db.open()
        assert isinstance(db.pool.policy, PriorityLruPolicy)
