"""End-to-end integration tests: the paper's claims at test scale.

These run full workloads through every layer (simulator, disk, pool,
storage, manager, engine) and assert the *directional* properties the
paper reports — the benchmark harness then measures the magnitudes.

Marked ``slow``: the fast CI lane (``-m "not slow"``) skips this module.
"""

import pytest

pytestmark = pytest.mark.slow

from repro.core.config import SharingConfig
from repro.engine.database import SystemConfig
from repro.engine.executor import run_workload
from repro.workloads.streams import tpch_streams
from repro.workloads.tpch_schema import make_tpch_database

from tests.conftest import make_database, uniform_scan_query


def run_tpch(enabled, n_streams=3, query_names=("Q21", "Q18", "Q9", "Q17"),
             scale=0.2, **sharing_kwargs):
    # Default queries are full-table-scan heavy (Q21 scans lineitem twice)
    # so the scanned ranges dwarf the pool even at test scale — the regime
    # the paper's mechanism targets.
    # Pin the pool to ~12 % of the scaled database: the default 96-page
    # floor would be ~19 % at this scale, far from the paper's 5 % regime.
    config = SystemConfig(
        pool_pages=64,
        sharing=SharingConfig(enabled=enabled, **sharing_kwargs),
    )
    db = make_tpch_database(config, scale=scale)
    result = run_workload(db, tpch_streams(n_streams, query_names=list(query_names)))
    return db, result


class TestSharingWins:
    def test_concurrent_identical_scans_read_less(self):
        """Staggered full scans: without sharing the latecomers re-read
        pages the pool already evicted; with sharing they join the ongoing
        scan's position and piggyback."""
        results = {}
        for enabled in (False, True):
            db = make_database(n_pages=256, pool_pages=64,
                               sharing=SharingConfig(enabled=enabled))
            query = uniform_scan_query("t", name="full")
            results[enabled] = run_workload(
                db, [[query] for _ in range(4)], stagger=0.02
            )
        assert results[True].pages_read < results[False].pages_read
        assert results[True].makespan < results[False].makespan

    def test_tpch_mix_improves_end_to_end(self):
        _, base = run_tpch(enabled=False)
        _, shared = run_tpch(enabled=True)
        assert shared.makespan < base.makespan
        assert shared.pages_read < base.pages_read

    def test_seeks_reduced(self):
        _, base = run_tpch(enabled=False)
        _, shared = run_tpch(enabled=True)
        assert shared.seeks < base.seeks

    def test_hit_ratio_improves(self):
        _, base = run_tpch(enabled=False)
        _, shared = run_tpch(enabled=True)
        assert shared.buffer_hit_ratio > base.buffer_hit_ratio


def _assert_values_close(a, b, path=""):
    """Recursive comparison tolerating float summation-order differences
    (a wrapped scan accumulates the same pages in a different order)."""
    assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
    if isinstance(a, dict):
        assert a.keys() == b.keys(), f"{path}: keys differ"
        for key in a:
            _assert_values_close(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, float):
        assert a == pytest.approx(b, rel=1e-9), f"{path}: {a} != {b}"
    else:
        assert a == b, f"{path}: {a} != {b}"


class TestCorrectnessUnderSharing:
    def test_query_answers_identical(self):
        """Placement, wrap-around, throttling, and prioritization must not
        change any query's result values (up to float summation order)."""
        def collect(enabled):
            _, result = run_tpch(enabled=enabled, n_streams=2,
                                 query_names=("Q1", "Q6"))
            answers = {}
            for stream in result.streams:
                for query in stream.queries:
                    answers[(stream.stream_id, query.name)] = query.values
            return answers

        _assert_values_close(collect(False), collect(True))

    def test_pages_scanned_identical(self):
        _, base = run_tpch(enabled=False, n_streams=2, query_names=("Q6",))
        _, shared = run_tpch(enabled=True, n_streams=2, query_names=("Q6",))
        pages = lambda r: sorted(
            q.pages_scanned for s in r.streams for q in s.queries
        )
        assert pages(base) == pages(shared)


class TestFairness:
    def test_no_stream_left_behind(self):
        """Throttling redistributes time but no stream may regress badly
        versus the baseline."""
        _, base = run_tpch(enabled=False, n_streams=3)
        _, shared = run_tpch(enabled=True, n_streams=3)
        for stream_id in range(3):
            assert shared.stream_elapsed(stream_id) <= 1.15 * base.stream_elapsed(
                stream_id
            )

    def test_throttle_time_bounded_by_cap(self):
        db, result = run_tpch(enabled=True, n_streams=3)
        for stream in result.streams:
            for query in stream.queries:
                # No query may spend more time throttled than the 80 %
                # fairness cap allows relative to its own runtime.
                assert query.throttle_seconds <= 0.8 * query.elapsed + 1e-6


class TestMechanismAccounting:
    def test_manager_observed_all_scans(self):
        db, result = run_tpch(enabled=True, n_streams=2, query_names=("Q1", "Q6"))
        total_steps = sum(
            len(q.steps) for s in result.streams for q in s.queries
        )
        assert db.sharing.stats.scans_started == total_steps
        assert db.sharing.stats.scans_finished == total_steps

    def test_placement_joins_happen(self):
        db, _ = run_tpch(enabled=True, n_streams=4, query_names=("Q1", "Q6"))
        joined = (db.sharing.stats.scans_joined_ongoing
                  + db.sharing.stats.scans_joined_last_finished)
        assert joined > 0

    def test_throttling_disabled_means_no_waits(self):
        db, result = run_tpch(enabled=True, throttling_enabled=False)
        assert result.throttle_seconds == 0.0
        assert db.sharing.stats.throttle_waits == 0

    def test_cpu_breakdown_well_formed(self):
        db, _ = run_tpch(enabled=True)
        breakdown = db.cpu_breakdown()
        total = sum(breakdown.as_dict().values())
        assert total == pytest.approx(1.0)
        assert all(v >= 0 for v in breakdown.as_dict().values())


class TestSingleStreamOverhead:
    def test_overhead_below_two_percent(self):
        """The paper reports sub-1 % overhead without concurrency; allow a
        small margin at this tiny scale."""
        _, base = run_tpch(enabled=False, n_streams=1)
        _, shared = run_tpch(enabled=True, n_streams=1)
        overhead = (shared.makespan - base.makespan) / base.makespan
        assert overhead < 0.02
