"""Cross-module property-based tests (hypothesis).

These drive randomized mini-workloads through the full stack and check
the invariants that must hold for *any* workload, not just the TPC-H
templates: conservation of pages scanned, result determinism, pool
accounting, and grouping/throttling sanity.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import SharingConfig
from repro.core.grouping import form_groups
from repro.core.scan_state import ScanDescriptor, ScanState
from repro.core.throttle import evaluate_throttle
from repro.engine.executor import run_workload

from tests.conftest import make_database, uniform_scan_query


# Strategy: a small set of scans with fractional ranges and CPU weights.
scan_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.75),   # lo fraction
        st.floats(min_value=0.1, max_value=1.0),    # width fraction
        st.floats(min_value=0.0, max_value=20.0),   # cpu units per row
        st.floats(min_value=0.0, max_value=0.05),   # start delay
    ),
    min_size=1,
    max_size=4,
)


def build_streams(specs):
    streams, delays = [], []
    for index, (lo, width, cpu, delay) in enumerate(specs):
        hi = min(1.0, lo + width)
        query = uniform_scan_query("t", lo, hi, cpu_units_per_row=cpu,
                                   name=f"scan{index}")
        streams.append([query])
        delays.append(delay)
    return streams, delays


class TestWorkloadProperties:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(specs=scan_specs)
    def test_pages_scanned_conserved_under_sharing(self, specs):
        """Sharing must change *when* pages are read, never *which*: each
        scan processes exactly its declared range size."""
        streams, delays = build_streams(specs)
        for enabled in (False, True):
            db = make_database(n_pages=64, pool_pages=24,
                               sharing=SharingConfig(enabled=enabled))
            table = db.catalog.table("t")
            result = run_workload(db, streams, stagger_list=delays)
            for stream, spec in zip(result.streams, specs):
                lo, width, _cpu, _delay = spec
                hi = min(1.0, lo + width)
                first, last = table.pages_for_fraction(lo, hi)
                expected = last - first + 1
                assert stream.queries[0].pages_scanned == expected

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(specs=scan_specs)
    def test_results_deterministic(self, specs):
        """Two identical runs produce identical timings and counters."""
        streams, delays = build_streams(specs)

        def run_once():
            db = make_database(n_pages=64, pool_pages=24)
            result = run_workload(db, streams, stagger_list=delays)
            return (
                result.makespan,
                result.pages_read,
                result.seeks,
                [s.finished_at for s in result.streams],
            )

        assert run_once() == run_once()

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(specs=scan_specs)
    def test_pool_accounting_consistent(self, specs):
        """logical = hits + inflight waits + misses; pool never exceeds
        capacity; all pins released at the end."""
        streams, delays = build_streams(specs)
        db = make_database(n_pages=64, pool_pages=24)
        run_workload(db, streams, stagger_list=delays)
        stats = db.pool.stats
        assert stats.logical_reads == stats.hits + stats.inflight_waits + stats.misses
        assert db.pool.resident_count <= db.pool.capacity
        assert db.pool.inflight_count == 0
        for key in db.pool.resident_keys():
            assert not db.pool.frame_of(key).pin_count

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(specs=scan_specs)
    def test_sharing_never_amplifies_io(self, specs):
        """Sharing placement is a heuristic and may occasionally lose to a
        lucky baseline alignment, but it must never read more than the
        zero-reuse worst case: every scan reading its whole range from
        disk, plus bounded prefetch overshoot at range edges."""
        streams, delays = build_streams(specs)
        db = make_database(n_pages=64, pool_pages=24,
                           sharing=SharingConfig(enabled=True))
        table = db.catalog.table("t")
        demanded = 0
        for lo, width, _cpu, _delay in specs:
            first, last = table.pages_for_fraction(lo, min(1.0, lo + width))
            demanded += last - first + 1
        result = run_workload(db, streams, stagger_list=delays)
        extent = table.extent_size
        assert result.pages_read <= demanded + 2 * extent * len(specs)

    @settings(max_examples=100, deadline=None)
    @given(
        positions=st.lists(
            st.integers(min_value=0, max_value=999), min_size=2, max_size=8
        ),
        budget=st.integers(min_value=0, max_value=2000),
        speeds=st.lists(
            st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=8
        ),
    )
    def test_throttle_distance_always_in_circle(self, positions, budget, speeds):
        """For any grouping, every throttle evaluation measures a
        distance inside [0, table_pages) — circular, never negative —
        and never produces a negative wait."""
        table_pages = 1000
        scans = []
        for index, pos in enumerate(positions):
            speed = speeds[index % len(speeds)]
            descriptor = ScanDescriptor(
                "t", 0, table_pages - 1, estimated_speed=speed
            )
            scans.append(ScanState(
                scan_id=index, descriptor=descriptor, start_page=pos,
                start_time=0.0, speed=speed,
            ))
        groups = form_groups({"t": scans}, pool_budget_pages=budget)
        config = SharingConfig()
        for group in groups:
            for scan in group.members:
                decision = evaluate_throttle(scan, group, config,
                                             extent_size=16)
                assert 0 <= decision.distance < table_pages
                assert decision.wait >= 0.0

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(specs=scan_specs)
    def test_manager_empty_after_run(self, specs):
        streams, delays = build_streams(specs)
        db = make_database(n_pages=64, pool_pages=24)
        run_workload(db, streams, stagger_list=delays)
        assert db.sharing.active_scan_count == 0
        assert db.sharing.stats.scans_started == db.sharing.stats.scans_finished
