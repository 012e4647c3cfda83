"""Steady-state properties of the full mechanism under random workloads.

These run complete concurrent-scan simulations with randomized speed
mixes and check the *dynamic* guarantees the unit tests cannot: drift
stays controlled, throttling respects the fairness cap end to end, and
the system always drains.

Marked ``slow``: the fast CI lane (``-m "not slow"``) skips this module.
"""

import pytest

pytestmark = pytest.mark.slow
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import SharingConfig
from repro.core.throttle import MAX_WAIT_PER_UPDATE
from repro.scans.table_scan import TableScan

from tests.conftest import flat_cost, make_database

# Per-scan CPU cost per page, spanning I/O-bound to heavily CPU-bound.
cpu_costs = st.lists(
    st.floats(min_value=1e-6, max_value=2e-3),
    min_size=2,
    max_size=4,
)


def run_scans(costs, n_pages=96, pool=48, config=None):
    db = make_database(n_pages=n_pages, pool_pages=pool,
                       sharing=config or SharingConfig())
    procs = []
    for cost in costs:
        scan = TableScan(db, "t", 0, n_pages - 1,
                         on_run=flat_cost(cost), sharing=db.sharing)
        procs.append(db.sim.spawn(scan.run()))
    db.sim.run()
    results = []
    for proc in procs:
        if proc.completion.failed:
            raise proc.completion.value
        results.append(proc.completion.value)
    return db, results


class TestSteadyState:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(costs=cpu_costs)
    def test_all_scans_complete(self, costs):
        """No speed mix may deadlock or starve a scan."""
        db, results = run_scans(costs)
        assert all(r.pages_scanned == 96 for r in results)
        assert db.sharing.active_scan_count == 0

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(costs=cpu_costs)
    def test_fairness_cap_holds_dynamically(self, costs):
        """Accumulated throttle time never exceeds the cap fraction of a
        scan's own elapsed time (plus one wait of slack for the final
        inserted wait)."""
        config = SharingConfig()
        _, results = run_scans(costs, config=config)
        for result in results:
            cap = config.slowdown_cap_fraction * result.elapsed
            assert result.throttle_seconds <= cap + MAX_WAIT_PER_UPDATE

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(costs=cpu_costs)
    def test_slowest_scan_never_throttled(self, costs):
        """The group's rear scan is by definition never the leader; the
        scan with the heaviest CPU cost must accumulate (almost) no
        throttle time."""
        _, results = run_scans(costs)
        slowest = max(range(len(costs)), key=lambda i: costs[i])
        # Allow a single spurious wait from transient leadership during
        # the initial grouping.
        assert results[slowest].throttle_seconds <= MAX_WAIT_PER_UPDATE

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(costs=cpu_costs)
    def test_throttling_never_slows_the_workload_down_much(self, costs):
        """End-to-end, the mechanism must stay within a small factor of
        the no-throttling configuration for any speed mix (it exists to
        help, and the fairness cap bounds the harm)."""
        db_full, _ = run_scans(costs, config=SharingConfig())
        db_nothrottle, _ = run_scans(
            costs, config=SharingConfig(throttling_enabled=False)
        )
        assert db_full.sim.now <= 1.5 * db_nothrottle.sim.now
