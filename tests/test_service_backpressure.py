"""Backpressure acceptance tests: the controller bounds what unbounded
admission lets grow.

The overload scenario (heavy-tailed multi-table arrivals at ~2.5x the
service rate onto a halved bufferpool) is run controller-on vs
controller-off over the same seed.  The ISSUE acceptance criterion lives
here: the controlled run keeps miss rate, concurrency, and queue length
bounded, while the uncontrolled baseline's population and miss rate keep
growing as the arrival window stretches.

These runs take ~1s each at scale 0.1, so the module stays well inside
the tier-1 budget; the comparison fixture is shared across tests.
"""

from __future__ import annotations

import pytest

from repro.experiments.harness import ExperimentSettings
from repro.experiments.registry import get
from repro.service.metrics import bounded_problems
from repro.service.scenarios import build_service_spec, run_scenario

TINY = ExperimentSettings(scale=0.1, seed=42)


@pytest.fixture(scope="module")
def comparison():
    """sv-overload at scale 0.1: controlled vs uncontrolled, same seed."""
    return get("sv-overload").run(TINY)


class TestOverloadBackpressure:
    def test_controller_bounds_concurrency(self, comparison):
        spec = build_service_spec("overload", TINY)
        assert comparison.controlled.peak_running <= spec.controller.max_mpl
        # Without the controller every arrival runs at once.
        assert comparison.uncontrolled.peak_running > 4 * spec.controller.max_mpl

    def test_controller_bounds_population(self, comparison):
        # Uncontrolled in-system population blows past the controlled one.
        assert comparison.uncontrolled.peak_in_system >= (
            2 * comparison.controlled.peak_in_system
        )

    def test_controller_preserves_locality(self, comparison):
        # Unbounded admission destroys temporal locality in the shared
        # pool: its miss rate is several times the throttled run's.
        assert comparison.uncontrolled.buffer_miss_rate >= (
            1.5 * comparison.controlled.buffer_miss_rate
        )

    def test_controlled_run_passes_bounds_check(self, comparison):
        assert bounded_problems("overload", comparison.metrics()) == []

    def test_uncontrolled_run_would_fail_bounds_check(self, comparison):
        # Sanity for the checker itself: held to the same standard, the
        # baseline's concurrency/queueing is out of bounds.
        metrics = comparison.uncontrolled.metrics()
        metrics["controller"]["enabled"] = True
        metrics["controller"]["mpl_max"] = (
            build_service_spec("overload", TINY).controller.max_mpl
        )
        assert bounded_problems("uncontrolled", metrics)

    def test_both_runs_drain_eventually(self, comparison):
        # Boundedness is about the steady state, not liveness: once the
        # arrival window closes, both runs must finish their backlog.
        assert comparison.controlled.drained
        assert comparison.uncontrolled.drained


class TestGrowthWithHorizon:
    """Stretch the arrival window: uncontrolled grows, controlled doesn't."""

    @pytest.fixture(scope="class")
    def short_and_long(self):
        spec = build_service_spec("overload", TINY)
        short = TINY
        long = TINY.with_(service_horizon=2.0 * spec.horizon)
        return (
            run_scenario("overload", short, controller_enabled=False),
            run_scenario("overload", long, controller_enabled=False),
            run_scenario("overload", short, controller_enabled=True),
            run_scenario("overload", long, controller_enabled=True),
        )

    def test_uncontrolled_population_grows_with_horizon(self, short_and_long):
        unc_short, unc_long, _, _ = short_and_long
        assert unc_long.peak_in_system >= 1.5 * unc_short.peak_in_system

    def test_controlled_population_stays_flat(self, short_and_long):
        _, _, con_short, con_long = short_and_long
        # Twice the offered work, same admission bound: the steady-state
        # population must not scale with the horizon.
        assert con_long.peak_in_system <= 1.2 * con_short.peak_in_system
        assert bounded_problems("overload-2x", con_long.metrics()) == []

    def test_controlled_miss_rate_stays_flat(self, short_and_long):
        unc_short, unc_long, con_short, con_long = short_and_long
        assert con_long.buffer_miss_rate <= con_short.buffer_miss_rate + 0.1
        assert unc_long.buffer_miss_rate > con_long.buffer_miss_rate
