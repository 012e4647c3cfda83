"""Named service scenarios, registered as ``sv-*`` experiments.

Rates and horizons are calibrated in units of the estimated Q6 service
time at the current ``scale``, so offered load (ρ = arrival rate ×
service time) — the thing that actually determines queueing behaviour —
is scale-invariant: ``serve-sim steady --scale 0.1`` exercises the same
regime as ``--scale 1.0``, just faster.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from repro.core.config import SharingConfig
from repro.engine.database import SystemConfig
from repro.experiments.harness import (
    ExperimentSettings,
    build_database,
    expected_pool_pages,
    expected_table_pages,
)
from repro.service.metrics import ServiceComparison, ServiceResult
from repro.service.service import QueryService
from repro.service.spec import ControllerConfig, ServiceClass, ServiceSpec
from repro.workloads.arrivals import Closed, Lognormal, Mmpp, Pareto, Poisson

#: scenario name -> one-line description (shown by ``serve-sim --list``).
SCENARIOS: Dict[str, str] = {
    "steady": "open interactive class + closed batch streams at moderate load",
    "overload": "heavy-tailed overload; controller on vs off (backpressure proof)",
    "burst": "MMPP on/off bursts over a background trickle",
    "soak": "long mixed soak: interactive + batch + heavy-tailed ad-hoc",
}


def estimated_query_seconds(settings: ExperimentSettings) -> float:
    """Rough Q6 service time at these settings (the calibration unit).

    Q6 scans a one-year lineitem slice (the date domain spans seven
    years); cost ≈ slice pages × per-page transfer, doubled for seeks
    and queueing.  Only used to scale rates/horizons — precision is not
    required.
    """
    lineitem = expected_table_pages(settings, "lineitem")
    slice_pages = max(1, lineitem // 7)
    per_page = SystemConfig().geometry.transfer_time(1)
    return slice_pages * per_page * 2.0


def _controller(cost: float, max_mpl: int = 8) -> ControllerConfig:
    return ControllerConfig(max_mpl=max_mpl, interval=max(0.005, cost * 0.5))


def build_service_spec(
    name: str, settings: ExperimentSettings
) -> ServiceSpec:
    """The :class:`ServiceSpec` for one named scenario at these settings."""
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r} (known: {', '.join(sorted(SCENARIOS))})"
        )
    cost = estimated_query_seconds(settings)

    if name == "steady":
        classes = (
            ServiceClass(
                name="interactive", weight=3.0,
                arrival=Poisson(rate=0.5 / cost), query_names=("Q6", "Q14"),
                query_weights=(("Q6", 3.0), ("Q14", 1.0)),
                latency_slo=6.0 * cost, patience=30.0 * cost,
            ),
            ServiceClass(
                name="batch", weight=1.0, arrival=Closed(n_streams=2),
                max_mpl=2, query_names=("Q1",),
            ),
        )
        horizon = 150.0 * cost
        controller = _controller(cost)
    elif name == "overload":
        # A pure same-table overload is *absorbed* by scan sharing
        # (more concurrency = more group members = fewer reads), so the
        # mix spans several tables (Q3/Q14 steps) where excess
        # concurrency genuinely destroys locality; see sv_overload for
        # the matching tight-pool environment.
        classes = (
            ServiceClass(
                name="adhoc", weight=1.0,
                arrival=Lognormal(rate=2.5 / cost, sigma=1.2),
                query_names=("Q6", "Q14", "Q3"),
                query_weights=(("Q6", 6.0), ("Q14", 2.0), ("Q3", 1.0)),
                latency_slo=8.0 * cost, patience=12.0 * cost,
            ),
        )
        horizon = 80.0 * cost
        controller = _controller(cost, max_mpl=6)
    elif name == "burst":
        classes = (
            ServiceClass(
                name="bursty", weight=2.0,
                arrival=Mmpp(rate=3.0 / cost, rate_off=0.1 / cost,
                             mean_on=15.0 * cost, mean_off=20.0 * cost),
                query_names=("Q6",), patience=15.0 * cost,
            ),
            ServiceClass(
                name="background", weight=1.0,
                arrival=Poisson(rate=0.2 / cost), query_names=("Q6", "Q14"),
            ),
        )
        horizon = 120.0 * cost
        controller = _controller(cost)
    else:  # soak
        classes = (
            ServiceClass(
                name="interactive", weight=3.0,
                arrival=Poisson(rate=0.6 / cost), query_names=("Q6", "Q14"),
                latency_slo=8.0 * cost, patience=40.0 * cost,
            ),
            ServiceClass(
                name="batch", weight=1.0, arrival=Closed(n_streams=1),
                max_mpl=1, query_names=("Q1",),
            ),
            ServiceClass(
                name="adhoc", weight=1.5,
                arrival=Pareto(rate=0.4 / cost, alpha=1.6),
                query_names=("Q6",),
                patience=25.0 * cost,
            ),
        )
        horizon = 400.0 * cost
        controller = _controller(cost)

    if settings.service_horizon is not None:
        horizon = settings.service_horizon
    return ServiceSpec(classes=classes, horizon=horizon, controller=controller)


def run_scenario(
    name: str,
    settings: ExperimentSettings,
    controller_enabled: bool = True,
) -> ServiceResult:
    """Build a fresh database and run one scenario on it.

    The overload scenario additionally halves the bufferpool (unless
    the caller pinned ``pool_pages`` explicitly): with the default
    pool the whole working set stays resident at small scales and
    unbounded admission never pays for its locality loss.
    """
    if name == "overload" and settings.pool_pages is None:
        settings = settings.with_(
            pool_pages=max(48, expected_pool_pages(settings) // 2)
        )
    spec = build_service_spec(name, settings)
    if not controller_enabled:
        spec = replace(spec, controller=replace(spec.controller, enabled=False))
    db = build_database(settings, SharingConfig())
    return QueryService(db, spec, scenario=name).run()


def sv_steady(settings: ExperimentSettings) -> ServiceResult:
    """Moderate-load mixed scenario (the golden/smoke workhorse)."""
    return run_scenario("steady", settings)


def sv_overload(settings: ExperimentSettings) -> ServiceComparison:
    """Overload with the controller on vs off — the backpressure proof."""
    return ServiceComparison(
        scenario="overload",
        controlled=run_scenario("overload", settings, controller_enabled=True),
        uncontrolled=run_scenario("overload", settings, controller_enabled=False),
    )


def sv_burst(settings: ExperimentSettings) -> ServiceResult:
    """Bursty MMPP arrivals over a background trickle."""
    return run_scenario("burst", settings)


def sv_soak(settings: ExperimentSettings) -> ServiceResult:
    """Long mixed soak; pair with ``--faults`` for chaos coverage."""
    return run_scenario("soak", settings)
