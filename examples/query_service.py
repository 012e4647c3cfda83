#!/usr/bin/env python
"""The query service: workload classes, admission control, backpressure.

The paper's throughput test pins concurrency by construction (N closed
streams).  A warehouse front-end is an open system, and once arrivals
outpace the engine, *admitting everything* is exactly what destroys the
buffer locality the sharing mechanism builds.  This example defines a
two-class service — a latency-sensitive interactive class over a
best-effort batch class — runs it twice over the same seed with the
AIMD admission controller on and off, and prints the per-class SLO
tables side by side.

The interactive class arrives in heavy-tailed (lognormal) clumps over a
multi-table query mix, so unbounded admission genuinely interleaves
scans on different tables and thrashes the (deliberately small) pool.

Run:  python examples/query_service.py
"""

from dataclasses import replace

from repro import SharingConfig, SystemConfig
from repro.engine.database import Database
from repro.service import ControllerConfig, QueryService, ServiceClass, ServiceSpec
from repro.workloads import Closed, Lognormal, make_tpch_database

SCALE = 0.1
#: Rough Q6 service time at this scale; rates/horizon below are
#: expressed in multiples of it so the example stays scale-invariant.
Q6_COST = 0.014

SPEC = ServiceSpec(
    classes=(
        ServiceClass(
            name="interactive",
            weight=3.0,                      # 3x the batch class's fair share
            # clumped analyst traffic
            arrival=Lognormal(rate=2.0 / Q6_COST, sigma=1.2),
            query_names=("Q6", "Q14", "Q3"),
            query_weights=(("Q6", 6.0), ("Q14", 2.0), ("Q3", 1.0)),
            latency_slo=8.0 * Q6_COST,
            patience=12.0 * Q6_COST,         # abandon rather than queue forever
        ),
        ServiceClass(
            name="batch",
            weight=1.0,
            arrival=Closed(n_streams=2),     # TPC-H-style looping streams
            max_mpl=1,                       # at most one batch query running
            query_names=("Q1",),
        ),
    ),
    horizon=80.0 * Q6_COST,
    controller=ControllerConfig(max_mpl=6, interval=0.5 * Q6_COST),
)


def build_database() -> Database:
    config = SystemConfig(
        pool_pages=72,   # tight on purpose: locality is worth protecting
        sharing=SharingConfig(enabled=True),
        record_page_visits=False,
    )
    return make_tpch_database(config, scale=SCALE)


def run(controlled: bool):
    spec = SPEC if controlled else replace(
        SPEC, controller=replace(SPEC.controller, enabled=False)
    )
    service = QueryService(build_database(), spec, scenario="example")
    return service.run()


def main():
    controlled = run(controlled=True)
    uncontrolled = run(controlled=False)

    for label, result in (("WITH admission control", controlled),
                          ("WITHOUT admission control", uncontrolled)):
        print(f"=== {label} ===")
        print(result.render())
        print()

    print("The point:")
    print(f"  peak concurrent queries : {controlled.peak_running:4d} vs "
          f"{uncontrolled.peak_running:4d}")
    print(f"  peak in-system requests : {controlled.peak_in_system:4d} vs "
          f"{uncontrolled.peak_in_system:4d}")
    print(f"  bufferpool miss rate    : {controlled.buffer_miss_rate:.3f} vs "
          f"{uncontrolled.buffer_miss_rate:.3f}")
    interactive = controlled.class_metrics("interactive")
    print(f"  interactive p99 latency : {interactive.latency_p99:.3f}s "
          f"(SLO attainment "
          f"{100.0 * (interactive.slo_attainment or 0.0):.0f}%)")


if __name__ == "__main__":
    main()
