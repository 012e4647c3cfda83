#!/usr/bin/env python
"""An open system: Poisson query arrivals instead of fixed streams.

TPC-H's throughput test is a closed system, but the paper's motivating
warehouse is open — analysts submit queries whenever they like, and the
instantaneous concurrency level fluctuates.  This example drives the
database with a Poisson arrival process biased toward scan-heavy report
templates and compares Base vs SS on mean and *tail* query latency —
the metric an open system's users actually feel.

Run:  python examples/open_system.py
"""

from repro import SharingConfig, SystemConfig, run_workload
from repro.metrics.report import format_table, percent_gain
from repro.workloads import Poisson, make_tpch_database, plan_arrivals

RATE = 3.0          # queries per simulated second
HORIZON = 8.0       # arrival window
#: Scan-heavy templates dominate (the warehouse's big reports), so the
#: instantaneous concurrency on lineitem stays well above one.
HOT_QUERIES = {"Q9": 3.0, "Q17": 3.0, "Q18": 2.0, "Q21": 1.0, "Q6": 2.0}


def run(sharing_enabled: bool):
    config = SystemConfig(
        pool_pages=64,  # ~5 % of the scaled database, the paper's regime
        sharing=SharingConfig(enabled=sharing_enabled),
        record_page_visits=False,
    )
    db = make_tpch_database(config, scale=0.25)
    plan = plan_arrivals(
        Poisson(RATE), HORIZON, seed=11,
        query_names=list(HOT_QUERIES),
        query_weights=HOT_QUERIES,
    )
    streams, delays = plan.as_streams()
    result = run_workload(db, streams, stagger_list=delays)
    return db, result


def latencies(result):
    values = sorted(
        query.elapsed for stream in result.streams for query in stream.queries
    )
    mean = sum(values) / len(values)
    p95 = values[int(0.95 * (len(values) - 1))]
    return mean, p95, values[-1]


def main():
    _, base = run(sharing_enabled=False)
    db, shared = run(sharing_enabled=True)

    base_mean, base_p95, base_max = latencies(base)
    ss_mean, ss_p95, ss_max = latencies(shared)
    n = sum(len(s.queries) for s in base.streams)
    print(f"Open system: {n} Poisson arrivals over {HORIZON:.0f}s "
          f"(rate {RATE}/s), hotspot-biased templates\n")
    print(format_table(
        ["latency metric", "Base (s)", "SS (s)", "gain %"],
        [
            ["mean", base_mean, ss_mean, percent_gain(base_mean, ss_mean)],
            ["p95", base_p95, ss_p95, percent_gain(base_p95, ss_p95)],
            ["max", base_max, ss_max, percent_gain(base_max, ss_max)],
        ],
    ))
    print()
    print(format_table(
        ["metric", "Base", "SS"],
        [
            ["pages read", base.pages_read, shared.pages_read],
            ["disk seeks", base.seeks, shared.seeks],
        ],
    ))
    stats = db.sharing.stats
    print(f"\nSharing: {stats.scans_joined_ongoing} joins / "
          f"{stats.scans_started} scans, "
          f"{stats.throttle_waits} throttle waits.")


if __name__ == "__main__":
    main()
