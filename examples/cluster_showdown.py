#!/usr/bin/env python
"""Does scan sharing still matter once the load is sharded?

A natural objection to buffer-locality coordination is that horizontal
scaling makes it redundant: shard a million users across enough
replicas and no single bufferpool ever thrashes.  The hot-shard skew
scenario shows why that fails — zipf-distributed users concentrate on
one replica no matter how the ring is cut, so the hot replica still
runs many concurrent scans over the same tables.  This example replays
that scenario under each sharing policy and compares fleet-level
outcomes: the policy only acts *inside* each replica, yet it moves the
fleet's miss rate and SLO attainment.

Run:  python examples/cluster_showdown.py
"""

from repro.experiments.harness import ExperimentSettings
from repro.experiments.runner import run_tasks, sweep_tasks
from repro.metrics.report import format_table

POLICIES = ["grouping-throttling", "cooperative", "pbm"]


def main():
    settings = ExperimentSettings(scale=0.1, seed=42)
    suite = run_tasks(
        sweep_tasks("sv-cluster-skew", "sharing_policy", POLICIES, settings),
        jobs=len(POLICIES), use_cache=False,
    )

    rows = []
    for task in suite.tasks:
        metrics = task.metrics
        policy = task.sweep_point.split("=", 1)[1]
        slo = metrics["fleet_slo_attainment"]
        rows.append([
            policy,
            metrics["n_completed"],
            metrics["n_abandoned"],
            f"{metrics['fleet_throughput']:.1f}",
            f"{100.0 * metrics['fleet_miss_rate']:.1f}",
            "-" if slo is None else f"{100.0 * slo:.1f}",
            metrics["pages_read"],
        ])

    print("Hot-shard cluster scenario (zipf users) under each sharing "
          "policy")
    print()
    print(format_table(
        ["policy", "done", "abandoned", "fleet qps", "miss %", "slo %",
         "pages read"],
        rows,
    ))
    print()
    by_qps = sorted(rows, key=lambda r: float(r[3]), reverse=True)
    best, worst = by_qps[0], by_qps[-1]
    print(f"Fleet throughput: {best[0]} serves {best[3]} q/s with {best[2]} "
          f"abandonments vs {worst[3]} q/s / {worst[2]} for {worst[0]} — "
          f"replica-local scan coordination still shapes fleet-wide "
          f"behaviour.")


if __name__ == "__main__":
    main()
