#!/usr/bin/env python
"""Why smarter caching alone doesn't solve scan thrashing.

The paper's related-work section argues that general-purpose replacement
policies (LRU and its descendants) cannot exploit the *ordered* access
pattern of concurrent table scans, while explicit coordination can.
This example pits every policy in the library against the same
scan-heavy concurrent workload — first as pure caches (no sharing),
then the paper's mechanism on top of priority-LRU.

Run:  python examples/policy_showdown.py
"""

from repro import SharingConfig, SystemConfig, run_workload
from repro.metrics.report import format_table
from repro.workloads import make_tpch_database, tpch_streams

POLICIES = ["lru", "clock", "lru-k", "2q", "arc", "priority-lru"]
QUERIES = ["Q1", "Q9", "Q18", "Q21"]


def run(policy: str, sharing_enabled: bool):
    config = SystemConfig(
        policy=policy,
        sharing=SharingConfig(enabled=sharing_enabled),
    )
    db = make_tpch_database(config, scale=0.25)
    return run_workload(db, tpch_streams(4, query_names=QUERIES))


def main():
    rows = []
    for policy in POLICIES:
        result = run(policy, sharing_enabled=False)
        rows.append([f"{policy} (cache only)", result.makespan,
                     result.pages_read, result.seeks])
    shared = run("priority-lru", sharing_enabled=True)
    rows.append(["priority-lru + scan sharing", shared.makespan,
                 shared.pages_read, shared.seeks])

    print("Concurrent scan workload under each victim policy")
    print()
    print(format_table(
        ["configuration", "end-to-end (s)", "pages read", "seeks"], rows
    ))
    print()
    best_cache = min(rows[:-1], key=lambda r: r[1])
    print(f"Best pure cache: {best_cache[0]} at {best_cache[1]:.3f}s — "
          f"coordination still wins at {shared.makespan:.3f}s.")


if __name__ == "__main__":
    main()
