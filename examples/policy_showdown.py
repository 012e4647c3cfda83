#!/usr/bin/env python
"""Why smarter caching alone doesn't solve scan thrashing.

The paper's related-work section argues that a replacement policy cannot
exploit the *ordered* access pattern of concurrent table scans, while
explicit coordination can.  This example runs one scan-heavy concurrent
workload three ways: priority-LRU as a pure cache, Belady's offline OPT
replayed over that run's own page requests (the fewest reads *any*
victim policy could take for them), and the paper's mechanism on top of
priority-LRU, which changes the requests themselves.

Run:  python examples/policy_showdown.py
"""

from repro import SharingConfig, SystemConfig, run_workload
from repro.metrics.opt import opt_misses, recorded_fixes
from repro.metrics.report import format_table
from repro.workloads import make_tpch_database, tpch_streams

QUERIES = ["Q1", "Q9", "Q18", "Q21"]


def run(sharing_enabled: bool):
    """One run's result, its fix stream and its pool capacity."""
    config = SystemConfig(sharing=SharingConfig(enabled=sharing_enabled))
    db = make_tpch_database(config, scale=0.25)
    with recorded_fixes() as fixes:
        result = run_workload(db, tpch_streams(4, query_names=QUERIES))
    return result, fixes, db.pool.capacity


def main():
    base, fixes, capacity = run(sharing_enabled=False)
    shared, _, _ = run(sharing_enabled=True)
    opt = opt_misses(fixes, capacity)
    rows = [
        ["priority-LRU (cache only)", base.pages_read],
        ["OPT on the same requests", opt],
        ["priority-LRU + scan sharing", shared.pages_read],
    ]

    print(f"Concurrent scan workload, {capacity}-page pool")
    print()
    print(format_table(["configuration", "pages read"], rows))
    print()
    gap = base.pages_read - opt
    saved = base.pages_read - shared.pages_read
    print(f"No victim policy can save more than {gap} reads on these "
          f"requests; sharing saved {saved} ({100.0 * saved / gap:.0f} % "
          f"of that) by reordering them.")


if __name__ == "__main__":
    main()
