"""A8 — related-work baseline: QPipe-style attach sharing vs the paper.

The paper's related-work section concedes attach-style shared scans
(Harizopoulos et al.) work well "for scans with similar speeds", but
argues scan speeds vary in practice and the group drifts — its
grouping + throttling bounds the damage via the fairness cap instead.
This bench measures both regimes:

* homogeneous consumers — attach sharing is excellent (one producer);
* heterogeneous consumers — the broadcast chains fast queries to the
  slowest one, while throttled sharing caps the fast query's delay.
"""

from repro.core.config import SharingConfig
from repro.extensions.attach_sharing import AttachScanManager
from repro.metrics.report import format_table
from repro.scans.shared_scan import SharedTableScan
from repro.scans.table_scan import TableScan

from benchmarks.conftest import once
from tests.conftest import flat_cost, make_database

TABLE_PAGES = 512
POOL_PAGES = 64
FAST_CPU = 1e-6
SLOW_CPU = 1.5e-3


def run_mode(mode: str, speeds):
    """mode: 'base' | 'attach' | 'sharing'; returns (fast elapsed, makespan,
    pages read)."""
    db = make_database(
        n_pages=TABLE_PAGES, pool_pages=POOL_PAGES, n_cpus=4,
        sharing=SharingConfig(enabled=(mode == "sharing")),
    )
    procs = []
    stagger = 0.04  # beyond the pool's reach, so base cannot share by luck
    if mode == "attach":
        manager = AttachScanManager(db)
        for i, cpu in enumerate(speeds):
            def process(sim, cpu=cpu, delay=i * stagger):
                yield sim.timeout(delay)
                result = yield from manager.scan("t", flat_cost(cpu))
                return result
            procs.append(db.sim.spawn(process(db.sim)))
    else:
        scan_cls = SharedTableScan if mode == "sharing" else TableScan
        for i, cpu in enumerate(speeds):
            def process(sim, cpu=cpu, delay=i * stagger):
                yield sim.timeout(delay)
                scan = scan_cls(db, "t", 0, TABLE_PAGES - 1,
                                on_run=flat_cost(cpu))
                result = yield from scan.run()
                return result
            procs.append(db.sim.spawn(process(db.sim)))
    db.sim.run()
    results = [p.completion.value for p in procs]
    fastest = min(r.elapsed for r in results)
    return fastest, db.sim.now, db.disk.stats.pages_read


def experiment():
    out = {}
    for label, speeds in (
        ("homogeneous", [FAST_CPU] * 3),
        ("heterogeneous", [FAST_CPU, FAST_CPU, SLOW_CPU]),
    ):
        for mode in ("base", "attach", "sharing"):
            out[(label, mode)] = run_mode(mode, speeds)
    return out


def test_a8_attach(benchmark):
    results = once(benchmark, experiment)
    print()
    print("A8 — attach-style sharing vs grouping+throttling")
    rows = []
    for (label, mode), (fast, makespan, pages) in sorted(results.items()):
        rows.append([label, mode, fast, makespan, pages])
    print(format_table(
        ["consumer speeds", "mode", "fastest scan (s)", "makespan (s)",
         "pages read"],
        rows,
    ))
    # Homogeneous speeds: both sharing styles beat base on I/O.
    assert results[("homogeneous", "attach")][2] < results[("homogeneous", "base")][2]
    assert results[("homogeneous", "sharing")][2] < results[("homogeneous", "base")][2]
    # Heterogeneous speeds: attach chains the fast query to the slow one;
    # throttled sharing keeps the fast query far quicker.
    fast_attach = results[("heterogeneous", "attach")][0]
    fast_sharing = results[("heterogeneous", "sharing")][0]
    assert fast_sharing < 0.6 * fast_attach
