#!/usr/bin/env python
"""Future work in action: sharing for index-based scans (SISCAN).

The ICDE 2007 paper closes by naming index scans as future work — and
they are harder: an index scan visits blocks in *key* order, which on an
MDC-style block index is nothing like page order, so two scans' distance
cannot be read off their current positions.  The `repro.extensions.
index_sharing` package implements the anchors/offsets solution the
authors published next (VLDB 2007).

This example builds a fact table with a fully *scattered* block index,
fires staggered range scans at it, and compares plain IXSCANs against
ISM-coordinated SISCANs.

Run:  python examples/index_scan_sharing.py
"""

from repro import ColumnSpec, Database, SharingConfig, SystemConfig, TableSchema
from repro.extensions.index_sharing import (
    BlockIndex,
    IndexScan,
    IndexScanSharingManager,
    SharedIndexScan,
)
from repro.metrics.report import format_table, percent_gain

TABLE_PAGES = 1024
BLOCK_PAGES = 16
POOL_PAGES = 96
N_SCANS = 4

#: A sequence key, a value, and a clustered date column.
FACT_SCHEMA = TableSchema(
    name="fact",
    rows_per_page=100,
    columns=(
        ColumnSpec("id", "sequence"),
        ColumnSpec("value", "float_uniform", 0.0, 100.0),
        ColumnSpec("flag", "choice", categories=("a", "b", "c")),
        ColumnSpec("day", "clustered", 0.0, 1000.0),
    ),
)


def build(shared: bool):
    db = Database(SystemConfig(
        pool_pages=POOL_PAGES,
        sharing=SharingConfig(enabled=shared),
    ))
    db.create_table(FACT_SCHEMA, n_pages=TABLE_PAGES, extent_size=BLOCK_PAGES)
    db.open()
    index = BlockIndex(db.catalog.table("fact"), block_size_pages=BLOCK_PAGES)
    ism = IndexScanSharingManager(
        db.sim, pages_per_entry=BLOCK_PAGES, pool_capacity=POOL_PAGES,
        config=db.config.sharing,
    )
    return db, index, ism


def run(shared: bool):
    db, index, ism = build(shared)
    print(f"  index scatter factor: {index.scatter_factor():.2f} "
          f"(1.0 = key order is unrelated to page order)")

    def scan_process(sim, delay):
        yield sim.timeout(delay)
        if shared:
            scan = SharedIndexScan(db, index, ism, 0, index.n_entries - 1)
        else:
            scan = IndexScan(db, index, 0, index.n_entries - 1)
        result = yield from scan.run()
        return result

    solo = TABLE_PAGES * db.config.geometry.transfer_time(1)
    procs = [db.sim.spawn(scan_process(db.sim, i * solo / 8))
             for i in range(N_SCANS)]
    db.sim.run()
    return db, ism, [p.completion.value for p in procs]


def main():
    print("Plain IXSCANs:")
    base_db, _, base_results = run(shared=False)
    print("ISM-coordinated SISCANs:")
    shared_db, ism, shared_results = run(shared=True)

    print()
    rows = [
        [f"scan {i}", base.elapsed, shared.elapsed,
         percent_gain(base.elapsed, shared.elapsed)]
        for i, (base, shared) in enumerate(zip(base_results, shared_results))
    ]
    rows.append(["pages read", base_db.disk.stats.pages_read,
                 shared_db.disk.stats.pages_read,
                 percent_gain(base_db.disk.stats.pages_read,
                              shared_db.disk.stats.pages_read)])
    rows.append(["disk seeks", base_db.disk.stats.seeks,
                 shared_db.disk.stats.seeks,
                 percent_gain(float(base_db.disk.stats.seeks),
                              float(shared_db.disk.stats.seeks))])
    print(format_table(["metric", "IXSCAN", "SISCAN", "gain %"], rows))
    print()
    print(f"ISM: {ism.stats.scans_joined} of {ism.stats.scans_started} scans "
          f"joined an anchor group; {ism.stats.throttle_waits} throttle "
          f"waits; {ism.stats.rebases_on_wrap} anchor rebases on wrap.")


if __name__ == "__main__":
    main()
