"""Failure-injection tests: scans must clean up after themselves."""

import pytest

from repro.core.config import SharingConfig
from repro.engine.executor import execute_query
from repro.faults.plan import FaultPlan
from repro.scans.base import LazyPages
from repro.scans.table_scan import TableScan

from tests.conftest import flat_cost, make_database, uniform_scan_query


def exploding_on_run(fail_at_page):
    """Fails when the scan reaches ``fail_at_page``, while it is pinned."""

    def on_run(first_page, batch, page_rows):
        def seconds(index):
            if first_page + index == fail_at_page:
                raise RuntimeError(f"injected failure at page {fail_at_page}")
            return 1e-6

        return LazyPages(seconds)

    return on_run


def assert_no_pins(db):
    for key in db.pool.resident_keys():
        assert not db.pool.frame_of(key).pin_count, f"leaked pin on {key}"


class TestPinLeaks:
    @pytest.mark.parametrize("shared", [False, True])
    def test_failing_scan_releases_all_pins(self, shared):
        db = make_database(n_pages=64, sharing=SharingConfig(enabled=shared))
        scan = TableScan(db, "t", 0, 63, on_run=exploding_on_run(20),
                         sharing=db.sharing if shared else None)
        proc = db.sim.spawn(scan.run())
        db.sim.run()
        assert proc.completion.failed
        assert_no_pins(db)

    def test_pool_usable_after_scan_failure(self):
        """A crashed scan must not poison the pool for later scans."""
        db = make_database(n_pages=64, pool_pages=16,
                           sharing=SharingConfig(enabled=True))
        bad = TableScan(db, "t", 0, 63, on_run=exploding_on_run(5),
                        sharing=db.sharing)
        proc_bad = db.sim.spawn(bad.run())
        db.sim.run()
        assert proc_bad.completion.failed
        good = TableScan(db, "t", 0, 63, on_run=flat_cost(1e-6), sharing=db.sharing)
        proc_good = db.sim.spawn(good.run())
        db.sim.run()
        assert not proc_good.completion.failed
        assert proc_good.completion.value.pages_scanned == 64
        assert_no_pins(db)

    def test_manager_clean_after_failure(self):
        db = make_database(n_pages=64)
        scan = TableScan(db, "t", 0, 63, on_run=exploding_on_run(9),
                         sharing=db.sharing)
        proc = db.sim.spawn(scan.run())
        db.sim.run()
        assert proc.completion.failed
        assert db.sharing.active_scan_count == 0


class TestCoreLeaks:
    """However a scan ends, it keeps neither a pinned frame nor a core."""

    def assert_clean(self, db):
        assert_no_pins(db)
        assert db.cpu.in_use == 0 and db.cpu.queue_length == 0
        assert db.sharing.active_scan_count == 0

    def test_scan_killed_by_the_injector(self):
        db = make_database(
            n_pages=128, n_cpus=1,
            fault_plan=FaultPlan.from_spec(
                "scan-kill:target=any,at=0.5,count=2", seed=0
            ),
        )
        scans = [TableScan(db, "t", 0, 127, on_run=flat_cost(1e-3),
                           sharing=db.sharing)
                 for _ in range(2)]
        procs = [db.sim.spawn(scan.run()) for scan in scans]
        db.sim.run()
        assert all(proc.completion.value.aborted for proc in procs)
        self.assert_clean(db)

    def test_scan_failing_while_a_page_is_pinned(self):
        db = make_database(n_pages=64, n_cpus=1)
        bad = TableScan(db, "t", 0, 63, on_run=exploding_on_run(20),
                        sharing=db.sharing)
        good = TableScan(db, "t", 0, 63, on_run=flat_cost(1e-3), sharing=db.sharing)
        procs = [db.sim.spawn(scan.run()) for scan in (bad, good)]
        db.sim.run()
        assert procs[0].completion.failed and not procs[1].completion.failed
        self.assert_clean(db)


class TestRequiresOrder:
    """No step asks for rows in physical order, so with sharing on any
    scan may start mid-range and wrap."""

    def test_unordered_step_may_relocate(self):
        db = make_database(n_pages=128, sharing=SharingConfig(enabled=True))
        warm = TableScan(db, "t", 0, 127, on_run=flat_cost(1e-4), sharing=db.sharing)
        db.sim.spawn(warm.run())
        db.sim.run(until=0.02)
        unordered = uniform_scan_query("t", name="unordered")
        proc = db.sim.spawn(execute_query(db, unordered))
        db.sim.run()
        result = proc.completion.value
        assert result.steps[0].scan.start_page > 0
