"""Unit tests for the scan operators."""

import pytest

from repro.core.config import SharingConfig
from repro.scans.base import scan_order
from repro.scans.shared_scan import SharedTableScan
from repro.scans.table_scan import TableScan

from tests.conftest import flat_cost, make_database


def run_scan(db, scan):
    proc = db.sim.spawn(scan.run(), name="scan")
    db.sim.run()
    if proc.completion.failed:
        raise proc.completion.value
    return proc.completion.value


cheap = flat_cost(1e-6)


class TestScanOrder:
    def test_no_wrap(self):
        assert list(scan_order(0, 4, 0)) == [0, 1, 2, 3, 4]

    def test_wrap_from_middle(self):
        assert list(scan_order(0, 4, 2)) == [2, 3, 4, 0, 1]

    def test_wrap_from_last(self):
        assert list(scan_order(0, 4, 4)) == [4, 0, 1, 2, 3]

    def test_offset_range(self):
        assert list(scan_order(10, 13, 12)) == [12, 13, 10, 11]

    def test_start_outside_range_rejected(self):
        with pytest.raises(ValueError):
            list(scan_order(0, 4, 5))

    def test_every_page_exactly_once(self):
        pages = list(scan_order(3, 17, 9))
        assert sorted(pages) == list(range(3, 18))


class TestTableScan:
    def test_visits_full_range_in_order(self):
        db = make_database(n_pages=32, sharing=SharingConfig(enabled=False))
        scan = TableScan(db, "t", 0, 31, on_run=cheap, record_visits=True)
        result = run_scan(db, scan)
        assert result.visited_pages == list(range(32))
        assert result.pages_scanned == 32
        assert result.rows_seen == 32 * 100

    def test_partial_range(self):
        db = make_database(n_pages=32, sharing=SharingConfig(enabled=False))
        scan = TableScan(db, "t", 8, 15, on_run=cheap, record_visits=True)
        result = run_scan(db, scan)
        assert result.visited_pages == list(range(8, 16))

    def test_bad_range_rejected(self):
        db = make_database(n_pages=32)
        with pytest.raises(ValueError):
            TableScan(db, "t", 0, 32, on_run=cheap)

    def test_cpu_time_accumulated(self):
        db = make_database(n_pages=16, sharing=SharingConfig(enabled=False))
        scan = TableScan(db, "t", 0, 15, on_run=flat_cost(0.001))
        result = run_scan(db, scan)
        assert result.cpu_seconds == pytest.approx(0.016)
        assert result.elapsed >= 0.016

    def test_prefetch_reads_extents(self):
        db = make_database(n_pages=32, extent_size=8,
                           sharing=SharingConfig(enabled=False))
        scan = TableScan(db, "t", 0, 31, on_run=cheap)
        run_scan(db, scan)
        # 4 extents -> 4 physical requests of 8 pages each.
        assert db.disk.stats.reads == 4
        assert db.disk.stats.pages_read == 32


class TestSharedTableScan:
    def test_covers_whole_range_despite_wrap(self):
        db = make_database(n_pages=64)
        # Prime the manager with a scan in progress so the next placement
        # lands mid-range.
        first = SharedTableScan(db, "t", 0, 63, on_run=cheap, record_visits=True)
        second_holder = {}

        def start_second(sim):
            yield sim.timeout(0.005)
            scan = SharedTableScan(db, "t", 0, 63, on_run=cheap, record_visits=True)
            result = yield from scan.run()
            second_holder["result"] = result

        proc1 = db.sim.spawn(first.run())
        db.sim.spawn(start_second(db.sim))
        db.sim.run()
        assert not proc1.completion.failed
        result = second_holder["result"]
        assert sorted(result.visited_pages) == list(range(64))

    def test_manager_sees_start_and_end(self):
        db = make_database(n_pages=32)
        scan = SharedTableScan(db, "t", 0, 31, on_run=cheap)
        run_scan(db, scan)
        assert db.sharing.stats.scans_started == 1
        assert db.sharing.stats.scans_finished == 1
        assert db.sharing.active_scan_count == 0

    def test_manager_deregistered_even_on_failure(self):
        db = make_database(n_pages=32)

        def explode(first_page, batch, page_rows):
            raise RuntimeError("page processing failed")

        scan = SharedTableScan(db, "t", 0, 31, on_run=explode)
        proc = db.sim.spawn(scan.run())
        db.sim.run()
        assert proc.completion.failed
        assert db.sharing.active_scan_count == 0

    def test_result_identical_to_plain_scan(self):
        """Sharing must never change which pages a scan processes."""
        shared_db = make_database(n_pages=48)
        base_db = make_database(n_pages=48, sharing=SharingConfig(enabled=False))
        shared = SharedTableScan(shared_db, "t", 0, 47, on_run=cheap,
                                 record_visits=True)
        plain = TableScan(base_db, "t", 0, 47, on_run=cheap, record_visits=True)
        shared_result = run_scan(shared_db, shared)
        plain_result = run_scan(base_db, plain)
        assert sorted(shared_result.visited_pages) == plain_result.visited_pages

    def test_two_aligned_scans_share_physical_reads(self):
        """The headline mechanism: two concurrent scans read the table's
        pages from disk roughly once, not twice."""
        db = make_database(n_pages=64, pool_pages=32)

        def spawn_scan():
            scan = SharedTableScan(db, "t", 0, 63, on_run=cheap)
            return db.sim.spawn(scan.run())

        procs = [spawn_scan(), spawn_scan()]
        db.sim.run()
        for proc in procs:
            assert not proc.completion.failed
        # Unshared lower bound would be 128 pages; sharing should stay
        # close to 64.
        assert db.disk.stats.pages_read < 96

    def test_throttle_seconds_reported(self):
        db = make_database(n_pages=128, pool_pages=64)
        # A fast scan and a slow scan: the fast one must get throttled.
        fast = SharedTableScan(db, "t", 0, 127, on_run=flat_cost(1e-6))
        slow = SharedTableScan(db, "t", 0, 127, on_run=flat_cost(2e-3))
        proc_fast = db.sim.spawn(fast.run())
        proc_slow = db.sim.spawn(slow.run())
        db.sim.run()
        fast_result = proc_fast.completion.value
        slow_result = proc_slow.completion.value
        assert fast_result.throttle_seconds > 0
        assert slow_result.throttle_seconds == 0
