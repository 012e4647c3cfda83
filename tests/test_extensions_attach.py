"""Tests for the QPipe-style attach/detach baseline."""

import pytest

from repro.core.config import SharingConfig
from repro.extensions.attach_sharing import AttachScanManager
from repro.scans.shared_scan import SharedTableScan

from tests.conftest import flat_cost, make_database


cheap = flat_cost(1e-6)


def attach_scan_process(manager, table, on_run, delay=0.0):
    def process(sim):
        if delay > 0:
            yield sim.timeout(delay)
        result = yield from manager.scan(table, on_run)
        return result

    return process


class TestCircularDaemon:
    def test_single_consumer_sees_whole_table(self):
        db = make_database(n_pages=64, sharing=SharingConfig(enabled=False))
        manager = AttachScanManager(db)
        proc = db.sim.spawn(attach_scan_process(manager, "t", cheap)(db.sim))
        db.sim.run()
        result = proc.completion.value
        assert result.pages_scanned == 64
        assert result.rows_seen == 64 * 100

    def test_daemon_stops_when_no_consumers(self):
        db = make_database(n_pages=64, sharing=SharingConfig(enabled=False))
        manager = AttachScanManager(db)
        proc = db.sim.spawn(attach_scan_process(manager, "t", cheap)(db.sim))
        db.sim.run()
        assert proc.completion.value is not None
        assert manager.daemon("t").active_consumers == 0
        pages_after = db.disk.stats.pages_read
        db.sim.run()  # nothing scheduled: the daemon is not spinning
        assert db.disk.stats.pages_read == pages_after

    def test_late_consumer_attaches_mid_circle(self):
        db = make_database(n_pages=64, sharing=SharingConfig(enabled=False))
        manager = AttachScanManager(db)
        first = db.sim.spawn(attach_scan_process(manager, "t", cheap)(db.sim))
        second = db.sim.spawn(
            attach_scan_process(manager, "t", cheap, delay=0.005)(db.sim)
        )
        db.sim.run()
        result = second.completion.value
        assert result.pages_scanned == 64
        assert result.start_page > 0  # joined mid-circle
        assert not first.completion.failed

    def test_two_attached_consumers_share_all_reads(self):
        """Perfect case for attach sharing: equal speeds, one producer."""
        db = make_database(n_pages=64, pool_pages=32,
                           sharing=SharingConfig(enabled=False))
        manager = AttachScanManager(db)
        procs = [
            db.sim.spawn(attach_scan_process(manager, "t", cheap)(db.sim))
            for _ in range(3)
        ]
        db.sim.run()
        for proc in procs:
            assert proc.completion.value.pages_scanned == 64
        # One producer: the table is read at most ~once plus the catch-up
        # circle for late attachments.
        assert db.disk.stats.pages_read <= 2 * 64

    def test_slow_consumer_drags_the_group(self):
        """The paper's critique: the broadcast group runs at the slowest
        consumer's pace, so a fast query is penalized unboundedly."""
        db = make_database(n_pages=64, sharing=SharingConfig(enabled=False))
        manager = AttachScanManager(db)
        fast = db.sim.spawn(attach_scan_process(manager, "t", cheap)(db.sim))
        slow = db.sim.spawn(
            attach_scan_process(manager, "t", flat_cost(2e-3))(db.sim)
        )
        db.sim.run()
        fast_result = fast.completion.value
        # Alone, the fast scan would need ~64 * (I/O + 1us) ~ 0.02s; the
        # broadcast chains it to the slow consumer's ~0.128s of CPU.
        assert fast_result.elapsed > 0.1

    def test_throttled_sharing_bounds_the_fast_scans_penalty(self):
        """Contrast: the paper's mechanism caps the fast scan's delay at
        the 80 % fairness cap instead of chaining it to the slow scan."""
        db = make_database(n_pages=64, sharing=SharingConfig())
        fast_scan = SharedTableScan(db, "t", 0, 63, on_run=cheap)
        slow_scan = SharedTableScan(db, "t", 0, 63, on_run=flat_cost(2e-3))
        fast = db.sim.spawn(fast_scan.run())
        slow = db.sim.spawn(slow_scan.run())
        db.sim.run()
        fast_result = fast.completion.value
        solo_estimate = fast_result.elapsed - fast_result.throttle_seconds
        cap = 0.8 * 2 * solo_estimate + 0.05  # generous bound around 80 %
        assert fast_result.throttle_seconds <= cap
        assert not slow.completion.failed
