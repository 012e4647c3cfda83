"""Tests for the fault injector and the manager's death paths."""

from dataclasses import replace

import pytest

from repro.buffer.pool import BufferPoolError
from repro.core.config import SharingConfig
from repro.core.manager import ScanSharingManager
from repro.core.scan_state import ScanDescriptor
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.scans.table_scan import TableScan
from repro.sim.kernel import Simulator
from repro.storage.catalog import Catalog
from repro.storage.schema import ColumnSpec
from repro.storage.table import Table
from repro.storage.tablespace import Tablespace

from tests.conftest import flat_cost, make_database, make_pool, make_schema


cheap = flat_cost(1e-6)


def one_read_elapsed(plan=None, start_page=500):
    """Simulated seconds to complete one 8-page read, faults optional."""
    sim = Simulator()
    disk = Disk(sim, DiskGeometry(total_pages=4096))
    if plan is not None:
        injector = FaultInjector(sim, plan)
        injector.attach(disk=disk)
    disk.read(start_page, 8)
    sim.run()
    return sim.now, disk


class TestDiskDelay:
    def test_delay_stretches_service_time(self):
        clean, _ = one_read_elapsed()
        plan = FaultPlan.from_spec("disk-delay:factor=4.0", seed=0)
        degraded, disk = one_read_elapsed(plan)
        assert degraded == pytest.approx(clean * 4.0)
        assert disk._faults.stats.disk_delayed_requests == 1

    def test_window_bounds_respected(self):
        # Window already closed at t=0: the read is untouched.
        clean, _ = one_read_elapsed()
        plan = FaultPlan.from_spec("disk-delay:factor=4.0,from=100.0", seed=0)
        elapsed, disk = one_read_elapsed(plan)
        assert elapsed == pytest.approx(clean)
        assert disk._faults.stats.disk_delayed_requests == 0

    def test_overlapping_windows_compound(self):
        clean, _ = one_read_elapsed()
        plan = FaultPlan.from_spec("disk-delay:factor=2.0; disk-delay:factor=3.0", seed=0)
        degraded, _ = one_read_elapsed(plan)
        assert degraded == pytest.approx(clean * 6.0)


class TestDiskError:
    def test_certain_errors_retry_then_force_through(self):
        # rate=1.0: every attempt up to max_retries fails, then the
        # request is forced through — it degrades, it never wedges.
        plan = FaultPlan.from_spec(
            "disk-error:rate=1.0,max_retries=3,backoff=0.001", seed=0
        )
        elapsed, disk = one_read_elapsed(plan)
        clean, _ = one_read_elapsed()
        assert disk.stats.io_retries == 3
        assert disk._faults.stats.disk_errors_injected == 3
        assert disk.stats.reads == 1  # counted once, on real completion
        # Three failed attempts, exponential backoff, one success.
        assert elapsed > clean + 0.001 + 0.002 + 0.004

    def test_zero_rate_injects_nothing(self):
        plan = FaultPlan.from_spec("disk-error:rate=0.0", seed=0)
        elapsed, disk = one_read_elapsed(plan)
        clean, _ = one_read_elapsed()
        assert elapsed == pytest.approx(clean)
        assert disk.stats.io_retries == 0

    def test_same_seed_same_error_schedule(self):
        plan = FaultPlan.from_spec("disk-error:rate=0.5,max_retries=2", seed=11)

        def run():
            sim = Simulator()
            disk = Disk(sim, DiskGeometry(total_pages=4096))
            FaultInjector(sim, plan).attach(disk=disk)
            for start in range(0, 512, 8):
                disk.read(start, 8)
            sim.run()
            return sim.now, disk.stats.io_retries

        assert run() == run()


class TestPoolPressure:
    def test_reserve_clamped_to_keep_minimum_usable(self):
        sim = Simulator()
        pool = make_pool(sim, Disk(sim, DiskGeometry(total_pages=4096)), capacity=32)
        granted = pool.reserve(1000)
        assert granted == 32 - pool.MIN_USABLE_FRAMES
        assert pool.effective_capacity == pool.MIN_USABLE_FRAMES
        # Fully reserved: further pressure is refused, not stacked.
        assert pool.reserve(1) == 0

    def test_release_returns_only_whats_reserved(self):
        sim = Simulator()
        pool = make_pool(sim, Disk(sim, DiskGeometry(total_pages=4096)), capacity=32)
        granted = pool.reserve(10)
        assert pool.release_reserved(1000) == granted
        assert pool.reserved_frames == 0
        assert pool.effective_capacity == 32

    def test_negative_reserve_rejected(self):
        sim = Simulator()
        pool = make_pool(sim, Disk(sim, DiskGeometry(total_pages=4096)), capacity=32)
        with pytest.raises(BufferPoolError):
            pool.reserve(-1)

    def test_scans_complete_under_heavy_pressure(self):
        # 90 % of the pool reserved for the whole run: scans must still
        # finish (the claw-back path yields frames back rather than
        # wedging a pinned scan).
        db = make_database(
            n_pages=128, pool_pages=32,
            fault_plan=FaultPlan.from_spec("pool-pressure:fraction=0.9", seed=0),
        )
        scans = [
            TableScan(db, "t", 0, 127, on_run=cheap, sharing=db.sharing)
            for _ in range(2)
        ]
        procs = [db.sim.spawn(scan.run()) for scan in scans]
        db.sim.run()
        for proc in procs:
            assert not proc.completion.failed
            assert proc.completion.value.pages_scanned == 128
        assert db.faults.stats.pool_pressure_events >= 1


class TestScanKills:
    def run_scans(self, db, n_scans, n_pages=128):
        scans = [
            TableScan(db, "t", 0, n_pages - 1, on_run=cheap, sharing=db.sharing)
            for _ in range(n_scans)
        ]
        procs = [db.sim.spawn(scan.run()) for scan in scans]
        db.sim.run()
        for proc in procs:
            assert not proc.completion.failed, proc.completion.value
        return [proc.completion.value for proc in procs]

    def test_any_kill_aborts_partial_scan(self):
        db = make_database(
            n_pages=128,
            fault_plan=FaultPlan.from_spec("scan-kill:target=any,at=0.5", seed=0),
        )
        (result,) = self.run_scans(db, 1)
        assert result.aborted
        assert result.pages_scanned == 64  # struck exactly at the fraction
        assert db.sharing.stats.scans_aborted == 1
        assert db.sharing.stats.scans_finished == 0
        assert db.sharing.active_scan_count == 0

    def test_count_bounds_total_kills(self):
        db = make_database(
            n_pages=128,
            fault_plan=FaultPlan.from_spec(
                "scan-kill:target=any,at=0.25,count=1", seed=0
            ),
        )
        results = self.run_scans(db, 3)
        assert sum(r.aborted for r in results) == 1
        assert sum(not r.aborted for r in results) == 2

    def test_nth_kill_targets_one_scan_id(self):
        db = make_database(
            n_pages=128,
            fault_plan=FaultPlan.from_spec(
                "scan-kill:target=nth,nth=1,at=0.5,count=99", seed=0
            ),
        )
        results = self.run_scans(db, 3)
        assert [r.aborted for r in results] == [False, True, False]

    def test_leader_abort_workload_completes(self):
        # The headline regression: a group's leader dies mid-flight and
        # the survivors must neither deadlock nor stay grouped with the
        # ghost.
        db = make_database(
            n_pages=256,
            fault_plan=FaultPlan.from_spec("leader-abort", seed=0),
        )
        results = self.run_scans(db, 3, n_pages=256)
        assert sum(r.aborted for r in results) == 1
        for result in results:
            if not result.aborted:
                assert result.pages_scanned == 256
        assert db.sharing.active_scan_count == 0
        assert not db.sharing.groups()

    def test_anchor_abort_leader_does_not_wait_forever(self):
        db = make_database(
            n_pages=256,
            fault_plan=FaultPlan.from_spec("trailer-abort", seed=0),
        )
        results = self.run_scans(db, 3, n_pages=256)
        assert sum(r.aborted for r in results) == 1
        assert db.sharing.active_scan_count == 0

    def test_kill_before_pin_leaks_no_frames(self):
        db = make_database(
            n_pages=128,
            fault_plan=FaultPlan.from_spec("scan-kill:target=any,at=0.5", seed=0),
        )
        self.run_scans(db, 2)
        for key in db.pool.resident_keys():
            assert not db.pool.frame_of(key).pin_count


def make_manager(config=None, table_pages=1000, pool=200, extent=16):
    sim = Simulator()
    catalog = Catalog(Tablespace(10_000))
    schema = make_schema("t", [ColumnSpec("id", "sequence")])
    catalog.create_table(Table(schema, n_pages=table_pages, extent_size=extent))
    manager = ScanSharingManager(
        sim, catalog, pool_capacity=pool, config=config or SharingConfig()
    )
    return sim, manager


def full_descriptor(speed=100.0, table_pages=1000):
    return ScanDescriptor("t", 0, table_pages - 1, estimated_speed=speed)


class TestManagerDeathPaths:
    """S1: abort/end mid-group must dissolve and re-anchor cleanly."""

    def start_group_of_three(self, manager):
        states = [manager.start_scan(full_descriptor()) for _ in range(3)]
        # Spread them along the arc: trailer, middle, leader.
        manager.update_location(states[0].scan_id, 16)
        manager.update_location(states[1].scan_id, 48)
        manager.update_location(states[2].scan_id, 96)
        return states

    def test_abort_scan_removes_member_from_groups(self):
        _, manager = make_manager()
        states = self.start_group_of_three(manager)
        group = manager.group_of(states[1].scan_id)
        assert group is not None and group.size == 3
        manager.abort_scan(states[1].scan_id)
        assert manager.stats.scans_aborted == 1
        dead_id = states[1].scan_id
        for group in manager.groups():
            assert all(m.scan_id != dead_id for m in group.members)
        with pytest.raises(KeyError):
            manager.scan_state(dead_id)

    def test_abort_leader_promotes_next_member(self):
        _, manager = make_manager()
        states = self.start_group_of_three(manager)
        leader = max(states, key=lambda s: s.pages_scanned)
        manager.abort_scan(leader.scan_id)
        survivors = manager.active_scans()
        assert len(survivors) == 2
        group = manager.group_of(survivors[0].scan_id)
        if group is not None and group.size == 2:
            assert group.leader.scan_id != leader.scan_id
            assert not group.leader.finished

    def test_abort_does_not_record_last_finished(self):
        _, manager = make_manager()
        state = manager.start_scan(full_descriptor())
        manager.update_location(state.scan_id, 500)
        manager.abort_scan(state.scan_id)
        assert manager.last_finished_position("t") is None

    def test_mid_group_trailer_end_reanchors(self):
        _, manager = make_manager()
        states = self.start_group_of_three(manager)
        trailer = min(states, key=lambda s: s.pages_scanned)
        manager.end_scan(trailer.scan_id)
        for group in manager.groups():
            assert all(not m.finished for m in group.members)
            assert all(m.scan_id != trailer.scan_id for m in group.members)

    def test_zero_page_end_scan_leaves_no_placement_signal(self):
        _, manager = make_manager()
        state = manager.start_scan(full_descriptor())
        manager.end_scan(state.scan_id)
        assert manager.last_finished_position("t") is None

    def test_finished_scan_position_still_recorded(self):
        _, manager = make_manager()
        state = manager.start_scan(full_descriptor())
        manager.update_location(state.scan_id, 1000)
        manager.end_scan(state.scan_id)
        assert manager.last_finished_position("t") == 999

    def test_grouping_disabled_regroup_clears_stale_flags(self):
        _, manager = make_manager()
        states = self.start_group_of_three(manager)
        assert any(s.is_leader for s in states)
        manager.config = replace(manager.config, grouping_enabled=False)
        manager._regroup(force=True)
        assert not manager.groups()
        for state in manager.active_scans():
            assert state.group_id is None
            assert not state.is_leader and not state.is_trailer


class TestDeterminism:
    def test_same_plan_same_outcome(self):
        def run():
            db = make_database(
                n_pages=128,
                fault_plan=FaultPlan.from_spec(
                    "scan-kill:target=any,at=0.5; disk-error:rate=0.2", seed=5
                ),
            )
            scans = [
                TableScan(db, "t", 0, 127, on_run=cheap, sharing=db.sharing)
                for _ in range(3)
            ]
            procs = [db.sim.spawn(scan.run()) for scan in scans]
            db.sim.run()
            results = [p.completion.value for p in procs]
            return (
                db.sim.now,
                tuple((r.aborted, r.pages_scanned) for r in results),
                db.faults.stats.total_injected,
                db.disk.stats.io_retries,
            )

        assert run() == run()
