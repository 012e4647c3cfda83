"""Unit tests for the scan sharing manager lifecycle."""

import pytest

from repro.buffer.page import Priority
from repro.core.config import SharingConfig
from repro.core.manager import REGROUP_INTERVAL, RETENTION_WRAPS, ScanSharingManager
from repro.core.policy import SPEED_SMOOTHING
from repro.core.scan_state import ScanDescriptor
from repro.engine.executor import run_workload
from repro.sim.kernel import Simulator
from repro.storage.catalog import Catalog
from repro.storage.schema import ColumnSpec
from repro.storage.table import Table
from repro.storage.tablespace import Tablespace

from tests.conftest import make_database, make_schema, uniform_scan_query


def make_manager(config=None, table_pages=1000, pool=200, extent=16):
    sim = Simulator()
    catalog = Catalog(Tablespace(10_000))
    schema = make_schema("t", [ColumnSpec("id", "sequence")])
    catalog.create_table(Table(schema, n_pages=table_pages, extent_size=extent))
    manager = ScanSharingManager(
        sim, catalog, pool_capacity=pool, config=config or SharingConfig()
    )
    return sim, manager


def full_scan_descriptor(speed=100.0, table_pages=1000):
    return ScanDescriptor("t", 0, table_pages - 1, estimated_speed=speed)


def run_fast_behind_slow(enabled):
    """A CPU-heavy scan, then a light one 50 ms later, through the
    executor; returns the workload result and its database."""
    db = make_database(n_pages=1000, pool_pages=64,
                       sharing=SharingConfig(enabled=enabled))
    slow = uniform_scan_query("t", cpu_units_per_row=50.0, name="slow")
    fast = uniform_scan_query("t", name="fast")
    return run_workload(db, [[slow], [fast]], stagger=0.05), db


def start_pages(result):
    return [q.steps[0].scan.start_page
            for stream in result.streams for q in stream.queries]


class TestLifecycle:
    def test_first_scan_starts_at_range_start(self):
        _, manager = make_manager()
        state = manager.start_scan(full_scan_descriptor())
        assert state.start_page == 0
        assert manager.active_scan_count == 1

    def test_scan_range_validated_against_table(self):
        _, manager = make_manager(table_pages=100)
        with pytest.raises(ValueError):
            manager.start_scan(ScanDescriptor("t", 0, 100, estimated_speed=1.0))

    def test_second_scan_joins_first(self):
        sim, manager = make_manager()
        first = manager.start_scan(full_scan_descriptor())
        manager.update_location(first.scan_id, 200)
        second = manager.start_scan(full_scan_descriptor())
        assert second.start_page == 192  # extent-aligned at first's position
        assert manager.stats.scans_joined_ongoing == 1

    def test_end_scan_removes_state(self):
        _, manager = make_manager()
        state = manager.start_scan(full_scan_descriptor())
        manager.end_scan(state.scan_id)
        assert manager.active_scan_count == 0
        with pytest.raises(KeyError):
            manager.scan_state(state.scan_id)

    def test_end_scan_records_last_read_position(self):
        """A finished full scan's last *read* page is the one before its
        wrapped final position."""
        _, manager = make_manager()
        state = manager.start_scan(full_scan_descriptor())
        manager.update_location(state.scan_id, 1000)
        manager.end_scan(state.scan_id)
        assert manager.last_finished_position("t") == 999

    def test_new_scan_after_all_finished_starts_near_last_position(self):
        """The next scan starts a pool-leftover's worth of pages before the
        finished scan's stopping point, to sweep up resident pages."""
        _, manager = make_manager(pool=200)
        first = manager.start_scan(full_scan_descriptor())
        manager.update_location(first.scan_id, 512)
        manager.end_scan(first.scan_id)
        last_read = manager.last_finished_position("t")
        second = manager.start_scan(full_scan_descriptor())
        assert second.start_page <= last_read
        # Backed off by ~pool/2 pages, then extent-aligned.
        assert second.start_page >= last_read - 200 // 2 - 16
        assert second.start_page > 0

    def test_unknown_scan_id_raises(self):
        _, manager = make_manager()
        with pytest.raises(KeyError):
            manager.update_location(42, 10)


class TestLocationUpdates:
    def test_pages_scanned_monotone(self):
        _, manager = make_manager()
        state = manager.start_scan(full_scan_descriptor())
        manager.update_location(state.scan_id, 100)
        with pytest.raises(ValueError):
            manager.update_location(state.scan_id, 50)

    def test_speed_measured_from_progress(self):
        sim, manager = make_manager()
        state = manager.start_scan(full_scan_descriptor(speed=100.0))
        sim.schedule(2.0, lambda: None)
        sim.run()
        manager.update_location(state.scan_id, 400)  # 200 pages/s
        assert state.speed == pytest.approx(
            SPEED_SMOOTHING * 200 + (1 - SPEED_SMOOTHING) * 100)

    def test_speed_smoothing_blends(self):
        sim, manager = make_manager()
        state = manager.start_scan(full_scan_descriptor(speed=100.0))
        sim.schedule(1.0, lambda: None)
        sim.run()
        manager.update_location(state.scan_id, 300)
        first = SPEED_SMOOTHING * 300 + (1 - SPEED_SMOOTHING) * 100
        assert state.speed == pytest.approx(first)
        sim.schedule(1.0, lambda: None)
        sim.run()
        manager.update_location(state.scan_id, 400)
        assert state.speed == pytest.approx(
            SPEED_SMOOTHING * 100 + (1 - SPEED_SMOOTHING) * first)

    def test_no_time_elapsed_keeps_speed(self):
        _, manager = make_manager()
        state = manager.start_scan(full_scan_descriptor(speed=100.0))
        manager.update_location(state.scan_id, 10)
        assert state.speed == pytest.approx(100.0)

    def test_same_instant_update_not_double_counted(self):
        """Regression: pages reported in a zero-elapsed-time update used
        to stay in the bookkeeping and be counted again by the next
        sample, doubling the measured speed."""
        sim, manager = make_manager()
        state = manager.start_scan(full_scan_descriptor(speed=100.0))
        sim.schedule(1.0, lambda: None)
        sim.run()
        manager.update_location(state.scan_id, 100)
        manager.update_location(state.scan_id, 200)  # same sim instant
        sim.schedule(1.0, lambda: None)
        sim.run()
        manager.update_location(state.scan_id, 300)
        assert state.speed == pytest.approx(100.0)

    def test_idle_interval_not_counted_into_next_sample(self):
        """Regression: an update reporting no progress used to leave the
        sample window open, diluting the next speed measurement over the
        idle time."""
        sim, manager = make_manager()
        state = manager.start_scan(full_scan_descriptor(speed=100.0))
        sim.schedule(1.0, lambda: None)
        sim.run()
        manager.update_location(state.scan_id, 100)
        sim.schedule(1.0, lambda: None)
        sim.run()
        manager.update_location(state.scan_id, 100)  # stalled, no progress
        sim.schedule(1.0, lambda: None)
        sim.run()
        manager.update_location(state.scan_id, 200)
        assert state.speed == pytest.approx(100.0)


class TestThrottlingThroughManager:
    def test_leader_receives_wait(self):
        sim, manager = make_manager()
        trailer = manager.start_scan(full_scan_descriptor())
        leader = manager.start_scan(full_scan_descriptor())
        # Leader sprints ahead; trailer crawls.
        sim.schedule(1.0, lambda: None)
        sim.run()
        manager.update_location(trailer.scan_id, 10)
        # Advance past the regroup interval so the leader's update sees
        # freshly formed groups reflecting both positions.
        sim.schedule(1.0, lambda: None)
        sim.run()
        # Distance 140 is inside the grouping budget (200) but beyond the
        # throttle threshold (2 extents = 32 pages).
        wait = manager.update_location(leader.scan_id, 150)
        assert wait > 0
        assert manager.stats.throttle_waits == 1
        assert manager.stats.total_throttle_time == pytest.approx(wait)

    def test_leader_keeps_throttling_after_wrap(self):
        """Regression (the paper's scans are circular): a staggered pair
        where the leader wraps past the range end must keep throttling.
        The old linear ``leader.position - trailer.position`` went
        negative after the wrap and never throttled again."""
        sim, manager = make_manager()

        def advance(dt):
            sim.schedule(dt, lambda: None)
            sim.run()

        leader = manager.start_scan(full_scan_descriptor())
        trailer = manager.start_scan(full_scan_descriptor())
        advance(1.0)
        manager.update_location(trailer.scan_id, 900)
        advance(1.0)
        wait_before_wrap = manager.update_location(leader.scan_id, 980)
        assert wait_before_wrap > 0  # distance 80, pre-wrap
        advance(1.0)
        manager.update_location(trailer.scan_id, 950)
        advance(1.0)
        wait_after_wrap = manager.update_location(leader.scan_id, 1050)
        assert leader.position == 50  # wrapped past the range end
        assert leader.is_leader
        assert wait_after_wrap > 0  # circular distance 100, still throttled

    def test_no_wait_when_sharing_disabled(self):
        """The master switch is read by the executor, not the manager: a
        Base run hands its scans no manager, so a fast scan behind a
        slow one is never throttled."""
        shared, shared_db = run_fast_behind_slow(enabled=True)
        assert shared.throttle_seconds > 0
        base, base_db = run_fast_behind_slow(enabled=False)
        assert base.throttle_seconds == 0.0
        assert base_db.sharing.stats.throttle_waits == 0
        assert base_db.sharing.stats.scans_started == 0

    def test_disabled_placement_under_master_switch(self):
        shared, shared_db = run_fast_behind_slow(enabled=True)
        assert start_pages(shared)[1] > 0
        base, base_db = run_fast_behind_slow(enabled=False)
        assert start_pages(base) == [0, 0]
        assert base_db.sharing.stats.scans_joined_ongoing == 0


class TestPriorityThroughManager:
    def test_leader_high_trailer_low(self):
        sim, manager = make_manager()
        trailer = manager.start_scan(full_scan_descriptor())
        leader = manager.start_scan(full_scan_descriptor())
        sim.schedule(1.0, lambda: None)
        sim.run()
        manager.update_location(trailer.scan_id, 5)
        sim.schedule(1.0, lambda: None)
        sim.run()
        manager.update_location(leader.scan_id, 60)
        assert manager.page_priority(leader.scan_id) is Priority.HIGH
        assert manager.page_priority(trailer.scan_id) is Priority.LOW

    def test_singleton_normal(self):
        _, manager = make_manager()
        state = manager.start_scan(full_scan_descriptor())
        assert manager.page_priority(state.scan_id) is Priority.NORMAL


class TestRegrouping:
    def test_regroup_interval_respected(self):
        sim, manager = make_manager()
        state = manager.start_scan(full_scan_descriptor())
        regroups_after_start = manager.stats.regroups
        manager.update_location(state.scan_id, 16)
        sim.run(until=REGROUP_INTERVAL / 2)
        manager.update_location(state.scan_id, 32)
        # Updates within the interval must not regroup again.
        assert manager.stats.regroups == regroups_after_start
        sim.run(until=REGROUP_INTERVAL)
        manager.update_location(state.scan_id, 48)
        assert manager.stats.regroups == regroups_after_start + 1

    def test_start_and_end_force_regroup(self):
        _, manager = make_manager()
        before = manager.stats.regroups
        state = manager.start_scan(full_scan_descriptor())
        assert manager.stats.regroups == before + 1
        manager.end_scan(state.scan_id)
        assert manager.stats.regroups == before + 2

    def test_groups_visible(self):
        _, manager = make_manager()
        manager.start_scan(full_scan_descriptor())
        manager.start_scan(full_scan_descriptor())
        groups = manager.groups()
        assert sum(g.size for g in groups) == 2


class TestLastFinishedStaleness:
    """The last-finished placement hint ages out under eviction pressure
    (regression: late arrivals were placed behind long-cold positions)."""

    def _finish_one_and_churn(self, manager, churn_pages):
        first = manager.start_scan(full_scan_descriptor())
        manager.update_location(first.scan_id, 512)
        manager.end_scan(first.scan_id)
        assert manager.last_finished_position("t") == 511
        churn = manager.start_scan(full_scan_descriptor())
        manager.update_location(churn.scan_id, churn_pages)
        # Aborting leaves no mark of its own, so the churn scan is pure
        # intervening traffic from the hint's point of view.
        manager.abort_scan(churn.scan_id)

    def test_widely_spaced_arrival_ignores_cold_mark(self):
        # 64 pool turnovers x 200 frames = 12800 pages of retention.
        assert RETENTION_WRAPS * 200 == 12_800
        _, manager = make_manager(pool=200)
        self._finish_one_and_churn(manager, churn_pages=13_000)
        assert manager.last_finished_position("t") is None
        late = manager.start_scan(full_scan_descriptor())
        assert late.start_page == 0

    def test_closely_spaced_arrival_still_joins(self):
        _, manager = make_manager(pool=200)
        self._finish_one_and_churn(manager, churn_pages=1_000)
        assert manager.last_finished_position("t") == 511
        joined_before = manager.stats.scans_joined_last_finished
        late = manager.start_scan(full_scan_descriptor())
        assert late.start_page > 0
        assert manager.stats.scans_joined_last_finished == joined_before + 1

    def test_smaller_pool_ages_the_mark_sooner(self):
        # Retention counts pool turnovers: with 4 frames, 64 turnovers
        # are 256 pages, so churn that a 200-frame pool keeps the mark
        # through is enough to evict now.
        _, manager = make_manager(pool=4)
        self._finish_one_and_churn(manager, churn_pages=int(RETENTION_WRAPS) * 4 + 50)
        assert manager.last_finished_position("t") is None

    def test_idle_gap_alone_keeps_mark_warm(self):
        """With zero intervening traffic nothing evicts the leftovers, so
        an arbitrarily late arrival may still sweep them up."""
        sim, manager = make_manager(pool=200)
        first = manager.start_scan(full_scan_descriptor())
        manager.update_location(first.scan_id, 512)
        manager.end_scan(first.scan_id)
        sim._now = 1e6  # a very long quiet gap
        assert manager.last_finished_position("t") == 511
