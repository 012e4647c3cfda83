"""Unit tests for the index scan sharing manager (anchors/offsets)."""

import pytest

from repro.buffer.page import Priority
from repro.core.config import SharingConfig
from repro.extensions.index_sharing.manager import (
    IndexScanDescriptor,
    IndexScanSharingManager,
)
from repro.sim.kernel import Simulator


def make_ism(config=None, pages_per_entry=8, pool=96):
    sim = Simulator()
    return sim, IndexScanSharingManager(
        sim, pages_per_entry=pages_per_entry, pool_capacity=pool,
        config=config or SharingConfig(),
    )


def descriptor(first=0, last=99, speed=100.0, name="ix"):
    return IndexScanDescriptor(
        index_name=name, first_entry=first, last_entry=last,
        estimated_speed=speed,
    )


class TestDescriptor:
    def test_range_and_time(self):
        d = descriptor(first=10, last=29, speed=10.0)
        assert d.range_entries == 20
        assert d.estimated_total_time == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            descriptor(first=5, last=4)
        with pytest.raises(ValueError):
            descriptor(speed=0.0)


class TestAnchors:
    def test_first_scan_gets_own_anchor(self):
        _, ism = make_ism()
        state = ism.start_scan(descriptor())
        assert state.anchor_id >= 0
        assert state.anchor_offset == 0
        assert state.start_entry == 0

    def test_joining_scan_shares_anchor_and_offset(self):
        sim, ism = make_ism()
        first = ism.start_scan(descriptor())
        sim.schedule(1.0, lambda: None)
        sim.run()
        ism.update_location(first.scan_id, location=50, entries_scanned=50)
        second = ism.start_scan(descriptor())
        assert second.anchor_id == first.anchor_id
        assert second.anchor_offset == first.anchor_offset
        assert second.start_entry == first.location
        assert ism.stats.scans_joined == 1

    def test_offset_advances_with_entries(self):
        sim, ism = make_ism()
        state = ism.start_scan(descriptor())
        ism.update_location(state.scan_id, location=30, entries_scanned=30)
        assert state.anchor_offset == 30

    def test_offset_distance_orders_group(self):
        sim, ism = make_ism()
        a = ism.start_scan(descriptor())
        ism.update_location(a.scan_id, location=40, entries_scanned=40)
        b = ism.start_scan(descriptor())
        sim.schedule(1.0, lambda: None)
        sim.run()
        ism.update_location(a.scan_id, location=60, entries_scanned=60)
        ism.update_location(b.scan_id, location=45, entries_scanned=5)
        groups = ism.anchor_groups()
        assert len(groups) == 1
        assert groups[0].leader.scan_id == a.scan_id
        assert groups[0].trailer.scan_id == b.scan_id

    def test_wrap_rebases_anchor(self):
        sim, ism = make_ism()
        a = ism.start_scan(descriptor())
        ism.update_location(a.scan_id, location=40, entries_scanned=40)
        b = ism.start_scan(descriptor())
        old_anchor = b.anchor_id
        ism.update_location(b.scan_id, location=0, entries_scanned=60,
                            wrapped_since_last=True)
        assert b.anchor_id != old_anchor
        assert b.anchor_offset == 0
        assert ism.stats.rebases_on_wrap == 1
        # A and B no longer share a group.
        assert len(ism.anchor_groups()) == 2

    def test_separate_starts_make_separate_groups(self):
        _, ism = make_ism(config=SharingConfig(min_share_pages=10_000))
        ism.start_scan(descriptor())
        ism.start_scan(descriptor())
        assert len(ism.anchor_groups()) == 2


class TestPlacement:
    def test_no_candidates_starts_at_first(self):
        _, ism = make_ism()
        assert ism.start_scan(descriptor(first=5)).start_entry == 5

    def test_candidate_outside_range_not_joined(self):
        _, ism = make_ism()
        a = ism.start_scan(descriptor(first=0, last=99))
        ism.update_location(a.scan_id, location=90, entries_scanned=90)
        b = ism.start_scan(descriptor(first=0, last=49))
        assert b.start_entry == 0
        assert b.anchor_id != a.anchor_id

    def test_expected_shared_pages_speed_discount(self):
        sim, ism = make_ism()
        slow = ism.start_scan(descriptor(speed=10.0))
        ism.update_location(slow.scan_id, location=50, entries_scanned=50)
        fast_desc = descriptor(speed=100.0)
        pages = ism.expected_shared_pages(fast_desc, slow)
        # Overlap limited by the slower scan's pace over the fast scan's
        # phase-one window: 0.5s * 10 entries/s * 8 pages.
        assert pages == pytest.approx(0.5 * 10 * 8)

    def test_last_finished_reused_when_idle(self):
        sim, ism = make_ism(pool=96, pages_per_entry=8)
        a = ism.start_scan(descriptor())
        ism.update_location(a.scan_id, location=99, entries_scanned=99)
        ism.end_scan(a.scan_id)
        b = ism.start_scan(descriptor())
        # Backed off by pool/(2*pages_per_entry) = 6 entries.
        assert b.start_entry == 99 - 6 + 1

    def test_placement_disabled(self):
        _, ism = make_ism(config=SharingConfig(placement_enabled=False))
        a = ism.start_scan(descriptor())
        ism.update_location(a.scan_id, location=50, entries_scanned=50)
        b = ism.start_scan(descriptor())
        assert b.start_entry == 0


class TestThrottleAndPriority:
    def _drifted_pair(self, gap=40):
        sim, ism = make_ism()
        trailer = ism.start_scan(descriptor())
        ism.update_location(trailer.scan_id, location=10, entries_scanned=10)
        leader = ism.start_scan(descriptor())
        sim.schedule(1.0, lambda: None)
        sim.run()
        ism.update_location(trailer.scan_id, location=12, entries_scanned=12)
        wait = ism.update_location(
            leader.scan_id, location=10 + gap, entries_scanned=gap
        )
        return ism, leader, trailer, wait

    def test_leader_throttled_beyond_threshold(self):
        ism, leader, trailer, wait = self._drifted_pair(gap=40)
        assert wait > 0
        assert ism.stats.throttle_waits == 1

    def test_no_throttle_within_threshold(self):
        ism, leader, trailer, wait = self._drifted_pair(gap=3)
        assert wait == 0.0

    def test_priorities_reflect_roles(self):
        ism, leader, trailer, _ = self._drifted_pair(gap=40)
        assert ism.page_priority(leader.scan_id) is Priority.HIGH
        assert ism.page_priority(trailer.scan_id) is Priority.LOW

    def test_fairness_cap(self):
        ism, leader, trailer, _ = self._drifted_pair(gap=40)
        state = leader
        state.accumulated_delay = 1e9
        wait = ism.update_location(state.scan_id, location=60,
                                   entries_scanned=50)
        assert wait == 0.0
        assert state.throttle_exempt

    def test_monotonic_entries_enforced(self):
        _, ism = make_ism()
        state = ism.start_scan(descriptor())
        ism.update_location(state.scan_id, location=20, entries_scanned=20)
        with pytest.raises(ValueError):
            ism.update_location(state.scan_id, location=5, entries_scanned=5)

    def test_lifecycle_accounting(self):
        _, ism = make_ism()
        state = ism.start_scan(descriptor())
        assert ism.active_scan_count == 1
        ism.end_scan(state.scan_id)
        assert ism.active_scan_count == 0
        with pytest.raises(KeyError):
            ism.update_location(state.scan_id, location=1, entries_scanned=1)


class TestSpeedBookkeeping:
    def _advance_to(self, sim, when):
        sim.schedule(when - sim.now, lambda: None)
        sim.run()

    def test_zero_elapsed_report_is_not_counted_twice(self):
        """Reports of 10 entries at t=1, 20 at t=1 and 30 at t=2 give a
        last-interval speed of 10 entries/s, not 20."""
        sim, ism = make_ism(SharingConfig(speed_smoothing=1.0))
        state = ism.start_scan(descriptor())
        self._advance_to(sim, 1.0)
        ism.update_location(state.scan_id, location=10, entries_scanned=10)
        assert state.speed == pytest.approx(10.0)
        ism.update_location(state.scan_id, location=20, entries_scanned=20)
        self._advance_to(sim, 2.0)
        ism.update_location(state.scan_id, location=30, entries_scanned=30)
        assert state.speed == pytest.approx(10.0)

    def test_no_progress_interval_does_not_stretch_the_window(self):
        sim, ism = make_ism(SharingConfig(speed_smoothing=1.0))
        state = ism.start_scan(descriptor())
        self._advance_to(sim, 1.0)
        ism.update_location(state.scan_id, location=10, entries_scanned=10)
        self._advance_to(sim, 3.0)
        ism.update_location(state.scan_id, location=10, entries_scanned=10)
        self._advance_to(sim, 4.0)
        ism.update_location(state.scan_id, location=20, entries_scanned=20)
        assert state.speed == pytest.approx(10.0)
