"""Unit tests for leader throttling and the fairness cap."""

import pytest

from repro.core.config import TARGET_DISTANCE_EXTENTS, SharingConfig
from repro.core.grouping import form_groups
from repro.core.scan_state import ScanDescriptor, ScanState
from repro.core.throttle import MAX_WAIT_PER_UPDATE, evaluate_throttle

EXTENT = 16


def make_pair(leader_pos, trailer_pos, trailer_speed=100.0, leader_speed=100.0,
              table_pages=1000):
    def make(scan_id, pos, speed):
        descriptor = ScanDescriptor(
            "t", 0, table_pages - 1, estimated_speed=speed
        )
        return ScanState(
            scan_id=scan_id, descriptor=descriptor, start_page=pos,
            start_time=0.0, speed=speed,
        )

    trailer = make(0, trailer_pos, trailer_speed)
    leader = make(1, leader_pos, leader_speed)
    groups = form_groups({"t": [leader, trailer]}, pool_budget_pages=table_pages)
    assert len(groups) == 1
    return leader, trailer, groups[0]


class TestThrottleDecision:
    def test_no_throttle_within_threshold(self):
        leader, _, group = make_pair(leader_pos=110, trailer_pos=100)
        decision = evaluate_throttle(leader, group, SharingConfig(), EXTENT)
        assert not decision.throttled

    def test_throttle_beyond_threshold(self):
        leader, _, group = make_pair(leader_pos=200, trailer_pos=100)
        decision = evaluate_throttle(leader, group, SharingConfig(), EXTENT)
        assert decision.throttled
        assert decision.wait > 0

    def test_wait_sized_from_trailer_speed(self):
        leader, _, group = make_pair(
            leader_pos=300, trailer_pos=100, trailer_speed=500.0
        )
        decision = evaluate_throttle(leader, group, SharingConfig(), EXTENT)
        expected = (200 - TARGET_DISTANCE_EXTENTS * EXTENT) / 500.0
        assert expected < MAX_WAIT_PER_UPDATE  # sized, not capped
        assert decision.wait == pytest.approx(expected)

    def test_wait_capped_per_update(self):
        # Half the table apart: circularly still leader/trailer (a gap
        # of 900 would flip the roles, since 900 ahead == 100 behind).
        leader, _, group = make_pair(
            leader_pos=500, trailer_pos=0, trailer_speed=1.0
        )
        decision = evaluate_throttle(leader, group, SharingConfig(), EXTENT)
        assert decision.wait == pytest.approx(MAX_WAIT_PER_UPDATE)

    def test_trailer_never_throttled(self):
        _, trailer, group = make_pair(leader_pos=500, trailer_pos=0)
        decision = evaluate_throttle(trailer, group, SharingConfig(), EXTENT)
        assert not decision.throttled

    def test_singleton_group_never_throttled(self):
        descriptor = ScanDescriptor("t", 0, 999, estimated_speed=100.0)
        scan = ScanState(scan_id=0, descriptor=descriptor, start_page=0,
                         start_time=0.0, speed=100.0)
        groups = form_groups({"t": [scan]}, pool_budget_pages=1000)
        decision = evaluate_throttle(scan, groups[0], SharingConfig(), EXTENT)
        assert not decision.throttled

    def test_disabled_throttling(self):
        config = SharingConfig(throttling_enabled=False)
        leader, _, group = make_pair(leader_pos=500, trailer_pos=0)
        assert not evaluate_throttle(leader, group, config, EXTENT).throttled

    def test_finished_trailer_releases_leader(self):
        leader, trailer, group = make_pair(leader_pos=500, trailer_pos=0)
        trailer.finished = True
        assert not evaluate_throttle(leader, group, SharingConfig(), EXTENT).throttled

    def test_throttle_survives_leader_wrap(self):
        """Regression: a leader that wrapped past the range end sits at a
        *smaller* linear position than its trailer (here 50 vs 900, i.e.
        150 pages ahead circularly).  The old linear distance went
        negative and silently disabled throttling for the rest of the
        scan."""
        leader, _, group = make_pair(leader_pos=50, trailer_pos=900)
        decision = evaluate_throttle(leader, group, SharingConfig(), EXTENT)
        assert decision.throttled
        assert decision.distance == 150

    def test_decision_reports_inputs(self):
        config = SharingConfig()
        leader, _, group = make_pair(leader_pos=200, trailer_pos=100)
        decision = evaluate_throttle(leader, group, config, EXTENT)
        assert decision.distance == 100
        assert decision.threshold == config.distance_threshold_extents * EXTENT
        assert decision.allowance > 0

    def test_exempt_trailer_is_not_an_anchor(self):
        """A fairness-exempted scan runs free; the leader must not be
        slowed down to keep pace with it."""
        leader, trailer, group = make_pair(leader_pos=200, trailer_pos=100)
        trailer.throttle_exempt = True
        decision = evaluate_throttle(leader, group, SharingConfig(), EXTENT)
        assert not decision.throttled

    def test_finished_trailer_anchor_moves_up(self):
        """With the rear member finished, the wait is sized from the next
        member still scanning, not skipped entirely."""
        def make(scan_id, pos, speed=100.0):
            descriptor = ScanDescriptor("t", 0, 999, estimated_speed=speed)
            return ScanState(scan_id=scan_id, descriptor=descriptor,
                             start_page=pos, start_time=0.0, speed=speed)

        rear, mid, front = make(0, 0), make(1, 60, speed=500.0), make(2, 160)
        groups = form_groups({"t": [rear, mid, front]}, pool_budget_pages=1000)
        assert len(groups) == 1
        rear.finished = True
        decision = evaluate_throttle(front, groups[0], SharingConfig(), EXTENT)
        assert decision.distance == 100  # measured from mid, not rear
        expected = (100 - TARGET_DISTANCE_EXTENTS * EXTENT) / 500.0
        assert expected < MAX_WAIT_PER_UPDATE
        assert decision.wait == pytest.approx(expected)


class TestFairnessCap:
    def test_cap_exempts_scan(self):
        """A scan already delayed 80 % of its estimated time is never
        throttled again (the paper's fairness rule)."""
        leader, _, group = make_pair(leader_pos=500, trailer_pos=0)
        leader.accumulated_delay = 0.8 * leader.estimated_total_time + 1.0
        decision = evaluate_throttle(leader, group, SharingConfig(), EXTENT)
        assert not decision.throttled
        assert decision.capped_by_fairness
        assert leader.throttle_exempt

    def test_exempt_scan_stays_exempt(self):
        leader, _, group = make_pair(leader_pos=500, trailer_pos=0)
        leader.throttle_exempt = True
        decision = evaluate_throttle(leader, group, SharingConfig(), EXTENT)
        assert not decision.throttled
        assert not decision.capped_by_fairness

    def test_wait_clamped_to_remaining_allowance(self):
        config = SharingConfig()
        leader, _, group = make_pair(
            leader_pos=500, trailer_pos=0, trailer_speed=1.0
        )
        allowance = 0.8 * leader.estimated_total_time
        leader.accumulated_delay = allowance - 0.05
        decision = evaluate_throttle(leader, group, config, EXTENT)
        assert decision.wait == pytest.approx(0.05)
        assert decision.capped_by_fairness
        assert leader.throttle_exempt

    def test_cap_fraction_zero_disables_all_throttling(self):
        config = SharingConfig(slowdown_cap_fraction=0.0)
        leader, _, group = make_pair(leader_pos=500, trailer_pos=0)
        decision = evaluate_throttle(leader, group, config, EXTENT)
        assert not decision.throttled
