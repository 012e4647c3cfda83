"""Unit tests for new-scan placement."""

import pytest

import repro.core.manager as manager_module
from repro.core.config import SharingConfig
from repro.core.placement import (
    MIN_SHARE_PAGES,
    align_to_extent,
    choose_start,
    expected_shared_pages,
)
from repro.core.scan_state import ScanDescriptor, ScanState
from repro.engine.executor import run_workload

from tests.conftest import make_database, uniform_scan_query

EXTENT = 16


def desc(first=0, last=999, speed=100.0):
    return ScanDescriptor("t", first, last, estimated_speed=speed)


def ongoing(scan_id, position, speed=100.0, first=0, last=999, scanned=0):
    state = ScanState(
        scan_id=scan_id,
        descriptor=desc(first, last, speed),
        start_page=position,
        start_time=0.0,
        speed=speed,
    )
    state.pages_scanned = scanned
    return state


class TestSharedPageEstimate:
    def test_candidate_outside_range_scores_zero(self):
        new = desc(first=500, last=999)
        candidate = ongoing(0, position=100)
        assert expected_shared_pages(new, candidate) == 0.0

    def test_equal_speeds_share_full_horizon(self):
        new = desc(first=0, last=999)
        candidate = ongoing(0, position=600)
        # Horizon = min(remaining=1000, phase1=400) = 400, ratio 1.
        assert expected_shared_pages(new, candidate) == pytest.approx(400.0)

    def test_speed_mismatch_discounts(self):
        new = desc(speed=100.0)
        slow = ongoing(0, position=600, speed=25.0)
        assert expected_shared_pages(new, slow) == pytest.approx(100.0)

    def test_candidate_with_little_remaining(self):
        new = desc()
        nearly_done = ongoing(0, position=100, scanned=990)
        assert expected_shared_pages(new, nearly_done) == pytest.approx(10.0)

    def test_finished_candidate_scores_zero(self):
        new = desc()
        candidate = ongoing(0, position=100)
        candidate.finished = True
        assert expected_shared_pages(new, candidate) == 0.0


class TestAlign:
    def test_aligns_down_to_extent(self):
        assert align_to_extent(37, first_page=0, extent_size=16) == 32

    def test_clamped_to_range_start(self):
        assert align_to_extent(37, first_page=35, extent_size=16) == 35

    def test_already_aligned(self):
        assert align_to_extent(32, first_page=0, extent_size=16) == 32


class TestChooseStart:
    def test_no_candidates_starts_at_range_start(self):
        decision = choose_start(desc(), [], EXTENT)
        assert decision.start_page == 0
        assert not decision.joined

    def test_joins_best_candidate(self):
        candidates = [
            ongoing(0, position=600, speed=100.0),
            ongoing(1, position=300, speed=10.0),
        ]
        decision = choose_start(desc(speed=100.0), candidates, EXTENT)
        assert decision.joined_scan_id == 0
        assert decision.start_page == 592  # 600 aligned down to extent

    def test_respects_min_share_pages(self):
        # Only half the minimum is left before the new scan would wrap.
        candidates = [ongoing(0, position=1000 - MIN_SHARE_PAGES // 2)]
        decision = choose_start(desc(), candidates, EXTENT)
        assert not decision.joined
        assert decision.start_page == 0

    def test_sharing_disabled(self, monkeypatch):
        """Placement is skipped, not disabled inside choose_start: the
        executor hands a Base run's scans no manager, so every scan
        starts at its range start without choose_start being called."""

        def refuse(*args, **kwargs):
            raise AssertionError("choose_start called with sharing off")

        monkeypatch.setattr(manager_module, "choose_start", refuse)
        workload = [[uniform_scan_query("t")], [uniform_scan_query("t")]]
        with pytest.raises(AssertionError, match="choose_start called"):
            run_workload(make_database(), workload, stagger=0.01)
        result = run_workload(
            make_database(sharing=SharingConfig(enabled=False)), workload,
            stagger=0.01,
        )
        assert [q.steps[0].scan.start_page for s in result.streams
                for q in s.queries] == [0, 0]

    def test_last_finished_used_when_idle(self):
        decision = choose_start(
            desc(), [], EXTENT, last_finished_position=512
        )
        assert decision.joined_last_finished
        assert decision.start_page == 512

    def test_last_finished_outside_range_ignored(self):
        decision = choose_start(
            desc(first=0, last=99), [], EXTENT,
            last_finished_position=512,
        )
        assert not decision.joined
        assert decision.start_page == 0

    def test_ongoing_candidate_beats_last_finished(self):
        candidates = [ongoing(0, position=600)]
        decision = choose_start(
            desc(), candidates, EXTENT, last_finished_position=512
        )
        assert decision.joined_scan_id == 0

    def test_candidate_outside_new_range_not_joined(self):
        candidates = [ongoing(0, position=900)]
        decision = choose_start(desc(first=0, last=499), candidates,
                                EXTENT)
        assert not decision.joined


class TestDegenerateInputs:
    """Guards for inputs the optimizer can legitimately produce: zero
    speed estimates, zero-page predictions, and degenerate extents."""

    def test_zero_speed_candidate_scores_zero(self):
        # The descriptor estimate is validated positive, but the runtime
        # smoothed speed can decay to zero on a stalled scan.
        stalled = ongoing(0, position=600)
        stalled.speed = 0.0
        assert expected_shared_pages(desc(), stalled) == 0.0

    def test_zero_speed_estimate_rejected_at_construction(self):
        with pytest.raises(ValueError):
            desc(speed=0.0)

    def test_estimated_zero_pages_scores_zero(self):
        new = ScanDescriptor("t", 0, 999, estimated_speed=100.0, estimated_pages=0)
        candidate = ongoing(0, position=600)
        assert expected_shared_pages(new, candidate) == 0.0

    def test_candidate_estimated_zero_pages_scores_zero(self):
        candidate = ongoing(0, position=600)
        object.__setattr__(candidate.descriptor, "estimated_pages", 0)
        assert expected_shared_pages(desc(), candidate) == 0.0

    def test_estimated_pages_caps_sharing_horizon(self):
        # The candidate will stop after 100 more pages even though its
        # declared range leaves 400.
        candidate = ongoing(0, position=600, scanned=50)
        object.__setattr__(candidate.descriptor, "estimated_pages", 150)
        assert expected_shared_pages(desc(), candidate) == pytest.approx(100.0)

    def test_exhausted_estimate_scores_zero(self):
        # Already past its prediction: nothing left to share.
        candidate = ongoing(0, position=600, scanned=200)
        object.__setattr__(candidate.descriptor, "estimated_pages", 100)
        assert expected_shared_pages(desc(), candidate) == 0.0

    def test_align_to_zero_extent_is_identity_clamped(self):
        from repro.core.placement import align_to_extent

        assert align_to_extent(37, 0, 0) == 37
        assert align_to_extent(37, 40, 0) == 40

    def test_zero_speed_candidates_never_crash_choose_start(self):
        candidates = []
        for i in range(3):
            stalled = ongoing(i, position=600)
            stalled.speed = 0.0
            candidates.append(stalled)
        decision = choose_start(desc(), candidates, EXTENT)
        assert decision.start_page == 0
        assert not decision.joined


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - optional dependency
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:

    class TestPlacementProperties:
        @settings(max_examples=200, deadline=None)
        @given(
            first=st.integers(min_value=0, max_value=500),
            length=st.integers(min_value=1, max_value=500),
            position=st.integers(min_value=0, max_value=999),
            scanned=st.integers(min_value=0, max_value=2000),
            new_speed=st.floats(min_value=1e-3, max_value=1e6),
            cand_speed=st.floats(min_value=0.0, max_value=1e6),
            estimated=st.one_of(st.none(), st.integers(min_value=0, max_value=2000)),
        )
        def test_estimate_is_finite_and_bounded(
            self, first, length, position, scanned, new_speed, cand_speed, estimated
        ):
            new = ScanDescriptor(
                "t", first, first + length - 1,
                estimated_speed=new_speed, estimated_pages=estimated,
            )
            candidate = ongoing(0, position=position % 1000, scanned=scanned)
            candidate.speed = cand_speed
            score = expected_shared_pages(new, candidate)
            assert 0.0 <= score <= candidate.range_pages

        @settings(max_examples=100, deadline=None)
        @given(
            position=st.integers(min_value=0, max_value=999),
            speed=st.floats(min_value=0.0, max_value=1e6),
            extent=st.integers(min_value=0, max_value=64),  # 0 = degenerate
            last_finished=st.one_of(st.none(), st.integers(min_value=0, max_value=999)),
        )
        def test_choose_start_lands_inside_range(
            self, position, speed, extent, last_finished
        ):
            candidate = ongoing(0, position=position)
            candidate.speed = speed
            candidates = [candidate]
            decision = choose_start(
                desc(), candidates, extent,
                last_finished_position=last_finished,
                leftover_pages=16,
            )
            assert 0 <= decision.start_page <= 999


class TestEstimateOverflowEdges:
    """Division/overflow edges of expected_shared_pages (bugfix)."""

    def test_overscanned_candidate_scores_zero_not_negative(self):
        # A candidate that wrapped past its declared range has negative
        # remaining_pages; the estimate must clamp to 0.0, not go negative.
        runaway = ongoing(0, position=100, scanned=1500)
        assert expected_shared_pages(desc(), runaway) == 0.0

    def test_infinite_candidate_speed_scores_zero(self):
        stalled = ongoing(0, position=100)
        stalled.speed = float("inf")
        assert expected_shared_pages(desc(), stalled) == 0.0

    def test_both_speeds_infinite_scores_zero_not_nan(self):
        # inf/inf would be NaN; the estimate must short-circuit to 0.0.
        candidate = ongoing(0, position=100, speed=float("inf"))
        score = expected_shared_pages(desc(speed=float("inf")), candidate)
        assert score == 0.0

    def test_nan_candidate_speed_scores_zero(self):
        poisoned = ongoing(0, position=100)
        poisoned.speed = float("nan")
        assert expected_shared_pages(desc(), poisoned) == 0.0


class TestSubExtentTableGuard:
    """choose_start guard for tables smaller than one extent (bugfix)."""

    def test_join_lands_on_exact_position(self):
        new = desc(first=0, last=39)
        candidate = ongoing(0, position=5, first=0, last=39)
        decision = choose_start(
            new, [candidate], extent_size=64, table_pages=40,
        )
        assert decision.joined_scan_id == 0
        # Alignment would snap 5 back to page 0, silently defeating
        # placement; the guard keeps the exact attach position.
        assert decision.start_page == 5

    def test_normal_tables_still_extent_aligned(self):
        decision = choose_start(
            desc(), [ongoing(0, position=200)], extent_size=16, table_pages=1000,
        )
        assert decision.start_page == 192

    def test_unknown_table_pages_preserves_old_alignment(self):
        decision = choose_start(
            desc(), [ongoing(0, position=200)], extent_size=16,
        )
        assert decision.start_page == 192
