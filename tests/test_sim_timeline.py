"""Unit and property tests for step timelines."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.timeline import StepTimeline


class TestStepTimeline:
    def test_initial_level(self):
        timeline = StepTimeline(initial=3)
        assert timeline.level_at(100.0) == 3

    def test_record_changes_level(self):
        timeline = StepTimeline()
        timeline.record(1.0, 2)
        assert timeline.level_at(0.5) == 0
        assert timeline.level_at(1.0) == 2
        assert timeline.level_at(5.0) == 2

    def test_time_backwards_raises(self):
        timeline = StepTimeline()
        timeline.record(2.0, 1)
        with pytest.raises(ValueError):
            timeline.record(1.0, 2)

    def test_same_instant_update_collapses(self):
        timeline = StepTimeline()
        timeline.record(1.0, 2)
        timeline.record(1.0, 5)
        assert timeline.level_at(1.0) == 5
        assert len(list(timeline.change_points())) == 2

    def test_redundant_level_not_recorded(self):
        timeline = StepTimeline(initial=1)
        timeline.record(1.0, 1)
        assert len(list(timeline.change_points())) == 1


def _reference_record(points, time, level):
    """``StepTimeline.record`` as it was before it grew a fast path."""
    last_time, last_level = points[-1]
    if time < last_time - 1e-12:
        raise ValueError(f"timeline time went backwards: {time} < {last_time}")
    if level == last_level:
        return
    if abs(time - last_time) <= 1e-12:
        points[-1] = (last_time, float(level))
        if len(points) >= 2 and points[-2][1] == float(level):
            points.pop()
    else:
        points.append((time, float(level)))


class TestRecordFastPath:
    #: Steps that advance time, stand still, creep forward by less than
    #: the collapse tolerance, or go backwards (within it, or too far).
    deltas = st.one_of(
        st.floats(min_value=1e-9, max_value=5.0),
        st.sampled_from([0.0, 5e-13, 1e-12, 2e-12, -5e-13, -1e-12, -1e-3]),
    )

    @given(st.lists(st.tuples(deltas, st.integers(0, 3) | st.floats(0.0, 3.0)),
                    max_size=40))
    def test_change_points_match_reference(self, steps):
        timeline = StepTimeline()
        reference = [(0.0, 0.0)]
        t = 0.0
        for delta, level in steps:
            t += delta
            try:
                _reference_record(reference, t, level)
            except ValueError:
                with pytest.raises(ValueError):
                    timeline.record(t, level)
                t -= delta  # a rejected step leaves both where they were
                continue
            timeline.record(t, level)
        points = list(timeline.change_points())
        assert points == reference
        assert all(type(level) is float for _, level in points)


class TestPulse:
    """``pulse(start, end, level)`` is two ``record`` calls, point for point."""

    #: Mostly back-to-back pulses (start where the last one ended) and
    #: pulses after a gap, with the tolerance edges mixed in.
    gaps = st.sampled_from([0.0, 0.0, 0.0, 5e-13, 1e-12, 2e-12, -5e-13, 1e-3, 0.25])
    lengths = st.sampled_from([0.0, 5e-13, 2e-12, 1e-4, 1e-4, 0.5])
    steps = st.one_of(
        st.tuples(st.just("pulse"), gaps, lengths, st.integers(0, 3)),
        st.tuples(st.just("record"), gaps, st.just(0.0), st.integers(0, 4)),
    )

    @given(st.lists(steps, max_size=40))
    def test_equals_two_records(self, steps):
        pulsed, recorded = StepTimeline(), StepTimeline()
        t = 0.0
        for kind, gap, length, level in steps:
            start = max(0.0, t + gap)
            end = start + length
            try:
                if kind == "record":
                    recorded.record(start, level)
                else:
                    recorded.record(start, level + 1)
                    recorded.record(end, level)
            except ValueError:
                # Creeping back by less than the tolerance, step after
                # step, ends up too far back: rejected the same way.
                with pytest.raises(ValueError):
                    if kind == "record":
                        pulsed.record(start, level)
                    else:
                        pulsed.pulse(start, end, level)
                assert pulsed._points == recorded._points
                return
            if kind == "record":
                pulsed.record(start, level)
            else:
                pulsed.pulse(start, end, level)
            t = end
            assert pulsed._points == recorded._points
        points = list(pulsed.change_points())
        assert points == list(recorded.change_points())
        assert all(type(level) is float for _, level in points)

    def test_back_to_back_pulses_merge_into_one_busy_period(self):
        timeline = StepTimeline()
        timeline.pulse(1.0, 2.0, 0)
        timeline.pulse(2.0, 3.5, 0)
        assert list(timeline.change_points()) == [(0.0, 0.0), (1.0, 1.0), (3.5, 0.0)]

    def test_time_going_backwards_still_raises(self):
        timeline = StepTimeline()
        timeline.pulse(1.0, 2.0, 0)
        with pytest.raises(ValueError):
            timeline.pulse(1.5, 2.5, 0)
