"""Unit and property tests for step timelines."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.timeline import StepTimeline


class TestStepTimeline:
    def test_initial_level(self):
        timeline = StepTimeline(initial=3)
        assert timeline.current_level == 3
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

    def test_integral_simple(self):
        timeline = StepTimeline()
        timeline.record(1.0, 2)
        timeline.record(3.0, 0)
        # 0 for [0,1), 2 for [1,3), 0 after.
        assert timeline.integral(5.0) == pytest.approx(4.0)

    def test_integral_with_since(self):
        timeline = StepTimeline(initial=2)
        assert timeline.integral(4.0, since=1.0) == pytest.approx(6.0)

    def test_integral_reversed_bounds_raises(self):
        with pytest.raises(ValueError):
            StepTimeline().integral(1.0, since=2.0)

    def test_bucketed_integrals(self):
        timeline = StepTimeline()
        timeline.record(0.0, 1)
        timeline.record(2.0, 3)
        buckets = timeline.bucketed_integrals(until=4.0, bucket=2.0)
        assert buckets == [pytest.approx(2.0), pytest.approx(6.0)]

    def test_bucket_width_must_be_positive(self):
        with pytest.raises(ValueError):
            StepTimeline().bucketed_integrals(until=1.0, bucket=0.0)

    def test_time_at_or_above(self):
        timeline = StepTimeline()
        timeline.record(1.0, 2)
        timeline.record(2.0, 1)
        timeline.record(3.0, 3)
        assert timeline.time_at_or_above(2, until=4.0) == pytest.approx(2.0)


class TestTimelineProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.001, max_value=10.0),
                st.integers(min_value=0, max_value=8),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_integral_equals_sum_of_buckets(self, steps):
        """Bucketing must partition the integral exactly."""
        timeline = StepTimeline()
        t = 0.0
        for delta, level in steps:
            t += delta
            timeline.record(t, level)
        until = t + 1.0
        total = timeline.integral(until)
        buckets = timeline.bucketed_integrals(until, bucket=0.7)
        assert sum(buckets) == pytest.approx(total, rel=1e-9, abs=1e-9)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.001, max_value=10.0),
                st.integers(min_value=0, max_value=8),
            ),
            min_size=1,
            max_size=30,
        ),
        st.floats(min_value=0.0, max_value=50.0),
    )
    def test_integral_is_monotone_in_upper_bound(self, steps, extra):
        timeline = StepTimeline()
        t = 0.0
        for delta, level in steps:
            t += delta
            timeline.record(t, level)
        assert timeline.integral(t + extra) >= timeline.integral(t) - 1e-12


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
