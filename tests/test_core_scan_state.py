"""Unit and property tests for scan-state position arithmetic."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scan_state import ScanDescriptor, ScanState


def make_state(first=0, last=99, start=0, speed=100.0, scan_id=0):
    descriptor = ScanDescriptor(
        table_name="t", first_page=first, last_page=last, estimated_speed=speed
    )
    return ScanState(
        scan_id=scan_id,
        descriptor=descriptor,
        start_page=start,
        start_time=0.0,
        speed=speed,
    )


class TestDescriptor:
    def test_range_pages(self):
        desc = ScanDescriptor("t", 10, 19, estimated_speed=50.0)
        assert desc.range_pages == 10

    def test_estimated_total_time(self):
        desc = ScanDescriptor("t", 0, 99, estimated_speed=50.0)
        assert desc.estimated_total_time == pytest.approx(2.0)

    def test_estimated_pages_override(self):
        desc = ScanDescriptor("t", 0, 99, estimated_speed=50.0, estimated_pages=50)
        assert desc.estimated_total_time == pytest.approx(1.0)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            ScanDescriptor("t", 5, 4, estimated_speed=1.0)

    def test_bad_speed_rejected(self):
        with pytest.raises(ValueError):
            ScanDescriptor("t", 0, 9, estimated_speed=0.0)

    def test_estimated_pages_zero_means_zero_time(self):
        """Regression: an explicit estimate of 0 pages is falsy but must
        not silently fall back to the full range."""
        desc = ScanDescriptor("t", 0, 99, estimated_speed=50.0,
                              estimated_pages=0)
        assert desc.estimated_total_time == 0.0

    def test_negative_estimated_pages_rejected(self):
        with pytest.raises(ValueError):
            ScanDescriptor("t", 0, 99, estimated_speed=50.0,
                           estimated_pages=-1)


class TestPosition:
    def test_starts_at_start_page(self):
        state = make_state(start=40)
        assert state.position == 40

    def test_advances_with_pages_scanned(self):
        state = make_state(start=40)
        state.pages_scanned = 10
        assert state.position == 50

    def test_wraps_to_range_start(self):
        state = make_state(first=0, last=99, start=90)
        state.pages_scanned = 15  # 90..99 then wrap to 0..4
        assert state.position == 5

    def test_not_wrapped_before_range_end(self):
        state = make_state(start=90)
        state.pages_scanned = 9
        assert state.position == 99

    def test_offset_range(self):
        state = make_state(first=20, last=29, start=25)
        state.pages_scanned = 7  # 25..29 then 20..21
        assert state.position == 22

    def test_remaining_pages(self):
        state = make_state()
        state.pages_scanned = 30
        assert state.remaining_pages == 70

    def test_remaining_never_negative(self):
        state = make_state(first=0, last=9)
        state.pages_scanned = 10
        assert state.remaining_pages == 0


class TestDistance:
    def test_forward_distance_simple(self):
        a = make_state(start=10, scan_id=0)
        b = make_state(start=30, scan_id=1)
        assert a.forward_distance_to(b, table_pages=100) == 20
        assert b.forward_distance_to(a, table_pages=100) == 80

    def test_forward_distance_same_position(self):
        a = make_state(start=10, scan_id=0)
        b = make_state(start=10, scan_id=1)
        assert a.forward_distance_to(b, table_pages=100) == 0

    @settings(max_examples=100, deadline=None)
    @given(
        pos_a=st.integers(min_value=0, max_value=99),
        pos_b=st.integers(min_value=0, max_value=99),
    )
    def test_distances_sum_to_table_size_or_zero(self, pos_a, pos_b):
        a = make_state(start=pos_a, scan_id=0)
        b = make_state(start=pos_b, scan_id=1)
        d_ab = a.forward_distance_to(b, table_pages=100)
        d_ba = b.forward_distance_to(a, table_pages=100)
        if pos_a == pos_b:
            assert d_ab == d_ba == 0
        else:
            assert d_ab + d_ba == 100


class TestPositionProperty:
    @settings(max_examples=100, deadline=None)
    @given(
        first=st.integers(min_value=0, max_value=50),
        length=st.integers(min_value=1, max_value=100),
        start_offset=st.integers(min_value=0, max_value=99),
        scanned=st.integers(min_value=0, max_value=300),
    )
    def test_position_always_inside_range(self, first, length, start_offset, scanned):
        last = first + length - 1
        start = first + (start_offset % length)
        state = make_state(first=first, last=last, start=start)
        state.pages_scanned = scanned
        assert first <= state.position <= last
