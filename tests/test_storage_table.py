"""Unit tests for tables: extents and range resolution."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.schema import ColumnSpec
from repro.storage.table import Table

from tests.conftest import make_schema


def make_table(n_pages=100, extent_size=16):
    schema = make_schema(
        "t",
        [ColumnSpec("id", "sequence"), ColumnSpec("day", "clustered", 0.0, 1000.0)],
        rows_per_page=50,
    )
    return Table(schema, n_pages=n_pages, extent_size=extent_size)


class TestBasics:
    def test_extent_count_rounds_up(self):
        assert make_table(n_pages=100, extent_size=16).n_extents == 7

    def test_extent_of(self):
        table = make_table(extent_size=16)
        assert table.extent_of(0) == 0
        assert table.extent_of(15) == 0
        assert table.extent_of(16) == 1

    def test_page_out_of_range(self):
        table = make_table(n_pages=10)
        with pytest.raises(IndexError):
            table.extent_of(10)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_table(n_pages=0)
        with pytest.raises(ValueError):
            make_table(extent_size=0)


class TestClusterRanges:
    def test_full_range(self):
        table = make_table(n_pages=100)
        assert table.pages_for_cluster_range(0.0, 1000.0) == (0, 99)

    def test_half_range(self):
        table = make_table(n_pages=100)
        first, last = table.pages_for_cluster_range(0.0, 500.0)
        assert first == 0
        assert last == 49

    def test_middle_slice(self):
        table = make_table(n_pages=100)
        first, last = table.pages_for_cluster_range(250.0, 750.0)
        assert first == 25
        assert last == 74

    def test_out_of_bounds_clamped(self):
        table = make_table(n_pages=100)
        assert table.pages_for_cluster_range(-50.0, 2000.0) == (0, 99)

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError):
            make_table().pages_for_cluster_range(10.0, 5.0)

    def test_no_clustering_column_raises(self):
        schema = make_schema("t", [ColumnSpec("id", "sequence")])
        table = Table(schema, n_pages=10)
        with pytest.raises(ValueError):
            table.pages_for_cluster_range(0.0, 1.0)

    def test_range_actually_contains_matching_rows(self):
        """Every row with day in [low, high] lives inside the returned
        page range — the correctness contract of clustered range scans."""
        table = make_table(n_pages=50)
        low, high = 200.0, 400.0
        first, last = table.pages_for_cluster_range(low, high)
        for page in range(table.n_pages):
            day = table.page_data(page)["day"]
            has_match = bool(((day >= low) & (day <= high)).any())
            inside = first <= page <= last
            if has_match:
                assert inside, f"page {page} has matching rows outside range"


class TestFractionRanges:
    def test_full_fraction(self):
        assert make_table(n_pages=80).pages_for_fraction(0.0, 1.0) == (0, 79)

    def test_quarter(self):
        assert make_table(n_pages=80).pages_for_fraction(0.0, 0.25) == (0, 19)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            make_table().pages_for_fraction(0.5, 0.4)
        with pytest.raises(ValueError):
            make_table().pages_for_fraction(-0.1, 0.5)

    @settings(max_examples=50, deadline=None)
    @given(
        lo=st.floats(min_value=0.0, max_value=1.0),
        width=st.floats(min_value=0.0, max_value=1.0),
        n_pages=st.integers(min_value=1, max_value=500),
    )
    def test_fraction_range_always_valid(self, lo, width, n_pages):
        hi = min(1.0, lo + width)
        table = make_table(n_pages=n_pages)
        first, last = table.pages_for_fraction(lo, hi)
        assert 0 <= first <= last < n_pages
