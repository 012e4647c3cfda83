"""Unit and property tests for deterministic page data generation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.datagen import PageGenerator
from repro.storage.schema import ColumnSpec

from tests.conftest import make_schema


def schema():
    return make_schema(
        "t",
        [
            ColumnSpec("id", "sequence"),
            ColumnSpec("qty", "int_uniform", 1, 50),
            ColumnSpec("price", "float_uniform", 10.0, 20.0),
            ColumnSpec("flag", "choice", categories=("a", "b")),
            ColumnSpec("day", "clustered", 0.0, 100.0),
        ],
        rows_per_page=64,
    )


class TestDeterminism:
    def test_same_page_identical_across_generators(self):
        gen1 = PageGenerator(schema(), total_pages=10, seed=7)
        gen2 = PageGenerator(schema(), total_pages=10, seed=7)
        for col in ("id", "qty", "price"):
            np.testing.assert_array_equal(gen1.page(3)[col], gen2.page(3)[col])

    def test_different_seed_differs(self):
        gen1 = PageGenerator(schema(), total_pages=10, seed=1)
        gen2 = PageGenerator(schema(), total_pages=10, seed=2)
        assert not np.array_equal(gen1.page(0)["qty"], gen2.page(0)["qty"])

    def test_different_pages_differ(self):
        gen = PageGenerator(schema(), total_pages=10, seed=1)
        assert not np.array_equal(gen.page(0)["qty"], gen.page(1)["qty"])

    def test_cache_returns_same_object(self):
        gen = PageGenerator(schema(), total_pages=10, seed=1)
        assert gen.page(0) is gen.page(0)

    def test_cache_eviction_still_deterministic(self):
        gen = PageGenerator(schema(), total_pages=300, seed=1, cache_pages=4)
        first = gen.page(0)["qty"].copy()
        for page in range(1, 200):
            gen.page(page)
        np.testing.assert_array_equal(gen.page(0)["qty"], first)


class TestColumnSemantics:
    def test_page_out_of_range(self):
        gen = PageGenerator(schema(), total_pages=10, seed=1)
        with pytest.raises(IndexError):
            gen.page(10)
        with pytest.raises(IndexError):
            gen.page(-1)

    def test_sequence_is_global_row_id(self):
        gen = PageGenerator(schema(), total_pages=10, seed=1)
        page2 = gen.page(2)["id"]
        assert page2[0] == 2 * 64
        np.testing.assert_array_equal(page2, np.arange(128, 192))

    def test_int_uniform_bounds(self):
        gen = PageGenerator(schema(), total_pages=10, seed=1)
        qty = gen.page(5)["qty"]
        assert qty.min() >= 1
        assert qty.max() <= 50

    def test_float_uniform_bounds(self):
        gen = PageGenerator(schema(), total_pages=10, seed=1)
        price = gen.page(5)["price"]
        assert price.min() >= 10.0
        assert price.max() < 20.0

    def test_choice_categories(self):
        gen = PageGenerator(schema(), total_pages=10, seed=1)
        assert set(gen.page(0)["flag"]) <= {"a", "b"}

    def test_clustered_monotone_within_page(self):
        gen = PageGenerator(schema(), total_pages=10, seed=1)
        day = gen.page(4)["day"]
        assert np.all(np.diff(day) >= 0)

    def test_clustered_monotone_across_pages(self):
        """The clustering invariant: the last value of page p never exceeds
        the first value of page p+1."""
        gen = PageGenerator(schema(), total_pages=10, seed=1)
        for page in range(9):
            assert gen.page(page)["day"][-1] <= gen.page(page + 1)["day"][0]

    def test_clustered_values_in_page_slice(self):
        gen = PageGenerator(schema(), total_pages=10, seed=1)
        day = gen.page(3)["day"]
        assert day.min() >= 100.0 * 3 / 10
        assert day.max() <= 100.0 * 4 / 10


class TestClusteredProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        total_pages=st.integers(min_value=2, max_value=40),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_whole_column_globally_sorted(self, total_pages, seed):
        gen = PageGenerator(schema(), total_pages=total_pages, seed=seed)
        values = np.concatenate([gen.page(p)["day"] for p in range(total_pages)])
        assert np.all(np.diff(values) >= 0)
