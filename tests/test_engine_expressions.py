"""Unit tests for the vectorized expression AST."""

import numpy as np
import pytest

from repro.engine.expressions import col, lit


@pytest.fixture
def page():
    return {
        "a": np.array([1, 2, 3, 4, 5]),
        "b": np.array([5.0, 4.0, 3.0, 2.0, 1.0]),
        "tag": np.array(["x", "y", "x", "z", "y"], dtype=object),
    }


class TestComparisons:
    def test_less_than(self, page):
        mask = (col("a") < lit(3)).evaluate(page)
        np.testing.assert_array_equal(mask, [True, True, False, False, False])

    def test_greater_equal(self, page):
        mask = (col("a") >= lit(4)).evaluate(page)
        np.testing.assert_array_equal(mask, [False, False, False, True, True])

    def test_column_vs_column(self, page):
        mask = (col("a") > col("b")).evaluate(page)
        np.testing.assert_array_equal(mask, [False, False, False, True, True])

    def test_eq_and_ne(self, page):
        np.testing.assert_array_equal(
            col("tag").eq(lit("x")).evaluate(page), [True, False, True, False, False]
        )
        np.testing.assert_array_equal(
            col("tag").ne(lit("x")).evaluate(page), [False, True, False, True, True]
        )

    def test_missing_column_raises(self, page):
        with pytest.raises(KeyError, match="missing"):
            (col("missing") < lit(1)).evaluate(page)


class TestCompound:
    def test_between(self, page):
        mask = col("a").between(2, 4).evaluate(page)
        np.testing.assert_array_equal(mask, [False, True, True, True, False])

    def test_isin(self, page):
        mask = col("tag").isin(["x", "z"]).evaluate(page)
        np.testing.assert_array_equal(mask, [True, False, True, True, False])

    def test_and_or_not(self, page):
        expr = (col("a") > lit(1)) & (col("a") < lit(5))
        np.testing.assert_array_equal(
            expr.evaluate(page), [False, True, True, True, False]
        )
        expr = (col("a") < lit(2)) | (col("a") > lit(4))
        np.testing.assert_array_equal(
            expr.evaluate(page), [True, False, False, False, True]
        )


class TestArithmetic:
    def test_add_sub_mul(self, page):
        np.testing.assert_allclose(
            (col("a") + col("b")).evaluate(page), [6.0, 6.0, 6.0, 6.0, 6.0]
        )
        np.testing.assert_allclose(
            (col("a") - lit(1)).evaluate(page), [0, 1, 2, 3, 4]
        )
        np.testing.assert_allclose(
            (col("a") * lit(2)).evaluate(page), [2, 4, 6, 8, 10]
        )

    def test_tpch_revenue_shape(self, page):
        revenue = col("b") * (lit(1.0) - lit(0.1))
        np.testing.assert_allclose(
            revenue.evaluate(page), page["b"] * 0.9
        )


class TestCostModel:
    def test_columns_and_literals_free(self):
        assert col("a").cost_units_per_row == 0.0
        assert lit(1).cost_units_per_row == 0.0

    def test_comparison_costs_one_unit(self):
        assert (col("a") < lit(1)).cost_units_per_row == 1.0

    def test_costs_compose(self):
        expr = (col("a") < lit(1)) & (col("b") > lit(2))
        assert expr.cost_units_per_row == pytest.approx(2.5)

    def test_arithmetic_nesting_adds_cost(self):
        simple = col("a") * lit(2)
        nested = (col("a") * lit(2)) * (col("b") + lit(1))
        assert nested.cost_units_per_row > simple.cost_units_per_row


class TestColumnTracking:
    def test_columns_collected(self):
        expr = (col("a") < lit(1)) & col("tag").isin(["x"])
        assert expr.columns() == frozenset({"a", "tag"})

    def test_between_columns(self):
        assert col("a").between(0, 1).columns() == frozenset({"a"})
