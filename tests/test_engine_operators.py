"""Unit tests for the push-based operator pipeline."""

import numpy as np
import pytest

from repro.engine.costs import CostModel
from repro.engine.expressions import col, lit
from repro.engine.operators import (
    AggSpec,
    Filter,
    GroupByAggregate,
    Pipeline,
)

from tests.conftest import RowCounter

COST = CostModel()


def page(n=10):
    return {
        "a": np.arange(n, dtype=np.int64),
        "b": np.full(n, 2.0),
        "tag": np.array(["x", "y"] * (n // 2), dtype=object),
    }


class TestAggSpec:
    def test_count_needs_no_expression(self):
        AggSpec("n", "count")

    def test_other_funcs_need_expression(self):
        with pytest.raises(ValueError):
            AggSpec("s", "sum")

    def test_unknown_func_rejected(self):
        with pytest.raises(ValueError):
            AggSpec("m", "median", col("a"))


class TestGroupByAggregate:
    def test_global_sum_and_count(self):
        agg = GroupByAggregate(
            [AggSpec("total", "sum", col("a")), AggSpec("n", "count")], COST
        )
        agg.push(page(10), 10)
        agg.push(page(10), 10)
        result = agg.finish()
        assert result["total"] == 2 * sum(range(10))
        assert result["n"] == 20

    def test_min_max(self):
        agg = GroupByAggregate(
            [AggSpec("lo", "min", col("a")), AggSpec("hi", "max", col("a"))], COST
        )
        agg.push(page(10), 10)
        result = agg.finish()
        assert result["lo"] == 0
        assert result["hi"] == 9

    def test_avg(self):
        agg = GroupByAggregate([AggSpec("mean", "avg", col("a"))], COST)
        agg.push(page(10), 10)
        assert agg.finish()["mean"] == pytest.approx(4.5)

    def test_avg_of_nothing_is_zero(self):
        agg = GroupByAggregate([AggSpec("mean", "avg", col("a"))], COST)
        assert agg.finish()["mean"] == 0.0

    def test_grouped_counts(self):
        agg = GroupByAggregate(
            [AggSpec("n", "count")], COST, group_by=["tag"]
        )
        agg.push(page(10), 10)
        result = agg.finish()
        assert result[("x",)]["n"] == 5
        assert result[("y",)]["n"] == 5

    def test_grouped_sum_across_batches(self):
        agg = GroupByAggregate(
            [AggSpec("s", "sum", col("a"))], COST, group_by=["tag"]
        )
        agg.push(page(10), 10)
        agg.push(page(10), 10)
        result = agg.finish()
        assert result[("x",)]["s"] == 2 * (0 + 2 + 4 + 6 + 8)
        assert result[("y",)]["s"] == 2 * (1 + 3 + 5 + 7 + 9)

    def test_needs_at_least_one_aggregate(self):
        with pytest.raises(ValueError):
            GroupByAggregate([], COST)

    def test_push_returns_positive_units(self):
        agg = GroupByAggregate([AggSpec("n", "count")], COST)
        assert agg.push(page(10), 10) > 0

    def test_empty_batch_is_free(self):
        agg = GroupByAggregate([AggSpec("n", "count")], COST)
        assert agg.push({}, 0) == 0.0


class TestFilter:
    def test_filters_rows(self):
        sink = GroupByAggregate([AggSpec("n", "count")], COST)
        filt = Filter(col("a") < lit(5), sink, COST)
        filt.push(page(10), 10)
        assert sink.finish()["n"] == 5
        assert filt.selectivity == pytest.approx(0.5)

    def test_all_pass_shortcut(self):
        sink = GroupByAggregate([AggSpec("n", "count")], COST)
        filt = Filter(col("a") >= lit(0), sink, COST)
        filt.push(page(10), 10)
        assert sink.finish()["n"] == 10

    def test_none_pass_skips_downstream(self):
        sink = RowCounter()
        filt = Filter(col("a") < lit(0), sink, COST)
        filt.push(page(10), 10)
        assert sink.finish() == 0

    @pytest.mark.parametrize("predicate", [lit(True), lit(1.0) < lit(2.0)])
    def test_constant_true_predicate(self, predicate):
        """A predicate over constants evaluates to a scalar, not a mask:
        every row passes and nothing is compacted (or charged for it)."""
        sink = GroupByAggregate([AggSpec("n", "count")], COST)
        filt = Filter(predicate, sink, COST)
        units = filt.push(page(10), 10)
        assert sink.finish()["n"] == 10
        assert (filt.rows_in, filt.rows_out) == (10, 10)
        downstream = GroupByAggregate([AggSpec("n", "count")], COST).push(page(10), 10)
        assert units[0] == 10 * predicate.cost_units_per_row + downstream[0]

    @pytest.mark.parametrize("predicate", [lit(False), lit(2.0) < lit(1.0)])
    def test_constant_false_predicate(self, predicate):
        """No row passes: the predicate's cost is all there is."""
        sink = RowCounter()
        filt = Filter(predicate, sink, COST)
        units = filt.push(page(10), 10)
        assert sink.finish() == 0
        assert (filt.rows_in, filt.rows_out) == (10, 0)
        assert units[0] == 10 * predicate.cost_units_per_row

    def test_filtered_columns_consistent(self):
        """All surviving columns must be compacted together."""
        collected = {}

        class Probe(RowCounter):
            def required_columns(self):
                return None  # unknown: may read anything

            def push(self, data, n_rows):
                collected.update({k: len(v) for k, v in data.items()})
                return super().push(data, n_rows)

        filt = Filter(col("a") < lit(3), Probe(), COST)
        filt.push(page(10), 10)
        assert set(collected.values()) == {3}
        assert set(collected) == set(page(10))

    def test_compaction_projects_to_required_columns(self):
        """A downstream that declares its columns gets only those."""
        collected = {}

        class Probe(RowCounter):
            def required_columns(self):
                return frozenset({"b"})

            def push(self, data, n_rows):
                collected.update({k: len(v) for k, v in data.items()})
                return super().push(data, n_rows)

        filt = Filter(col("a") < lit(3), Probe(), COST)
        filt.push(page(10), 10)
        assert set(collected) == {"b"}
        assert collected["b"] == 3

    def test_required_columns_includes_own_predicate(self):
        filt = Filter(col("a") < lit(3), RowCounter(), COST)
        assert filt.required_columns() == frozenset({"a"})


class TestPipeline:
    def test_process_page_returns_seconds(self):
        sink = GroupByAggregate([AggSpec("n", "count")], COST)
        pipeline = Pipeline(Filter(col("a") < lit(5), sink, COST), COST)
        (seconds,) = pipeline.process_run(0, page(10), np.array([10]))
        assert seconds > 0
        assert pipeline.pages == 1
        assert pipeline.rows == 10

    def test_extra_units_increase_cost(self):
        def build(extra):
            sink = GroupByAggregate([AggSpec("n", "count")], COST)
            return Pipeline(sink, COST, extra_units_per_row=extra)

        (cheap_cost,) = build(0.0).process_run(0, page(10), np.array([10]))
        (heavy_cost,) = build(50.0).process_run(0, page(10), np.array([10]))
        assert heavy_cost > cheap_cost

    def test_estimated_units_positive_and_ordered(self):
        light_sink = GroupByAggregate([AggSpec("n", "count")], COST)
        light = Pipeline(light_sink, COST)
        heavy_sink = GroupByAggregate(
            [AggSpec(f"s{i}", "sum", col("a") * lit(i)) for i in range(8)],
            COST,
            group_by=["tag"],
        )
        heavy = Pipeline(Filter(col("a") < lit(5), heavy_sink, COST), COST)
        assert 0 < light.estimated_units_per_page(100) < heavy.estimated_units_per_page(100)

    def test_result_delegates_to_terminal(self):
        sink = GroupByAggregate([AggSpec("n", "count")], COST)
        pipeline = Pipeline(sink, COST)
        pipeline.process_run(0, page(6), np.array([6]))
        assert pipeline.result()["n"] == 6
