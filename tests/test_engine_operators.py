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
from repro.engine.memory import OperatorMemory
from repro.engine.query import HashJoin, ScanStep

from tests.conftest import RowCounter, make_database

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


#: Every column of :func:`page`.
ALL = frozenset(page())


def filtered(predicate, sink, extra=0.0):
    """A pipeline of a filter on ``predicate`` in front of ``sink``."""
    return Pipeline(sink, COST, filter=Filter(predicate, COST,
                                              sink.required_columns()),
                    extra_units_per_row=extra)


def run(pipeline, n=10):
    """Seconds per page of one page of ``n`` rows through ``pipeline``."""
    return pipeline.process_run(0, page(n), np.array([n]))


class TestFilter:
    def test_filters_rows(self):
        sink = GroupByAggregate([AggSpec("n", "count")], COST)
        pipeline = filtered(col("a") < lit(5), sink)
        run(pipeline)
        assert sink.finish()["n"] == 5
        assert pipeline.filter.selectivity == pytest.approx(0.5)

    def test_all_pass_shortcut(self):
        batch = page(10)
        units, rows, survivors = Filter(col("a") >= lit(0), COST, ALL).push(
            batch, np.array([10]))
        assert rows is batch
        assert survivors.tolist() == [10]
        assert units[0] == 10 * (col("a") >= lit(0)).cost_units_per_row

    def test_none_pass_skips_downstream(self):
        class Untouchable(RowCounter):
            def push(self, batch, page_rows):
                raise AssertionError("an emptied run reached the sink")

        sink = Untouchable()
        (seconds,) = run(filtered(col("a") < lit(0), sink))
        assert sink.finish() == 0
        assert seconds == COST.seconds(
            10 * (col("a") < lit(0)).cost_units_per_row + COST.per_page_units)

    @pytest.mark.parametrize("predicate", [lit(True), lit(1.0) < lit(2.0)])
    def test_constant_true_predicate(self, predicate):
        """A predicate over constants evaluates to a scalar, not a mask:
        every row passes and nothing is compacted (or charged for it)."""
        filt = Filter(predicate, COST, ALL)
        batch = page(10)
        units, rows, survivors = filt.push(batch, np.array([10]))
        assert rows is batch
        assert survivors.tolist() == [10]
        assert (filt.rows_in, filt.rows_out) == (10, 10)
        assert units[0] == 10 * predicate.cost_units_per_row
        sink = GroupByAggregate([AggSpec("n", "count")], COST)
        (seconds,) = run(filtered(predicate, sink))
        assert sink.finish()["n"] == 10
        alone = GroupByAggregate([AggSpec("n", "count")], COST).push(page(10), 10)
        assert seconds == COST.seconds(units[0] + alone[0] + COST.per_page_units)

    @pytest.mark.parametrize("predicate", [lit(False), lit(2.0) < lit(1.0)])
    def test_constant_false_predicate(self, predicate):
        """No row passes: the predicate's cost is all there is."""
        filt = Filter(predicate, COST, ALL)
        units, rows, survivors = filt.push(page(10), np.array([10]))
        assert rows is None
        assert survivors.tolist() == [0]
        assert (filt.rows_in, filt.rows_out) == (10, 0)
        assert units[0] == 10 * predicate.cost_units_per_row

    def test_filtered_columns_consistent(self):
        """All surviving columns must be compacted together."""
        units, rows, survivors = Filter(col("a") < lit(3), COST, ALL).push(
            page(10), np.array([10]))
        assert {name: len(values) for name, values in rows.items()} == {
            name: 3 for name in page(10)}
        assert survivors.tolist() == [3]
        assert units[0] == 10 * (col("a") < lit(3)).cost_units_per_row + (
            3 * COST.filter_compact_units)

    def test_compaction_projects_to_required_columns(self):
        """A sink that declares its columns gets only those."""
        collected = {}

        class Probe(RowCounter):
            def required_columns(self):
                return frozenset({"b"})

            def push(self, data, n_rows):
                collected.update({k: len(v) for k, v in data.items()})
                return super().push(data, n_rows)

        run(filtered(col("a") < lit(3), Probe()))
        assert collected == {"b": 3}

    def test_filter_takes_the_sink_columns(self):
        """A built step's filter compacts what its sink reads; the
        predicate reads the run before compaction, so its own columns
        are not among them."""
        step = ScanStep(table="t", predicate=col("a") < lit(3),
                        aggregates=(AggSpec("s", "sum", col("b")),),
                        group_by=("tag",))
        pipeline = step.build_pipeline(COST)
        assert pipeline.filter.columns == frozenset({"b", "tag"})
        run(pipeline)
        assert pipeline.result() == {("x",): {"s": 4.0}, ("y",): {"s": 2.0}}


class TestPipeline:
    def test_process_page_returns_seconds(self):
        sink = GroupByAggregate([AggSpec("n", "count")], COST)
        pipeline = filtered(col("a") < lit(5), sink)
        (seconds,) = run(pipeline)
        assert seconds > 0
        assert pipeline.pages == 1
        assert pipeline.rows == 10

    def test_extra_units_increase_cost(self):
        def build(extra):
            sink = GroupByAggregate([AggSpec("n", "count")], COST)
            return Pipeline(sink, COST, extra_units_per_row=extra)

        (cheap_cost,) = run(build(0.0))
        (heavy_cost,) = run(build(50.0))
        assert heavy_cost > cheap_cost

    def test_estimated_units_positive_and_ordered(self):
        light = Pipeline(GroupByAggregate([AggSpec("n", "count")], COST), COST)
        heavy_sink = GroupByAggregate(
            [AggSpec(f"s{i}", "sum", col("a") * lit(i)) for i in range(8)],
            COST,
            group_by=["tag"],
        )
        heavy = filtered(col("a") < lit(5), heavy_sink)
        assert 0 < light.estimated_units_per_page(100) < heavy.estimated_units_per_page(100)

    def test_result_delegates_to_terminal(self):
        sink = GroupByAggregate([AggSpec("n", "count")], COST)
        pipeline = Pipeline(sink, COST)
        run(pipeline, 6)
        assert pipeline.result()["n"] == 6


#: Steps whose pipelines' speed estimates are pinned bit for bit: the
#: estimate places scans, so it must keep its term-by-term accumulation.
ESTIMATED_STEPS = {
    "filter+grouped-aggregates": ScanStep(
        table="t",
        predicate=(col("a") < lit(5)) & col("tag").isin(["x", "z"]),
        aggregates=(
            AggSpec("n", "count"),
            AggSpec("seen", "count", col("b")),
            AggSpec("total", "sum", col("a") * col("b")),
            AggSpec("mean", "avg", col("b") + lit(0.1)),
            AggSpec("hi", "max", col("a")),
        ),
        group_by=("tag", "a"),
        extra_units_per_row=0.7,
    ),
    "budgeted-aggregate": ScanStep(
        table="t",
        aggregates=(AggSpec("n", "count"), AggSpec("seen", "count", col("b")),
                    AggSpec("lo", "min", col("b") * lit(0.3))),
        group_by=("tag",),
        agg_budget_pages=4,
    ),
}

#: Both sides of one join, each estimated through its own pipeline.
ESTIMATED_JOIN = HashJoin(
    build=ScanStep(table="t", predicate=col("b").between(0.1, 0.9),
                   extra_units_per_row=0.3),
    probe=ScanStep(table="t", predicate=col("a") >= lit(2)),
    build_key="a", probe_key="a", budget_pages=4,
)


class TestEstimatedUnits:
    @pytest.mark.parametrize("name, rows, expected", [
        ("filter+grouped-aggregates", 113, "0x1.5b43333333333p+10"),
        ("filter+grouped-aggregates", 37, "0x1.e873333333333p+8"),
        ("budgeted-aggregate", 113, "0x1.2f7999999999ap+10"),
        ("budgeted-aggregate", 37, "0x1.af1999999999ap+8"),
        ("join-build", 113, "0x1.df66666666666p+8"),
        ("join-build", 37, "0x1.7d33333333333p+7"),
        ("join-probe", 113, "0x1.1400000000000p+8"),
        ("join-probe", 37, "0x1.f000000000000p+6"),
    ])
    def test_pinned_bit_for_bit(self, name, rows, expected):
        memory = None
        if name in ("budgeted-aggregate", "join-build"):
            db = make_database(pool_pages=64)
            memory = OperatorMemory(db, name, budget_pages=4)
            memory.negotiate()
        if name == "join-build":
            pipeline = ESTIMATED_JOIN.build_pipeline(COST, memory=memory)
        elif name == "join-probe":
            pipeline = ESTIMATED_JOIN.probe_pipeline(COST, {1: 2})
        else:
            pipeline = ESTIMATED_STEPS[name].build_pipeline(COST, memory=memory)
        assert pipeline.estimated_units_per_page(rows).hex() == expected
