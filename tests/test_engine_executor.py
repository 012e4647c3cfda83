"""Unit tests for query and stream execution."""

import pytest

from repro.core.config import SharingConfig
from repro.engine.executor import execute_query, run_workload
from repro.engine.expressions import col, lit
from repro.engine.operators import AggSpec
from repro.engine.query import QuerySpec, ScanStep

from tests.conftest import make_database, uniform_scan_query


def count_query(lo=0.0, hi=1.0, name="count"):
    return uniform_scan_query("t", lo, hi, name=name)


class TestExecuteQuery:
    def test_returns_result_with_values(self, small_db):
        proc = small_db.sim.spawn(execute_query(small_db, count_query()))
        small_db.sim.run()
        result = proc.completion.value
        assert result.name == "count"
        assert result.pages_scanned == 128
        assert result.values["t"]["rows"] == 128 * 100

    def test_metrics_recorded(self, small_db):
        proc = small_db.sim.spawn(execute_query(small_db, count_query(),
                                                stream_id=3))
        small_db.sim.run()
        assert proc.completion.value is not None
        records = small_db.metrics.queries
        assert len(records) == 1
        assert records[0].stream_id == 3
        assert records[0].query_name == "count"

    def test_multi_step_query_runs_steps_in_order(self, small_db):
        spec = QuerySpec(
            name="two-step",
            steps=(
                ScanStep(table="t", fraction=(0.0, 0.5), label="first"),
                ScanStep(table="t", fraction=(0.5, 1.0), label="second"),
            ),
        )
        proc = small_db.sim.spawn(execute_query(small_db, spec))
        small_db.sim.run()
        result = proc.completion.value
        assert [s.label for s in result.steps] == ["first", "second"]
        assert result.steps[0].scan.finished_at <= result.steps[1].scan.started_at

    def test_filtered_aggregate_values_correct(self, small_db):
        spec = QuerySpec(
            name="filtered",
            steps=(
                ScanStep(
                    table="t",
                    predicate=col("value") < lit(50.0),
                    aggregates=(AggSpec("n", "count"),
                                AggSpec("max_v", "max", col("value"))),
                    label="t",
                ),
            ),
        )
        proc = small_db.sim.spawn(execute_query(small_db, spec))
        small_db.sim.run()
        values = proc.completion.value.values["t"]
        assert 0 < values["n"] < 128 * 100
        assert values["max_v"] < 50.0

    def test_cluster_range_scans_fewer_pages_same_answer(self, small_db):
        def run(cluster_range):
            spec = QuerySpec(name="range-count", steps=(ScanStep(
                table="t", predicate=col("day").between(200.0, 400.0),
                cluster_range=cluster_range, label="t"),))
            proc = small_db.sim.spawn(execute_query(small_db, spec))
            small_db.sim.run()
            return proc.completion.value

        full, narrowed = run(None), run((200.0, 400.0))
        assert narrowed.pages_scanned < full.pages_scanned
        assert narrowed.values["t"]["rows"] == full.values["t"]["rows"] > 0


class TestRunWorkload:
    def test_single_stream(self, small_db):
        result = run_workload(small_db, [[count_query()]])
        assert len(result.streams) == 1
        assert result.makespan > 0
        assert result.pages_read > 0

    def test_stagger_offsets_streams(self):
        db = make_database()
        result = run_workload(db, [[count_query()], [count_query()]], stagger=0.5)
        starts = sorted(s.started_at for s in result.streams)
        assert starts[1] - starts[0] == pytest.approx(0.5)

    def test_stagger_list(self):
        db = make_database()
        result = run_workload(
            db, [[count_query()], [count_query()]], stagger_list=[0.0, 1.25]
        )
        starts = sorted(s.started_at for s in result.streams)
        assert starts[1] == pytest.approx(1.25)

    def test_stagger_list_length_validated(self):
        db = make_database()
        with pytest.raises(ValueError):
            run_workload(db, [[count_query()]], stagger_list=[0.0, 1.0])

    def test_query_mean_elapsed(self):
        db = make_database()
        result = run_workload(
            db, [[count_query(name="q")], [count_query(name="q")]]
        )
        means = result.query_mean_elapsed()
        assert set(means) == {"q"}
        assert means["q"] > 0

    def test_stream_elapsed_lookup(self):
        db = make_database()
        result = run_workload(db, [[count_query()]])
        assert result.stream_elapsed(0) == pytest.approx(result.streams[0].elapsed)
        with pytest.raises(KeyError):
            result.stream_elapsed(9)

    def test_workload_failure_propagates(self):
        db = make_database()
        bad = QuerySpec(
            name="bad",
            steps=(ScanStep(table="missing"),),
        )
        with pytest.raises(KeyError):
            run_workload(db, [[bad]])


class TestBaseVsSharedExecution:
    def test_identical_query_values(self):
        """The sharing mechanism must never change query answers."""
        spec = QuerySpec(
            name="agg",
            steps=(
                ScanStep(
                    table="t",
                    predicate=col("value") < lit(30.0),
                    aggregates=(AggSpec("n", "count"),
                                AggSpec("s", "sum", col("value"))),
                    label="t",
                ),
            ),
        )
        results = {}
        for enabled in (False, True):
            db = make_database(sharing=SharingConfig(enabled=enabled))
            workload = run_workload(db, [[spec], [spec]])
            values = [
                q.values["t"] for s in workload.streams for q in s.queries
            ]
            results[enabled] = values
        for base_vals, shared_vals in zip(results[False], results[True]):
            assert base_vals["n"] == shared_vals["n"]
            # Wrapped scans sum the same rows in a different order.
            assert base_vals["s"] == pytest.approx(shared_vals["s"], rel=1e-9)
