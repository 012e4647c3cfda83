"""Tests for repeated scans (nested-loop-join inner rescans), written as
one labelled step per repetition."""

import pytest

from repro.core.config import SharingConfig
from repro.engine.executor import execute_query, run_workload
from repro.engine.query import HashJoin, QuerySpec, ScanStep

from tests.conftest import make_database


def repeated_query(repeats=3):
    return QuerySpec(
        name="nlj-inner",
        steps=tuple(ScanStep(table="t", label=f"inner#{repeat}")
                    for repeat in range(repeats)),
    )


class TestRepeats:
    def test_step_executed_n_times(self, small_db):
        proc = small_db.sim.spawn(execute_query(small_db, repeated_query(3)))
        small_db.sim.run()
        result = proc.completion.value
        assert len(result.steps) == 3
        assert [s.label for s in result.steps] == [
            "inner#0", "inner#1", "inner#2"
        ]
        assert result.pages_scanned == 3 * 128

    def test_single_repeat_keeps_plain_label(self, small_db):
        proc = small_db.sim.spawn(
            execute_query(small_db, QuerySpec(
                name="q", steps=(ScanStep(table="t", label="only"),)
            ))
        )
        small_db.sim.run()
        assert [s.label for s in proc.completion.value.steps] == ["only"]

    def test_sharing_helps_repeated_inner_scans(self):
        """The sequel's NLJ observation: an inner scan repeated back to
        back re-reads its range; last-finished placement lets the next
        repetition harvest the pool leftovers."""
        reads = {}
        for enabled in (False, True):
            db = make_database(n_pages=96, pool_pages=48,
                               sharing=SharingConfig(enabled=enabled))
            run_workload(db, [[repeated_query(4)]])
            reads[enabled] = db.disk.stats.pages_read
        assert reads[True] < reads[False]

    def test_repeated_results_all_equal(self, small_db):
        proc = small_db.sim.spawn(execute_query(small_db, repeated_query(3)))
        small_db.sim.run()
        result = proc.completion.value
        values = [step.values for step in result.steps]
        assert values[0] == values[1] == values[2]
        assert list(result.values) == ["inner#0", "inner#1", "inner#2"]


class TestLabels:
    """Answers are keyed by step label, so a label names one step."""

    def test_duplicate_label_is_rejected(self):
        with pytest.raises(ValueError, match="'q'.*'x'"):
            QuerySpec(name="q", steps=(
                ScanStep(table="t", label="x"),
                ScanStep(table="t", fraction=(0.0, 0.5), label="x"),
            ))

    def test_an_explicit_label_may_not_take_a_default_one(self):
        with pytest.raises(ValueError, match="'q'.*'step1'"):
            QuerySpec(name="q", steps=(
                ScanStep(table="t", label="step1"), ScanStep(table="t"),
            ))

    def test_join_sides_are_labelled_as_steps(self):
        join = HashJoin(build=ScanStep(table="t"), probe=ScanStep(table="t"),
                        build_key="id", probe_key="id")
        spec = QuerySpec(name="q", steps=(join, ScanStep(table="t")))
        assert spec.labels == ("step0", "step1", "step2")
        with pytest.raises(ValueError, match="'q'.*'step1'"):
            QuerySpec(name="q", steps=(join, ScanStep(table="t", label="step1")))
