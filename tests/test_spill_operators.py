"""Unit tests for memory-budgeted spillable operators.

The contract under test: budgeted operators produce *exactly* the same
answers as their unbudgeted counterparts — spilling changes only the
simulated cost — and they spill when (and only when) their state
outgrows the granted frames or the pool claws frames back mid-scan.
"""

import numpy as np
import pytest

from repro.engine.costs import CostModel
from repro.engine.executor import execute_query
from repro.engine.memory import OperatorMemory, TempSpace
from repro.engine.operators import AggSpec, GroupByAggregate
from repro.engine.query import QuerySpec, ScanStep
from repro.engine.expressions import col
from repro.faults.plan import FaultPlan
from repro.engine.spill import (
    BudgetedGroupBy,
    HashBuildSink,
    HashProbe,
    SortSpillGroupBy,
    SpillStats,
    _write_run,
    chunk_factor,
    partition_of,
    split_chunks,
)

from tests.conftest import make_database

COST = CostModel()


def key_page(n=200, n_keys=997, offset=0):
    """One synthetic page with a high-cardinality group key column."""
    keys = (np.arange(n, dtype=np.int64) * 31 + offset) % n_keys
    return {
        "k": keys,
        "v": keys.astype(np.float64) / 2.0,
    }


def drive(db, generator):
    proc = db.sim.spawn(generator)
    db.sim.run()
    if isinstance(proc.completion.value, BaseException):
        raise proc.completion.value
    return proc.completion.value


AGGS = (
    AggSpec("n", "count"),
    AggSpec("total", "sum", col("v")),
    AggSpec("mean", "avg", col("v")),
    AggSpec("hi", "max", col("v")),
)


def feed_and_finalize(db, operator, n_pages=6):
    """Push pages through ``operator`` and drive its finalize phase."""
    for page_no in range(n_pages):
        operator.push(key_page(offset=page_no * 57), 200)

    def finisher(sim):
        yield from operator.finalize_sim(db)

    drive(db, finisher(db.sim))
    return operator.finish()


class TestBudgetedEquivalence:
    """Spilling must never change the answer, only the cost."""

    @pytest.mark.parametrize("operator_cls",
                             [BudgetedGroupBy, SortSpillGroupBy])
    def test_matches_classic_aggregate(self, operator_cls):
        db = make_database(pool_pages=64)
        classic = GroupByAggregate(AGGS, COST, group_by=("k",))
        for page_no in range(6):
            classic.push(key_page(offset=page_no * 57), 200)
        expected = classic.finish()

        memory = OperatorMemory(db, "agg", budget_pages=2)
        memory.negotiate()
        budgeted = operator_cls(AGGS, COST, memory, group_by=("k",))
        result = feed_and_finalize(db, budgeted)

        assert budgeted.spill.spill_events > 0, "budget of 2 should spill"
        assert set(result) == set(expected)
        for group, values in expected.items():
            for name in ("n", "hi"):
                assert result[group][name] == values[name]
            for name in ("total", "mean"):
                assert result[group][name] == pytest.approx(values[name])
        memory.release()

    def test_hash_and_sort_strategies_agree_on_values(self):
        results = {}
        for operator_cls in (BudgetedGroupBy, SortSpillGroupBy):
            db = make_database(pool_pages=64)
            memory = OperatorMemory(db, "agg", budget_pages=2)
            memory.negotiate()
            operator = operator_cls(AGGS, COST, memory, group_by=("k",))
            results[operator_cls] = feed_and_finalize(db, operator)
        hash_result, sort_result = results.values()
        assert hash_result.keys() == sort_result.keys()
        for group in hash_result:
            assert hash_result[group]["n"] == sort_result[group]["n"]

    def test_no_spill_within_budget(self):
        db = make_database(pool_pages=64)
        memory = OperatorMemory(db, "agg", budget_pages=32)
        memory.negotiate()
        operator = BudgetedGroupBy(AGGS, COST, memory, group_by=("k",))
        feed_and_finalize(db, operator)
        assert operator.spill.spill_events == 0
        assert not db.temp.allocated, "spill-free run must not touch temp"


class TestSpillUnderClawBack:
    def test_claw_back_forces_spill_below_budget(self):
        """A pool claw-back must make the operator shed state even
        though its table still fits the *originally* granted frames."""
        db = make_database(pool_pages=64)
        memory = OperatorMemory(db, "agg", budget_pages=16)
        granted = memory.negotiate()
        assert granted == 16
        operator = BudgetedGroupBy(AGGS, COST, memory, group_by=("k",))
        operator.push(key_page(), 200)
        assert operator.spill.spill_events == 0

        db.pool._claw_back_one()
        assert memory.spill_requested
        assert memory.pressure_events == 1
        assert memory.pages == 15

        operator.push(key_page(offset=13), 200)
        assert operator.spill.spill_events > 0
        assert not memory.spill_requested, "spill must clear the flag"
        assert db.temp.pages_written > 0

    def test_release_returns_surviving_frames_only(self):
        db = make_database(pool_pages=64)
        memory = OperatorMemory(db, "agg", budget_pages=8)
        memory.negotiate()
        db.pool._claw_back_one()
        db.pool._claw_back_one()
        assert memory.clawed_pages == 2
        freed = memory.release()
        assert freed == 6
        assert memory.stats()["granted_pages"] == 8

    def test_negotiate_clamps_to_usable_floor(self):
        db = make_database(pool_pages=16)
        memory = OperatorMemory(db, "agg", budget_pages=1000)
        granted = memory.negotiate()
        assert granted == 16 - db.pool.MIN_USABLE_FRAMES
        memory.release()
        assert db.pool.reserved_frames == 0


class TestMultibufferJoin:
    def build_table(self, n_pages=4):
        table = {}
        for page_no in range(n_pages):
            for key in ((np.arange(200) * 31 + page_no * 57) % 997):
                table[int(key)] = table.get(int(key), 0) + 1
        return table

    def test_chunk_sums_equal_single_pass(self):
        table = self.build_table()
        single = HashProbe("k", COST, table)
        for page_no in range(5):
            single.push(key_page(offset=page_no * 101), 200)
        expected = single.finish()

        n_chunks = 3
        totals = {"rows_probed": 0, "matches": 0}
        chunks = split_chunks(table, n_chunks)
        assert sum(map(len, chunks)) == len(table)
        for chunk in chunks:
            probe = HashProbe("k", COST, chunk)
            for page_no in range(5):
                probe.push(key_page(offset=page_no * 101), 200)
            out = probe.finish()
            totals["matches"] += out["matches"]
            totals["rows_probed"] = max(totals["rows_probed"],
                                        out["rows_probed"])
        assert totals["matches"] == expected["matches"]
        assert totals["rows_probed"] == expected["rows_probed"]

    def test_build_sink_spills_and_recovers_counts(self):
        db = make_database(pool_pages=64)
        expected = self.build_table(n_pages=6)

        memory = OperatorMemory(db, "join", budget_pages=2)
        memory.negotiate()
        sink = HashBuildSink("k", COST, memory=memory)
        for page_no in range(6):
            sink.push(key_page(offset=page_no * 57), 200)
        assert sink.spill.spill_events > 0

        def finisher(sim):
            yield from sink.finalize_sim(db)

        drive(db, finisher(db.sim))
        assert sink.finish() == expected
        assert sink.pages_needed >= 1
        memory.release()

    def test_chunk_factor(self):
        assert chunk_factor(0, 8) == 1
        assert chunk_factor(8, 8) == 1
        assert chunk_factor(9, 8) == 2
        assert chunk_factor(64, 8) == 8
        assert chunk_factor(5, 0) == 5

    def test_partition_of_is_stable(self):
        assert partition_of(42, 8) == partition_of(42, 8)
        assert 0 <= partition_of(float("nan"), 8) < 8
        counts = [0] * 8
        for key in range(1000):
            counts[partition_of(key, 8)] += 1
        assert all(count > 0 for count in counts)


class TestTempSpace:
    def test_lazy_allocation_and_wraparound(self):
        db = make_database(pool_pages=32, temp_space_pages=10)
        temp = db.temp
        assert isinstance(temp, TempSpace)
        assert not temp.allocated

        addr_a, _ = temp.write_run(6)
        assert temp.allocated
        addr_b, _ = temp.write_run(6)      # would overflow: wraps to base
        assert addr_b == addr_a
        assert temp.pages_written == 12
        db.sim.run()

    def test_rejects_a_run_larger_than_the_region(self):
        """A 12-page run in a 10-page region is an error, not a silent
        10-page write the spill counters and the read-back disagree with."""
        db = make_database(pool_pages=32, temp_space_pages=10)
        memory = OperatorMemory(db, "join", budget_pages=2)
        memory.negotiate()
        sink = HashBuildSink("k", COST, memory=memory)
        with pytest.raises(ValueError, match="12 pages .* 10-page temp space"):
            _write_run(sink, {0: 1}, 12)
        assert sink.spill.as_dict() == SpillStats().as_dict()
        assert sink._runs == []
        assert db.temp.stats()["temp_pages_written"] == 0
        addr, _ = db.temp.write_run(10)    # the whole region still fits
        assert db.temp.pages_written == 10
        db.sim.run()

    def test_rejects_bad_sizes(self):
        db = make_database(pool_pages=32)
        with pytest.raises(ValueError):
            db.temp.write_run(0)
        with pytest.raises(ValueError):
            db.temp.read_run(0, 0)
        with pytest.raises(ValueError):
            TempSpace(db, 0)


class TestExecutorIntegration:
    def grouped_query(self, budget):
        return QuerySpec(
            name="grouped",
            steps=(
                ScanStep(
                    table="t",
                    aggregates=(AggSpec("n", "count"),
                                AggSpec("total", "sum", col("value"))),
                    group_by=("id",),
                    agg_budget_pages=budget,
                    label="t",
                ),
            ),
        )

    def run_query(self, db, spec):
        proc = db.sim.spawn(execute_query(db, spec))
        db.sim.run()
        return proc.completion.value

    def test_budgeted_step_spills_and_matches_unbudgeted(self):
        # 12800 distinct ids = 200 frames of groups; a 2-page budget
        # must spill, a None budget runs the classic operator.
        budgeted_db = make_database(n_pages=128, pool_pages=32)
        budgeted = self.run_query(budgeted_db, self.grouped_query(2))
        stats = budgeted.operator_stats()
        assert stats["spill_events"] > 0
        assert stats["spill_pages_written"] > 0
        assert stats["granted_pages"] == 2
        assert budgeted_db.pool.reserved_frames == 0, "budget released"

        classic_db = make_database(n_pages=128, pool_pages=32)
        classic = self.run_query(classic_db, self.grouped_query(None))
        assert classic.operator_stats() == {}
        assert budgeted.values["t"] == classic.values["t"]
        assert budgeted_db.sim.now > classic_db.sim.now, (
            "spill I/O and merge CPU must cost simulated time"
        )

    def test_join_steps_chunk_and_match(self):
        db = make_database(n_pages=64, pool_pages=32)
        spec = QuerySpec(
            name="join",
            steps=(
                ScanStep(table="t", join_build_key="id",
                         join_budget_pages=2, label="build"),
                ScanStep(table="t", join_probe_key="id", label="probe"),
            ),
        )
        result = self.run_query(db, spec)
        stats = result.operator_stats()
        # 6400 unique ids need 50 key-pages; 2 granted frames -> chunks.
        assert stats["join_chunks"] == 25
        assert stats["build_pages_needed"] == 50
        assert result.values["probe"]["matches"] == 64 * 100
        assert db.pool.reserved_frames == 0

    def test_kill_in_a_later_probe_pass_marks_the_step_aborted(self):
        """The probe step folds its passes into one ScanResult; a pass
        killed after the first must still surface as ``aborted``."""
        # Scan ids: 0 is the build scan, 1.. the probe passes — kill the
        # third pass halfway through its range.
        db = make_database(
            n_pages=64, pool_pages=32, record_page_visits=True,
            fault_plan=FaultPlan.from_spec(
                "scan-kill:target=nth,nth=3,at=0.5", seed=0),
        )
        spec = QuerySpec(
            name="join",
            steps=(
                ScanStep(table="t", join_build_key="id",
                         join_budget_pages=2, label="build"),
                ScanStep(table="t", join_probe_key="id", label="probe"),
            ),
        )
        result = self.run_query(db, spec)
        probe = result.steps[1]
        assert probe.operator_stats["join_chunks"] == 25
        assert db.sharing.stats.scans_aborted == 1
        assert probe.scan.aborted
        # 24 whole passes and the 32 pages the killed one reached.
        assert probe.scan.pages_scanned == 24 * 64 + 32
        assert len(probe.scan.visited_pages) == probe.scan.pages_scanned
        assert probe.values["matches"] < 64 * 100


class TestBudgetedTemplates:
    def test_make_query_reaches_budgeted_templates(self):
        from repro.workloads.tpch_queries import (
            BUDGETED_QUERY_FACTORIES,
            make_query,
        )

        rng = np.random.default_rng(7)
        for name in sorted(BUDGETED_QUERY_FACTORIES):
            spec = make_query(name, rng)
            budgets = [
                step.agg_budget_pages or step.join_budget_pages
                for step in spec.steps
            ]
            assert any(budget is not None for budget in budgets), name

    def test_unknown_query_lists_budgeted_names(self):
        from repro.workloads.tpch_queries import make_query

        rng = np.random.default_rng(7)
        with pytest.raises(KeyError, match="AG1"):
            make_query("nope", rng)
