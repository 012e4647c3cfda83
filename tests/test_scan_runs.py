"""Scans hand their operators one extent run at a time — and nothing the
simulation can observe depends on it.

A scan whose ``on_run`` pushes each run through the operators whole must
visit the same pages in the same order and charge each of them exactly
the same CPU seconds at the same simulated time as the same scan whose
``on_run`` processes every page as a run of one when the scan gets there
(the page-at-a-time reference), wherever the range starts, ends or wraps
relative to the extent grid.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SharingConfig
from repro.engine.costs import CostModel
from repro.engine.executor import execute_query
from repro.engine.expressions import col, lit
from repro.engine.operators import AggSpec, Filter, GroupByAggregate, Pipeline
from repro.engine.query import QuerySpec, ScanStep
from repro.faults.plan import FaultPlan
from repro.scans.base import LazyPages, scan_order, scan_runs
from repro.scans.table_scan import TableScan

from tests.conftest import make_database
from tests.test_scan_robustness import assert_no_pins

COST = CostModel()
EXTENT = 8


class TestScanRuns:
    def test_plain_range_splits_at_extent_boundaries(self):
        assert list(scan_runs(5, 20, 5, 8)) == [(5, 8), (8, 16), (16, 21)]

    def test_wrap_splits_the_start_extent_in_two(self):
        assert list(scan_runs(0, 19, 11, 8)) == [
            (11, 16), (16, 20), (0, 8), (8, 11)]

    def test_range_inside_one_extent(self):
        assert list(scan_runs(2, 5, 4, 8)) == [(4, 6), (2, 4)]

    def test_start_outside_range_rejected(self):
        with pytest.raises(ValueError):
            list(scan_runs(0, 4, 5, 8))

    @given(st.data())
    def test_runs_cover_scan_order_within_extents(self, data):
        extent_size = data.draw(st.integers(1, 9))
        first = data.draw(st.integers(0, 40))
        last = data.draw(st.integers(first, first + 40))
        start = data.draw(st.integers(first, last))
        runs = list(scan_runs(first, last, start, extent_size))
        assert [page for lo, stop in runs for page in range(lo, stop)] == list(
            scan_order(first, last, start))
        for lo, stop in runs:
            assert lo < stop
            assert lo // extent_size == (stop - 1) // extent_size
        for (_, stop), (lo, _) in zip(runs, runs[1:]):
            # Maximal: only an extent boundary or the wrap ends a run.
            assert lo != stop or lo % extent_size == 0


def make_pipeline():
    """Per-page cost varies with the page's selectivity and group count."""
    sink = GroupByAggregate(
        [AggSpec("n", "count"), AggSpec("total", "sum", col("value")),
         AggSpec("hi", "max", col("value"))],
        COST, group_by=["flag"])
    return Pipeline(Filter(col("value") < lit(37.0), sink, COST), COST)


class Charges:
    """Logs ``(page_no, cpu_seconds, simulated time)`` as pages are charged."""

    def __init__(self, db, pipeline):
        self.db = db
        self.pipeline = pipeline
        self.log = []

    def page_at_a_time(self, first_page, batch, page_rows):
        """The reference: each page is a run of one, processed on arrival."""
        del batch
        table = self.db.catalog.table("t")

        def on_page(index):
            page_no = first_page + index
            seconds = self.pipeline.process_run(
                page_no, table.page_data(page_no), page_rows[index:index + 1])[0]
            self.log.append((page_no, seconds, self.db.sim.now))
            return seconds

        return LazyPages(on_page)

    def on_run(self, first_page, batch, page_rows):
        seconds = self.pipeline.process_run(first_page, batch, page_rows)
        charges = self

        class Logged:
            def __getitem__(self, index):
                charged = seconds[index]  # read once: it may be lazy
                charges.log.append(
                    (first_page + index, charged, charges.db.sim.now))
                return charged

        return Logged()


def run_scans(by_run, n_pages, first, last, delay, shared):
    """Two scans of one range, the second ``delay`` seconds after the
    first; returns their results, charge logs and answers.  With sharing
    on, the second scan is placed where the first one last reported to
    be (every 3 pages), snapped down to an extent boundary unless the
    table is smaller than an extent — so it wraps."""
    db = make_database(
        n_pages=n_pages, pool_pages=32, extent_size=EXTENT,
        sharing=SharingConfig(enabled=shared, update_interval_pages=3,
                              min_share_pages=1),
    )
    charges = [Charges(db, make_pipeline()) for _ in range(2)]
    scans = [
        TableScan(db, "t", first, last, record_visits=True,
                  on_run=c.on_run if by_run else c.page_at_a_time,
                  sharing=db.sharing if shared else None)
        for c in charges
    ]

    def delayed(scan, wait):
        yield db.sim.timeout(wait)
        return (yield from scan.run())

    procs = [db.sim.spawn(delayed(scan, index * delay))
             for index, scan in enumerate(scans)]
    db.sim.run()
    for proc in procs:
        assert not proc.completion.failed, proc.completion.value
    assert_no_pins(db)
    return (
        [proc.completion.value for proc in procs],
        [c.log for c in charges],
        [c.pipeline.result() for c in charges],
    )


RANGES = [
    # n_pages, first, last, delay of the second scan
    (64, 0, 63, 0.0135),   # extent-aligned range; second scan wraps at 24
    (64, 5, 50, 0.0135),   # starts and ends mid-extent; wraps at 32
    (64, 13, 14, 0.004),   # two pages inside one extent
    (5, 0, 4, 0.0018),     # table smaller than one extent; wraps at page 3
    (21, 3, 20, 0.006),    # partial first and last extent; wraps at 8
]


class TestRunsChargeLikePages:
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("n_pages,first,last,delay", RANGES)
    def test_same_charges_same_order_same_times(
            self, shared, n_pages, first, last, delay):
        run_results, run_logs, run_answers = run_scans(
            True, n_pages, first, last, delay, shared)
        page_results, page_logs, page_answers = run_scans(
            False, n_pages, first, last, delay, shared)
        assert run_logs == page_logs  # page, seconds and time, exactly
        for by_run, by_page in zip(run_results, page_results):
            assert by_run == by_page  # ScanResult: visits, cpu, throttle, times
            assert by_run.pages_scanned == last - first + 1
        for by_run, by_page in zip(run_answers, page_answers):
            assert list(by_run) == list(by_page)
            for key, values in by_run.items():
                assert values["n"] == by_page[key]["n"]
                assert values["hi"] == by_page[key]["hi"]
                assert values["total"] == pytest.approx(
                    by_page[key]["total"], rel=1e-9)

    @pytest.mark.parametrize("n_pages,first,last,delay", RANGES)
    def test_second_shared_scan_wraps_where_the_table_says(
            self, n_pages, first, last, delay):
        """The cases above are only worth their name if the second scan
        really starts inside the range (and, on the tiny table, inside
        an extent)."""
        results, logs, _ = run_scans(True, n_pages, first, last, delay, True)
        start = results[1].start_page
        assert start == {(64, 0): 24, (64, 5): 32, (64, 13): 13,
                         (5, 0): 3, (21, 3): 8}[n_pages, first]
        assert [page for page, _, _ in logs[1]] == list(
            scan_order(first, last, start))


class TestKillMidRun:
    def test_kill_inside_a_run_unpins_and_aborts(self):
        db = make_database(
            n_pages=64, extent_size=EXTENT,
            fault_plan=FaultPlan.from_spec("scan-kill:target=any,at=0.3", seed=0),
        )
        pipeline = make_pipeline()
        scan = TableScan(db, "t", 0, 63, on_run=pipeline.process_run,
                         sharing=db.sharing)
        proc = db.sim.spawn(scan.run())
        db.sim.run()
        assert not proc.completion.failed
        result = proc.completion.value
        assert result.aborted
        assert result.pages_scanned == 20 and 20 % EXTENT != 0  # mid-run
        # The operators had been handed the struck run whole; its last
        # pages were never pinned or charged.
        assert pipeline.pages == 24
        assert_no_pins(db)
        assert db.sharing.active_scan_count == 0
        assert db.sharing.stats.scans_aborted == 1


class TestUnsharedScan:
    def test_unshared_scan_never_touches_the_manager(self):
        """An ordered step runs unshared while sharing is on: it must not
        register, report or be placed — even next to a sharing scan."""
        db = make_database(n_pages=64, pool_pages=32, extent_size=EXTENT,
                           sharing=SharingConfig(enabled=True, min_share_pages=1))
        assert db.sharing_enabled
        stats_before = copy.deepcopy(db.sharing.stats)
        scan = TableScan(db, "t", 5, 50, make_pipeline().process_run,
                         record_visits=True)
        proc = db.sim.spawn(scan.run())
        db.sim.run()
        assert not proc.completion.failed, proc.completion.value
        result = proc.completion.value
        assert result.start_page == 5
        assert result.visited_pages == list(range(5, 51))  # physical order
        assert result.throttle_seconds == 0.0
        assert db.sharing.stats == stats_before
        assert db.sharing.active_scan_count == 0
        assert_no_pins(db)


def grouped_query(budget):
    return QuerySpec(name="grouped", steps=(
        ScanStep(
            table="t", fraction=(0.1, 0.9),
            predicate=col("value") < lit(80.0),
            aggregates=(AggSpec("n", "count"),
                        AggSpec("total", "sum", col("value")),
                        AggSpec("mean", "avg", col("value"))),
            group_by=("flag", "id") if budget else ("flag",),
            agg_budget_pages=budget, label="t",
        ),
    ))


class TestBitStableAnswers:
    @settings(max_examples=5, deadline=None)
    @given(shared=st.booleans(), budget=st.sampled_from([None, 2]))
    def test_every_iteration_returns_identical_answers(self, shared, budget):
        """``bench`` hashes ``repr(answers)`` per iteration: caches warmed
        by one run (generated extents, memoised costs and partitions) must
        not move a bit of the next."""
        answers = []
        for _ in range(3):
            db = make_database(n_pages=48, extent_size=EXTENT,
                               sharing=SharingConfig(enabled=shared))
            proc = db.sim.spawn(execute_query(db, grouped_query(budget)))
            db.sim.run()
            assert not proc.completion.failed, proc.completion.value
            answers.append(repr((proc.completion.value.values, db.sim.now)))
        assert answers[0] == answers[1] == answers[2]
