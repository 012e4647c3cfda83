"""The per-database run-result cache.

Classic pipelines that share a cache must behave exactly like pipelines
that share nothing: the same CPU seconds per page to the bit, the same
answers to the bit, the same counters — whichever pipeline computed a
run first and whatever the cache evicted in between.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.config import SharingConfig
from repro.engine.costs import CostModel
from repro.engine.executor import _estimate_scan_speed, run_workload
from repro.engine.expressions import col, lit
from repro.engine.operators import AggSpec, Filter
from repro.engine.query import ScanStep
from repro.engine.run_cache import RUN_CACHE_ENTRIES, BoundedCache
from repro.scans.base import scan_runs
from repro.storage.datagen import take_rows

from tests.conftest import make_database, uniform_scan_query
from tests.test_operator_batches import AGGREGATES, PREDICATES, random_batch

COST = CostModel()


def exact(answer):
    """``answer`` with every float replaced by its bits, so that ``==``
    means bit-identical (group order included)."""
    if isinstance(answer, dict):
        return [(exact(key), exact(value)) for key, value in answer.items()]
    if isinstance(answer, tuple):
        return tuple(exact(value) for value in answer)
    if isinstance(answer, float):
        return (float, answer.hex())
    return (type(answer), answer)


def counters(pipeline):
    filt = pipeline.entry
    filtered = (filt.rows_in, filt.rows_out) if isinstance(filt, Filter) else None
    return pipeline.pages, pipeline.rows, filtered


class Table:
    """``n_pages`` pages of ``rows_per_page`` random rows."""

    def __init__(self, seed, n_pages, rows_per_page, coded=True):
        self.batch = random_batch(seed, n_pages * rows_per_page, coded)
        self.n_pages = n_pages
        self.rows_per_page = rows_per_page

    def feed(self, pipeline, first_page, n_pages):
        """Push one run through ``pipeline``, as a scan would."""
        rows = self.rows_per_page
        data = take_rows(self.batch, slice(first_page * rows,
                                           (first_page + n_pages) * rows))
        page_rows = np.full(n_pages, rows, dtype=np.int64)
        return [s.hex() for s in pipeline.process_run(first_page, data, page_rows)]


@st.composite
def steps(draw):
    """A classic step over table ``t``: filter, aggregates, grouping."""
    return ScanStep(
        table="t",
        predicate=PREDICATES[draw(st.sampled_from(sorted(PREDICATES)))],
        aggregates=tuple(AGGREGATES[name] for name in draw(st.lists(
            st.sampled_from(sorted(AGGREGATES)), unique=True, max_size=4))),
        group_by=tuple(draw(st.lists(st.sampled_from(["i", "w", "f", "c"]),
                                     unique=True, max_size=2))),
        extra_units_per_row=draw(st.sampled_from([0.0, 0.7])),
    )


@st.composite
def scans(draw, n_pages):
    """One scan's runs: a wrap-around range in extents, or runs of one
    (as index scans feed them)."""
    first = draw(st.integers(0, n_pages - 1))
    last = draw(st.integers(first, n_pages - 1))
    start = draw(st.integers(first, last))
    extent_size = draw(st.integers(1, 5))
    runs = [(page, stop - page)
            for page, stop in scan_runs(first, last, start, extent_size)]
    if draw(st.booleans()):
        runs = [(page, 1) for first_page, n in runs
                for page in range(first_page, first_page + n)]
    return runs


class TestSharedEqualsUnshared:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
           n_pages=st.integers(1, 10), rows_per_page=st.integers(1, 8),
           coded=st.booleans(), templates=st.lists(steps(), min_size=1,
                                                   max_size=3))
    def test_interleaved_scans(self, data, seed, n_pages, rows_per_page,
                               coded, templates):
        table = Table(seed, n_pages, rows_per_page, coded)
        chosen = [data.draw(st.sampled_from(templates))
                  for _ in range(data.draw(st.integers(1, 4)))]
        cache = BoundedCache()
        shared = [step.build_pipeline(COST, run_cache=cache) for step in chosen]
        alone = [step.build_pipeline(COST) for step in chosen]
        pending = [data.draw(scans(n_pages)) for _ in chosen]
        while any(pending):
            scan = data.draw(st.sampled_from(
                [index for index, runs in enumerate(pending) if runs]))
            first_page, n = pending[scan].pop(0)
            assert (table.feed(shared[scan], first_page, n)
                    == table.feed(alone[scan], first_page, n))
        for cached, reference in zip(shared, alone):
            assert counters(cached) == counters(reference)
            assert exact(cached.result()) == exact(reference.result())


def q6_like(table="t", literal=24, func="sum", extra=0.0):
    """A Q6-shaped step, built from fresh expression objects."""
    return ScanStep(
        table=table,
        predicate=col("v").between(10.0, 60.0) & (col("i") < lit(literal)),
        aggregates=(AggSpec("revenue", func, col("v") * col("x")),),
        extra_units_per_row=extra,
    )


class TestRunKeys:
    def test_equal_steps_built_apart_share_a_key(self):
        assert q6_like().run_key == q6_like().run_key

    def test_literals_of_equal_value_are_distinct(self):
        values = (1, 1.0, True, 0.0, -0.0)
        keys = {q6_like(literal=value).run_key for value in values}
        assert len(keys) == len(values)

    def test_what_the_pipeline_reads_is_in_the_key(self):
        keys = {
            q6_like().run_key,
            q6_like(table="u").run_key,
            q6_like(extra=0.5).run_key,
            q6_like(func="avg").run_key,
        }
        assert len(keys) == 4

    def test_aggregate_names_only_label_the_answer(self):
        renamed = ScanStep(table="t", aggregates=(AggSpec("n", "count"),))
        assert renamed.run_key == ScanStep(table="t").run_key


class TestBoundAndLifetime:
    def test_bound_holds_and_an_evicted_run_recomputes_the_same(self):
        table = Table(seed=7, n_pages=RUN_CACHE_ENTRIES + 1, rows_per_page=3)
        step = q6_like()
        cache = BoundedCache()
        first = step.build_pipeline(COST, run_cache=cache)
        seconds = [table.feed(first, page, 1) for page in range(table.n_pages)]
        assert len(cache) == RUN_CACHE_ENTRIES
        assert cache.get((step.run_key, 0, 1)) is None
        assert cache.get((step.run_key, 1, 1)) is not None
        again = step.build_pipeline(COST, run_cache=cache)
        alone = step.build_pipeline(COST)
        for page in (0, 1):
            assert table.feed(again, page, 1) == seconds[page]
            assert table.feed(alone, page, 1) == seconds[page]
        assert len(cache) == RUN_CACHE_ENTRIES
        assert counters(again) == counters(alone)
        assert exact(again.result()) == exact(alone.result())

    def test_a_hit_replays_without_pushing(self):
        table = Table(seed=3, n_pages=4, rows_per_page=5)
        step = ScanStep(table="t", aggregates=(AGGREGATES["total"],),
                        group_by=("c",))
        cache = BoundedCache()
        warm = step.build_pipeline(COST, run_cache=cache)
        table.feed(warm, 0, 4)
        replay = step.build_pipeline(COST, run_cache=cache)
        replay.entry.push = None  # a hit must not reach the operators
        table.feed(replay, 0, 4)
        assert exact(replay.result()) == exact(warm.result())

    def test_a_run_the_filter_empties_replays_as_empty(self):
        table = Table(seed=5, n_pages=40, rows_per_page=1)
        passed = PREDICATES["value"].evaluate(table.batch).tolist()
        kept = passed.index(True)
        emptied = passed.index(False, kept)
        step = ScanStep(table="t", predicate=PREDICATES["value"],
                        aggregates=(AGGREGATES["total"],))
        cache = BoundedCache()
        warm = step.build_pipeline(COST, run_cache=cache)
        table.feed(warm, kept, 1)
        table.feed(warm, emptied, 1)
        replay = step.build_pipeline(COST, run_cache=cache)
        alone = step.build_pipeline(COST)
        for pipeline in (replay, alone):
            table.feed(pipeline, emptied, 1)
        assert counters(replay) == counters(alone)
        assert exact(replay.result()) == exact(alone.result())

    def test_each_database_starts_with_empty_caches(self):
        db = make_database(n_pages=64, sharing=SharingConfig(enabled=True))
        run_workload(db, [[uniform_scan_query("t")]] * 2)
        assert len(db.run_cache) > 0
        assert len(db.speed_estimates) > 0
        fresh = make_database(n_pages=64, sharing=SharingConfig(enabled=True))
        assert len(fresh.run_cache) == 0
        assert len(fresh.speed_estimates) == 0

    def test_speed_estimate_is_memoised_per_database(self):
        db = make_database()
        step = uniform_scan_query("t", cpu_units_per_row=40.0).steps[0]
        estimate = _estimate_scan_speed(db, step, 100)
        assert _estimate_scan_speed(db, step, 100) == estimate
        assert len(db.speed_estimates) == 1
        slower = make_database(cost=CostModel(unit_seconds=1e-6))
        assert _estimate_scan_speed(slower, step, 100) < estimate
