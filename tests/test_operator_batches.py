"""Differential tests of the run-at-a-time operator protocol.

The contract: feeding a pipeline one multi-page run, or the same pages
as runs of one, charges exactly the same CPU seconds per page and gives
the same answers (sums to rounding, everything else exactly) with the
groups in the same first-appearance order.  Sinks whose spill decisions
depend on simulation state additionally behave identically under any
claw-back script, because a pipeline hands them each page only when the
scan gets there.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.costs import CostModel
from repro.engine.expressions import col, lit
from repro.engine.memory import OperatorMemory
from repro.engine.operators import (
    _CANONICAL_NAN,
    _canonical_key_column,
    AggSpec,
    Filter,
    GroupByAggregate,
    PageFeed,
    Pipeline,
)
from repro.engine.spill import (
    N_PARTITIONS,
    BudgetedGroupBy,
    HashBuildSink,
    HashProbe,
    SortSpillGroupBy,
    _spill_victim,
    partition_of,
    split_chunks,
)
from repro.scans.base import LazyPages
from repro.storage.datagen import Batch, take_rows

from tests.conftest import make_database

COST = CostModel()
CATEGORIES = np.asarray(("a", "b", "c"), dtype=object)
KEY_FLOATS = (0.0, -0.0, 1.5, 2.5, float("nan"))

AGGREGATES = {
    "n": AggSpec("n", "count"),
    "total": AggSpec("total", "sum", col("v")),
    "mean": AggSpec("mean", "avg", col("v")),
    "lo": AggSpec("lo", "min", col("v")),
    "hi": AggSpec("hi", "max", col("v")),
    "seen": AggSpec("seen", "count", col("x")),
    "isum": AggSpec("isum", "sum", col("i")),
    "ones": AggSpec("ones", "sum", lit(1.0)),
    "scaled": AggSpec("scaled", "sum", col("v") * col("i")),
}
EXACT = {"n", "lo", "hi", "seen", "isum", "ones"}

PREDICATES = {
    "none": None,
    "value": col("v") < lit(40.0),
    "int": col("i") >= lit(0),
    "set": col("c").isin(["a", "c"]),
    "true": lit(True),
    "false": lit(False),
    "constant": lit(1.0) < lit(2.0),
}


@st.composite
def runs(draw, max_pages=6, max_rows=12):
    """``(batch, page_rows)``: a few pages of random rows, some empty."""
    page_rows = draw(st.lists(st.integers(0, max_rows), min_size=1,
                              max_size=max_pages))
    batch = random_batch(draw(st.integers(0, 2 ** 32 - 1)), sum(page_rows),
                         coded=draw(st.booleans()))
    return batch, np.asarray(page_rows, dtype=np.int64)


def random_batch(seed, n, coded):
    """``n`` random rows over the columns the strategies here read;
    ``coded`` ones carry dictionary codes, as generated tables do."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, len(CATEGORIES), size=n).astype(np.uint8)
    x = rng.uniform(0.0, 1.0, size=n)
    x[rng.random(n) < 0.3] = np.nan
    columns = {
        "i": rng.integers(-3, 4, size=n),
        "w": rng.integers(-2 ** 62, 2 ** 62, size=3)[rng.integers(0, 3, size=n)],
        # Exactly 2^31 wide, so kept as is: the two together span 2^62.
        "h": np.array([-2 ** 30, 0, 2 ** 30 - 1])[rng.integers(0, 3, size=n)],
        "g": np.array([0, 7, 2 ** 31 - 1])[rng.integers(0, 3, size=n)],
        "f": np.asarray(KEY_FLOATS)[rng.integers(0, len(KEY_FLOATS), size=n)],
        "c": CATEGORIES[codes],
        "v": rng.uniform(0.0, 100.0, size=n),
        "x": x,
    }
    return Batch(columns, {"c": codes}) if coded else columns


def pages_of(batch, page_rows):
    """The run's pages as ``(page_no, data, n_rows)`` one by one."""
    start = 0
    for page_no, n_rows in enumerate(page_rows.tolist()):
        yield page_no, take_rows(batch, slice(start, start + n_rows)), n_rows
        start += n_rows


def one_page(pipeline, page_no, data, n_rows):
    """Seconds for one page pushed through ``pipeline`` as a run of one."""
    return pipeline.process_run(page_no, data, np.array([n_rows]))[0]


def reference_pipeline(batch, page_rows, predicate, group_by, specs, extra):
    """The page-at-a-time, row-at-a-time pipeline the vectorised one
    replaced: scalar cost formulas in their original operation order and
    a per-row partition loop.  Returns ``(seconds per page, answers)``."""
    groups = {}
    seconds = []
    for _, data, n_rows in pages_of(batch, page_rows):
        units = 0.0
        selected = n_rows
        if predicate is not None:
            mask = np.broadcast_to(predicate.evaluate(data), (n_rows,))
            units = n_rows * predicate.cost_units_per_row
            selected = int(np.count_nonzero(mask))
            if 0 < selected < n_rows:
                units += selected * COST.filter_compact_units
            data = {name: values[mask] for name, values in data.items()}
        if selected:
            below = selected * COST.agg_units * len(specs)
            inputs = []
            for agg in specs:
                if agg.expr is None:
                    inputs.append(None)
                    continue
                inputs.append(np.broadcast_to(agg.expr.evaluate(data), (selected,)))
                below += selected * agg.expr.cost_units_per_row
                if agg.func == "count":
                    below += selected * COST.count_nonnull_units
            if group_by:
                below += selected * COST.group_key_units
            units = units + below if predicate is not None else below
            columns = [[_CANONICAL_NAN if v != v else v for v in data[name].tolist()]
                       for name in group_by]
            for row in range(selected):
                acc = groups.setdefault(tuple(column[row] for column in columns), {})
                for agg, values in zip(specs, inputs):
                    value = None if values is None else values[row].item()
                    if agg.func == "count":
                        acc[agg.name] = acc.get(agg.name, 0) + (
                            value is None or value == value)
                    elif agg.func in ("sum", "avg"):
                        total, count = acc.get(agg.name, (0.0, 0))
                        acc[agg.name] = (total + value, count + 1)
                    else:
                        pick = min if agg.func == "min" else max
                        acc[agg.name] = float(pick(acc.get(agg.name, value), value))
        units += COST.per_page_units
        units += n_rows * extra
        seconds.append(COST.seconds(units))
    answers = {
        key: {agg.name: (acc[agg.name][0] / (acc[agg.name][1] if agg.func == "avg" else 1)
                         if agg.func in ("sum", "avg") else acc[agg.name])
              for agg in specs}
        for key, acc in groups.items()
    }
    if not group_by:
        answers = answers.get((), {agg.name: 0 for agg in specs})
    return seconds, answers


def build_pipeline(predicate, sink, extra=0.0):
    entry = sink if predicate is None else Filter(predicate, sink, COST)
    return Pipeline(entry, COST, extra_units_per_row=extra)


def assert_same_answers(whole, paged, exact=EXACT):
    """Grouped or global aggregate results: keys in order, values close."""
    if whole and not isinstance(next(iter(whole.values())), dict):
        whole, paged = {(): whole}, {(): paged}
    # Canonical NaN keys are one shared object, so plain equality works.
    assert list(whole) == list(paged)
    for key, values in whole.items():
        assert list(values) == list(paged[key])
        for name, value in values.items():
            other = paged[key][name]
            assert type(value) is type(other), (name, value, other)
            if name in exact:
                assert value == other, (key, name)
            else:
                # (abs_tol: "scaled" sums both signs and may cancel to ~0)
                assert math.isclose(value, other, rel_tol=1e-9, abs_tol=1e-9), (
                    key, name)


class TestRunEqualsPages:
    @settings(max_examples=150, deadline=None)
    @given(
        run=runs(),
        predicate=st.sampled_from(sorted(PREDICATES)),
        group_by=st.lists(st.sampled_from(["i", "w", "f", "c"]), unique=True,
                          max_size=3),
        aggregates=st.lists(st.sampled_from(sorted(AGGREGATES)), unique=True,
                            min_size=1, max_size=5),
        extra=st.sampled_from([0.0, 0.7]),
    )
    def test_aggregation_pipeline(self, run, predicate, group_by, aggregates,
                                  extra):
        batch, page_rows = run
        specs = [AGGREGATES[name] for name in aggregates]

        def build():
            return build_pipeline(
                PREDICATES[predicate],
                GroupByAggregate(specs, COST, group_by=group_by), extra)

        whole, paged = build(), build()
        run_seconds = whole.process_run(0, batch, page_rows)
        page_seconds = [one_page(paged, *page)
                        for page in pages_of(batch, page_rows)]
        assert list(run_seconds) == page_seconds  # exactly, not approximately
        assert all(type(s) is float for s in run_seconds)
        assert (whole.pages, whole.rows) == (paged.pages, paged.rows)
        if PREDICATES[predicate] is not None:
            assert whole.entry.rows_in == paged.entry.rows_in
            assert whole.entry.rows_out == paged.entry.rows_out
        assert_same_answers(whole.result(), paged.result())
        reference_seconds, reference_answers = reference_pipeline(
            batch, page_rows, PREDICATES[predicate], group_by, specs, extra)
        assert list(run_seconds) == reference_seconds
        assert_same_answers(whole.result(), reference_answers)

    @settings(max_examples=50, deadline=None)
    @given(run=runs(), n_chunks=st.integers(1, 4),
           predicate=st.sampled_from(["none", "value", "false"]))
    def test_join_probe(self, run, n_chunks, predicate):
        batch, page_rows = run
        table = {-2: 1, 0: 3, 1: 1, 3: 2}
        totals = []
        for feed_whole in (True, False):
            matches = 0
            for chunk in split_chunks(table, n_chunks):
                pipeline = build_pipeline(
                    PREDICATES[predicate], HashProbe("i", COST, chunk))
                if feed_whole:
                    seconds = list(pipeline.process_run(0, batch, page_rows))
                else:
                    seconds = [one_page(pipeline, *page)
                               for page in pages_of(batch, page_rows)]
                matches += pipeline.result()["matches"]
            totals.append((matches, seconds))
        assert totals[0] == totals[1]
        if predicate == "none":
            expected = sum(table.get(key, 0) for key in batch["i"].tolist())
            assert totals[0][0] == expected


class BudgetedRun:
    """One budgeted pipeline on its own tiny database."""

    def __init__(self, make_sink, predicate, budget):
        self.db = make_database(pool_pages=64)
        self.memory = OperatorMemory(self.db, "op", budget_pages=budget)
        self.memory.negotiate()
        self.sink = make_sink(self.memory)
        self.pipeline = build_pipeline(predicate, self.sink)

    def claw(self, times):
        for _ in range(times):
            self.db.pool._claw_back_one()

    def finish(self):
        proc = self.db.sim.spawn(self.pipeline.finalize(self.db))
        self.db.sim.run()
        assert not proc.completion.failed, proc.completion.value
        return self.pipeline.result()


SINKS = {
    "hash-agg": lambda memory: BudgetedGroupBy(
        [AGGREGATES["n"], AGGREGATES["total"], AGGREGATES["hi"]], COST,
        memory, group_by=["k"]),
    "sort-agg": lambda memory: SortSpillGroupBy(
        [AGGREGATES["n"], AGGREGATES["mean"], AGGREGATES["lo"]], COST,
        memory, group_by=["k", "c"]),
    "join-build": lambda memory: HashBuildSink("k", COST, memory=memory),
}


class TestPageTimedSinks:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        sink=st.sampled_from(sorted(SINKS)),
        predicate=st.sampled_from(["none", "value", "false", "true"]),
        budget=st.integers(1, 3),
    )
    def test_scripted_claw_back(self, data, sink, predicate, budget):
        """Claw frames back before chosen pages: the run-fed and the
        page-fed pipeline spill at the same pages, for the same cost."""
        batch, page_rows = data.draw(runs(max_pages=8, max_rows=150))
        n = int(page_rows.sum())
        # Enough distinct keys to outgrow a frame or two.
        keys = (np.arange(n, dtype=np.int64) * 7919) % 400
        if isinstance(batch, Batch):
            batch = Batch(batch, batch.codes)
        batch["k"] = keys
        script = data.draw(st.lists(st.integers(0, 2), min_size=len(page_rows),
                                    max_size=len(page_rows)))
        whole = BudgetedRun(SINKS[sink], PREDICATES[predicate], budget)
        paged = BudgetedRun(SINKS[sink], PREDICATES[predicate], budget)

        run_seconds = whole.pipeline.process_run(0, batch, page_rows)
        whole_seconds, paged_seconds = [], []
        for (page_no, page, n_rows), claws in zip(
                pages_of(batch, page_rows), script):
            whole.claw(claws)
            whole_seconds.append(run_seconds[page_no])
            paged.claw(claws)
            paged_seconds.append(one_page(paged.pipeline, page_no, page, n_rows))
            # Not just at the end: after every single page.
            assert whole.sink.spill.as_dict() == paged.sink.spill.as_dict()
        assert whole_seconds == paged_seconds
        assert whole.memory.stats() == paged.memory.stats()
        assert whole.db.temp.stats() == paged.db.temp.stats()
        results = whole.finish(), paged.finish()
        assert whole.sink.spill.as_dict() == paged.sink.spill.as_dict()
        if sink == "join-build":
            assert results[0] == results[1]
        else:
            assert_same_answers(*results)

    @pytest.mark.parametrize("sink", sorted(SINKS))
    def test_direct_push_checks_the_budget_after_every_page(self, sink):
        """Without a pipeline in front, a budgeted sink takes a multi-page
        run as so many pages delivered now."""
        n = 600
        batch = {"k": np.arange(n) % 400, "c": CATEGORIES[np.arange(n) % 3],
                 "v": np.linspace(0.0, 1.0, n)}
        page_rows = np.array([200, 0, 250, 150])
        whole = BudgetedRun(SINKS[sink], None, budget=1)
        paged = BudgetedRun(SINKS[sink], None, budget=1)
        units = whole.sink.push(batch, page_rows)
        assert list(units) == [paged.sink.push(page, n_rows)[0]
                               for _, page, n_rows in pages_of(batch, page_rows)]
        assert units[1] == 0.0
        assert whole.sink.spill.spill_events > 1
        assert whole.sink.spill.as_dict() == paged.sink.spill.as_dict()

    def test_pipeline_splices_the_feed_once(self):
        db = make_database(pool_pages=64)
        memory = OperatorMemory(db, "op", budget_pages=2)
        memory.negotiate()
        sink = SINKS["hash-agg"](memory)
        entry = Filter(PREDICATES["value"], sink, COST)
        for _ in range(2):  # a second pipeline over the same chain
            Pipeline(entry, COST)
            assert isinstance(entry.downstream, PageFeed)
            assert entry.downstream.downstream is sink
        assert isinstance(Pipeline(sink, COST).entry, PageFeed)
        assert Pipeline(GroupByAggregate([AGGREGATES["n"]], COST), COST
                        ).entry.page_timed is False

    def test_sink_sees_a_page_only_when_it_is_reached(self):
        db = make_database(pool_pages=64)
        memory = OperatorMemory(db, "op", budget_pages=8)
        memory.negotiate()
        sink = SINKS["join-build"](memory)
        pipeline = Pipeline(sink, COST)
        batch = {"k": np.arange(30)}
        seconds = pipeline.process_run(0, batch, np.array([10, 0, 20]))
        assert isinstance(seconds, LazyPages)
        assert sink.rows_in == 0
        assert seconds[0] > 0 and sink.rows_in == 10
        # An emptied page costs the fixed per-page units and nothing else.
        assert seconds[1] == COST.seconds(COST.per_page_units)
        assert sink.rows_in == 10
        assert seconds[2] > 0 and sink.rows_in == 30


def spelled(partials):
    """``(key, slots)`` partials with every value typed and, for floats,
    spelled bit for bit."""
    def spell(value):
        return (type(value), value.hex() if type(value) is float else repr(value))

    return [(tuple(map(spell, key)), tuple(map(spell, slots)))
            for key, slots in partials]


def global_partials(specs, page, n_rows):
    """A page's one global accumulator, each slot reduced over the page
    by ``ufunc.reduce`` (pairwise for sums, unlike ``reduceat``)."""
    slots = []
    for agg in specs:
        if agg.expr is None:
            slots.append(n_rows)
            continue
        values = np.broadcast_to(agg.expr.evaluate(page), (n_rows,))
        if agg.func == "count":
            slots.append(np.add.reduce((~np.isnan(values)).astype(np.int64)).item()
                         if values.dtype.kind == "f" else n_rows)
            continue
        ufunc = {"min": np.minimum, "max": np.maximum}.get(agg.func, np.add)
        slots.append(ufunc.reduce(values.astype(np.float64)).item())
        if agg.func == "avg":
            slots.append(n_rows)
    return [((), tuple(slots))]


class TestPreparedPages:
    @settings(max_examples=200, deadline=None)
    @given(
        run=runs(max_rows=40),
        group_by=st.lists(st.sampled_from(["i", "w", "f", "c", "h", "g"]),
                          unique=True, max_size=3),
        aggregates=st.lists(st.sampled_from(sorted(AGGREGATES)), unique=True,
                            min_size=1, max_size=5),
    )
    def test_each_page_equals_the_partials_of_that_page_alone(
            self, run, group_by, aggregates):
        """One sort over the run, split by page, gives every page exactly
        the partials — keys, their order and the slot bits — that page
        alone gives; an empty page gets none."""
        batch, page_rows = run
        specs = [AGGREGATES[name] for name in aggregates]
        sink = BudgetedGroupBy(specs, COST, memory=None, group_by=group_by)
        prepared = sink.prepare(batch, page_rows.tolist())
        assert len(prepared) == len(page_rows)
        for (_, page, n_rows), partials in zip(pages_of(batch, page_rows),
                                               prepared):
            if n_rows == 0:
                assert partials == []
                continue
            (alone,) = sink._partials(page, [n_rows])
            assert spelled(partials) == spelled(alone)
            if not group_by:
                assert spelled(partials) == spelled(
                    global_partials(specs, page, n_rows))
            for key, _ in partials:
                assert all(part is _CANONICAL_NAN for part in key
                           if part != part)

    @pytest.mark.parametrize("seed", range(5))
    def test_keys_spanning_2_62_over_many_pages(self, seed):
        """Three pages of a key already 2^62 wide: prefixing the page
        index must not overflow int64."""
        batch = random_batch(seed, 60, coded=False)
        batch["h"][:2] = (-2 ** 30, 2 ** 30 - 1)    # both columns' extremes
        batch["g"][:2] = (0, 2 ** 31 - 1)
        page_rows = np.array([15, 20, 25])
        sink = BudgetedGroupBy([AGGREGATES["n"], AGGREGATES["total"]], COST,
                               memory=None, group_by=["h", "g"])
        prepared = sink.prepare(batch, page_rows.tolist())
        for (_, page, n_rows), partials in zip(pages_of(batch, page_rows),
                                               prepared):
            assert spelled(partials) == spelled(sink._partials(page, [n_rows])[0])

    @settings(max_examples=50, deadline=None)
    @given(run=runs(max_rows=40))
    def test_build_keys_equal_those_of_each_page_alone(self, run):
        batch, page_rows = run
        sink = HashBuildSink("f", COST)
        prepared = sink.prepare(batch, page_rows.tolist())
        for (_, page, _), keys in zip(pages_of(batch, page_rows), prepared):
            alone = _canonical_key_column(page["f"])
            assert spelled([(keys, ())]) == spelled([(alone, ())])
            assert all(key is _CANONICAL_NAN for key in keys if key != key)


class TestGroupKeys:
    def test_nan_keys_form_one_group_across_batches(self):
        agg = GroupByAggregate([AggSpec("n", "count")], COST, group_by=["f"])
        agg.push({"f": np.array([np.nan, 1.0, np.nan])}, 3)
        agg.push({"f": np.array([float("nan"), 1.0])}, 2)
        result = agg.finish()
        assert len(result) == 2
        (nan_key,) = [key for key in result if key[0] != key[0]]
        assert result[nan_key]["n"] == 3
        assert result[(1.0,)]["n"] == 2

    def test_nan_inside_object_and_composite_keys(self):
        tags = np.array(["x", float("nan"), "x", float("nan")], dtype=object)
        agg = GroupByAggregate([AggSpec("n", "count")], COST,
                               group_by=["tag", "i"])
        agg.push({"tag": tags, "i": np.array([1, 1, 1, 2])}, 4)
        agg.push({"tag": tags[::-1], "i": np.array([2, 1, 1, 1])}, 4)
        counts = sorted(values["n"] for values in agg.finish().values())
        assert counts == [2, 2, 4]

    def test_keys_are_python_scalars_in_first_appearance_order(self):
        agg = GroupByAggregate([AggSpec("n", "count")], COST,
                               group_by=["i", "c"])
        batch = Batch(
            {"i": np.array([5, 2, 5, 2, 9]), "c": CATEGORIES[[2, 0, 2, 1, 0]]},
            {"c": np.array([2, 0, 2, 1, 0], dtype=np.uint8)},
        )
        agg.push(batch, np.array([2, 3]))
        keys = list(agg.finish())
        assert keys == [(5, "c"), (2, "a"), (2, "b"), (9, "a")]
        assert all(type(key[0]) is int and type(key[1]) is str for key in keys)

    def test_wide_and_many_key_columns_do_not_overflow(self):
        big = np.array([2 ** 62, -2 ** 62, 2 ** 62, 7], dtype=np.int64)
        agg = GroupByAggregate([AggSpec("n", "count")], COST,
                               group_by=["a", "b", "c", "d"])
        agg.push({"a": big, "b": big[::-1].copy(), "c": big, "d": big}, 4)
        result = agg.finish()
        assert sum(values["n"] for values in result.values()) == 4
        assert len(result) == 4


class TestCountExpr:
    def test_count_expr_skips_nan(self):
        agg = GroupByAggregate(
            [AggSpec("n", "count"), AggSpec("seen", "count", col("x")),
             AggSpec("ints", "count", col("i"))], COST)
        agg.push({"x": np.array([1.0, np.nan, 3.0, np.nan]),
                  "i": np.arange(4)}, 4)
        assert agg.finish() == {"n": 4, "seen": 2, "ints": 4}

    def test_grouped_count_expr(self):
        agg = GroupByAggregate([AggSpec("seen", "count", col("x"))], COST,
                               group_by=["i"])
        agg.push({"x": np.array([1.0, np.nan, np.nan, 4.0, 5.0]),
                  "i": np.array([0, 0, 1, 1, 1])}, 5)
        assert agg.finish() == {(0,): {"seen": 1}, (1,): {"seen": 2}}

    def test_count_expr_charges_the_nan_inspection(self):
        plain = GroupByAggregate([AggSpec("n", "count")], COST)
        inspecting = GroupByAggregate([AggSpec("n", "count", col("x"))], COST)
        page = {"x": np.ones(10)}
        assert inspecting.push(page, 10)[0] == pytest.approx(
            plain.push(page, 10)[0] + 10 * COST.count_nonnull_units)


def reference_spill(state):
    """The partition a spill evicts, recomputed from the whole table."""
    buckets = {}
    for key in state:
        buckets.setdefault(partition_of(key, N_PARTITIONS), []).append(key)
    victim = max(buckets, key=lambda pid: (len(buckets[pid]), -pid))
    return {key: state.pop(key) for key in buckets[victim]}


def object_column(values):
    """``values`` as a 1-d object array (tuples stay scalars)."""
    column = np.empty(len(values), dtype=object)
    for index, value in enumerate(values):
        column[index] = value
    return column


#: Spillable sinks over one object key column ``k``.
KEYED_SINKS = {
    "hash-agg": lambda memory: BudgetedGroupBy(
        [AGGREGATES["n"]], COST, memory, group_by=["k"]),
    "sort-agg": lambda memory: SortSpillGroupBy(
        [AGGREGATES["n"]], COST, memory, group_by=["k"]),
    "join-build": lambda memory: HashBuildSink("k", COST, memory=memory),
}


class TestMemoisedPartitions:
    #: Keys that are equal as dict keys but hash to different partitions
    #: (their reprs differ), next to ordinary ones.
    keys = st.one_of(
        st.integers(-50, 50),
        st.sampled_from([1.0, True, 0.0, -0.0, 2.0, "a", ("a", 1), ("a", 1.0)]),
        st.tuples(st.integers(0, 5), st.sampled_from(["x", "y"])),
    )
    #: Pages of keys, interleaved with spills (``None``).
    scripts = st.lists(st.one_of(st.lists(keys, max_size=30), st.none()),
                       max_size=12)

    @settings(max_examples=100, deadline=None)
    @given(scripts)
    def test_spills_match_unmemoised_computation(self, script):
        """Inserts interleaved with spills: always the same victim, even
        when a spilled key returns under an equal but different object."""
        state, reference = {}, {}
        buckets = [[] for _ in range(N_PARTITIONS)]
        for step in script:
            if step is None:
                if state:
                    spilled = _spill_victim(state, buckets)
                    expected = reference_spill(reference)
                    assert list(map(repr, spilled)) == list(map(repr, expected))
                continue
            for key in step:
                for table in (state, reference):
                    table[key] = table.get(key, 0) + 1
            assert all(key in state for bucket in buckets for key in bucket)
        assert list(map(repr, state)) == list(map(repr, reference))

    @settings(max_examples=60, deadline=None)
    @given(sink=st.sampled_from(sorted(KEYED_SINKS)), script=scripts)
    def test_sinks_spill_what_a_rescan_would(self, sink, script):
        """The same script through the spillable sinks: every hash spill
        evicts the partition a from-scratch pass over the live table
        picks, a sort spill takes the whole table in ``repr`` order and
        later pages start it afresh, and the merged answer counts every
        key."""
        run = BudgetedRun(KEYED_SINKS[sink], None, budget=16)
        state = run.sink.table if sink == "join-build" else run.sink._groups
        counts, spills = {}, 0
        for step in script:
            if step is None:
                if not state:
                    continue
                live = dict(state)
                run.sink._spill_one_partition(state)
                spills += 1
                if sink == "sort-agg":
                    expected = dict(sorted(live.items(),
                                           key=lambda kv: repr(kv[0])))
                    live = {}
                else:
                    expected = reference_spill(live)
                spilled = run.sink._runs[-1][2]
                assert list(map(repr, spilled)) == list(map(repr, expected))
                assert list(map(repr, state)) == list(map(repr, live))
                continue
            units = run.sink.push({"k": object_column(step)},
                                  np.array([len(step)]))
            assert (units[0] > 0) == bool(step)
            for key in step:
                counts[key] = counts.get(key, 0) + 1
        assert run.sink.spill.spill_events == spills
        result = run.finish()
        if sink != "join-build":
            result = {key: values["n"] for (key,), values in result.items()}
        assert result == counts
