"""Vectorized operators above the scan.

A pipeline is an optional :class:`Filter` and one :class:`Sink`, fed one
*extent run* at a time by the scan: the rows of up to ``extent_size``
consecutive pages arrive as one columnar batch, so every numpy call
amortises over the whole run.  The pipeline still returns the CPU
seconds spent **per page**, which the scan charges page by page — so
heavier pipelines genuinely slow their scans down in the simulation,
which is what creates the speed heterogeneity the paper's throttling
reacts to, and no simulated timestamp depends on how pages were batched.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import accumulate
from typing import (
    Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.engine.costs import CostModel
from repro.engine.expressions import Expression
from repro.engine.run_cache import BoundedCache, RunResult
from repro.scans.base import LazyPages
from repro.storage.datagen import PageData, take_rows

_AGG_FUNCS = ("sum", "count", "min", "max", "avg")

#: The one NaN object used in canonical group keys.  ``nan != nan``, so
#: NaN keys built from fresh float objects split into one group per
#: batch; routing every NaN through this single object makes tuple keys
#: compare equal (tuple comparison short-circuits on identity) and hash
#: consistently.
_CANONICAL_NAN = float("nan")

#: Composite key codes are kept below this so the mixed radix cannot
#: overflow int64; a single column wider than ``_WIDE_COLUMN`` is made
#: dense first.
_MAX_KEY_SPAN = 1 << 62
_WIDE_COLUMN = 1 << 31
#: Key codes this small are sorted as int16, which numpy radix-sorts.
_RADIX_SORT_SPAN = 1 << 15


def _canonical_key_column(values: np.ndarray) -> List:
    """Python-scalar view of one group-key column.

    ``tolist`` strips numpy scalar types (a ``np.int64`` key in one
    batch and a Python ``int`` in another would still compare equal, but
    mixed-object tuples defeat dict-key identity shortcuts and confuse
    downstream consumers), and float/object columns get their NaNs
    replaced by the shared :data:`_CANONICAL_NAN`.
    """
    items = values.tolist() if hasattr(values, "tolist") else list(values)
    kind = getattr(getattr(values, "dtype", None), "kind", None)
    if kind in ("f", "O"):
        return [_CANONICAL_NAN if v != v else v for v in items]
    return items


def _as_page_rows(page_rows) -> np.ndarray:
    """``page_rows`` as scans pass it: a 1-d integer array (a bare row
    count stands for a run of one page)."""
    if isinstance(page_rows, np.ndarray):
        return page_rows
    return np.atleast_1d(np.asarray(page_rows, dtype=np.int64))


def _page_bounds(page_rows: np.ndarray) -> np.ndarray:
    """Row offsets at which the pages of a run start and end."""
    return np.concatenate(([0], np.cumsum(page_rows)))


def _dense_codes(values: np.ndarray) -> np.ndarray:
    """Small integers equal exactly where the column's values are equal.

    Sort-based for anything numpy can order (all NaNs share one code);
    object columns that arrive without dictionary codes are numbered
    through a dict, NaNs canonicalised first.
    """
    if values.dtype.kind != "O":
        return np.unique(values, return_inverse=True)[1]
    seen: Dict[object, int] = {}
    return np.fromiter(
        (seen.setdefault(v, len(seen)) for v in _canonical_key_column(values)),
        np.int64, len(values),
    )


def _key_codes(batch: PageData, names: Sequence[str]) -> Tuple[np.ndarray, int]:
    """``(codes, span)``: one integer in ``[0, span)`` per row, equal exactly
    for rows with equal group keys: the key columns' codes in mixed radix."""
    coded = getattr(batch, "codes", None) or {}
    combined, span = None, 1
    for name in names:
        codes = coded.get(name)
        if codes is None:
            codes = batch[name]
            if codes.dtype.kind not in "iub":
                codes = _dense_codes(codes)
        low = int(codes.min())
        width = int(codes.max()) - low + 1
        if width > _WIDE_COLUMN:
            codes = _dense_codes(codes)
            low, width = 0, int(codes.max()) + 1
        codes = codes.astype(np.int64) - low
        if combined is None:
            combined, span = codes, width
            continue
        if span * width > _MAX_KEY_SPAN:
            combined = _dense_codes(combined)
            span = int(combined.max()) + 1
        combined = combined * width + codes
        span *= width
    return combined, span


def _sort_by_key(
    batch: PageData, names: Sequence[str], page_rows: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, starts)``: a stable order of the batch's rows by page of
    ``page_rows``, then by group key, and the positions in it where each
    group begins.  Stability makes ``order[starts]`` every group's first row."""
    codes, span = _key_codes(batch, names)
    n_pages = len(page_rows)
    if n_pages > 1:
        if n_pages * span > _MAX_KEY_SPAN:
            codes = _dense_codes(codes)
            span = int(codes.max()) + 1
        codes = codes + np.repeat(
            np.arange(0, n_pages * span, span, dtype=np.int64), page_rows)
        span *= n_pages
    if span <= _RADIX_SORT_SPAN:
        codes = codes.astype(np.int16)
    order = np.argsort(codes, kind="stable")
    ordered = codes[order]
    starts = np.flatnonzero(
        np.concatenate(([True], ordered[1:] != ordered[:-1]))
    )
    return order, starts


@dataclass(frozen=True)
class AggSpec:
    """One aggregate: output name, function, and input expression."""

    name: str
    func: str
    expr: Optional[Expression] = None  # None only for count

    def __post_init__(self) -> None:
        if self.func not in _AGG_FUNCS:
            raise ValueError(f"unknown aggregate {self.func!r}; known: {_AGG_FUNCS}")
        if self.func != "count" and self.expr is None:
            raise ValueError(f"aggregate {self.name!r} ({self.func}) needs an expression")


class Sink(ABC):
    """The last stage of a pipeline: it consumes the rows that reach it.

    An eager sink takes a whole run at once in ``push(batch, page_rows)``,
    which returns the CPU units of each page.  A :attr:`page_timed` one
    is fed through ``prepare``/``absorb`` instead (see
    :meth:`Pipeline.process_run`) and has post-scan work in
    ``finalize_sim(db)``.
    """

    #: Whether the sink's state feeds back into the simulation, so that
    #: it must absorb each page at the simulated moment the scan reaches
    #: it rather than a run at a time.
    page_timed = False

    @abstractmethod
    def required_columns(self) -> FrozenSet[str]:
        """The columns this sink reads from its input batches; a
        :class:`Filter` in front of it compacts only those."""

    @abstractmethod
    def add_row_units(self, units: float, rows: float) -> float:
        """``units`` plus the CPU units ``rows`` input rows cost this
        sink, each term added to ``units`` as ``rows * term`` in turn
        (the scan-speed estimate feeds placement, and regrouping the
        terms would move its last bits)."""

    @abstractmethod
    def finish(self) -> object:
        """The sink's result, once the scan (and any post-scan work) ended."""


class Filter:
    """Predicate evaluation + compaction in front of a sink.

    Only ``columns`` — the ones the sink reads — are compacted.  The
    charged compaction cost is per *row*, not per column, so this
    projection changes host time only, never simulated time.
    """

    def __init__(self, predicate: Expression, cost: CostModel,
                 columns: FrozenSet[str]):
        self.predicate = predicate
        self.cost = cost
        self.columns = columns
        self.rows_in = 0
        self.rows_out = 0
        self._predicate_units = predicate.cost_units_per_row

    def push(
        self, batch: PageData, page_rows: np.ndarray
    ) -> Tuple[np.ndarray, Optional[PageData], np.ndarray]:
        """Filter one run of pages: ``(units, rows, survivors)``.

        ``units`` are the CPU units each page cost, ``rows`` the
        surviving rows (``None`` when none survive) and ``survivors``
        how many of them each page contributed.
        """
        n_rows = int(page_rows.sum())
        mask = self.predicate.evaluate(batch)
        if getattr(mask, "shape", None) != (n_rows,):
            # A predicate over constants only evaluates to a scalar.
            mask = np.broadcast_to(np.asarray(mask, dtype=bool), (n_rows,))
        if len(page_rows) == 1:
            survivors = np.array([np.count_nonzero(mask)])
        else:
            passed = np.concatenate(([0], np.cumsum(mask)))
            survivors = np.diff(passed[_page_bounds(page_rows)])
        selected = int(survivors.sum())
        self.rows_in += n_rows
        self.rows_out += selected
        units = page_rows * self._predicate_units
        if selected == 0:
            return units, None, survivors
        if selected == n_rows:
            return units, batch, survivors
        # A page is charged for compaction unless all (or none) of its
        # rows passed.
        units = np.where(
            survivors == page_rows, units,
            units + survivors * self.cost.filter_compact_units,
        )
        return units, take_rows(batch, mask, self.columns), survivors

    @property
    def selectivity(self) -> float:
        """Observed fraction of rows passing the predicate."""
        if self.rows_in == 0:
            return 0.0
        return self.rows_out / self.rows_in


class GroupByAggregate(Sink):
    """Terminal aggregation, optionally grouped.

    Without group columns, the result is a dict of aggregate values.
    With group columns, the result maps group-key tuples to such dicts,
    in the order the groups first appeared.  A run is partitioned by one
    stable sort over its rows' key codes and folded segment by segment.
    """

    def __init__(self, aggregates: Sequence[AggSpec], cost: CostModel,
                 group_by: Sequence[str] = ()):
        if not aggregates:
            raise ValueError("GroupByAggregate needs at least one aggregate")
        self.aggregates = list(aggregates)
        self.group_by = list(group_by)
        self.cost = cost
        # Accumulator layout: one slot per aggregate (``avg`` takes two,
        # sum then count); slots fold by addition, minimum or maximum.
        self._slot_of: List[int] = []
        self._add_slots: List[int] = []
        self._min_slots: List[int] = []
        self._max_slots: List[int] = []
        n_slots = 0
        for agg in self.aggregates:
            self._slot_of.append(n_slots)
            if agg.func == "min":
                self._min_slots.append(n_slots)
            elif agg.func == "max":
                self._max_slots.append(n_slots)
            else:
                self._add_slots.append(n_slots)
                if agg.func == "avg":
                    n_slots += 1
                    self._add_slots.append(n_slots)
            n_slots += 1
        # group key -> accumulator slots; the empty tuple is the global group.
        self._groups: Dict[Tuple, List[float]] = {}
        # Units per input row, term by term in the order they are summed.
        self._row_units: List[float] = []
        for agg in self.aggregates:
            if agg.expr is not None:
                self._row_units.append(agg.expr.cost_units_per_row)
                if agg.func == "count":
                    # count(expr) inspects each value for NaN.
                    self._row_units.append(self.cost.count_nonnull_units)
        if self.group_by:
            self._row_units.append(self.cost.group_key_units)
        # rows on a page -> units charged for it (a pure function).
        self._units_of: Dict[int, float] = {}
        #: The partials the latest push merged (a Pipeline caches them).
        self.last_partials: Sequence[Tuple[Tuple, Sequence]] = ()

    def required_columns(self) -> FrozenSet[str]:
        needed = set(self.group_by)
        for agg in self.aggregates:
            if agg.expr is not None:
                needed |= agg.expr.columns()
        return frozenset(needed)

    def add_row_units(self, units: float, rows: float) -> float:
        units += rows * self.cost.agg_units * len(self.aggregates)
        for row_units in self._row_units:
            units += rows * row_units
        return units

    def push(self, batch: PageData, page_rows: np.ndarray) -> np.ndarray:
        """Process one run of pages.

        ``batch`` holds the rows of consecutive pages back to back;
        ``page_rows[i]`` of them belong to the run's page *i* (zero is
        allowed — a filter may have emptied the page).  Returns the CPU
        units spent on each page, computed with exactly the float
        operations a run of that page alone would use.
        """
        page_rows = _as_page_rows(page_rows)
        n_rows = int(page_rows.sum())
        if n_rows:
            (self.last_partials,) = self._partials(batch, [n_rows])
            self._merge(self.last_partials)
        return np.array([self._units(rows) for rows in page_rows.tolist()])

    def _units(self, rows: int) -> float:
        """CPU units charged for a page of ``rows`` rows."""
        units = self._units_of.get(rows)
        if units is None:
            units = self._units_of[rows] = self.add_row_units(0.0, rows)
        return units

    def _partials(
        self, batch: PageData, page_rows: Sequence[int]
    ) -> List[List[Tuple[Tuple, Sequence]]]:
        """Each page's ``(group key, slots)`` accumulators for :meth:`_merge`,
        in first-appearance order: what the page alone gives (``[]`` if
        empty).  ``[n_rows]`` takes the whole non-empty batch as one page."""
        bounds = [0, *accumulate(page_rows)]
        n_rows = bounds[-1]
        if self.group_by:
            order, starts = _sort_by_key(batch, self.group_by, page_rows)
            # ``visit`` puts the key-sorted groups in first-appearance order.
            visit = np.argsort(order[starts])
            first_rows = order[starts[visit]]
            keys = list(zip(*[
                _canonical_key_column(batch[name][first_rows])
                for name in self.group_by
            ]))
            sizes = np.diff(starts, append=n_rows)[visit].tolist()

            def reduce(ufunc: np.ufunc, values: np.ndarray) -> List:
                return ufunc.reduceat(values[order], starts)[visit].tolist()
        else:
            # One global group per non-empty page, each reduced on its
            # own: ``reduce`` sums pairwise, ``reduceat`` would not.
            pages = [slice(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]
            starts = [page.start for page in pages]
            keys = [()] * len(pages)
            sizes = [page.stop - page.start for page in pages]

            def reduce(ufunc: np.ufunc, values: np.ndarray) -> List:
                return [ufunc.reduce(values[page]).item() for page in pages]

        # Evaluate aggregate inputs once per batch; one list per slot.
        partials: List[List] = []
        for agg in self.aggregates:
            if agg.expr is None:
                partials.append(sizes)
                continue
            values = agg.expr.evaluate(batch)
            # Column-shaped results (the common case) skip the
            # broadcast view; only scalar expressions still need it.
            if getattr(values, "shape", None) != (n_rows,):
                values = np.broadcast_to(values, (n_rows,))
            if agg.func == "count":
                # SQL count(expr): NaN inputs are not counted.
                partials.append(
                    reduce(np.add, (~np.isnan(values)).astype(np.int64))
                    if values.dtype.kind == "f" else sizes
                )
                continue
            if values.dtype.kind != "f":
                values = values.astype(np.float64)
            if agg.func == "min":
                partials.append(reduce(np.minimum, values))
            elif agg.func == "max":
                partials.append(reduce(np.maximum, values))
            else:
                partials.append(reduce(np.add, values))
                if agg.func == "avg":
                    partials.append(sizes)
        ordered = list(zip(keys, zip(*partials)))
        if len(page_rows) == 1:
            return [ordered]
        # Groups start page by page: a page's start inside its rows.
        cuts = np.searchsorted(starts, bounds).tolist()
        return [ordered[start:stop] for start, stop in zip(cuts, cuts[1:])]

    def _merge(self, partials: Iterable[Tuple[Tuple, Sequence]]) -> None:
        """Fold ``(key, slots)`` partial accumulators into the groups."""
        groups = self._groups
        add_slots, min_slots, max_slots = (
            self._add_slots, self._min_slots, self._max_slots
        )
        for key, slots in partials:
            acc = groups.get(key)
            if acc is None:
                # A tuple partial is never changed in place, so it serves
                # as the accumulator until a second partial folds in.
                groups[key] = slots if type(slots) is tuple else list(slots)
                continue
            if type(acc) is tuple:
                acc = groups[key] = list(acc)
            for slot in add_slots:
                acc[slot] += slots[slot]
            for slot in min_slots:
                if slots[slot] < acc[slot]:
                    acc[slot] = slots[slot]
            for slot in max_slots:
                if slots[slot] > acc[slot]:
                    acc[slot] = slots[slot]

    def finish(self) -> object:
        plan = [(agg.name, slot, agg.func == "avg")
                for agg, slot in zip(self.aggregates, self._slot_of)]
        results: Dict[Tuple, Dict[str, float]] = {}
        for key, acc in self._groups.items():
            out: Dict[str, float] = {}
            for name, slot, avg in plan:
                if avg:
                    count = acc[slot + 1]
                    out[name] = acc[slot] / count if count else 0.0
                else:
                    out[name] = acc[slot]
            results[key] = out
        if not self.group_by:
            return results.get((), {agg.name: 0 for agg in self.aggregates})
        return results


class Pipeline:
    """A built pipeline: an optional :class:`Filter`, one :class:`Sink`
    and the conversion of their units to simulated seconds.

    ``process_run`` is the scan's per-run callback target; it returns
    the simulated CPU seconds of each page of the run.

    A classic pipeline — its sink a :class:`GroupByAggregate` — computes
    a pure function of its run, so given a ``run_cache`` it looks each
    run up under ``(run_key, first_page, n_pages)`` and replays the
    stored :class:`RunResult` onto its filter and sink.  ``run_key`` must
    identify everything the pipeline computes with, and ``(first_page,
    n_pages)`` the run's rows.  Whatever its sink, ``run_key`` also keys
    the database's speed estimate for a scan feeding the pipeline.
    """

    def __init__(self, sink: Sink, cost: CostModel,
                 filter: Optional[Filter] = None,
                 extra_units_per_row: float = 0.0,
                 run_cache: Optional[BoundedCache] = None,
                 run_key: Hashable = None):
        self.sink = sink
        self.filter = filter
        self.cost = cost
        self.extra_units_per_row = extra_units_per_row
        self.pages = 0
        self.rows = 0
        if type(sink) is not GroupByAggregate:
            run_cache = None
        self._run_cache = run_cache
        self.run_key = run_key

    def process_run(
        self, first_page: int, batch: PageData, page_rows: np.ndarray
    ) -> Sequence[float]:
        """Push one run of pages; returns CPU seconds to charge per page.

        The result is indexed once per page, in order, as the scan gets
        there.  A cached classic run replays its stored list; an eager
        sink takes the run at once and gives a list; a page-timed sink
        gives :class:`~repro.scans.base.LazyPages` (see
        :meth:`_page_timed`).
        """
        cache = self._run_cache
        if cache is None:
            return self._push(batch, page_rows)
        key = (self.run_key, first_page, len(page_rows))
        run = cache.get(key)
        if run is None:
            run = self._record(batch, page_rows)
            cache.put(key, run)
            return run.seconds
        if self.filter is not None:
            self.filter.rows_in += run.rows
            self.filter.rows_out += run.rows_out
        self.sink._merge(run.partials)
        self.pages += len(run.seconds)
        self.rows += run.rows
        return run.seconds

    def _record(self, batch: PageData, page_rows: np.ndarray) -> RunResult:
        """Push a run through the classic pipeline, noting its effects."""
        filt, sink = self.filter, self.sink
        rows, passed = self.rows, filt.rows_out if filt is not None else 0
        sink.last_partials = ()  # a filter that empties the run skips the sink
        seconds = self._push(batch, page_rows)
        if filt is not None:
            passed = filt.rows_out - passed
        return RunResult(seconds, self.rows - rows, passed, sink.last_partials)

    def _push(self, batch: PageData, page_rows: np.ndarray) -> Sequence[float]:
        """A run through the filter and the sink, uncached."""
        self.pages += len(page_rows)
        self.rows += int(page_rows.sum())
        sink, units, rows = self.sink, None, page_rows
        if self.filter is not None:
            units, batch, rows = self.filter.push(batch, page_rows)
        if batch is not None:
            if sink.page_timed:
                return self._page_timed(batch, rows.tolist(), units, page_rows)
            sink_units = sink.push(batch, rows)
            units = sink_units if units is None else units + sink_units
        units = units + self.cost.per_page_units
        units = units + page_rows * self.extra_units_per_row
        return self.cost.seconds(units).tolist()

    def _page_timed(
        self, batch: PageData, rows: List[int],
        filter_units: Optional[np.ndarray], page_rows: np.ndarray,
    ) -> LazyPages:
        """A page-timed sink's run: its pure ``prepare`` does the run's
        numpy work now, one prepared value per page, and its stateful
        ``absorb`` — the merge and the decision whether to spill — runs
        when the scan reaches each page, at that page's simulated time,
        exactly as if the scan had delivered the pages one by one.  A
        page's seconds add up its terms in the order an eager sink's do."""
        absorb = self.sink.absorb
        prepared = self.sink.prepare(batch, rows)
        filtered = filter_units.tolist() if filter_units is not None else None
        per_page = self.cost.per_page_units
        extra = (page_rows * self.extra_units_per_row).tolist()
        seconds = self.cost.seconds

        def page_seconds(index: int) -> float:
            units = absorb(prepared[index], rows[index])
            if filtered is not None:
                units += filtered[index]
            return seconds(units + per_page + extra[index])

        return LazyPages(page_seconds)

    def estimated_units_per_page(self, rows_per_page: int) -> float:
        """Static cost estimate used for scan-speed estimation."""
        units = self.cost.per_page_units + rows_per_page * self.extra_units_per_row
        survivors = float(rows_per_page)
        if self.filter is not None:
            units += survivors * self.filter.predicate.cost_units_per_row
            # Without statistics assume half the rows survive.
            survivors *= 0.5
        return self.sink.add_row_units(units, survivors)

    def finalize(self, db) -> "object":
        """Drive the sink's post-scan work (a simulation generator).

        Memory-budgeted sinks merge spilled partitions here — temp reads
        and merge CPU are charged on the simulated clock, after the scan
        itself has finished.  Eager sinks have nothing to do and the
        generator yields no events.
        """
        if self.sink.page_timed:
            yield from self.sink.finalize_sim(db)

    def result(self) -> object:
        """The sink's result."""
        return self.sink.finish()
