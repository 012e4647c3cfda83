"""Push-based vectorized operators above the scan.

A pipeline is a chain of operators fed one *extent run* at a time by the
scan: the rows of up to ``extent_size`` consecutive pages arrive as one
columnar batch, so every numpy call amortises over the whole run.  Each
``push`` still returns the abstract CPU units spent **per page**, which
the scan converts to simulated CPU time and charges page by page — so
heavier pipelines genuinely slow their scans down in the simulation,
which is what creates the speed heterogeneity the paper's throttling
reacts to, and no simulated timestamp depends on how pages were batched.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.engine.costs import CostModel
from repro.engine.expressions import Expression
from repro.scans.base import LazyPages
from repro.storage.datagen import PageData, take_rows

_AGG_FUNCS = ("sum", "count", "min", "max", "avg")

#: Per-page unit costs of one run: an array, or lazily evaluated pages
#: when a sink has to see each page at its own simulated time.
PageUnits = Union[np.ndarray, LazyPages]

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


def split_pages(
    batch: PageData, page_rows: np.ndarray
) -> Iterator[Tuple[PageData, np.ndarray]]:
    """The one-page runs that make up a run, in order."""
    if len(page_rows) == 1:
        yield batch, page_rows
        return
    bounds = _page_bounds(page_rows).tolist()
    for index in range(len(page_rows)):
        yield (
            take_rows(batch, slice(bounds[index], bounds[index + 1])),
            page_rows[index:index + 1],
        )


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


def _key_codes(batch: PageData, names: Sequence[str]) -> np.ndarray:
    """One integer per row, equal exactly for rows with equal group keys:
    the key columns' codes combined in mixed radix."""
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
    if span <= _RADIX_SORT_SPAN:
        combined = combined.astype(np.int16)
    return combined


def _sort_by_key(
    batch: PageData, names: Sequence[str]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, starts)``: a stable order of the batch's rows by group
    key, and the positions in it where each group begins.  Stability
    makes ``order[starts]`` every group's first row."""
    codes = _key_codes(batch, names)
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


class Operator(ABC):
    """One stage of a push-based pipeline."""

    #: Whether the operator's state feeds back into the simulation, so
    #: that it must absorb each page at the simulated moment the scan
    #: reaches it (see :class:`PageFeed`) rather than a run at a time.
    page_timed = False

    def __init__(self, downstream: Optional["Operator"] = None):
        self.downstream = downstream

    @abstractmethod
    def push(self, batch: PageData, page_rows: np.ndarray) -> PageUnits:
        """Process one run of pages.

        ``batch`` holds the rows of consecutive pages back to back;
        ``page_rows[i]`` of them belong to the run's page *i* (zero is
        allowed — a filter upstream may have emptied the page).  Returns
        the abstract CPU units spent **per page**, downstream stages
        included.  A page's units are computed with exactly the float
        operations a run consisting of that page alone would use, and a
        page without rows costs nothing.
        """

    def required_columns(self) -> Optional[FrozenSet[str]]:
        """Columns this operator (and everything downstream of it) reads
        from its input batches.

        ``None`` means "unknown — assume all".  Upstream operators use
        this for projection pushdown: :class:`Filter` compacts only the
        columns the rest of the pipeline can touch.  The charged
        compaction cost is per *row*, not per column, so skipping unread
        columns changes no simulated timing — only host CPU.
        """
        return None

    def finish(self) -> object:
        """Finalize and return the pipeline result (terminal ops override)."""
        if self.downstream is not None:
            return self.downstream.finish()
        return None


class Filter(Operator):
    """Predicate evaluation + compaction."""

    def __init__(self, predicate: Expression, downstream: Operator,
                 cost: CostModel):
        super().__init__(downstream)
        self.predicate = predicate
        self.cost = cost
        self.rows_in = 0
        self.rows_out = 0
        self._predicate_units = predicate.cost_units_per_row
        # Projection pushdown: the operator chain is fixed at construction,
        # so the set of columns worth compacting is too.
        self._compact_columns = downstream.required_columns()

    def required_columns(self) -> Optional[FrozenSet[str]]:
        if self._compact_columns is None:
            return None
        return frozenset(self.predicate.columns()) | self._compact_columns

    def push(self, batch: PageData, page_rows: np.ndarray) -> PageUnits:
        page_rows = _as_page_rows(page_rows)
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
            return units
        if selected == n_rows:
            filtered = batch
        else:
            # Compact only the columns the rest of the pipeline can read
            # (all of them when the downstream can't say).  The per-row
            # compaction cost is column-count independent, so the
            # pushdown changes host time only, never simulated time.  A
            # page is charged for it unless all (or none) of its rows
            # passed.
            filtered = take_rows(batch, mask, self._compact_columns)
            units = np.where(
                survivors == page_rows, units,
                units + survivors * self.cost.filter_compact_units,
            )
        assert self.downstream is not None
        return units + self.downstream.push(filtered, survivors)

    @property
    def selectivity(self) -> float:
        """Observed fraction of rows passing the predicate."""
        if self.rows_in == 0:
            return 0.0
        return self.rows_out / self.rows_in


class GroupByAggregate(Operator):
    """Terminal aggregation, optionally grouped.

    Without group columns, the result is a dict of aggregate values.
    With group columns, the result maps group-key tuples to such dicts,
    in the order the groups first appeared.  A run is partitioned by one
    stable sort over its rows' key codes and folded segment by segment.
    """

    def __init__(self, aggregates: Sequence[AggSpec], cost: CostModel,
                 group_by: Sequence[str] = ()):
        super().__init__(None)
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

    def required_columns(self) -> Optional[FrozenSet[str]]:
        needed = set(self.group_by)
        for agg in self.aggregates:
            if agg.expr is not None:
                needed |= agg.expr.columns()
        return frozenset(needed)

    def push(self, batch: PageData, page_rows: np.ndarray) -> PageUnits:
        page_rows = _as_page_rows(page_rows)
        n_rows = int(page_rows.sum())
        if n_rows:
            self._absorb(batch, n_rows)
        units_of = self._units_of
        per_page = []
        for rows in page_rows.tolist():
            units = units_of.get(rows)
            if units is None:
                units = rows * self.cost.agg_units * len(self.aggregates)
                for row_units in self._row_units:
                    units += rows * row_units
                units_of[rows] = units
            per_page.append(units)
        return np.array(per_page)

    def _absorb(self, batch: PageData, n_rows: int) -> None:
        """Fold a non-empty batch into the group accumulators."""
        if self.group_by:
            order, starts = _sort_by_key(batch, self.group_by)
            first_rows = order[starts]
            keys = list(zip(*[
                _canonical_key_column(batch[name][first_rows])
                for name in self.group_by
            ]))
            visit = np.argsort(first_rows).tolist()
            sizes = np.diff(starts, append=n_rows).tolist()

            def reduce(ufunc: np.ufunc, values: np.ndarray) -> List:
                return ufunc.reduceat(values[order], starts).tolist()
        else:
            keys, visit, sizes = [()], [0], [n_rows]

            def reduce(ufunc: np.ufunc, values: np.ndarray) -> List:
                return [ufunc.reduce(values).item()]

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
        rows = list(zip(*partials))
        self._merge([(keys[group], rows[group]) for group in visit])

    def _merge(self, partials: Iterable[Tuple[Tuple, Sequence]]) -> None:
        """Fold ``(key, slots)`` partial accumulators into the groups."""
        groups = self._groups
        add_slots, min_slots, max_slots = (
            self._add_slots, self._min_slots, self._max_slots
        )
        for key, slots in partials:
            acc = groups.get(key)
            if acc is None:
                groups[key] = list(slots)
                continue
            for slot in add_slots:
                acc[slot] += slots[slot]
            for slot in min_slots:
                if slots[slot] < acc[slot]:
                    acc[slot] = slots[slot]
            for slot in max_slots:
                if slots[slot] > acc[slot]:
                    acc[slot] = slots[slot]

    def finish(self) -> object:
        results: Dict[Tuple, Dict[str, float]] = {}
        for key, acc in self._groups.items():
            out: Dict[str, float] = {}
            for agg, slot in zip(self.aggregates, self._slot_of):
                if agg.func == "avg":
                    count = acc[slot + 1]
                    out[agg.name] = acc[slot] / count if count else 0.0
                else:
                    out[agg.name] = acc[slot]
            results[key] = out
        if not self.group_by:
            return results.get((), {agg.name: 0 for agg in self.aggregates})
        return results


class PageFeed(Operator):
    """Hands a sink each page of a run when the scan reaches that page.

    :class:`Pipeline` puts one in front of a :attr:`~Operator.page_timed`
    sink.  Whatever is upstream (predicate, compaction) still runs once
    per run; the sink gets its slice of the prepared rows — and decides
    whether to spill — at the page's own simulated time, exactly as if
    the scan had delivered the pages one by one.
    """

    def __init__(self, sink: Operator):
        super().__init__(sink)
        self._columns = sink.required_columns()

    def required_columns(self) -> Optional[FrozenSet[str]]:
        return self._columns

    def push(self, batch: PageData, page_rows: np.ndarray) -> PageUnits:
        sink = self.downstream
        columns = self._columns
        bounds = _page_bounds(page_rows).tolist()

        def page_units(index: int) -> float:
            start, stop = bounds[index], bounds[index + 1]
            if start == stop:
                return 0.0  # an emptied page never reaches the sink
            page = take_rows(batch, slice(start, stop), columns)
            return sink.push(page, page_rows[index:index + 1]).item()

        return LazyPages(page_units)


class Pipeline:
    """A built pipeline: entry operator + cost conversion.

    ``process_run`` is the scan's per-run callback target; it returns
    the simulated CPU seconds of each page of the run.
    """

    def __init__(self, entry: Operator, cost: CostModel,
                 extra_units_per_row: float = 0.0):
        # A page-timed sink is fed through a PageFeed, spliced in here so
        # that no hand-built chain can forget it.
        above, sink = None, entry
        while sink.downstream is not None:
            above, sink = sink, sink.downstream
        if sink.page_timed and not isinstance(above, PageFeed):
            if above is None:
                entry = PageFeed(sink)
            else:
                above.downstream = PageFeed(sink)
        self.entry = entry
        self.cost = cost
        self.extra_units_per_row = extra_units_per_row
        self.pages = 0
        self.rows = 0

    def process_run(
        self, first_page: int, batch: PageData, page_rows: np.ndarray
    ) -> Sequence[float]:
        """Push one run of pages; returns CPU seconds to charge per page.

        The result is indexed once per page, in order, as the scan gets
        there: a list when the whole run could be processed up front,
        :class:`~repro.scans.base.LazyPages` when the sink is page-timed.
        """
        del first_page  # operators do not care where the rows came from
        units = self.entry.push(batch, page_rows)
        units = units + self.cost.per_page_units
        units = units + page_rows * self.extra_units_per_row
        self.pages += len(page_rows)
        self.rows += int(page_rows.sum())
        seconds = self.cost.seconds(units)
        return seconds.tolist() if isinstance(seconds, np.ndarray) else seconds

    def estimated_units_per_page(self, rows_per_page: int) -> float:
        """Static cost estimate used for scan-speed estimation."""
        units = self.cost.per_page_units + rows_per_page * self.extra_units_per_row
        op: Optional[Operator] = self.entry
        survivors = float(rows_per_page)
        while op is not None:
            if isinstance(op, Filter):
                units += survivors * op.predicate.cost_units_per_row
                # Without statistics assume half the rows survive.
                survivors *= 0.5
            elif isinstance(op, GroupByAggregate):
                units += survivors * self.cost.agg_units * len(op.aggregates)
                for agg in op.aggregates:
                    if agg.expr is not None:
                        units += survivors * agg.expr.cost_units_per_row
                        if agg.func == "count":
                            # Mirror the per-row NaN inspection charged in
                            # push, so the speed estimate does not drift.
                            units += survivors * self.cost.count_nonnull_units
                if op.group_by:
                    units += survivors * self.cost.group_key_units
            else:
                # Operators defined outside this module (join sinks and
                # probes) advertise their per-row cost via a duck-typed
                # hook, keeping this module import-cycle free.
                estimate = getattr(op, "estimate_units_per_row", None)
                if estimate is not None:
                    units += survivors * estimate()
            op = op.downstream
        return units

    @property
    def needs_finalize(self) -> bool:
        """Whether any operator has post-scan simulated work to drive."""
        op: Optional[Operator] = self.entry
        while op is not None:
            if getattr(op, "finalize_sim", None) is not None:
                return True
            op = op.downstream
        return False

    def finalize(self, db) -> "object":
        """Drive every operator's post-scan work (a simulation generator).

        Memory-budgeted operators merge spilled partitions here — temp
        reads and merge CPU are charged on the simulated clock, after
        the scan itself has finished.  Classic pipelines have nothing to
        do and the generator yields no events.
        """
        op: Optional[Operator] = self.entry
        while op is not None:
            finalize_sim = getattr(op, "finalize_sim", None)
            if finalize_sim is not None:
                yield from finalize_sim(db)
            op = op.downstream

    def result(self) -> object:
        """Finalize the terminal operator."""
        return self.entry.finish()
