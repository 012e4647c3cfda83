"""Declarative query specifications.

A :class:`QuerySpec` is a named sequence of steps run back to back.  A
:class:`ScanStep` scans one table range through a filter/aggregate
pipeline; a :class:`HashJoin` is one multibuffer hash join over two
such scans — its build scan, then one probe scan per chunk of the build
table its frame grant holds.  The sharing mechanism operates entirely
at the scan level, so this model says exactly what the paper exploits:
which table ranges are scanned, in what order, at which speeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Tuple, Union

from repro.engine.costs import CostModel
from repro.engine.expressions import Expression, value_key
from repro.engine.operators import (
    AggSpec, Filter, GroupByAggregate, Pipeline, Sink,
)
from repro.engine.run_cache import BoundedCache
from repro.storage.table import Table

#: What a step without aggregates computes.
_DEFAULT_AGGREGATES = (AggSpec("rows", "count"),)


def _check_budget(owner: str, name: str, value: Optional[int]) -> None:
    if value is not None and value < 1 and value != -1:
        raise ValueError(
            f"{owner}: {name} must be positive or -1 (auto), got {value}"
        )


@dataclass(frozen=True)
class ScanStep:
    """One table-range scan with its processing pipeline.

    Exactly one of ``cluster_range`` / ``fraction`` may be given;
    neither means a full-table scan.

    Attributes:
        table: Table to scan.
        cluster_range: (low, high) values on the table's clustering
            column; translated to a contiguous page range.
        fraction: (lo, hi) fractional slice of the table's pages.
        predicate: Row filter applied per page.
        aggregates: Aggregates computed over surviving rows.
        group_by: Grouping columns for the aggregates.
        extra_units_per_row: Extra CPU units per input row, modelling
            work above the scan that the step model folds in (join
            probing, sorting, expression-heavy projection).
        label: Step name used in per-step results.
    """

    table: str
    cluster_range: Optional[Tuple[float, float]] = None
    fraction: Optional[Tuple[float, float]] = None
    predicate: Optional[Expression] = None
    aggregates: Tuple[AggSpec, ...] = ()
    group_by: Tuple[str, ...] = ()
    extra_units_per_row: float = 0.0
    #: Frame budget for the terminal aggregation.  ``None`` keeps the
    #: classic unbudgeted operator; ``-1`` asks the executor for an
    #: automatic budget; a positive value requests that many frames.
    #: Budgeted aggregation negotiates a claw-backable bufferpool
    #: reservation and spills to temp space under pressure.
    agg_budget_pages: Optional[int] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.cluster_range is not None and self.fraction is not None:
            raise ValueError(
                f"step on {self.table!r}: give cluster_range or fraction, not both"
            )
        _check_budget(f"step on {self.table!r}", "agg_budget_pages",
                      self.agg_budget_pages)

    def page_range(self, table: Table) -> Tuple[int, int]:
        """Resolve this step's inclusive page range on ``table``."""
        if table.name != self.table:
            raise ValueError(f"step is on {self.table!r}, got table {table.name!r}")
        if self.cluster_range is not None:
            return table.pages_for_cluster_range(*self.cluster_range)
        if self.fraction is not None:
            return table.pages_for_fraction(*self.fraction)
        return (0, table.n_pages - 1)

    @cached_property
    def run_key(self) -> Tuple:
        """What :meth:`build_pipeline` reads of this step: the identity
        under which a database caches the step's run results and speed
        estimate.  Aggregate names are left out — they only label the
        answer."""
        return (
            self.table,
            self.predicate.key if self.predicate is not None else None,
            tuple(
                (agg.func, agg.expr.key if agg.expr is not None else None)
                for agg in self.aggregates or _DEFAULT_AGGREGATES
            ),
            tuple(self.group_by),
            value_key(self.extra_units_per_row),
        )

    def build_pipeline(
        self,
        cost: CostModel,
        memory=None,
        agg_strategy: str = "hash",
        run_cache: Optional[BoundedCache] = None,
    ) -> Pipeline:
        """Construct a fresh pipeline for one execution of this step.

        With only ``cost`` given the classic unbudgeted pipeline is
        built.  The executor passes ``memory`` (a negotiated
        :class:`~repro.engine.memory.OperatorMemory`) to get the
        budgeted spillable sink instead, ``agg_strategy`` to pick the
        hash or sort spill flavor, and its database's ``run_cache``,
        which a classic pipeline shares run results through.
        """
        sink: Sink
        aggregates = self.aggregates or _DEFAULT_AGGREGATES
        if memory is not None and self.agg_budget_pages is not None:
            from repro.engine.spill import BudgetedGroupBy, SortSpillGroupBy

            op_class = (
                SortSpillGroupBy if agg_strategy == "sort" else BudgetedGroupBy
            )
            sink = op_class(aggregates, cost, memory, group_by=self.group_by)
        else:
            sink = GroupByAggregate(aggregates, cost, group_by=self.group_by)
        return self.feeding(sink, cost, self.run_key, run_cache)

    def feeding(self, sink: Sink, cost: CostModel, run_key: Tuple,
                run_cache: Optional[BoundedCache] = None) -> Pipeline:
        """This step's filter and per-row work in front of ``sink``."""
        return Pipeline(
            sink, cost,
            filter=(
                Filter(self.predicate, cost, sink.required_columns())
                if self.predicate is not None else None
            ),
            extra_units_per_row=self.extra_units_per_row,
            run_cache=run_cache, run_key=run_key,
        )


@dataclass(frozen=True)
class HashJoin:
    """A multibuffer hash join: ``build`` hashes its rows' ``build_key``
    into a table under the join's frame budget, then ``probe`` counts
    each row's ``probe_key`` matches against it.

    When the build table outgrows the frames the join was granted, the
    probe range is scanned once per chunk of the table — the multibuffer
    trade of extra probe I/O for bounded memory.  The two sides report
    as two steps, under their own labels.  A side is a plain range scan:
    it may filter and add per-row work, but the join is its sink, so it
    takes no aggregates, grouping or aggregation budget.
    """

    build: ScanStep
    probe: ScanStep
    build_key: str
    probe_key: str
    #: Frame budget for the build table, held across every probe pass;
    #: same conventions as ``ScanStep.agg_budget_pages``.
    budget_pages: Optional[int] = None

    def __post_init__(self) -> None:
        for side in self.scans:
            if side.aggregates or side.group_by or side.agg_budget_pages is not None:
                raise ValueError(
                    f"join side on {side.table!r}: the join is its sink, so "
                    f"it takes no aggregates, group_by or agg_budget_pages"
                )
        _check_budget(f"join of {self.build.table!r} and {self.probe.table!r}",
                      "budget_pages", self.budget_pages)

    @property
    def scans(self) -> Tuple[ScanStep, ScanStep]:
        """The join's scans in the order they run."""
        return (self.build, self.probe)

    # A join is positioned by the range it probes (the one it may scan
    # many times); ``bench`` records every step's range as its input.
    @property
    def cluster_range(self) -> Optional[Tuple[float, float]]:
        return self.probe.cluster_range

    @property
    def fraction(self) -> Optional[Tuple[float, float]]:
        return self.probe.fraction

    def build_pipeline(self, cost: CostModel, memory=None) -> Pipeline:
        """The build scan's pipeline, hashing into ``memory``'s frames."""
        from repro.engine.spill import HashBuildSink

        sink = HashBuildSink(self.build_key, cost, memory=memory)
        return self.build.feeding(
            sink, cost, ("join-build", self.build_key, self.build.run_key)
        )

    def probe_pipeline(self, cost: CostModel,
                       chunk: Dict[object, int]) -> Pipeline:
        """One probe pass's pipeline, matching against ``chunk`` of the
        build table."""
        from repro.engine.spill import HashProbe

        sink = HashProbe(self.probe_key, cost, build_table=chunk)
        return self.probe.feeding(
            sink, cost, ("join-probe", self.probe_key, self.probe.run_key)
        )


@dataclass(frozen=True)
class QuerySpec:
    """A named query: an ordered sequence of scan steps and joins."""

    name: str
    steps: Tuple[Union[ScanStep, HashJoin], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError(f"query {self.name!r} needs at least one step")
        seen = set()
        for label in self.labels:
            if label in seen:
                raise ValueError(
                    f"query {self.name!r}: two steps are labelled {label!r}, "
                    f"so one's answer would hide the other's"
                )
            seen.add(label)

    @cached_property
    def scans(self) -> Tuple[ScanStep, ...]:
        """Every scan in the order the steps run them (a join's build,
        then its probe)."""
        return tuple(
            scan for step in self.steps
            for scan in (step.scans if isinstance(step, HashJoin) else (step,))
        )

    @cached_property
    def labels(self) -> Tuple[str, ...]:
        """Each scan's result label — its own, else ``step{i}`` for the
        i-th scan — under which ``QueryResult.values`` keys its answer."""
        return tuple(
            scan.label or f"step{index}" for index, scan in enumerate(self.scans)
        )
