"""Declarative query specifications.

A :class:`QuerySpec` is a named sequence of :class:`ScanStep` objects.
Each step scans one table range through a filter/aggregate pipeline;
steps run back to back (modelling the pipelined phases of a multi-table
plan — e.g. a hash join's build scan followed by its probe scan).  The
sharing mechanism operates entirely at the scan level, so this step
model preserves exactly the workload property the paper exploits: which
table ranges are being scanned concurrently, at which speeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.engine.costs import CostModel
from repro.engine.expressions import Expression
from repro.engine.operators import AggSpec, Filter, GroupByAggregate, Pipeline
from repro.storage.table import Table


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
        requires_order: The plan above needs rows in physical (key)
            order.  A sharing scan may start mid-range and wrap, breaking
            that order, so an order-requiring step always runs as a plain
            scan even when sharing is enabled (the paper's rule that
            ordered plans must keep the vanilla operator).
        label: Step name used in per-step results.
    """

    table: str
    cluster_range: Optional[Tuple[float, float]] = None
    fraction: Optional[Tuple[float, float]] = None
    predicate: Optional[Expression] = None
    aggregates: Tuple[AggSpec, ...] = ()
    group_by: Tuple[str, ...] = ()
    extra_units_per_row: float = 0.0
    requires_order: bool = False
    #: Access the table through its MDC-style block index (requires
    #: ``Database.create_block_index`` on the table).  Ranges then select
    #: *index-key* slices: entries are visited in key order, which on a
    #: scattered index is a non-sequential page pattern — the index-scan
    #: sharing (SISCAN) machinery coordinates these scans.
    via_index: bool = False
    #: Execute the scan this many times back to back — the inner of a
    #: nested-loop join re-scans its range once per outer batch, which is
    #: exactly the repeated-scan case the paper's last-finished placement
    #: (and the sequel's "scan D in the future") exploits.
    repeats: int = 1
    #: Frame budget for the terminal aggregation.  ``None`` keeps the
    #: classic unbudgeted operator; ``-1`` asks the executor for an
    #: automatic budget; a positive value requests that many frames.
    #: Budgeted aggregation negotiates a claw-backable bufferpool
    #: reservation and spills to temp space under pressure.
    agg_budget_pages: Optional[int] = None
    #: Build the hash table of a join on this column (the step becomes a
    #: join build side; a later step in the same query probes it).
    join_build_key: Optional[str] = None
    #: Probe the previously built join hash table on this column.  When
    #: the build side outgrew the join's frame grant, the executor runs
    #: this scan once per multibuffer chunk.
    join_probe_key: Optional[str] = None
    #: Frame budget for the join (build table + probe working set);
    #: same conventions as ``agg_budget_pages``.  Only meaningful on the
    #: build step — probe passes reuse the build step's reservation.
    join_budget_pages: Optional[int] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.cluster_range is not None and self.fraction is not None:
            raise ValueError(
                f"step on {self.table!r}: give cluster_range or fraction, not both"
            )
        if self.repeats < 1:
            raise ValueError(
                f"step on {self.table!r}: repeats must be >= 1, got {self.repeats}"
            )
        if self.join_build_key is not None and self.join_probe_key is not None:
            raise ValueError(
                f"step on {self.table!r}: a step is either a join build or a "
                f"join probe, not both"
            )
        for name, value in (
            ("agg_budget_pages", self.agg_budget_pages),
            ("join_budget_pages", self.join_budget_pages),
        ):
            if value is not None and value == 0:
                raise ValueError(
                    f"step on {self.table!r}: {name} must be positive or -1 "
                    f"(auto), got {value}"
                )

    def page_range(self, table: Table) -> Tuple[int, int]:
        """Resolve this step's inclusive page range on ``table``."""
        if table.name != self.table:
            raise ValueError(f"step is on {self.table!r}, got table {table.name!r}")
        if self.cluster_range is not None:
            return table.pages_for_cluster_range(*self.cluster_range)
        if self.fraction is not None:
            return table.pages_for_fraction(*self.fraction)
        return (0, table.n_pages - 1)

    def build_pipeline(
        self,
        cost: CostModel,
        memory=None,
        agg_strategy: str = "hash",
        join_table=None,
    ) -> Pipeline:
        """Construct a fresh pipeline for one execution of this step.

        With only ``cost`` given the classic unbudgeted pipeline is
        built.  The executor passes ``memory`` (a negotiated
        :class:`~repro.engine.memory.OperatorMemory`) to get the
        budgeted spillable terminal instead, ``join_table`` (the build
        table, or one multibuffer chunk of it) for probe passes, and
        ``agg_strategy`` to pick the hash or sort spill flavor.
        """
        terminal: object
        if self.join_build_key is not None:
            from repro.engine.spill import HashBuildSink

            terminal = HashBuildSink(self.join_build_key, cost, memory=memory)
        elif self.join_probe_key is not None:
            from repro.engine.spill import HashProbe

            terminal = HashProbe(
                self.join_probe_key, cost,
                build_table=join_table if join_table is not None else {},
            )
        else:
            aggregates = self.aggregates or (AggSpec("rows", "count"),)
            if memory is not None and self.agg_budget_pages is not None:
                from repro.engine.spill import BudgetedGroupBy, SortSpillGroupBy

                op_class = (
                    SortSpillGroupBy if agg_strategy == "sort"
                    else BudgetedGroupBy
                )
                terminal = op_class(
                    aggregates, cost, memory, group_by=self.group_by
                )
            else:
                terminal = GroupByAggregate(
                    aggregates, cost, group_by=self.group_by
                )
        if self.predicate is not None:
            entry = Filter(self.predicate, terminal, cost)
        else:
            entry = terminal
        return Pipeline(entry, cost, extra_units_per_row=self.extra_units_per_row)


@dataclass(frozen=True)
class QuerySpec:
    """A named query: an ordered sequence of scan steps."""

    name: str
    steps: Tuple[ScanStep, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError(f"query {self.name!r} needs at least one step")
