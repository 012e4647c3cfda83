"""Workload sharing-potential analysis.

The paper motivates the mechanism with an analysis of a customer
warehouse: 150 users, 215 query types, 553 scans, two tables with more
than 100 scans each — a workload dripping with sharing potential.  This
module performs the same style of analysis on any executed workload:
how many scans hit each table, how many pages were requested versus
distinct, and how much of the re-read volume came from *temporally
overlapping* scans (the part the sharing mechanism can actually win
back).

Requires the workload to have been run with
``SystemConfig(record_page_visits=True)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

from repro.metrics.report import format_table
from repro.scans.base import ScanResult

if TYPE_CHECKING:  # avoid a circular import; engine imports metrics
    from repro.engine.executor import WorkloadResult


@dataclass
class TablePotential:
    """Sharing-potential summary for one table."""

    table: str
    n_scans: int = 0
    pages_requested: int = 0
    distinct_pages: int = 0
    overlapping_pairs: int = 0
    overlapping_shared_pages: int = 0

    @property
    def re_read_pages(self) -> int:
        """Pages requested more than once across the workload."""
        return self.pages_requested - self.distinct_pages

    @property
    def potential_fraction(self) -> float:
        """Fraction of requests that were re-reads (upper bound on what
        perfect sharing could save for this table)."""
        if self.pages_requested == 0:
            return 0.0
        return self.re_read_pages / self.pages_requested


@dataclass
class SharingPotentialReport:
    """Whole-workload analysis (the paper's customer-scenario style)."""

    tables: Dict[str, TablePotential] = field(default_factory=dict)

    @property
    def total_scans(self) -> int:
        return sum(t.n_scans for t in self.tables.values())

    def hot_tables(self, min_scans: int = 10) -> List[TablePotential]:
        """Tables with at least ``min_scans`` scans, hottest first."""
        return sorted(
            (t for t in self.tables.values() if t.n_scans >= min_scans),
            key=lambda t: -t.n_scans,
        )

    def render(self) -> str:
        rows = []
        for potential in sorted(self.tables.values(), key=lambda t: -t.n_scans):
            rows.append([
                potential.table,
                potential.n_scans,
                potential.pages_requested,
                potential.distinct_pages,
                f"{100 * potential.potential_fraction:.0f}%",
                potential.overlapping_pairs,
            ])
        return format_table(
            ["table", "scans", "pages requested", "distinct",
             "re-read share", "overlapping scan pairs"],
            rows,
        )


def collect_scans(workload: "WorkloadResult") -> List[ScanResult]:
    """Every scan executed in the workload, in completion order."""
    scans: List[ScanResult] = []
    for stream in workload.streams:
        for query in stream.queries:
            for step in query.steps:
                scans.append(step.scan)
    return scans


def _intervals_overlap(a: ScanResult, b: ScanResult) -> bool:
    return a.started_at < b.finished_at and b.started_at < a.finished_at


def analyze_sharing_potential(workload: "WorkloadResult") -> SharingPotentialReport:
    """Build the sharing-potential report from recorded page visits.

    Raises if the scans carry no visit traces (run the workload with
    ``record_page_visits=True``).
    """
    scans = collect_scans(workload)
    if scans and all(not scan.visited_pages for scan in scans):
        raise ValueError(
            "no page visits recorded; run the workload with "
            "SystemConfig(record_page_visits=True)"
        )
    report = SharingPotentialReport()
    by_table: Dict[str, List[ScanResult]] = {}
    for scan in scans:
        by_table.setdefault(scan.table_name, []).append(scan)

    for table, table_scans in by_table.items():
        potential = TablePotential(table=table)
        potential.n_scans = len(table_scans)
        distinct = set()
        for scan in table_scans:
            potential.pages_requested += len(scan.visited_pages)
            distinct.update(scan.visited_pages)
        potential.distinct_pages = len(distinct)
        # Temporal overlap: the savings the mechanism can actually reach.
        page_sets = [set(scan.visited_pages) for scan in table_scans]
        for i in range(len(table_scans)):
            for j in range(i + 1, len(table_scans)):
                if not _intervals_overlap(table_scans[i], table_scans[j]):
                    continue
                shared = len(page_sets[i] & page_sets[j])
                if shared:
                    potential.overlapping_pairs += 1
                    potential.overlapping_shared_pages += shared
        report.tables[table] = potential
    return report
