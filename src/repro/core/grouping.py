"""Scan grouping — the paper's leader/trailer classification algorithm.

Scans on the same table are points on a *circle*: a shared scan starts
mid-range, runs to the end, wraps, and finishes where it began.  Scans
are therefore sorted by position and the candidate adjacencies are the
circular gaps between neighbours — including the gap from the last scan
back around to the first, so a scan that has wrapped past the range end
is still recognized as being just behind the scan it follows.  Gaps are
merged into groups in order of increasing distance until the combined
extent of all groups would exceed the bufferpool budget (the paper's
Figure-14 ``findLeadersTrailers``).  Each resulting group is a circular
arc of scans; its rear-most member (the arc start) is the *trailer* and
its front-most (the arc end) the *leader*; a scan alone in a group is
both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.scan_state import ScanState


@dataclass
class ScanGroup:
    """A set of same-table scans close enough to share bufferpool pages.

    ``members`` are stored in scan order along the group's arc: the
    trailer first, the leader last.  ``table_pages`` is the circle
    modulus used for wrap-aware distances (0 = fall back to linear,
    for hand-built groups in tests).
    """

    group_id: int
    table_name: str
    members: List[ScanState] = field(default_factory=list)
    table_pages: int = 0

    @property
    def size(self) -> int:
        """Number of scans in the group."""
        return len(self.members)

    @property
    def trailer(self) -> ScanState:
        """The rear-most scan (start of the group's arc)."""
        return self.members[0]

    @property
    def leader(self) -> ScanState:
        """The front-most scan (end of the group's arc)."""
        return self.members[-1]

    @property
    def extent_pages(self) -> int:
        """Pages spanned from trailer to leader, measured along the scan
        direction (wrap-aware when ``table_pages`` is known)."""
        if self.table_pages > 0:
            return self.trailer.forward_distance_to(self.leader, self.table_pages)
        return self.leader.position - self.trailer.position

    def __contains__(self, scan: ScanState) -> bool:
        return any(member.scan_id == scan.scan_id for member in self.members)


def _circle_pages(scans: Sequence[ScanState]) -> int:
    """Default circle modulus for a table: one past its largest range."""
    return max(s.descriptor.last_page for s in scans) + 1


def form_groups(
    scans_by_table: Dict[str, Sequence[ScanState]],
    pool_budget_pages: int,
    table_pages: Optional[Dict[str, int]] = None,
) -> List[ScanGroup]:
    """Partition active scans into groups under a bufferpool budget.

    Implements the paper's greedy merge over circular adjacencies: all
    same-table neighbour gaps (including the wrap-around gap) are sorted
    by distance; the closest are merged first; a gap is skipped when the
    sum of group extents would exceed ``pool_budget_pages`` or when it
    would close a full circle (which adds no new members).  Also updates
    each state's ``group_id`` / ``is_leader`` / ``is_trailer`` flags.

    ``table_pages`` optionally supplies each table's true page count as
    the circle modulus; by default it is inferred from the scan ranges.
    """
    # Collect candidate circular-adjacency gaps across all tables.
    sorted_scans: Dict[str, List[ScanState]] = {}
    modulus: Dict[str, int] = {}
    pairs: List[Tuple[int, str, int]] = []  # (distance, table, index of rear scan)
    for table_name, scans in scans_by_table.items():
        # Each position once; the index keeps the sort stable on ties.
        keyed = sorted(
            (s.position, s.scan_id, i, s) for i, s in enumerate(scans)
        )
        ordered = [entry[3] for entry in keyed]
        sorted_scans[table_name] = ordered
        if not ordered:
            continue
        circle = (table_pages or {}).get(table_name) or _circle_pages(ordered)
        modulus[table_name] = circle
        k = len(keyed)
        if k > 1:
            for i in range(k):
                distance = (keyed[(i + 1) % k][0] - keyed[i][0]) % circle
                pairs.append((distance, table_name, i))
    pairs.sort(key=lambda p: (p[0], p[1], p[2]))

    # Greedily accept gaps while the budget holds.  Accepting a gap
    # joins two adjacent chains, growing the total extent by exactly the
    # gap's distance.  A table with k scans has k circular gaps but a
    # chain needs only k-1: the last gap would close the circle without
    # merging anything, so it is never accepted.
    accepted: Dict[str, set] = {name: set() for name in sorted_scans}
    total_extent = 0
    for distance, table_name, index in pairs:
        if len(accepted[table_name]) == len(sorted_scans[table_name]) - 1:
            continue
        if total_extent + distance > pool_budget_pages:
            continue
        accepted[table_name].add(index)
        total_extent += distance

    # Build groups as maximal circular arcs of accepted adjacencies: a
    # group starts at each scan whose incoming gap was not accepted.
    groups: List[ScanGroup] = []
    next_group_id = 0
    for table_name, ordered in sorted_scans.items():
        if not ordered:
            continue
        k = len(ordered)
        edges = accepted[table_name]
        starts = (
            [i for i in range(k) if (i - 1) % k not in edges] if k > 1 else [0]
        )
        for start in starts:
            length = 1
            while length < k and (start + length - 1) % k in edges:
                length += 1
            group = ScanGroup(
                group_id=next_group_id,
                table_name=table_name,
                members=[ordered[(start + j) % k] for j in range(length)],
                table_pages=modulus[table_name],
            )
            next_group_id += 1
            groups.append(group)

    # Stamp membership flags onto the states.
    for group in groups:
        leader_id = group.members[-1].scan_id
        trailer_id = group.members[0].scan_id
        for member in group.members:
            member.group_id = group.group_id
            member.is_leader = member.scan_id == leader_id
            member.is_trailer = member.scan_id == trailer_id
    return groups
