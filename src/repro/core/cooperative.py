"""Cooperative attach/elevator scan sharing (the QPipe-style rival).

From Cooperative Scans / QPipe lineage (see PAPERS.md, "From Cooperative
Scans to Predictive Buffer Management"): a new scan does not start at the
beginning of its range — it *attaches* at the current read position of
the hottest overlapping scan and wraps around ("circular scan" /
"elevator").  Compared to the paper's grouping+throttling mechanism:

* placement is unconditional — a new scan always attaches to the hottest
  in-range scan, with no minimum-expected-sharing threshold;
* there is no throttling: attached scans drift apart at their natural
  speeds (the policy's known weakness on speed-diverse mixes);
* pages are released at NORMAL priority — the bufferpool's own victim
  policy is not steered.

"Hottest" is the scan with the most co-travellers within one extent of
its position (the densest convoy — attaching there maximizes the pages
already streaming through the pool), with speed and then scan id as
deterministic tie-breaks.

A scan that attaches to a follower rides its chain's root: the push
pipeline's consumer sets are one driver (an unattached scan) plus its
followers, so the attach edge always points at an unattached scan.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.core.placement import (
    PlacementDecision,
    align_to_extent,
    expected_shared_pages,
)
from repro.core.policy import SharingPolicy
from repro.core.scan_state import ScanDescriptor, ScanState
from repro.storage.table import Table

__all__ = ["CooperativeScanManager"]


class CooperativeScanManager(SharingPolicy):
    """Attach-at-hottest-scan ("elevator") sharing policy."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # follower scan id -> the unattached scan it rides with, both live.
        self._attached_to: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle bookkeeping and invariants
    # ------------------------------------------------------------------

    def _admitted(
        self, state: ScanState, decision: PlacementDecision, table: Table
    ) -> None:
        """Record the attach edge, to the root of the joined scan's chain."""
        joined = decision.joined_scan_id
        if joined is not None:
            self._attached_to[state.scan_id] = self._attached_to.get(joined, joined)

    def _retiring(self, state: ScanState, aborted: bool) -> None:
        """Drop every attach edge touching the departing scan: nobody may
        stay attached to a dead scan."""
        scan_id = state.scan_id
        self._attached_to.pop(scan_id, None)
        stale = [
            follower
            for follower, target in self._attached_to.items()
            if target == scan_id
        ]
        for follower in stale:
            del self._attached_to[follower]

    def invariant_problems(self, strict_order: bool = False) -> Iterator[str]:
        """Every live attach edge connects two registered scans (no ghost
        attach targets after an abort), every attach target is itself
        unattached, and every release priority is NORMAL."""
        states = self._states
        for follower, target in self._attached_to.items():
            if follower not in states:
                yield (
                    f"attach edge from unregistered scan {follower} "
                    f"(to {target}) survived its owner's departure"
                )
            if target not in states:
                yield (
                    f"scan {follower} still attached to departed scan "
                    f"{target} (ghost attach target)"
                )
            if target in self._attached_to:
                yield (
                    f"scan {follower} attached to scan {target}, which is "
                    f"itself attached to {self._attached_to[target]} (no "
                    f"push driver reaches it)"
                )
        yield from super().invariant_problems(strict_order)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def attach_target(self, scan_id: int) -> Optional[int]:
        """The unattached scan this one rides with since its start, while
        both are live."""
        return self._attached_to.get(scan_id)

    def push_consumer_set(self, scan_id: int) -> List[int]:
        """The scan plus every follower currently attached to it."""
        self._state(scan_id)
        followers = sorted(
            follower
            for follower, target in self._attached_to.items()
            if target == scan_id
        )
        return [scan_id] + followers

    def is_push_driver(self, scan_id: int) -> bool:
        """Unattached scans drive; attached followers ride the push."""
        self._state(scan_id)
        return scan_id not in self._attached_to

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _place(self, descriptor: ScanDescriptor, table: Table) -> PlacementDecision:
        """Where the new scan attaches: the hottest overlapping scan."""
        default = PlacementDecision(start_page=descriptor.first_page)
        candidates = [
            state
            for state in self._states.values()
            if state.descriptor.table_name == descriptor.table_name
            and not state.finished
            and descriptor.first_page <= state.position <= descriptor.last_page
        ]
        if not candidates:
            return default
        table_pages = table.n_pages
        extent_size = table.extent_size
        if extent_size > table_pages:
            # Same guard as choose_start: a table smaller than one extent
            # must not snap every attach point back to page zero.
            extent_size = 0
        hottest = max(
            candidates,
            key=lambda state: (
                self._heat(state, candidates, table_pages, extent_size),
                state.speed,
                -state.scan_id,
            ),
        )
        start = align_to_extent(
            hottest.position, descriptor.first_page, extent_size
        )
        return PlacementDecision(
            start_page=start,
            joined_scan_id=hottest.scan_id,
            expected_shared_pages=expected_shared_pages(descriptor, hottest),
        )

    @staticmethod
    def _heat(
        state: ScanState,
        candidates: List[ScanState],
        table_pages: int,
        extent_size: int,
    ) -> int:
        """Convoy density: scans within one extent of ``state``'s position."""
        position = state.position
        count = 0
        for other in candidates:
            forward = (other.position - position) % table_pages
            backward = (position - other.position) % table_pages
            if min(forward, backward) <= extent_size:
                count += 1
        return count
