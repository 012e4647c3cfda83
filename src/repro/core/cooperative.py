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
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.placement import (
    PlacementDecision,
    align_to_extent,
    expected_shared_pages,
)
from repro.core.policy import SharingPolicy
from repro.core.scan_state import ScanDescriptor, ScanState

__all__ = ["CooperativeScanManager"]


class CooperativeScanManager(SharingPolicy):
    """Attach-at-hottest-scan ("elevator") sharing policy."""

    policy_name = "cooperative"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # follower scan id -> the scan it attached to, while both live.
        self._attached_to: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Scan lifecycle callbacks
    # ------------------------------------------------------------------

    def start_scan(self, descriptor: ScanDescriptor) -> ScanState:
        """Register a new scan; attach it at the hottest in-range scan."""
        table = self._checked_table(descriptor)
        decision = self._attach_point(descriptor, table.extent_size)
        state = self._admit(descriptor, decision)
        if decision.joined_scan_id is not None:
            self._attached_to[state.scan_id] = decision.joined_scan_id
        if self.invariant_hook is not None:
            self.invariant_hook()
        return state

    def update_location(self, scan_id: int, pages_scanned: int) -> float:
        """Record progress; cooperative scans are never throttled."""
        self._record_progress(scan_id, pages_scanned)
        return 0.0

    def end_scan(self, scan_id: int) -> None:
        """Deregister a finished scan and drop its attach edges."""
        self._detach(scan_id)
        self._retire(scan_id, aborted=False)
        if self.invariant_hook is not None:
            self.invariant_hook()

    def abort_scan(self, scan_id: int) -> None:
        """Deregister a dead scan; nobody may keep attaching to it."""
        self._detach(scan_id)
        self._retire(scan_id, aborted=True)
        if self.invariant_hook is not None:
            self.invariant_hook()

    # ------------------------------------------------------------------
    # Introspection (used by tests and the invariant checker)
    # ------------------------------------------------------------------

    def attach_target(self, scan_id: int) -> Optional[int]:
        """The scan this one attached to at start, while both are live."""
        return self._attached_to.get(scan_id)

    def attach_edges(self) -> Dict[int, int]:
        """Snapshot of live follower -> target attachments."""
        return dict(self._attached_to)

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

    def _detach(self, scan_id: int) -> None:
        """Remove every attach edge touching a departing scan."""
        self._attached_to.pop(scan_id, None)
        stale = [
            follower
            for follower, target in self._attached_to.items()
            if target == scan_id
        ]
        for follower in stale:
            del self._attached_to[follower]

    def _attach_point(
        self, descriptor: ScanDescriptor, extent_size: int
    ) -> PlacementDecision:
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
        table_pages = self.catalog.table(descriptor.table_name).n_pages
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
