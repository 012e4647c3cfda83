"""Predictive Buffer Management (PBM) scan registry (arXiv 1208.4170).

Świtakowski, Boncz and Żukowski's answer to cooperative scans: leave the
scans alone (no placement steering, no throttling) and make the *buffer
manager* smart instead.  Every scan registers its range and reports its
position and speed; from those the manager predicts, for any page, when
it will next be consumed.  The companion replacement policy
(:class:`repro.buffer.replacement.pbm.PbmPolicy`) evicts the page whose
next consumption lies furthest in the future — the classic MIN/OPT rule,
driven by measured scan progress instead of clairvoyance.

This module is the manager half: the per-table registry of scan
positions/speeds and the reuse-time computation.  It implements the
:class:`~repro.core.policy.SharingPolicy` interface so the scan code is
byte-for-byte the same under PBM as under every other policy.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.buffer.page import PageKey, Priority
from repro.core.placement import PlacementDecision
from repro.core.policy import SharingPolicy
from repro.core.scan_state import ScanDescriptor, ScanState

__all__ = ["PbmScanManager"]

#: Speed floor for reuse-time predictions: a stalled scan must predict a
#: huge-but-finite reuse time, not divide by zero.
_MIN_SPEED = 1e-9


class PbmScanManager(SharingPolicy):
    """Registry of scan positions/speeds powering predictive eviction."""

    policy_name = "pbm"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # space_id -> scan_id -> state; the reuse-time map consulted by
        # the replacement policy on every victim choice.  Entries are
        # added at start_scan and dropped at end/abort, so a departed
        # scan can never pin the prediction of a page it will not read.
        self._sources: Dict[int, Dict[int, ScanState]] = {}

    # ------------------------------------------------------------------
    # Scan lifecycle callbacks
    # ------------------------------------------------------------------

    def start_scan(self, descriptor: ScanDescriptor) -> ScanState:
        """Register a scan; PBM never moves a scan's start position."""
        table = self._checked_table(descriptor)
        state = self._admit(
            descriptor, PlacementDecision(start_page=descriptor.first_page)
        )
        self._sources.setdefault(table.space_id, {})[state.scan_id] = state
        if self.invariant_hook is not None:
            self.invariant_hook()
        return state

    def update_location(self, scan_id: int, pages_scanned: int) -> float:
        """Record progress (feeding the predictions); never throttles."""
        self._record_progress(scan_id, pages_scanned)
        return 0.0

    def page_priority(self, scan_id: int) -> Priority:
        """Priorities are not PBM's lever — the victim policy is."""
        self._state(scan_id)
        return Priority.NORMAL

    def end_scan(self, scan_id: int) -> None:
        """Deregister; the scan's reuse-time entries go with it."""
        self._drop_source(scan_id)
        self._retire(scan_id, aborted=False)
        if self.invariant_hook is not None:
            self.invariant_hook()

    def abort_scan(self, scan_id: int) -> None:
        """Deregister a dead scan; its predictions must not linger."""
        self._drop_source(scan_id)
        self._retire(scan_id, aborted=True)
        if self.invariant_hook is not None:
            self.invariant_hook()

    # ------------------------------------------------------------------
    # Reuse-time predictions (consulted by the replacement policy)
    # ------------------------------------------------------------------

    def reuse_sources(self) -> Dict[int, Dict[int, ScanState]]:
        """Snapshot of the reuse-time map (space_id -> scan_id -> state)."""
        return {space: dict(scans) for space, scans in self._sources.items()}

    def next_consumption_time(self, key: PageKey) -> float:
        """Predicted seconds until ``key`` is next read; inf = never.

        The minimum over registered scans of (forward distance to the
        page) / (measured scan speed) — equation (1) of the PBM paper,
        with wrap-around distances because our scans are elevators.
        """
        scans = self._sources.get(key.space_id)
        if not scans:
            return math.inf
        best = math.inf
        for state in scans.values():
            distance = self._distance(state, key.page_no)
            if distance is None:
                continue
            eta = distance / max(state.speed, _MIN_SPEED)
            if eta < best:
                best = eta
        return best

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _drop_source(self, scan_id: int) -> None:
        state = self._state(scan_id)
        table = self.catalog.table(state.descriptor.table_name)
        scans = self._sources.get(table.space_id)
        if scans is not None:
            scans.pop(scan_id, None)
            if not scans:
                del self._sources[table.space_id]

    @staticmethod
    def _distance(state: ScanState, page_no: int) -> Optional[int]:
        """Forward pages from ``state``'s position to ``page_no``.

        None when the scan will never read the page: outside its range,
        or further ahead than the pages it has left before finishing.
        """
        descriptor = state.descriptor
        if not descriptor.first_page <= page_no <= descriptor.last_page:
            return None
        if state.range_pages <= 0:
            return None
        distance = (page_no - state.position) % state.range_pages
        if distance >= state.remaining_pages:
            return None
        return distance
