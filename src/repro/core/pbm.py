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
from typing import Dict, Iterator, Optional

from repro.buffer.page import PageKey
from repro.core.placement import PlacementDecision
from repro.core.policy import SharingPolicy
from repro.core.scan_state import ScanState
from repro.storage.table import Table

__all__ = ["PbmScanManager"]

#: Speed floor for reuse-time predictions: a stalled scan must predict a
#: huge-but-finite reuse time, not divide by zero.
_MIN_SPEED = 1e-9


class PbmScanManager(SharingPolicy):
    """Registry of scan positions/speeds powering predictive eviction."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # space_id -> scan_id -> state; the reuse-time map consulted by
        # the replacement policy on every victim choice.  Entries are
        # added at admission and dropped at end/abort, so a departed
        # scan can never pin the prediction of a page it will not read.
        self._sources: Dict[int, Dict[int, ScanState]] = {}

    # ------------------------------------------------------------------
    # Lifecycle bookkeeping and invariants
    # ------------------------------------------------------------------

    def _admitted(
        self, state: ScanState, decision: PlacementDecision, table: Table
    ) -> None:
        """Register the scan as a reuse-time source for its table."""
        self._sources.setdefault(table.space_id, {})[state.scan_id] = state

    def _retiring(self, state: ScanState, aborted: bool) -> None:
        """The scan's reuse-time entries go with it: its predictions must
        not linger."""
        table = self.catalog.table(state.descriptor.table_name)
        scans = self._sources.get(table.space_id)
        if scans is not None:
            scans.pop(state.scan_id, None)
            if not scans:
                del self._sources[table.space_id]

    def invariant_problems(self, strict_order: bool = False) -> Iterator[str]:
        """The reuse-time map holds exactly the registered, unfinished
        scans (a departed scan's predictions must not linger), and every
        release priority is NORMAL."""
        states = self._states
        listed = set()
        for space_id, scans in self._sources.items():
            if not scans:
                yield f"reuse-time map keeps empty space {space_id}"
            for scan_id, state in scans.items():
                if states.get(scan_id) is not state:
                    yield (
                        f"reuse-time map lists scan {scan_id} on space "
                        f"{space_id} but it is not a registered scan "
                        f"(stale prediction source)"
                    )
                if state.finished:
                    yield (
                        f"reuse-time map lists finished scan {scan_id} "
                        f"on space {space_id}"
                    )
                listed.add(scan_id)
        for scan_id in states:
            if scan_id not in listed:
                yield (
                    f"registered scan {scan_id} is missing from the "
                    f"reuse-time map (its pages would all predict inf)"
                )
        yield from super().invariant_problems(strict_order)

    # ------------------------------------------------------------------
    # Reuse-time predictions (consulted by the replacement policy)
    # ------------------------------------------------------------------

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
