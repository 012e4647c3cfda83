"""Start-location selection for a new shared scan.

The overall objective is to maximize bufferpool sharing: a new scan may
begin at the current position of an ongoing scan (then wrap around its
range), provided the expected number of co-read pages justifies it.  The
expected sharing with a candidate is estimated from (1) how much of the
candidate's *remaining* range overlaps the pages the new scan still has
ahead of it before wrapping, and (2) how compatible the two speeds are —
scans of very different speeds drift apart and stop sharing quickly.

When no scan is active on the table, the new scan starts at the final
position of the most recently finished scan, reusing whatever pages that
scan left behind in the pool (the paper's special case).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.scan_state import ScanDescriptor, ScanState

#: A new scan joins an ongoing one only if the estimated number of
#: co-read pages is at least this (one prototype extent).
MIN_SHARE_PAGES = 16


@dataclass(frozen=True)
class PlacementDecision:
    """Where a new scan should start and why."""

    start_page: int
    joined_scan_id: Optional[int] = None
    joined_last_finished: bool = False
    expected_shared_pages: float = 0.0

    @property
    def joined(self) -> bool:
        """Whether the scan starts at another scan's position."""
        return self.joined_scan_id is not None or self.joined_last_finished


def expected_shared_pages(descriptor: ScanDescriptor, candidate: ScanState) -> float:
    """Estimate pages the new scan would co-read when joining ``candidate``.

    Zero when the candidate's position lies outside the new scan's range
    (joining there is impossible — the paper's precondition).  Otherwise
    the sharing horizon is bounded by the candidate's remaining pages and
    by the pages the new scan covers before wrapping, discounted by the
    speed-compatibility ratio.
    """
    # Degenerate candidates first: a zero-length range would make the
    # position modulus divide by zero, and a scan predicted (or declared)
    # to read nothing shares nothing.  Likewise a new scan estimated at
    # zero pages gains nothing from joining anyone.
    if candidate.range_pages <= 0 or descriptor.range_pages <= 0:
        return 0.0
    if candidate.descriptor.estimated_pages == 0 or descriptor.estimated_pages == 0:
        return 0.0
    position = candidate.position
    if not descriptor.first_page <= position <= descriptor.last_page:
        return 0.0
    if candidate.finished:
        return 0.0
    phase_one_pages = descriptor.last_page - position + 1
    remaining = candidate.remaining_pages
    # When the optimizer predicted a short scan, the candidate stops
    # after estimated_pages even though its declared range is longer.
    estimated = candidate.descriptor.estimated_pages
    if estimated is not None:
        remaining = min(remaining, max(0, estimated - candidate.pages_scanned))
    if remaining <= 0:
        return 0.0
    horizon = min(remaining, phase_one_pages)
    if horizon <= 0:
        return 0.0
    new_speed = descriptor.estimated_speed
    candidate_speed = candidate.speed
    # A zero/negative speed shares nothing; a non-finite one (a stalled
    # candidate whose smoothed speed overflowed, or a NaN from upstream)
    # must yield 0.0 rather than propagate inf/nan into the score.  The
    # raw speeds are checked, not min/max of them: min(x, nan) is x, so a
    # NaN would otherwise slip through as a perfect speed match.
    if not math.isfinite(new_speed) or not math.isfinite(candidate_speed):
        return 0.0
    if new_speed <= 0 or candidate_speed <= 0:
        return 0.0
    slower = min(new_speed, candidate_speed)
    faster = max(new_speed, candidate_speed)
    return horizon * (slower / faster)


def align_to_extent(page: int, first_page: int, extent_size: int) -> int:
    """Snap a start page down to an extent boundary, clamped to the range."""
    if extent_size <= 0:
        return max(page, first_page)
    aligned = (page // extent_size) * extent_size
    return max(aligned, first_page)


def choose_start(
    descriptor: ScanDescriptor,
    candidates: Iterable[ScanState],
    extent_size: int,
    last_finished_position: Optional[int] = None,
    leftover_pages: int = 0,
    table_pages: Optional[int] = None,
) -> PlacementDecision:
    """Pick the new scan's starting page.

    Evaluates every ongoing scan on the table as a join target, falls back
    to the last finished scan's end position, and otherwise starts at the
    range's first page.

    ``last_finished_position`` is the last page the most recently finished
    scan *read*; ``leftover_pages`` estimates how many of its trailing
    pages are still in the bufferpool, so the new scan starts that many
    pages earlier and turns them into hits (the paper's "technically, we
    should start several pages before the last scan's location").
    ``table_pages`` (when known) guards extent alignment against tables
    smaller than a single extent.
    """
    default = PlacementDecision(start_page=descriptor.first_page)
    if table_pages is not None and extent_size > table_pages:
        # A degenerate table smaller than one extent would snap every
        # join position back to page zero, silently defeating placement.
        # Treat alignment as a no-op instead: joins land on the exact
        # candidate position.
        extent_size = 0

    best_candidate: Optional[ScanState] = None
    best_score = 0.0
    for candidate in candidates:
        score = expected_shared_pages(descriptor, candidate)
        if score > best_score:
            best_score = score
            best_candidate = candidate

    if best_candidate is not None and best_score >= MIN_SHARE_PAGES:
        start = align_to_extent(
            best_candidate.position, descriptor.first_page, extent_size
        )
        return PlacementDecision(
            start_page=start,
            joined_scan_id=best_candidate.scan_id,
            expected_shared_pages=best_score,
        )

    if best_candidate is None and last_finished_position is not None:
        backed_off = last_finished_position - max(leftover_pages - 1, 0)
        if descriptor.first_page <= backed_off <= descriptor.last_page:
            start = align_to_extent(backed_off, descriptor.first_page, extent_size)
            if start != descriptor.first_page:
                return PlacementDecision(start_page=start, joined_last_finished=True)

    return default
