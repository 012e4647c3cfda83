"""Per-scan state tracked by the sharing manager.

For every registered scan the manager maintains (cf. the paper's list of
attributes): its current location, pages remaining in the scan range, its
average speed (initialized from the optimizer's estimates and updated
from runtime measurements), the scan range itself, and the accumulated
throttle delay used by the fairness cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ScanDescriptor:
    """What a scan declares when registering (compiler-supplied estimates).

    ``first_page``/``last_page`` bound the scan range (inclusive), like
    the start/end keys of the paper's range scans.  ``estimated_speed``
    is the costing component's pages/second guess; ``estimated_pages``
    the scan-amount estimate (defaults to the range size).
    """

    table_name: str
    first_page: int
    last_page: int
    estimated_speed: float
    estimated_pages: Optional[int] = None

    def __post_init__(self) -> None:
        if self.first_page < 0 or self.last_page < self.first_page:
            raise ValueError(
                f"bad scan range [{self.first_page}, {self.last_page}] "
                f"on {self.table_name!r}"
            )
        if self.estimated_speed <= 0:
            raise ValueError(
                f"estimated_speed must be positive, got {self.estimated_speed}"
            )
        if self.estimated_pages is not None and self.estimated_pages < 0:
            raise ValueError(
                f"estimated_pages must be >= 0, got {self.estimated_pages}"
            )

    @property
    def range_pages(self) -> int:
        """Number of pages in the scan range."""
        return self.last_page - self.first_page + 1

    @property
    def estimated_total_time(self) -> float:
        """Estimated seconds to finish the scan at the estimated speed.

        An explicit ``estimated_pages=0`` (the optimizer predicting an
        empty scan) must yield 0.0, not fall back to the full range —
        hence the ``is None`` check rather than truthiness.
        """
        pages = self.range_pages if self.estimated_pages is None else self.estimated_pages
        return pages / self.estimated_speed


@dataclass
class ScanState:
    """Runtime state of one registered scan."""

    scan_id: int
    descriptor: ScanDescriptor
    start_page: int          # where the scan actually began (placement result)
    start_time: float
    speed: float             # pages/second, smoothed runtime estimate
    pages_scanned: int = 0
    last_update_time: float = 0.0
    pages_at_last_update: int = 0
    accumulated_delay: float = 0.0
    throttle_exempt: bool = False
    finished: bool = False
    group_id: Optional[int] = None
    is_leader: bool = False
    is_trailer: bool = False

    @property
    def range_pages(self) -> int:
        """Pages in the declared scan range."""
        return self.descriptor.range_pages

    @property
    def remaining_pages(self) -> int:
        """Pages left to scan."""
        return max(0, self.range_pages - self.pages_scanned)

    @property
    def position(self) -> int:
        """Current physical page position within the table.

        The scan starts at ``start_page``, advances to the end of its
        range, wraps to the range start, and finishes one page before
        ``start_page`` — so the physical position is the start offset
        plus pages scanned, modulo the range length, rebased to the
        range's first page.
        """
        first = self.descriptor.first_page
        offset = (self.start_page - first + self.pages_scanned) % self.range_pages
        return first + offset

    @property
    def estimated_total_time(self) -> float:
        """Estimated total scan duration (for the fairness cap)."""
        return self.descriptor.estimated_total_time

    def forward_distance_to(self, other: "ScanState", table_pages: int) -> int:
        """Pages this scan must advance to reach ``other``'s position.

        Measured circularly over the table, in scan direction; 0 means the
        scans are at the same page.
        """
        return (other.position - self.position) % table_pages
