"""Shared plumbing for scan operators."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Tuple


@dataclass
class ScanResult:
    """What a finished scan reports back to its query."""

    table_name: str
    first_page: int
    last_page: int
    start_page: int
    pages_scanned: int = 0
    rows_seen: int = 0
    cpu_seconds: float = 0.0
    throttle_seconds: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    visited_pages: List[int] = field(default_factory=list)
    # True when the scan was killed by fault injection and the numbers
    # above cover only the pages it reached.
    aborted: bool = False

    @property
    def elapsed(self) -> float:
        """Wall-clock (simulated) scan duration."""
        return self.finished_at - self.started_at


def scan_order(first_page: int, last_page: int, start_page: int) -> Iterator[int]:
    """Page visit order for a wrap-around scan of ``[first, last]``.

    Phase one runs from ``start_page`` to ``last_page``; phase two wraps
    to ``first_page`` and stops just before ``start_page`` — the paper's
    two back-to-back scans over adjacent ranges.
    """
    if not first_page <= start_page <= last_page:
        raise ValueError(
            f"start page {start_page} outside range [{first_page}, {last_page}]"
        )
    for page in range(start_page, last_page + 1):
        yield page
    for page in range(first_page, start_page):
        yield page


def scan_runs(
    first_page: int, last_page: int, start_page: int, extent_size: int
) -> Iterator[Tuple[int, int]]:
    """Extent runs ``(first, stop)`` covering :func:`scan_order`'s pages
    in the same order.

    A run is a stretch of consecutive pages inside one extent: the unit
    a scan hands to its operators.  Runs are clipped by the range end,
    the wrap point and the start page, so a range that starts, ends or
    wraps mid-extent yields partial runs there (and a scan placed inside
    an extent visits that extent in two runs, one per phase).
    """
    if not first_page <= start_page <= last_page:
        raise ValueError(
            f"start page {start_page} outside range [{first_page}, {last_page}]"
        )
    for page, end in ((start_page, last_page + 1), (first_page, start_page)):
        while page < end:
            stop = min(end, (page // extent_size + 1) * extent_size)
            yield page, stop
            page = stop


class LazyPages:
    """Per-page floats that exist only once the scan reaches the page.

    ``pages[i]`` computes page *i*'s value on the spot — it must be read
    exactly once per page, in visit order, at the page's simulated time.
    """

    __slots__ = ("_at",)

    def __init__(self, at: Callable[[int], float]):
        self._at = at

    def __getitem__(self, index: int) -> float:
        return self._at(index)
