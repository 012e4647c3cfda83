"""Bufferpool counters."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class BufferStats:
    """Cumulative pool activity counters.

    ``logical_reads`` counts every fix; ``hits`` are fixes satisfied from
    a resident frame; ``inflight_waits`` are fixes that piggybacked on an
    I/O already issued by another scan (these become hits from the disk's
    point of view — no second physical read happens — and are the direct
    mechanical source of the paper's I/O savings).
    """

    logical_reads: int = 0
    hits: int = 0
    misses: int = 0
    inflight_waits: int = 0
    #: Fix calls that had to re-resolve after an eviction race.
    fix_retries: int = 0
    physical_requests: int = 0
    physical_pages_read: int = 0
    prefetched_pages: int = 0
    #: Subset of physical reads issued by the push pipeline (storage
    #: pushes an extent once; consumers later hit or inflight-wait).
    pushed_requests: int = 0
    pushed_pages: int = 0
    evictions: int = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of fixes that did not trigger a new physical read."""
        if self.logical_reads == 0:
            return 0.0
        return (self.hits + self.inflight_waits) / self.logical_reads
