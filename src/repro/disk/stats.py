"""Per-device statistics and traces.

Mirrors what the paper reads out of ``iostat``: cumulative read counts,
bytes, and seeks, plus timestamped traces that the experiment harness
buckets into the "KB read per time unit" and "seeks per second" figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass
class DiskStats:
    """Cumulative counters plus timestamped request traces."""

    reads: int = 0
    writes: int = 0
    pages_read: int = 0
    pages_written: int = 0
    seeks: int = 0
    seek_time: float = 0.0
    transfer_time: float = 0.0
    busy_time: float = 0.0
    # Fault-injected transient failures that were retried.
    io_retries: int = 0
    # Elevator picks forced by the aging bound (anti-starvation).
    aged_dispatches: int = 0
    # Each trace entry is (completion_time, quantity).
    read_trace: List[Tuple[float, int]] = field(default_factory=list)
    seek_trace: List[Tuple[float, int]] = field(default_factory=list)

    def record_read(
        self, time: float, n_pages: int, seeked: bool, seek_time: float, xfer_time: float
    ) -> None:
        """Record one completed read request."""
        self.reads += 1
        self.pages_read += n_pages
        self.transfer_time += xfer_time
        self.busy_time += seek_time + xfer_time
        self.read_trace.append((time, n_pages))
        if seeked:
            self.seeks += 1
            self.seek_time += seek_time
            self.seek_trace.append((time, 1))

    def record_write(
        self, time: float, n_pages: int, seeked: bool, seek_time: float, xfer_time: float
    ) -> None:
        """Record one completed write request."""
        self.writes += 1
        self.pages_written += n_pages
        self.transfer_time += xfer_time
        self.busy_time += seek_time + xfer_time
        if seeked:
            self.seeks += 1
            self.seek_time += seek_time
            self.seek_trace.append((time, 1))

    def bucket_trace(
        self, trace: List[Tuple[float, int]], until: float, bucket: float
    ) -> List[float]:
        """Sum a trace into consecutive time buckets of width ``bucket``."""
        if bucket <= 0:
            raise ValueError(f"bucket width must be positive, got {bucket}")
        n_buckets = max(1, int(until / bucket) + (1 if until % bucket else 0))
        sums = [0.0] * n_buckets
        for time, quantity in trace:
            index = min(int(time / bucket), n_buckets - 1)
            sums[index] += quantity
        return sums

    def pages_read_per_bucket(self, until: float, bucket: float) -> List[float]:
        """Pages read per time bucket (the paper's Figure-17 analog)."""
        return self.bucket_trace(self.read_trace, until, bucket)

    def seeks_per_bucket(self, until: float, bucket: float) -> List[float]:
        """Seeks per time bucket (the paper's Figure-18 analog)."""
        return self.bucket_trace(self.seek_trace, until, bucket)
