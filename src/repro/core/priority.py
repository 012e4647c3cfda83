"""Adaptive bufferpool page prioritization.

Leaders release pages HIGH — scans behind them in the group will fix the
same pages shortly, so the pool should hold on to them.  Trailers release
LOW — no group member follows, so those pages would be re-read by nobody
and may be victimized first.  Everyone else, and every scan outside a
multi-member group, releases NORMAL.
"""

from __future__ import annotations

from repro.buffer.page import Priority
from repro.core.config import SharingConfig
from repro.core.scan_state import ScanState


def release_priority(scan: ScanState, group_size: int, config: SharingConfig) -> Priority:
    """Priority for pages the scan releases right now."""
    if not config.prioritization_enabled or group_size <= 1:
        return Priority.NORMAL
    if scan.is_leader:
        return Priority.HIGH
    if scan.is_trailer:
        return Priority.LOW
    return Priority.NORMAL
