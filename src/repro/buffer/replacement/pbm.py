"""Predictive Buffer Management eviction (arXiv 1208.4170).

The policy half of PBM: ask the scan registry
(:class:`repro.core.pbm.PbmScanManager`) for each resident page's
predicted next-consumption time and evict the page whose next read lies
furthest in the future — pages no registered scan will ever touch
(prediction ``inf``) go first, then the longest-time-to-reuse page.
Ties (including the common all-``inf`` case) fall back to least recently
used.

The policy takes its oracle when it is built: the database facade
builds the sharing policy before the pool.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Optional, Protocol

from repro.buffer.page import PageKey, Priority
from repro.buffer.replacement.base import EvictablePredicate, ReplacementPolicy


class ReuseOracle(Protocol):
    """What the policy needs from the scan registry."""

    def next_consumption_time(self, key: PageKey) -> float:
        """Predicted seconds until ``key`` is next read; inf = never."""


class PbmPolicy(ReplacementPolicy):
    """Evict the page with the longest predicted time to reuse."""

    name = "pbm"

    def __init__(self, oracle: ReuseOracle) -> None:
        self._order: "OrderedDict[PageKey, None]" = OrderedDict()
        self._oracle = oracle

    def on_admit(self, key: PageKey) -> None:
        self._order[key] = None
        self._order.move_to_end(key)

    def on_hit(self, key: PageKey) -> None:
        self._order.move_to_end(key)

    def on_release(self, key: PageKey, priority: Priority) -> None:
        # Predictions, not release hints, drive PBM eviction.
        pass

    def choose_victim(self, evictable: EvictablePredicate) -> Optional[PageKey]:
        oracle = self._oracle
        victim: Optional[PageKey] = None
        victim_reuse = -math.inf
        # LRU-first iteration with a strict > keeps the least recently
        # used page among equal predictions (deterministic tie-break).
        for key in self._order:
            if not evictable(key):
                continue
            reuse = oracle.next_consumption_time(key)
            if reuse > victim_reuse:
                victim = key
                victim_reuse = reuse
        return victim

    def on_evict(self, key: PageKey) -> None:
        self._order.pop(key, None)
