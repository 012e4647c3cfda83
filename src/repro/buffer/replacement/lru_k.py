"""LRU-K replacement (O'Neil, O'Neil & Weikum, SIGMOD 1993).

Tracks the last K reference times of each page on a logical clock and
evicts the page whose K-th most recent reference lies furthest in the
past.  Pages with fewer than K references have an infinite backward
K-distance and are evicted first, oldest last-reference first — this is
what makes LRU-K scan resistant.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.buffer.page import PageKey
from repro.buffer.replacement.base import EvictablePredicate, ReplacementPolicy


class LruKPolicy(ReplacementPolicy):
    """Backward K-distance victim selection on a logical clock."""

    name = "lru-k"

    #: References remembered per page: LRU-2, the K the LRU-K paper
    #: recommends.
    k = 2

    def __init__(self) -> None:
        self._history: Dict[PageKey, Deque[int]] = {}
        self._clock = 0

    def _touch(self, key: PageKey) -> None:
        self._clock += 1
        history = self._history.setdefault(key, deque(maxlen=self.k))
        history.append(self._clock)

    def on_admit(self, key: PageKey) -> None:
        self._touch(key)

    def on_hit(self, key: PageKey) -> None:
        self._touch(key)

    def choose_victim(self, evictable: EvictablePredicate) -> Optional[PageKey]:
        best_key: Optional[PageKey] = None
        # Order: (has_k_references, kth_recent_time, last_time) — pages
        # lacking K references sort before all others, then by oldest.
        best_rank = None
        for key, history in self._history.items():
            if not evictable(key):
                continue
            has_k = len(history) >= self.k
            kth = history[0] if has_k else 0
            rank = (has_k, kth, history[-1])
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best_key = key
        return best_key

    def on_evict(self, key: PageKey) -> None:
        self._history.pop(key, None)
