"""Classic recency policies: LRU, MRU, FIFO."""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.buffer.page import PageKey
from repro.buffer.replacement.base import EvictablePredicate, ReplacementPolicy


class LruPolicy(ReplacementPolicy):
    """Least-recently-used: evict the page untouched for the longest."""

    name = "lru"

    def __init__(self) -> None:
        self._order: "OrderedDict[PageKey, None]" = OrderedDict()

    def on_admit(self, key: PageKey) -> None:
        self._order[key] = None
        self._order.move_to_end(key)

    def on_hit(self, key: PageKey) -> None:
        self._order.move_to_end(key)

    def choose_victim(self, evictable: EvictablePredicate) -> Optional[PageKey]:
        for key in self._order:
            if evictable(key):
                return key
        return None

    def on_evict(self, key: PageKey) -> None:
        self._order.pop(key, None)


class MruPolicy(LruPolicy):
    """Most-recently-used: evict the page touched most recently.

    Chou & DeWitt showed MRU is the right policy for single large looping
    scans; it serves as a related-work baseline in the policy ablation.
    """

    name = "mru"

    def choose_victim(self, evictable: EvictablePredicate) -> Optional[PageKey]:
        for key in reversed(self._order):
            if evictable(key):
                return key
        return None


class FifoPolicy(LruPolicy):
    """First-in-first-out: ignore accesses, evict the oldest admit."""

    name = "fifo"

    def on_hit(self, key: PageKey) -> None:
        # FIFO deliberately ignores recency.
        pass
