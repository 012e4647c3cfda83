"""Classic least-recently-used replacement."""

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
