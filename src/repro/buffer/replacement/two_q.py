"""2Q replacement (Johnson & Shasha, VLDB 1994).

Simplified full version: newly admitted pages enter the FIFO queue A1in.
On eviction from A1in, their identity is remembered in the ghost queue
A1out.  A page re-admitted while remembered in A1out, or hit while in
A1in long enough to prove reuse, is promoted to the main LRU queue Am.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.buffer.page import PageKey
from repro.buffer.replacement.base import EvictablePredicate, ReplacementPolicy


class TwoQPolicy(ReplacementPolicy):
    """A1in (FIFO) + A1out (ghosts) + Am (LRU)."""

    name = "2q"

    #: A1in's and A1out's (ghost) shares of the pool, the 2Q paper's
    #: recommended settings.
    KIN_FRACTION = 0.25
    KOUT_FRACTION = 0.5

    def __init__(self, capacity: int):
        if capacity < 2:
            raise ValueError(f"2Q needs capacity >= 2, got {capacity}")
        self.capacity = capacity
        self.kin = max(1, int(capacity * self.KIN_FRACTION))
        self.kout = max(1, int(capacity * self.KOUT_FRACTION))
        self._a1in: "OrderedDict[PageKey, None]" = OrderedDict()
        self._a1out: "OrderedDict[PageKey, None]" = OrderedDict()
        self._am: "OrderedDict[PageKey, None]" = OrderedDict()

    def on_admit(self, key: PageKey) -> None:
        if key in self._a1out:
            # Ghost hit: the page proved reuse across its first residency.
            del self._a1out[key]
            self._am[key] = None
            self._am.move_to_end(key)
        else:
            self._a1in[key] = None
            self._a1in.move_to_end(key)

    def on_hit(self, key: PageKey) -> None:
        if key in self._am:
            self._am.move_to_end(key)
        # Hits in A1in deliberately do not reorder (2Q's correlated-reference
        # protection): the page proves reuse only via A1out.

    def choose_victim(self, evictable: EvictablePredicate) -> Optional[PageKey]:
        # Prefer evicting from A1in once it exceeds its allotment, else Am.
        if len(self._a1in) > self.kin:
            for key in self._a1in:
                if evictable(key):
                    return key
        for key in self._am:
            if evictable(key):
                return key
        for key in self._a1in:
            if evictable(key):
                return key
        return None

    def on_evict(self, key: PageKey) -> None:
        if key in self._a1in:
            del self._a1in[key]
            self._a1out[key] = None
            self._a1out.move_to_end(key)
            while len(self._a1out) > self.kout:
                self._a1out.popitem(last=False)
        else:
            self._am.pop(key, None)

    def queue_sizes(self) -> dict:
        """Sizes of the three queues (for tests)."""
        return {"a1in": len(self._a1in), "a1out": len(self._a1out), "am": len(self._am)}
