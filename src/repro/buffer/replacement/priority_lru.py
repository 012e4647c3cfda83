"""DB2-style priority-aware LRU — the pool policy the paper's mechanism
actually talks to.

Pages live in one LRU list per :class:`~repro.buffer.page.Priority` level.
Victim selection walks levels from LOW to HIGH and takes the least
recently used evictable page of the lowest non-empty level.  A release
with a new priority moves the page between levels, which is exactly the
"release page with priority p" call in the paper's scan pseudo-code.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import Dict, List, Optional, Sequence

from repro.buffer.page import PageKey, Priority
from repro.buffer.replacement.base import EvictablePredicate, ReplacementPolicy


class PriorityLruPolicy(ReplacementPolicy):
    """LRU within priority classes; lowest class evicted first."""

    name = "priority-lru"

    def __init__(self) -> None:
        self._levels: Dict[Priority, "OrderedDict[PageKey, None]"] = {
            level: OrderedDict() for level in sorted(Priority)
        }
        self._priority_of: Dict[PageKey, Priority] = {}

    def on_admit(self, key: PageKey) -> None:
        self._place(key, Priority.NORMAL)

    def on_admit_run(self, keys: Sequence[PageKey]) -> None:
        normal = self._levels[Priority.NORMAL]
        for key in keys:
            normal[key] = None
            normal.move_to_end(key)
        self._priority_of.update(dict.fromkeys(keys, Priority.NORMAL))

    def on_hit(self, key: PageKey) -> None:
        level = self._priority_of.get(key)
        if level is None:
            # Defensive: a hit on an untracked page means the pool and the
            # policy disagree about residency.
            raise KeyError(f"hit on page {key} not tracked by policy")
        self._levels[level].move_to_end(key)

    def on_release(self, key: PageKey, priority: Priority) -> None:
        current = self._priority_of.get(key)
        if current is None:
            raise KeyError(f"release of page {key} not tracked by policy")
        if current is priority:
            self._levels[current].move_to_end(key)
        else:
            del self._levels[current][key]
            self._place(key, priority)

    def choose_victim(self, evictable: EvictablePredicate) -> Optional[PageKey]:
        # ``_levels`` was built LOW -> HIGH and dicts keep insertion order.
        for order in self._levels.values():
            for key in order:
                if evictable(key):
                    return key
        return None

    def on_evict(self, key: PageKey) -> None:
        level = self._priority_of.pop(key, None)
        if level is not None:
            self._levels[level].pop(key, None)

    def evict_victims(self, evictable: EvictablePredicate, count: int) -> List[PageKey]:
        # One LOW -> HIGH walk: each choose_victim would resume it where
        # the previous victim left it.
        victims: List[PageKey] = []
        priority_of = self._priority_of
        for order in self._levels.values():
            chosen = list(islice(filter(evictable, order), count - len(victims)))
            for key in chosen:
                del order[key]
                del priority_of[key]
            victims += chosen
        return victims

    def _place(self, key: PageKey, priority: Priority) -> None:
        self._levels[priority][key] = None
        self._levels[priority].move_to_end(key)
        self._priority_of[key] = priority

    def level_sizes(self) -> Dict[Priority, int]:
        """Number of tracked pages per priority level (for tests/metrics)."""
        return {level: len(order) for level, order in self._levels.items()}
