"""Replacement-policy interface.

The pool tells the policy about page lifecycle events (admit / hit /
release / evict); when the pool needs free frames it asks the policy for
:meth:`~ReplacementPolicy.evict_victims` among currently evictable pages.
Policies never see pin counts or I/O — that separation mirrors the paper's
"caching system as a black box" requirement and lets every policy be unit
tested without a pool.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, List, Optional, Sequence

from repro.buffer.page import PageKey, Priority

EvictablePredicate = Callable[[PageKey], bool]


class ReplacementPolicy(ABC):
    """Abstract victim-selection policy."""

    @abstractmethod
    def on_admit(self, key: PageKey) -> None:
        """A page has been brought into the pool."""

    @abstractmethod
    def on_hit(self, key: PageKey) -> None:
        """A resident page was accessed (fixed) again."""

    def on_release(self, key: PageKey, priority: Priority) -> None:
        """A page was unfixed with a priority hint.

        The DB2-style
        :class:`~repro.buffer.replacement.priority_lru.PriorityLruPolicy`
        honours it; PBM evicts by predicted reuse and ignores it.
        """

    @abstractmethod
    def choose_victim(self, evictable: EvictablePredicate) -> Optional[PageKey]:
        """Pick a page to evict among those for which ``evictable(key)``.

        Returns None when no tracked page is evictable (the pool then
        raises an overcommit error).  Must not mutate policy state for
        pages it merely inspected.
        """

    @abstractmethod
    def on_evict(self, key: PageKey) -> None:
        """The pool has discarded the page chosen by :meth:`choose_victim`."""

    def on_admit_run(self, keys: Sequence[PageKey]) -> None:
        """:meth:`on_admit` for each page one read brought in, in order."""
        for key in keys:
            self.on_admit(key)

    def evict_victims(self, evictable: EvictablePredicate, count: int) -> List[PageKey]:
        """Up to ``count`` victims, in the order :meth:`choose_victim` then
        :meth:`on_evict` rounds pick and forget them."""
        victims: List[PageKey] = []
        while len(victims) < count:
            key = self.choose_victim(evictable)
            if key is None:
                break
            self.on_evict(key)
            victims.append(key)
        return victims

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"
