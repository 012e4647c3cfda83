"""Page identity, release priorities, and resident frames."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple


class PageKey(NamedTuple):
    """Identity of a database page: (tablespace id, page number)."""

    space_id: int
    page_no: int


class Priority(IntEnum):
    """Release-priority hint attached when a scan unfixes a page.

    The paper's mechanism: the group *leader* releases pages HIGH (the
    rest of the group will need them soon), the *trailer* releases LOW
    (nobody is following, so the page may be evicted early), everyone else
    NORMAL.  Victim selection prefers lower values.
    """

    LOW = 0
    NORMAL = 1
    HIGH = 2


@dataclass(slots=True)
class Frame:
    """A resident page slot in the bufferpool.

    Frames are pool-owned slab objects: the pool preallocates ``capacity``
    of them once and recycles a frame for a new page when its slot turns
    over (see :meth:`reset`).  Holding a frame reference is valid while
    the page is pinned; after unfix+eviction the same object may describe
    a different page.
    """

    key: PageKey
    pin_count: int = 0
    priority: Priority = Priority.NORMAL
    admitted_at: float = 0.0
    last_used_at: float = 0.0
    access_count: int = field(default=0)

    @property
    def pinned(self) -> bool:
        """Whether any process currently holds the page fixed."""
        return self.pin_count > 0

    def reset(self, key: PageKey, now: float) -> None:
        """Recycle this slab frame for a freshly admitted page."""
        self.key = key
        self.pin_count = 0
        self.priority = Priority.NORMAL
        self.admitted_at = now
        self.last_used_at = now
        self.access_count = 0
