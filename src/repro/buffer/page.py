"""Page identity, release priorities, and resident frames."""

from __future__ import annotations

from dataclasses import dataclass
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
    over (an evicted frame is unpinned, so only its ``key`` changes).
    Holding a frame reference is valid while the page is pinned; after
    unfix+eviction the same object may describe a different page.
    """

    key: PageKey
    pin_count: int = 0
