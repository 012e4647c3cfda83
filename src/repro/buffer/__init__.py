"""Bufferpool with DB2-style release-with-priority semantics.

The paper treats the caching subsystem as a black box that exposes one
extra knob: when a scan finishes with a page, it *releases* it with a
priority hint, and the victim-selection policy prefers to evict
low-priority pages first.  This package provides that pool
(:class:`~repro.buffer.pool.BufferPool`), the
:class:`~repro.buffer.page.Priority` hint enum, and the victim policy
behind the knob: priority-aware LRU, the DB2 stand-in (PBM's
reuse-time policy replaces it when PBM sharing is on).  Experiment A5
measures it against Belady's offline optimum
(:mod:`repro.metrics.opt`) instead of against rival policies.
"""

from repro.buffer.page import Frame, PageKey, Priority
from repro.buffer.pool import BufferPool, BufferPoolError, PoolExhausted
from repro.buffer.stats import BufferStats
from repro.buffer.replacement import (
    PbmPolicy,
    PriorityLruPolicy,
    ReplacementPolicy,
)

__all__ = [
    "BufferPool",
    "BufferPoolError",
    "BufferStats",
    "Frame",
    "PageKey",
    "PbmPolicy",
    "PoolExhausted",
    "Priority",
    "PriorityLruPolicy",
    "ReplacementPolicy",
]
