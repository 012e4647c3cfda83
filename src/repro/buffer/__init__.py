"""Bufferpool with DB2-style release-with-priority semantics.

The paper treats the caching subsystem as a black box that exposes one
extra knob: when a scan finishes with a page, it *releases* it with a
priority hint, and the victim-selection policy prefers to evict
low-priority pages first.  This package provides that pool
(:class:`~repro.buffer.pool.BufferPool`), the
:class:`~repro.buffer.page.Priority` hint enum, and a family of pluggable
replacement policies (priority-aware LRU as the DB2 stand-in, plus the
related-work policies: LRU, CLOCK, LRU-K, 2Q, ARC, and PBM) used by the
policy-comparison ablation.
"""

from repro.buffer.page import Frame, PageKey, Priority
from repro.buffer.pool import BufferPool, BufferPoolError, PoolExhausted
from repro.buffer.stats import BufferStats
from repro.buffer.replacement import (
    ArcPolicy,
    ClockPolicy,
    LruKPolicy,
    LruPolicy,
    PbmPolicy,
    PriorityLruPolicy,
    ReplacementPolicy,
    TwoQPolicy,
    make_policy,
)

__all__ = [
    "ArcPolicy",
    "BufferPool",
    "BufferPoolError",
    "BufferStats",
    "ClockPolicy",
    "Frame",
    "LruKPolicy",
    "LruPolicy",
    "PageKey",
    "PbmPolicy",
    "PoolExhausted",
    "Priority",
    "PriorityLruPolicy",
    "ReplacementPolicy",
    "TwoQPolicy",
    "make_policy",
]
