"""Victim-selection policies and their registry."""

from __future__ import annotations

from typing import Optional

from repro.buffer.replacement.arc import ArcPolicy
from repro.buffer.replacement.base import ReplacementPolicy
from repro.buffer.replacement.clock import ClockPolicy
from repro.buffer.replacement.lru import LruPolicy
from repro.buffer.replacement.lru_k import LruKPolicy
from repro.buffer.replacement.pbm import PbmPolicy
from repro.buffer.replacement.priority_lru import PriorityLruPolicy
from repro.buffer.replacement.two_q import TwoQPolicy

# Every name make_policy accepts, case-insensitively.
KNOWN_POLICY_NAMES = (
    "priority-lru", "lru", "clock", "lru-k", "2q", "arc",
)


def make_policy(name: str, capacity: Optional[int] = None) -> ReplacementPolicy:
    """Construct a replacement policy by registry name.

    ``capacity`` is required for policies that size internal queues from
    the pool size (2Q, ARC) and ignored by the rest.
    """
    normalized = name.lower()
    if normalized == "priority-lru":
        return PriorityLruPolicy()
    if normalized == "lru":
        return LruPolicy()
    if normalized == "clock":
        return ClockPolicy()
    if normalized == "lru-k":
        return LruKPolicy()
    if normalized == "2q":
        if capacity is None:
            raise ValueError("2Q policy requires the pool capacity")
        return TwoQPolicy(capacity)
    if normalized == "arc":
        if capacity is None:
            raise ValueError("ARC policy requires the pool capacity")
        return ArcPolicy(capacity)
    raise ValueError(
        f"unknown replacement policy {name!r}; known: {KNOWN_POLICY_NAMES}"
    )


__all__ = [
    "KNOWN_POLICY_NAMES",
    "ArcPolicy",
    "ClockPolicy",
    "LruKPolicy",
    "LruPolicy",
    "PbmPolicy",
    "PriorityLruPolicy",
    "ReplacementPolicy",
    "TwoQPolicy",
    "make_policy",
]
