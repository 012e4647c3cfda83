"""Victim-selection policies: priority-LRU, and PBM under PBM sharing."""

from repro.buffer.replacement.base import ReplacementPolicy
from repro.buffer.replacement.pbm import PbmPolicy
from repro.buffer.replacement.priority_lru import PriorityLruPolicy

__all__ = [
    "PbmPolicy",
    "PriorityLruPolicy",
    "ReplacementPolicy",
]
