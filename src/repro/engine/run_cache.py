"""Per-database memo of what a classic pipeline computes for one run.

Concurrent scans of one query template over the same pages push
identical runs through identical pipelines.  Simulated CPU is still
charged per scan; this cache only lets the host do the numpy work once.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, List, NamedTuple, Optional, Sequence, Tuple

#: Entries one cache holds before it evicts the least recently used.
RUN_CACHE_ENTRIES = 256


class RunResult(NamedTuple):
    """What :meth:`~repro.engine.operators.Pipeline.process_run` did for
    one run: replaying it onto a pipeline's operators is the same as
    pushing the run through them.  Shared by every scan that replays it,
    hence read-only: scans index ``seconds``, and ``_merge`` copies the
    slots of a group it has not seen."""

    seconds: List[float]  # CPU seconds to charge per page
    rows: int  # rows fed to the pipeline (and its filter)
    rows_out: int  # rows that passed the filter (0 without one)
    partials: Sequence[Tuple[Tuple, Sequence]]  # what the aggregate merged


class BoundedCache:
    """A map keeping its :data:`RUN_CACHE_ENTRIES` most recently used
    entries."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[object]:
        """The value stored under ``key``, or None."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: object) -> None:
        """Store ``value``, evicting the least recently used entry when
        the cache is full."""
        self._entries[key] = value
        if len(self._entries) > RUN_CACHE_ENTRIES:
            self._entries.popitem(last=False)
