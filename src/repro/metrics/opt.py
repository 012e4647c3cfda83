"""Belady's OPT: the fewest misses any cache of a given size can take.

The offline yardstick for the bufferpool's victim policy.  Given the
order in which a run fixed its pages, OPT evicts the resident page whose
next use lies farthest in the future (Belady, 1966), which no online
policy can beat on the same reference string.  It ignores pins and
prefetch runs, so for a pool of ``capacity`` frames it is a lower bound
on the pages that run read: physical reads below it mean the read
accounting is broken.

:func:`recorded_fixes` captures a run's fix stream from
:class:`~repro.trace.events.BufferFix` events through a sink on the
installed tracer, so it also works inside ``repro trace``.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import Dict, Hashable, Iterator, List, Sequence, Set, Tuple

from repro.trace.events import BufferFix, TraceEvent
from repro.trace.sinks import TraceSink
from repro.trace.tracer import get_tracer


def opt_misses(stream: Sequence[Hashable], capacity: int) -> int:
    """Misses of Belady's OPT on ``stream`` with ``capacity`` frames.

    O(n log n): one backward pass gives every reference the index of its
    page's next use, and a max-heap over those indices yields the
    resident page used farthest ahead.  A hit leaves the page's older
    entry in the heap, but that entry holds an index already reached,
    below every resident page's next use, so it never surfaces at a miss.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    n = len(stream)
    next_use = [0] * n
    later: Dict[Hashable, int] = {}
    for i in range(n - 1, -1, -1):
        page = stream[i]
        # A page never used again gets its own index past the end, so
        # no two heap keys tie and pages are never compared.
        next_use[i] = later.get(page, n + i)
        later[page] = i
    resident: Set[Hashable] = set()
    heap: List[Tuple[int, Hashable]] = []  # (-next use, page)
    misses = 0
    for i, page in enumerate(stream):
        if page not in resident:
            misses += 1
            if len(resident) == capacity:
                resident.remove(heapq.heappop(heap)[1])
            resident.add(page)
        heapq.heappush(heap, (-next_use[i], page))
    return misses


class _FixStreamSink(TraceSink):
    """Keeps the ``(space_id, page_no)`` of every fix, in fix order."""

    def __init__(self) -> None:
        self.pages: List[Tuple[int, int]] = []

    def write(self, event: TraceEvent) -> None:
        if type(event) is BufferFix:
            self.pages.append((event.space_id, event.page_no))


@contextmanager
def recorded_fixes() -> Iterator[List[Tuple[int, int]]]:
    """The fix stream of the code run inside, as a list that fills up.

    The sink joins whatever tracer is installed and leaves it on exit,
    so the tracer's own sinks see exactly the events they would have.
    """
    sink = _FixStreamSink()
    tracer = get_tracer()
    tracer.add_sink(sink)
    try:
        yield sink.pages
    finally:
        tracer.remove_sink(sink)
