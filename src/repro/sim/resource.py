"""Counted resources with FIFO grant order and utilization tracking.

A :class:`Resource` models a pool of identical servers (CPU cores, disk
arms).  Processes ``yield resource.acquire()`` and later ``release()``, or
occupy a slot for a known time with :meth:`Resource.hold`.  Grants are
strictly FIFO, which keeps simulations deterministic and avoids starvation.

Every capacity change is recorded on a :class:`~repro.sim.timeline.StepTimeline`
so that the metrics layer can later derive iostat-style breakdowns.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.sim.events import _INF, Event, SimulationError, _Hold
from repro.sim.kernel import Simulator
from repro.sim.timeline import StepTimeline


class Resource:
    """A counted FIFO resource (e.g. ``capacity`` CPU cores)."""

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        self.busy_timeline = StepTimeline(initial=0)

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of processes waiting for a slot."""
        return len(self._waiters)

    def acquire(self) -> Event:
        """Request one slot; the returned event succeeds when granted."""
        return self._request(Event(self.sim))

    def hold(self, seconds: float) -> Optional[Event]:
        """``yield acquire()``, ``yield sim.timeout(seconds)``, ``release()``
        as one call.

        Returns ``None`` when the hold is already over: nothing else could
        have run before it expired (a free slot and no waiter, an empty
        ready lane, the next heap entry strictly later than the expiry —
        one *at* it was pushed earlier and pops first — and the expiry
        within the ``run`` bound), so the clock was moved here.  Otherwise
        the caller yields the returned event at once, before scheduling
        anything, so a grant with an empty ready lane can push the expiry.
        """
        if not 0.0 <= seconds < _INF:
            raise SimulationError(
                f"hold seconds must be finite and >= 0, got {seconds!r}"
            )
        sim = self.sim
        queue = sim._queue
        end = sim._now + seconds
        if self._in_use < self.capacity and not self._waiters and not queue._ready:
            heap = queue._heap
            if end <= sim._hold_horizon and (not heap or heap[0][0] > end):
                self.busy_timeline.pulse(sim._now, end, self._in_use)
                sim._now = queue._time = end
                return None
            if sim._running:
                # Nothing runs before the caller yields: no grant hop.
                held = _Hold(sim)
                held._resource = self
                self._in_use += 1
                self.busy_timeline.record(sim._now, self._in_use)
                queue.push(end, held)
                return held
        held = _Hold(sim)
        held._resource = self
        held._seconds = seconds
        return self._request(held)

    def _request(self, ev: Event) -> Event:
        if self._in_use < self.capacity and not self._waiters:
            self._grant(ev)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Return one previously granted slot."""
        if self._in_use <= 0:
            raise SimulationError(f"release on idle resource {self.name!r}")
        self._in_use -= 1
        self.busy_timeline.record(self.sim._now, self._in_use)
        if self._waiters and self._in_use < self.capacity:
            self._grant(self._waiters.popleft())

    def _grant(self, ev: Event) -> None:
        self._in_use += 1
        self.busy_timeline.record(self.sim._now, self._in_use)
        if type(ev) is _Hold:
            # The ready-lane entry where the holder's resume used to sit.
            # A grant from release() keeps it: the releasing holder resumes
            # in this dispatch and may push at the waiter's expiry instant.
            self.sim.schedule(0.0, ev._granted)
        else:
            ev.succeed(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Resource {self.name} {self._in_use}/{self.capacity} busy, "
            f"{len(self._waiters)} waiting>"
        )
