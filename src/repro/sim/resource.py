"""Counted resources with FIFO grant order and utilization tracking.

A :class:`Resource` models a pool of identical servers (CPU cores, disk
arms).  Processes ``yield resource.acquire()`` and later ``release()``, or
occupy a slot for a known time with :meth:`Resource.hold`.  Grants are
strictly FIFO, which keeps simulations deterministic and avoids starvation.

Every capacity change is recorded on a :class:`~repro.sim.timeline.StepTimeline`
so that the metrics layer can later compute utilization integrals and
derive iostat-style breakdowns.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.sim.events import _INF, Event, SimulationError
from repro.sim.kernel import Simulator
from repro.sim.timeline import StepTimeline


class _Hold(Event):
    """What :meth:`Resource.hold` returns when it cannot run inline.  Its
    steps are queued where acquire -> timeout -> release queued the holder's
    resume (ready lane), the timeout's expiry (heap) and the resume again."""

    __slots__ = ("_resource", "_seconds")

    def _granted(self) -> None:
        # The clock starts only now, so the expiry gets the heap sequence
        # number the timeout used to get.
        sim = self.sim
        sim._queue.push(sim._now + self._seconds, self._expired)

    def _expired(self) -> None:
        self.sim.schedule(0.0, self._finish)

    def _finish(self) -> None:
        # Release first (a waiter's grant queues ahead of whatever the
        # holder does next), then resume the holder in this dispatch.
        self._resource.release()
        self._triggered = True
        for callback in self._callbacks:
            callback(self)


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
        the caller yields the returned event once; the slot is freed at
        expiry even if the caller has stopped waiting by then.
        """
        if not 0.0 <= seconds < _INF:
            raise SimulationError(
                f"hold seconds must be finite and >= 0, got {seconds!r}"
            )
        if self._in_use < self.capacity and not self._waiters:
            sim = self.sim
            queue = sim._queue
            heap = queue._heap
            end = sim._now + seconds
            if (
                end <= sim._hold_horizon
                and not queue._ready
                and (not heap or heap[0][0] > end)
            ):
                self.busy_timeline.pulse(sim._now, end, self._in_use)
                sim._now = queue._time = end
                return None
        held = _Hold(self.sim)
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
        self.busy_timeline.record(self.sim.now, self._in_use)
        if self._waiters and self._in_use < self.capacity:
            self._grant(self._waiters.popleft())

    def _grant(self, ev: Event) -> None:
        self._in_use += 1
        self.busy_timeline.record(self.sim.now, self._in_use)
        if type(ev) is _Hold:
            # The ready-lane entry where the holder's resume used to sit.
            self.sim.schedule(0.0, ev._granted)
        else:
            ev.succeed(self)

    def busy_time(self, until: float) -> float:
        """Integral of (slots in use) over time, in slot-seconds."""
        return self.busy_timeline.integral(until)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Resource {self.name} {self._in_use}/{self.capacity} busy, "
            f"{len(self._waiters)} waiting>"
        )
