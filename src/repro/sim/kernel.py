"""The simulator: clock + event loop + process spawning."""

from __future__ import annotations

from heapq import heappop
from typing import Any, Callable, Generator, Iterable, List, Optional

import repro.trace.tracer as trace_slot
from repro.sim.events import Event, EventQueue, SimulationError, Timeout, _Hold
from repro.sim.process import Process
from repro.trace.events import SimDispatch

_INF = float("inf")


class Simulator:
    """Deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(1.5)
            return "done"

        proc = sim.spawn(worker(sim), name="worker")
        sim.run()
        assert sim.now == 1.5
        assert proc.completion.value == "done"

    Every dispatch emits a :class:`SimDispatch` while a tracer is
    attached (``repro.trace.tracer.active``); with none attached the loop
    pays one attribute read per dispatch.
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        #: Latest time an inline ``Resource.hold`` may move the clock to:
        #: the active ``run(until=...)`` bound, ``-inf`` outside ``run``.
        self._hold_horizon = -_INF

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` simulated seconds.

        ``delay`` must be finite and non-negative; NaN and infinity raise
        :class:`SimulationError` immediately (a NaN-timed entry would
        silently corrupt the queue order, an infinite one would never
        run).
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"delay must be finite and >= 0, got {delay!r}"
            )
        self._queue.push(self._now + delay, callback)

    def schedule_many(
        self, delay: float, callbacks: Iterable[Callable[[], None]]
    ) -> None:
        """Bulk-schedule ``callbacks`` at the same instant, in order.

        One queue operation for the whole batch; semantically identical
        to calling :meth:`schedule` once per callback.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"delay must be finite and >= 0, got {delay!r}"
            )
        self._queue.push_many(self._now + delay, callbacks)

    def event(self) -> Event:
        """Create a fresh untriggered event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """Return an event that succeeds ``delay`` seconds from now.

        Like :meth:`schedule`, non-finite delays raise.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"timeout delay must be finite and >= 0, got {delay!r}"
            )
        ev = Timeout(self, value)
        self._queue.push(self._now + delay, ev)
        return ev

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from ``generator`` at the current time."""
        return Process(self, generator, name=name)

    def all_of(self, events: List[Event]) -> Event:
        """Return an event that succeeds once every event in ``events`` has.

        The combined event's value is the list of individual values, in the
        order given.  If any constituent fails, the combined event fails
        with the first failure and detaches from the still-pending
        constituents, so their later triggers no longer invoke the
        aggregation callback.
        """
        combined = Event(self)
        remaining = {"count": len(events)}
        if remaining["count"] == 0:
            combined.succeed([])
            return combined

        def on_done(_event: Event) -> None:
            if combined.triggered:
                return
            if _event.failed:
                combined.fail(_event.value)
                for ev in events:
                    if not ev.triggered:
                        ev.remove_callback(on_done)
                return
            remaining["count"] -= 1
            if remaining["count"] == 0:
                combined.succeed([ev.value for ev in events])

        for ev in events:
            ev.add_callback(on_done)
        return combined

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run the event loop.

        Processes callbacks in time order until the queue drains, or until
        simulated time would exceed ``until`` (the clock is then advanced
        to exactly ``until``; a bound already in the past does nothing).
        Returns the final simulation time.

        The loop body is the hottest code in the package: every simulated
        page touch, disk completion, and throttle wait dispatches through
        here.  There is one dispatch site, the ready slab (one ``popleft``
        each — no heap op, no ``until`` re-check, no time comparison);
        the clock, the ``until`` bound and the queue's time cursor are
        updated once per distinct timestamp, when that timestamp's heap
        entries move onto the slab.  A hold expiry that leads its batch is
        never dispatched: its finish goes straight behind the batch, where
        the expiry's one action would have put it.  A callback may move the
        clock itself (an inline :meth:`~repro.sim.resource.Resource.hold`),
        so the loop reads it from ``self``, never from a local copy.
        """
        if self._running:
            raise SimulationError("Simulator.run called re-entrantly")
        self._running = True
        try:
            if until is not None and until < self._now:
                return self._now
            self._hold_horizon = _INF if until is None else until
            queue = self._queue
            heap = queue._heap
            ready = queue._ready
            pop_ready = ready.popleft
            while True:
                while ready:
                    callback = pop_ready()
                    tracer = trace_slot.active
                    if tracer is not None:
                        tracer.emit(SimDispatch(
                            time=self._now,
                            queue_len=len(heap) + len(ready),
                        ))
                    callback()
                if not heap or (until is not None and heap[0][0] > until):
                    break
                self._now = queue._time = time = heap[0][0]
                # The heap's entries for ``time`` were pushed before the clock
                # got there: they run ahead of what they schedule for ``time``;
                # leading hold expiries are replaced by their finishes.
                callback = heappop(heap)[2]
                while type(callback) is _Hold:
                    ready.append(callback._finish)
                    if not heap or heap[0][0] != time:
                        break
                    callback = heappop(heap)[2]
                else:
                    leading = len(ready)
                    ready.append(callback)
                    while heap and heap[0][0] == time:
                        ready.append(heappop(heap)[2])
                    if leading:
                        ready.rotate(-leading)
            if until is not None and until > self._now:
                self._now = until
            return self._now
        finally:
            self._running = False
            self._hold_horizon = -_INF
