"""The simulator: clock + event loop + process spawning."""

from __future__ import annotations

from heapq import heappop
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.sim.events import Event, EventQueue, SimulationError, Timeout
from repro.sim.process import Process
from repro.trace.events import SimDispatch
from repro.trace.tracer import TracerHandle

#: Cached tracer reference for the dispatch loop, revalidated against the
#: tracer generation counter — one integer compare per dispatch instead of
#: a ``get_tracer()`` call, while sink swaps mid-run are still picked up.
_TRACER = TracerHandle()

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

    ``trace_dispatch_sample`` controls :class:`SimDispatch` emission: 1
    (the default) traces every dispatch exactly as before, ``N`` emits
    every Nth, and 0 disables dispatch tracing entirely — the event loop
    then pays **zero** per-event tracer checks, which is what soak-scale
    runs want (buffer/disk/scan events are unaffected).
    """

    def __init__(self, trace_dispatch_sample: int = 1) -> None:
        if trace_dispatch_sample < 0:
            raise SimulationError(
                f"trace_dispatch_sample must be >= 0, got {trace_dispatch_sample}"
            )
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        self.trace_dispatch_sample = trace_dispatch_sample
        self._trace_countdown = max(trace_dispatch_sample, 0) or 1

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

        The returned :class:`~repro.sim.events.Timeout` is queued as its
        own callback, so a timeout costs one allocation, not two.  Like
        :meth:`schedule`, non-finite delays raise.
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
        to exactly ``until``).  Returns the final simulation time.

        The loop body is the hottest code in the package: every simulated
        page touch, disk completion, and throttle wait dispatches through
        here.  It drains in two nested lanes: the ready slab (due-now
        callbacks, one ``popleft`` each — no heap op, no ``until``
        re-check, no time comparison) and same-timestamp heap runs (the
        clock, the ``until`` bound, and the queue's time cursor are
        updated once per distinct timestamp, not once per dispatch).
        """
        if self._running:
            raise SimulationError("Simulator.run called re-entrantly")
        self._running = True
        try:
            now = self._now
            if until is not None and until < now:
                # A bound already in the past never dispatches anything.
                # Legacy quirk, preserved: the clock moves to the bound
                # only when work is still pending.
                if len(self._queue):
                    self._now = until
                    return until
                return now
            queue = self._queue
            heap = queue._heap
            ready = queue._ready
            pop_ready = ready.popleft
            sample = self.trace_dispatch_sample
            countdown = self._trace_countdown
            tracer_of = _TRACER.active
            while True:
                while ready:
                    callback = pop_ready()
                    if sample:
                        countdown -= 1
                        if countdown <= 0:
                            countdown = sample
                            tracer = tracer_of()
                            if tracer is not None:
                                tracer.emit(SimDispatch(
                                    time=now,
                                    queue_len=len(heap) + len(ready),
                                ))
                    callback()
                if not heap:
                    break
                time = heap[0][0]
                if until is not None and time > until:
                    now = until
                    break
                now = time
                self._now = time
                queue._time = time
                while True:
                    entry = heappop(heap)
                    if sample:
                        countdown -= 1
                        if countdown <= 0:
                            countdown = sample
                            tracer = tracer_of()
                            if tracer is not None:
                                tracer.emit(SimDispatch(
                                    time=now,
                                    queue_len=len(heap) + len(ready),
                                ))
                    entry[2]()
                    if not heap or heap[0][0] != time:
                        break
            if until is not None and until > now:
                now = until
            self._now = now
            self._trace_countdown = countdown
            return now
        finally:
            self._running = False
