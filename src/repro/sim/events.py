"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence that processes can wait on.  It
starts *pending*, and is later *triggered* exactly once with either a value
(:meth:`Event.succeed`) or an exception (:meth:`Event.fail`).  Callbacks
registered on a pending event run when it triggers; callbacks added after
triggering are scheduled immediately at the current simulation time.

The :class:`EventQueue` is a deterministic priority queue of ``(time, seq)``
ordered callbacks used internally by the simulator.  Since the batched
dispatch rework it is split into two lanes:

* a *ready slab* (:attr:`EventQueue._ready`) — a FIFO of bare callbacks due
  at exactly the queue's current time.  Zero-delay scheduling (event
  triggers, process starts, resource grants — the majority of all pushes)
  costs one append here: no entry tuple, no sequence number, no heap
  sift;
* a *heap* of ``(time, seq, callback)`` entries for strictly-future times.

Because a push routes to the slab **only** when its time is exactly the
current time, and the current time only advances when the slab is empty,
the drain order (all heap entries at the new time in sequence order, then
the slab FIFO) is identical to the old single-heap ``(time, seq)`` order —
the Hypothesis equivalence property in ``tests/test_sim_events.py`` pins
this against a copy of the legacy implementation.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, List, Optional, Tuple

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (double trigger, etc.)."""


class Event:
    """A one-shot occurrence that simulation processes can wait on."""

    __slots__ = ("sim", "_callbacks", "_triggered", "_value", "_is_error")

    def __init__(self, sim: "Any"):
        self.sim = sim
        self._callbacks: List[Callable[["Event"], None]] = []
        self._triggered = False
        self._value: Any = None
        self._is_error = False

    @property
    def triggered(self) -> bool:
        """Whether the event has already occurred."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The value the event succeeded with (or the stored exception)."""
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        return self._value

    @property
    def failed(self) -> bool:
        """Whether the event was triggered via :meth:`fail`."""
        return self._triggered and self._is_error

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(self)`` when the event triggers.

        If the event already triggered, the callback lands on the ready
        slab at the current simulation time (preserving run-to-completion
        semantics rather than invoking it re-entrantly).
        """
        if self._triggered:
            self.sim.schedule(0.0, partial(callback, self))
        else:
            self._callbacks.append(callback)

    def remove_callback(self, callback: Callable[["Event"], None]) -> None:
        """Detach a pending ``callback``; a no-op if it is not registered
        (or the event already triggered and flushed its callback list)."""
        try:
            self._callbacks.remove(callback)
        except ValueError:
            pass

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        self._trigger(value, is_error=False)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, raised in each waiter."""
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail requires an exception instance")
        self._trigger(exception, is_error=True)
        return self

    def _trigger(self, value: Any, is_error: bool) -> None:
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._value = value
        self._is_error = is_error
        callbacks, self._callbacks = self._callbacks, []
        # partial() beats a closure here: C-level allocation, no cell vars,
        # and this runs once per waiter on every trigger.  Multi-waiter
        # triggers go through the bulk-schedule API: one queue call for
        # the whole waiter list instead of one heap/slab touch each.
        n = len(callbacks)
        if n == 1:
            self.sim.schedule(0.0, partial(callbacks[0], self))
        elif n:
            self.sim.schedule_many(
                0.0, [partial(callback, self) for callback in callbacks]
            )


class Timeout(Event):
    """An event that is its own expiry callback: ``Simulator.timeout``
    pushes the event itself onto the queue, one allocation per timeout."""

    __slots__ = ("_scheduled_value",)

    def __init__(self, sim: "Any", value: Any = None):
        super().__init__(sim)
        self._scheduled_value = value

    def __call__(self) -> None:
        self.succeed(self._scheduled_value)


class _Hold(Event):
    """What :meth:`~repro.sim.resource.Resource.hold` returns when it cannot
    run inline; like :class:`Timeout`, its own expiry callback.  Its grant
    (:meth:`_granted`), expiry and :meth:`_finish` hops sit where acquire ->
    timeout -> release queued the holder's resumes; ``hold`` and the event
    loop elide the first two where nothing could run in between.  It has
    one waiter, resumed in the finish's dispatch."""

    __slots__ = ("_resource", "_seconds")

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self._callbacks or self._triggered:
            raise SimulationError("a hold has one waiter, added before it ends")
        self._callbacks.append(callback)

    def _granted(self) -> None:
        # The clock starts only now, so the expiry gets the heap sequence
        # number the timeout used to get.  A delay the clock absorbs
        # (``now + seconds == now``) is due now: ``push`` routes it.
        sim = self.sim
        queue = sim._queue
        end = sim._now + self._seconds
        if queue._time < end < _INF:
            heappush(queue._heap, (end, queue._seq, self))
            queue._seq += 1
        else:
            queue.push(end, self)

    def __call__(self) -> None:
        # Dispatched, so the clock is the queue's cursor: due now.
        self.sim._queue._ready.append(self._finish)

    def _finish(self) -> None:
        # ``Resource.release`` inlined first (a waiter's grant queues ahead
        # of whatever the holder does next), then the holder resumes.
        resource = self._resource
        in_use = resource._in_use - 1
        if in_use < 0:
            raise SimulationError(f"release on idle resource {resource.name!r}")
        resource._in_use = in_use
        resource.busy_timeline.record(self.sim._now, in_use)
        if resource._waiters and in_use < resource.capacity:
            resource._grant(resource._waiters.popleft())
        self._triggered = True
        for callback in self._callbacks:
            callback(self)


#: A raw heap entry: ``(time, seq, callback)``.  ``seq`` breaks time
#: ties in insertion order and is internal to the queue.
QueueEntry = Tuple[float, int, Callable[[], None]]


class EventQueue:
    """Deterministic time-ordered callback queue.

    Entries are ordered by ``(time, sequence_number)`` so that callbacks
    scheduled for the same instant run in insertion order, which makes
    every simulation fully reproducible.

    The queue owns the *time cursor* ``_time``: pushes at exactly the
    cursor go to the ready slab (FIFO — their insertion order **is**
    their sequence order, because the cursor only advances once the slab
    is empty), pushes at strictly later times go to the heap, and pushes
    into the past raise :class:`SimulationError` immediately instead of
    corrupting the heap order.
    """

    __slots__ = ("_heap", "_ready", "_seq", "_time")

    def __init__(self) -> None:
        self._heap: List[QueueEntry] = []
        self._ready: deque = deque()
        self._seq = 0
        self._time = 0.0

    def __len__(self) -> int:
        return len(self._heap) + len(self._ready)

    @property
    def time(self) -> float:
        """The queue's time cursor (the time of the ready slab)."""
        return self._time

    def push(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run at absolute simulation ``time``."""
        if time > self._time:
            if time == _INF:
                raise SimulationError("cannot schedule at time=inf")
            heappush(self._heap, (time, self._seq, callback))
            self._seq += 1
        elif time == self._time:
            self._ready.append(callback)
        else:
            # NaN falls through both comparisons above.
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self._time})"
            )

    def push_many(
        self, time: float, callbacks: Iterable[Callable[[], None]]
    ) -> None:
        """Bulk-schedule ``callbacks`` at ``time`` in iteration order.

        Equivalent to ``push`` in a loop, but the time routing and (for
        future times) the sequence-counter bookkeeping happen once for
        the whole batch.  The due-now case — every waiter of a triggered
        event — is a single ``deque.extend``.
        """
        if time > self._time:
            if time == _INF:
                raise SimulationError("cannot schedule at time=inf")
            heap = self._heap
            seq = self._seq
            for callback in callbacks:
                heappush(heap, (time, seq, callback))
                seq += 1
            self._seq = seq
        elif time == self._time:
            self._ready.extend(callbacks)
        else:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self._time})"
            )

    def peek_time(self) -> Optional[float]:
        """Return the time of the next scheduled callback, if any."""
        heap = self._heap
        if self._ready and (not heap or heap[0][0] > self._time):
            return self._time
        if not heap:
            return None
        return heap[0][0]

    def pop(self) -> Tuple[float, Callable[[], None]]:
        """Remove and return ``(time, callback)`` for the next entry.

        Heap entries at the cursor time pop before slab entries (they
        were pushed before the cursor reached their time, so their
        sequence numbers are smaller); the cursor advances to the popped
        entry's time.
        """
        heap = self._heap
        if self._ready and (not heap or heap[0][0] > self._time):
            return self._time, self._ready.popleft()
        time, _seq, callback = heappop(heap)
        if time > self._time:
            self._time = time
        return time, callback
