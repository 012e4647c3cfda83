"""The process-wide tracer.

One :class:`Tracer` exists per process (replaceable for tests via
:func:`set_tracer` or the :func:`tracing` context manager).  Subsystems
emit through the pattern::

    tracer = get_tracer()
    if tracer.enabled:
        tracer.emit(DiskRequestQueued(time=now, ...))

The ``enabled`` guard keeps hot paths allocation-free when no sink is
installed: a disabled tracer costs one attribute check per potential
event, which is what the E1 overhead band holds the line on.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence

from repro.trace.events import TraceEvent
from repro.trace.sinks import TraceSink


#: Monotonic counter bumped whenever the process-wide tracer is swapped
#: or any tracer's sink set changes.  Hot paths cache a tracer reference
#: in a :class:`TracerHandle` and revalidate it with one integer compare
#: instead of calling :func:`get_tracer` on every potential event.
_generation = 0


def _bump_generation() -> None:
    global _generation
    _generation += 1


def tracer_generation() -> int:
    """The current tracer/sink-change generation (for cached handles)."""
    return _generation


class Tracer:
    """Stamps emission order onto events and fans them out to sinks."""

    __slots__ = ("_sinks", "_seq")

    def __init__(self, sinks: Optional[Sequence[TraceSink]] = None):
        self._sinks: List[TraceSink] = list(sinks or [])
        self._seq = 0

    @property
    def enabled(self) -> bool:
        """True when at least one sink will receive events."""
        return bool(self._sinks)

    @property
    def events_emitted(self) -> int:
        """Number of events emitted so far (the current seq stamp)."""
        return self._seq

    def emit(self, event: TraceEvent) -> None:
        """Stamp ``event`` and deliver it to every sink."""
        if not self._sinks:
            return
        self._seq += 1
        event.seq = self._seq
        for sink in self._sinks:
            sink.write(event)

    def add_sink(self, sink: TraceSink) -> TraceSink:
        """Attach a sink (enabling the tracer); returns it for chaining."""
        self._sinks.append(sink)
        _bump_generation()
        return sink

    def remove_sink(self, sink: TraceSink) -> None:
        """Detach a sink; the tracer disables itself when none remain."""
        self._sinks.remove(sink)
        _bump_generation()

    def close(self) -> None:
        """Close every sink and detach them all."""
        for sink in self._sinks:
            sink.close()
        self._sinks = []
        _bump_generation()


class TracerHandle:
    """A cached reference to the process-wide tracer for hot paths.

    ``get_tracer()`` plus the ``enabled`` property cost a function call
    and a descriptor lookup per potential event; a handle amortizes both
    to one integer compare.  The cache is revalidated against the module
    generation counter, so swapping tracers (``set_tracer``/``tracing``)
    or mutating any tracer's sink set mid-run is picked up on the very
    next event::

        _TRACER = TracerHandle()          # module level, next to imports

        tracer = _TRACER.active()         # in the hot path
        if tracer is not None:
            tracer.emit(...)
    """

    __slots__ = ("_tracer", "_generation")

    def __init__(self) -> None:
        self._tracer: Optional[Tracer] = None
        self._generation = -1

    def active(self) -> Optional[Tracer]:
        """The current tracer if it has at least one sink, else ``None``."""
        if self._generation != _generation:
            self._tracer = _tracer
            self._generation = _generation
        tracer = self._tracer
        return tracer if tracer._sinks else None


#: The process-wide tracer.  Disabled (no sinks) by default, so tracing
#: is a no-op unless a sink is installed.
_tracer = Tracer()


def get_tracer() -> Tracer:
    """The current process-wide tracer."""
    return _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` process-wide; returns the previous one."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    _bump_generation()
    return previous


@contextmanager
def tracing(*sinks: TraceSink) -> Iterator[Tracer]:
    """Temporarily install a fresh tracer writing to ``sinks``.

    Restores the previous tracer (and closes the temporary one's sinks)
    on exit — the idiom tests and the CLI use::

        with tracing(RingBufferSink()) as tracer:
            run_workload(db, streams)
    """
    tracer = Tracer(sinks)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
        tracer.close()
