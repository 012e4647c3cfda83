"""The process-wide tracer.

One :class:`Tracer` exists per process (replaceable for tests via
:func:`set_tracer` or the :func:`tracing` context manager).  Subsystems
emit through one pattern::

    import repro.trace.tracer as trace_slot

    tracer = trace_slot.active
    if tracer is not None:
        tracer.emit(DiskRequestQueued(time=now, ...))

:data:`active` is the installed tracer while it has a sink and ``None``
otherwise, so tracing off costs one module-attribute read per potential
event and allocates nothing, which is what the E1 overhead band holds
the line on.  :func:`get_tracer` and :attr:`Tracer.enabled` answer the
same question for callers outside the package.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence

from repro.trace.events import TraceEvent
from repro.trace.sinks import TraceSink


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
        _update_active()
        return sink

    def remove_sink(self, sink: TraceSink) -> None:
        """Detach a sink; the tracer disables itself when none remain."""
        self._sinks.remove(sink)
        _update_active()

    def close(self) -> None:
        """Close every sink and detach them all."""
        for sink in self._sinks:
            sink.close()
        self._sinks = []
        _update_active()


#: The process-wide tracer.  Disabled (no sinks) by default, so tracing
#: is a no-op unless a sink is installed.
_tracer = Tracer()

#: The installed tracer when it has a sink, else ``None``: what every
#: emitting call site reads (see the module docstring).  Every tracer swap
#: and sink change updates it, so the very next event sees the change.
active: Optional[Tracer] = None


def _update_active() -> None:
    global active
    active = _tracer if _tracer._sinks else None


def get_tracer() -> Tracer:
    """The current process-wide tracer."""
    return _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` process-wide; returns the previous one."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    _update_active()
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
