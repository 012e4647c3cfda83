"""repro.trace — structured event tracing across the whole stack.

Every layer (sim kernel, disk, bufferpool, sharing manager, executor)
emits typed events through one process-wide :class:`Tracer`.  With no
sink installed the tracer is disabled and every call site short-circuits
on ``tracer.enabled`` — tracing off is a no-op.

Typical use::

    from repro.trace import RingBufferSink, tracing

    sink = RingBufferSink(capacity=50_000)
    with tracing(sink):
        run_workload(db, streams)
    events = sink.events()

or from the command line: ``python -m repro trace e4 --out run.jsonl``.
"""

from repro.trace.events import (
    BufferEvict,
    BufferFix,
    BufferRelease,
    DiskRequestComplete,
    DiskRequestQueued,
    DiskServiceStart,
    FairnessCapTripped,
    QueryFinished,
    QueryStarted,
    Regrouped,
    ScanDeregistered,
    ScanRegistered,
    ServiceAbandoned,
    ServiceAdmitted,
    ServiceArrival,
    ServiceCompleted,
    ServiceMplChanged,
    SimDispatch,
    ThrottleEvaluated,
    TraceEvent,
)
from repro.trace.sinks import JsonlSink, NullSink, RingBufferSink, TraceSink
from repro.trace.summary import render_summary, summarize
from repro.trace.tracer import (
    Tracer,
    get_tracer,
    set_tracer,
    tracing,
)

__all__ = [
    "BufferEvict",
    "BufferFix",
    "BufferRelease",
    "DiskRequestComplete",
    "DiskRequestQueued",
    "DiskServiceStart",
    "FairnessCapTripped",
    "JsonlSink",
    "NullSink",
    "QueryFinished",
    "QueryStarted",
    "Regrouped",
    "RingBufferSink",
    "ScanDeregistered",
    "ScanRegistered",
    "ServiceAbandoned",
    "ServiceAdmitted",
    "ServiceArrival",
    "ServiceCompleted",
    "ServiceMplChanged",
    "SimDispatch",
    "ThrottleEvaluated",
    "TraceEvent",
    "TraceSink",
    "Tracer",
    "get_tracer",
    "render_summary",
    "set_tracer",
    "summarize",
    "tracing",
]
