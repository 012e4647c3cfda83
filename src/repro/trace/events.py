"""Typed trace events emitted by every layer of the stack.

Each event is a small dataclass carrying the simulated ``time`` it was
emitted at plus layer-specific payload fields.  Class-level ``category``
(which subsystem) and ``kind`` (which transition) identify the event
without string fields per instance; the :class:`~repro.trace.tracer.Tracer`
stamps a process-wide ``seq`` number on emission so sinks can recover the
exact emission order even when simulated timestamps tie.

Events serialize to flat dictionaries (:meth:`TraceEvent.to_dict`) so the
JSONL sink and the CLI summary need no per-type knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple


@dataclass
class TraceEvent:
    """Base of all trace events: a timestamped, categorized record."""

    time: float

    #: Subsystem that emitted the event (``sim``/``disk``/``buffer``/...).
    category = "generic"
    #: Transition within the subsystem (``dispatch``/``queued``/...).
    kind = "event"
    #: Emission order stamp, assigned by the tracer (0 = never emitted).
    seq = 0

    def to_dict(self) -> Dict[str, object]:
        """Flat JSON-serializable view of the event."""
        record: Dict[str, object] = {
            "seq": self.seq,
            "category": self.category,
            "kind": self.kind,
        }
        for spec in fields(self):
            record[spec.name] = getattr(self, spec.name)
        return record


# ----------------------------------------------------------------------
# Simulation kernel
# ----------------------------------------------------------------------


@dataclass
class SimDispatch(TraceEvent):
    """One callback popped off the event queue at ``time``.  A
    ``Resource.hold`` served inline pops nothing, so it is not a dispatch;
    nor is a hop the kernel elides (a hold's grant with an empty ready
    lane, or its expiry leading its batch)."""

    queue_len: int = 0

    category = "sim"
    kind = "dispatch"


# ----------------------------------------------------------------------
# Disk device
# ----------------------------------------------------------------------


@dataclass
class DiskRequestQueued(TraceEvent):
    """A transfer entered the device queue."""

    start_page: int = 0
    n_pages: int = 0
    is_write: bool = False
    queue_len: int = 0

    category = "disk"
    kind = "queued"


@dataclass
class DiskServiceStart(TraceEvent):
    """The arm picked a request up; seek/transfer components resolved."""

    start_page: int = 0
    n_pages: int = 0
    is_write: bool = False
    sequential: bool = False
    seek_time: float = 0.0
    transfer_time: float = 0.0
    wait_time: float = 0.0

    category = "disk"
    kind = "service_start"


@dataclass
class DiskRequestComplete(TraceEvent):
    """A transfer finished; ``total_time`` spans submit to completion."""

    start_page: int = 0
    n_pages: int = 0
    is_write: bool = False
    service_time: float = 0.0
    total_time: float = 0.0

    category = "disk"
    kind = "complete"


# ----------------------------------------------------------------------
# Bufferpool
# ----------------------------------------------------------------------


@dataclass
class BufferFix(TraceEvent):
    """A fix classified by its first resolution path."""

    space_id: int = 0
    page_no: int = 0
    outcome: str = "hit"  # hit | miss | inflight_wait

    category = "buffer"
    kind = "fix"


@dataclass
class BufferRelease(TraceEvent):
    """An unfix carrying the release-priority transition."""

    space_id: int = 0
    page_no: int = 0
    priority: int = 0

    category = "buffer"
    kind = "release"


@dataclass
class BufferEvict(TraceEvent):
    """A victim left the pool."""

    space_id: int = 0
    page_no: int = 0

    category = "buffer"
    kind = "evict"


# ----------------------------------------------------------------------
# Scan sharing manager
# ----------------------------------------------------------------------


@dataclass
class ScanRegistered(TraceEvent):
    """A scan registered; includes the placement decision it received."""

    scan_id: int = 0
    table: str = ""
    first_page: int = 0
    last_page: int = 0
    start_page: int = 0
    joined_scan_id: Optional[int] = None
    joined_last_finished: bool = False

    category = "manager"
    kind = "register"


@dataclass
class ScanDeregistered(TraceEvent):
    """A scan finished and left the manager."""

    scan_id: int = 0
    table: str = ""
    pages_scanned: int = 0
    accumulated_delay: float = 0.0

    category = "manager"
    kind = "deregister"


@dataclass
class Regrouped(TraceEvent):
    """Groups were re-formed across all tables."""

    n_scans: int = 0
    n_groups: int = 0
    forced: bool = False
    group_sizes: Tuple[int, ...] = ()

    category = "manager"
    kind = "regroup"

    def to_dict(self) -> Dict[str, object]:
        record = super().to_dict()
        record["group_sizes"] = list(self.group_sizes)
        return record


@dataclass
class ThrottleEvaluated(TraceEvent):
    """One throttle evaluation with everything that went into it."""

    scan_id: int = 0
    group_id: int = -1
    distance: int = 0
    threshold: float = 0.0
    allowance: float = 0.0
    wait: float = 0.0
    capped_by_fairness: bool = False

    category = "manager"
    kind = "throttle"


@dataclass
class FairnessCapTripped(TraceEvent):
    """A scan hit the 80 % rule and is permanently exempt from now on."""

    scan_id: int = 0
    accumulated_delay: float = 0.0
    estimated_total_time: float = 0.0

    category = "manager"
    kind = "fairness_cap"


@dataclass
class ScanAborted(TraceEvent):
    """A scan died without finishing and was torn out of its group."""

    scan_id: int = 0
    table: str = ""
    pages_scanned: int = 0

    category = "manager"
    kind = "abort"


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------


@dataclass
class FaultScanKilled(TraceEvent):
    """The injector killed a scan mid-flight."""

    scan_id: int = 0
    target: str = ""
    pages_scanned: int = 0

    category = "fault"
    kind = "scan_kill"


@dataclass
class FaultDiskDelay(TraceEvent):
    """A disk service time was stretched by an active delay window."""

    start_page: int = 0
    factor: float = 1.0

    category = "fault"
    kind = "disk_delay"


@dataclass
class FaultDiskError(TraceEvent):
    """A disk request failed transiently and will be retried."""

    start_page: int = 0
    n_pages: int = 0
    retries: int = 0
    backoff: float = 0.0

    category = "fault"
    kind = "disk_error"


@dataclass
class FaultPoolPressure(TraceEvent):
    """A pressure window reserved (or released) bufferpool frames."""

    reserved: int = 0
    released: int = 0
    effective_capacity: int = 0

    category = "fault"
    kind = "pool_pressure"


@dataclass
class InvariantChecked(TraceEvent):
    """One full pass of the sharing-invariant checker."""

    n_scans: int = 0
    n_groups: int = 0
    strict_order: bool = False

    category = "fault"
    kind = "invariant"


# ----------------------------------------------------------------------
# Query service (admission control)
# ----------------------------------------------------------------------


@dataclass
class ServiceArrival(TraceEvent):
    """A request arrived at a service class and entered its queue."""

    request_id: int = 0
    service_class: str = ""
    query: str = ""
    queue_len: int = 0

    category = "service"
    kind = "arrival"


@dataclass
class ServiceAdmitted(TraceEvent):
    """A queued request was admitted and began executing."""

    request_id: int = 0
    service_class: str = ""
    waited: float = 0.0
    running: int = 0

    category = "service"
    kind = "admit"


@dataclass
class ServiceCompleted(TraceEvent):
    """An admitted request finished; ``latency`` spans arrival to finish."""

    request_id: int = 0
    service_class: str = ""
    latency: float = 0.0
    waited: float = 0.0

    category = "service"
    kind = "complete"


@dataclass
class ServiceAbandoned(TraceEvent):
    """A queued request ran out of patience and left without service."""

    request_id: int = 0
    service_class: str = ""
    waited: float = 0.0

    category = "service"
    kind = "abandon"


@dataclass
class ServiceMplChanged(TraceEvent):
    """The admission controller moved the MPL bound."""

    old_mpl: int = 0
    new_mpl: int = 0
    miss_rate: float = 0.0
    pool_pressure: float = 0.0
    mean_speed: float = 0.0

    category = "service"
    kind = "mpl"


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------


@dataclass
class QueryStarted(TraceEvent):
    """A query began executing on a stream."""

    stream_id: int = 0
    query: str = ""

    category = "query"
    kind = "start"


@dataclass
class QueryFinished(TraceEvent):
    """A query completed; ``elapsed`` is its simulated span."""

    stream_id: int = 0
    query: str = ""
    elapsed: float = 0.0
    pages_scanned: int = 0
    throttle_seconds: float = 0.0

    category = "query"
    kind = "finish"
