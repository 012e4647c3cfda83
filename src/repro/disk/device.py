"""The simulated disk: FIFO request queue over a seek/transfer model.

Requests are serviced one at a time in arrival order (a single-arm device
behind a simple elevator-less controller — the worst case the paper's
seek-reduction argument is made against).  Each request reads or writes a
*contiguous* run of pages; callers that want scattered pages issue several
requests.  The device keeps a head-position cursor so consecutive requests
from well-grouped scans are recognized as sequential and skip the seek.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from repro.disk.geometry import DiskGeometry
from repro.disk.stats import DiskStats
from repro.sim.events import Event, SimulationError
from repro.sim.kernel import Simulator
from repro.sim.timeline import StepTimeline
from repro.trace.events import (
    DiskRequestComplete,
    DiskRequestQueued,
    DiskServiceStart,
)
import repro.trace.tracer as trace_slot


@dataclass
class DiskRequest:
    """One queued transfer of a contiguous page run."""

    start_page: int
    n_pages: int
    is_write: bool
    completion: Event
    submit_time: float
    service_start: float = field(default=0.0)
    # Dispatch counter value when the request entered the queue; the
    # elevator's aging bound is measured against it.
    enqueue_dispatch: int = field(default=0)
    # Transient-error retries already taken (fault injection only).
    retries: int = field(default=0)

    @property
    def end_page(self) -> int:
        """One past the last page of the run."""
        return self.start_page + self.n_pages


_SCHEDULERS = ("fifo", "elevator")


class Disk:
    """Single-arm simulated disk with queueing and full tracing.

    ``scheduler`` selects the service order: ``"fifo"`` (arrival order —
    the pessimistic baseline the paper's seek numbers come from) or
    ``"elevator"`` (LOOK: sweep toward increasing addresses serving the
    nearest queued request, reverse at the last one).  The elevator is
    the classic *device-level* answer to seek storms; the scheduler
    ablation uses it to show that coordination above the device still
    wins, because the elevator cannot eliminate re-reads.
    """

    #: Elevator aging bound: a queued request is force-served once this
    #: many dispatches have happened since it arrived.  Far above the
    #: longest natural LOOK wait (one full sweep over the queue), so it
    #: only trips under pathological one-sided arrival streams.
    DEFAULT_AGING_LIMIT = 512

    def __init__(self, sim: Simulator, geometry: Optional[DiskGeometry] = None,
                 scheduler: str = "fifo", aging_limit: Optional[int] = None,
                 device_index: int = 0):
        if scheduler not in _SCHEDULERS:
            raise SimulationError(
                f"unknown disk scheduler {scheduler!r}; known: {_SCHEDULERS}"
            )
        if aging_limit is not None and aging_limit < 1:
            raise SimulationError(
                f"aging_limit must be >= 1, got {aging_limit}"
            )
        self.sim = sim
        # Position of this spindle within its array (0 for a lone disk);
        # fault clauses with a ``device=`` option match against it.
        self.device_index = device_index
        self.geometry = geometry or DiskGeometry()
        self.scheduler = scheduler
        self.aging_limit = (
            aging_limit if aging_limit is not None else self.DEFAULT_AGING_LIMIT
        )
        self.stats = DiskStats()
        self._queue: Deque[DiskRequest] = deque()
        self._active: Optional[DiskRequest] = None
        self._sweep_up = True
        self._head_position = 0
        self._dispatch_count = 0
        self._faults = None  # set by FaultInjector.attach
        # Number of requests outstanding (queued + active); used by the
        # metrics layer to derive iowait.
        self.outstanding_timeline = StepTimeline(initial=0)

    @property
    def busy(self) -> bool:
        """Whether a request is currently being serviced."""
        return self._active is not None

    @property
    def queue_length(self) -> int:
        """Number of requests waiting behind the active one."""
        return len(self._queue)

    @property
    def head_position(self) -> int:
        """Page address just past the most recently transferred run."""
        return self._head_position

    def read(self, start_page: int, n_pages: int) -> Event:
        """Queue a read of ``n_pages`` contiguous pages; returns completion."""
        return self._submit(start_page, n_pages, is_write=False)

    def write(self, start_page: int, n_pages: int) -> Event:
        """Queue a write of ``n_pages`` contiguous pages; returns completion."""
        return self._submit(start_page, n_pages, is_write=True)

    def _submit(self, start_page: int, n_pages: int, is_write: bool) -> Event:
        if n_pages <= 0:
            raise SimulationError(f"disk transfer needs n_pages >= 1, got {n_pages}")
        if start_page < 0 or start_page + n_pages > self.geometry.total_pages:
            raise SimulationError(
                f"transfer [{start_page}, {start_page + n_pages}) outside device "
                f"of {self.geometry.total_pages} pages"
            )
        request = DiskRequest(
            start_page=start_page,
            n_pages=n_pages,
            is_write=is_write,
            completion=Event(self.sim),
            submit_time=self.sim.now,
            enqueue_dispatch=self._dispatch_count,
        )
        self._queue.append(request)
        self._record_outstanding()
        tracer = trace_slot.active
        if tracer is not None:
            tracer.emit(DiskRequestQueued(
                time=self.sim.now, start_page=start_page, n_pages=n_pages,
                is_write=is_write, queue_len=len(self._queue),
            ))
        if self._active is None:
            self._start_next()
        return request.completion

    def _record_outstanding(self) -> None:
        outstanding = len(self._queue) + (1 if self._active else 0)
        self.outstanding_timeline.record(self.sim.now, outstanding)

    def set_fault_injector(self, injector) -> None:
        """Wire a fault injector into the service/completion path."""
        self._faults = injector

    def _start_next(self) -> None:
        if not self._queue:
            return
        request = self._pick_next()
        self._active = request
        self._begin_service(request)

    def _begin_service(self, request: DiskRequest) -> None:
        request.service_start = self.sim.now
        sequential = self.geometry.is_sequential(self._head_position, request.start_page)
        seek_time = (
            0.0
            if sequential
            else self.geometry.seek_time(self._head_position, request.start_page)
            + self.geometry.settle_time
        )
        xfer_time = self.geometry.transfer_time(request.n_pages)
        service_time = seek_time + xfer_time
        if self._faults is not None:
            service_time = self._faults.disk_service_time(self, service_time)
        tracer = trace_slot.active
        if tracer is not None:
            tracer.emit(DiskServiceStart(
                time=self.sim.now, start_page=request.start_page,
                n_pages=request.n_pages, is_write=request.is_write,
                sequential=sequential, seek_time=seek_time,
                transfer_time=xfer_time,
                wait_time=self.sim.now - request.submit_time,
            ))
        self.sim.schedule(
            service_time,
            lambda: self._complete(request, seeked=not sequential, seek_time=seek_time,
                                   xfer_time=xfer_time),
        )

    def _pick_next(self) -> DiskRequest:
        self._dispatch_count += 1
        if self.scheduler == "fifo" or len(self._queue) == 1:
            return self._queue.popleft()
        # Aging bound: the LOOK policy below always serves the nearest
        # request in sweep direction, so a far request can be deferred
        # indefinitely by a continuous stream of near one-sided arrivals.
        # Once the oldest queued request has sat through aging_limit
        # dispatches, serve it regardless of position.
        oldest = min(self._queue, key=lambda r: r.enqueue_dispatch)
        if self._dispatch_count - oldest.enqueue_dispatch > self.aging_limit:
            self.stats.aged_dispatches += 1
            self._queue.remove(oldest)
            return oldest
        # LOOK: nearest request in the sweep direction; reverse when the
        # current direction is exhausted.
        head = self._head_position
        ahead = [r for r in self._queue if r.start_page >= head]
        behind = [r for r in self._queue if r.start_page < head]
        if self._sweep_up:
            pool = ahead or behind
            self._sweep_up = bool(ahead)
        else:
            pool = behind or ahead
            self._sweep_up = not behind
        chosen = min(pool, key=lambda r: (abs(r.start_page - head), r.submit_time))
        self._queue.remove(chosen)
        return chosen

    def _complete(
        self, request: DiskRequest, seeked: bool, seek_time: float, xfer_time: float
    ) -> None:
        if self._faults is not None:
            backoff = self._faults.maybe_disk_error(self, request)
            if backoff is not None:
                # Transient failure: the request stays active and the
                # whole service (seek + transfer) reruns after backoff.
                request.retries += 1
                self.stats.io_retries += 1
                self.sim.schedule(backoff, lambda: self._begin_service(request))
                return
        self._head_position = request.end_page
        if request.is_write:
            self.stats.record_write(
                self.sim.now, request.n_pages, seeked, seek_time, xfer_time
            )
        else:
            self.stats.record_read(
                self.sim.now, request.n_pages, seeked, seek_time, xfer_time
            )
        self._active = None
        self._record_outstanding()
        tracer = trace_slot.active
        if tracer is not None:
            tracer.emit(DiskRequestComplete(
                time=self.sim.now, start_page=request.start_page,
                n_pages=request.n_pages, is_write=request.is_write,
                service_time=self.sim.now - request.service_start,
                total_time=self.sim.now - request.submit_time,
            ))
        request.completion.succeed(request)
        self._start_next()
