"""The fault injector: threads a :class:`FaultPlan` through the stack.

One injector exists per database.  ``attach`` wires it into the three
layers that can fail:

* the **disk** (or every member of a :class:`~repro.disk.array.DiskArray`)
  calls back into :meth:`disk_service_time` when starting a request and
  :meth:`maybe_disk_error` when one completes;
* the **bufferpool** grants every pool-pressure window a
  :class:`~repro.buffer.pool.FrameReservation` at its start and takes it
  back at its end, on a simulated-time schedule;
* the **scan sharing policy** gets its ``invariant_hook`` pointed at an
  :class:`~repro.faults.invariants.InvariantChecker`, and scan operators
  poll :meth:`maybe_kill_scan` once per page so kill clauses can strike
  at exact positions.

All randomness comes from one ``random.Random(plan.seed)`` whose draws
happen in simulated-event order, so a fault scenario replays
byte-identically — serial or under ``--jobs N`` — exactly like clean
experiment runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.faults.invariants import InvariantChecker
from repro.faults.plan import (
    DiskDelayFault,
    DiskErrorFault,
    FaultPlan,
    PoolPressureFault,
    ScanKillFault,
)
from repro.sim.kernel import Simulator
from repro.trace.events import (
    FaultDiskDelay,
    FaultDiskError,
    FaultPoolPressure,
    FaultScanKilled,
)
import repro.trace.tracer as trace_slot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.buffer.pool import BufferPool, FrameReservation
    from repro.buffer.push import PushPipeline
    from repro.core.policy import SharingPolicy
    from repro.disk.device import Disk, DiskRequest


class ScanKilled(RuntimeError):
    """Raised inside a scan operator when a kill clause strikes it."""

    def __init__(self, scan_id: int, pages_scanned: int):
        super().__init__(
            f"scan {scan_id} killed by fault injection after "
            f"{pages_scanned} pages"
        )
        self.scan_id = scan_id
        self.pages_scanned = pages_scanned


@dataclass
class FaultStats:
    """Counters for everything the injector did to a run."""

    scans_killed: int = 0
    disk_delayed_requests: int = 0
    disk_errors_injected: int = 0
    pool_pressure_events: int = 0

    @property
    def total_injected(self) -> int:
        """Total number of fault actions taken."""
        return (
            self.scans_killed
            + self.disk_delayed_requests
            + self.disk_errors_injected
            + self.pool_pressure_events
        )


class FaultInjector:
    """Executes a fault plan against one database's components."""

    def __init__(self, sim: Simulator, plan: FaultPlan):
        self.sim = sim
        self.plan = plan
        self.stats = FaultStats()
        self.checker: Optional[InvariantChecker] = None
        self._rng = random.Random(plan.seed)
        self._delay_faults: List[DiskDelayFault] = []
        self._error_faults: List[DiskErrorFault] = []
        self._pressure_faults: List[PoolPressureFault] = []
        self._kill_faults: List[ScanKillFault] = []
        self._kill_remaining: List[int] = []
        for fault in plan.faults:
            if isinstance(fault, DiskDelayFault):
                self._delay_faults.append(fault)
            elif isinstance(fault, DiskErrorFault):
                self._error_faults.append(fault)
            elif isinstance(fault, PoolPressureFault):
                self._pressure_faults.append(fault)
            elif isinstance(fault, ScanKillFault):
                self._kill_faults.append(fault)
                self._kill_remaining.append(fault.count)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(
        self,
        disk: Optional[object] = None,
        pool: Optional["BufferPool"] = None,
        manager: Optional["SharingPolicy"] = None,
        push: Optional["PushPipeline"] = None,
    ) -> None:
        """Hook the injector into the components it targets.

        ``push`` is the database's push pipeline, if it runs one, whose
        consumer sets the invariant checker then watches too.
        """
        if disk is not None:
            disk.set_fault_injector(self)
        if pool is not None:
            for fault in self._pressure_faults:
                self._schedule_pressure(pool, fault)
        if manager is not None:
            self.checker = InvariantChecker(manager, pool, push)
            manager.invariant_hook = self._on_regroup

    def _on_regroup(self) -> None:
        # Called by the policy right after every scan start and exit (and
        # every group rebuild), when the arc ordering is guaranteed fresh.
        if self.checker is not None:
            self.checker.run_checks(strict_order=True)

    def check_invariants(self) -> None:
        """Run a non-strict invariant pass (after a fault event)."""
        if self.checker is not None:
            self.checker.run_checks(strict_order=False)

    # ------------------------------------------------------------------
    # Bufferpool pressure
    # ------------------------------------------------------------------

    def _schedule_pressure(self, pool: "BufferPool", fault: PoolPressureFault) -> None:
        reservation: Optional["FrameReservation"] = None

        def begin() -> None:
            nonlocal reservation
            reservation = pool.reserve_frames(
                "pool-pressure", int(pool.capacity * fault.fraction)
            )
            self._pressure_event(pool, reserved=reservation.granted)

        def end() -> None:
            # The plan keeps from <= until, so begin() has already run.
            self._pressure_event(pool, released=pool.release_frames(reservation))

        self.sim.schedule(max(0.0, fault.start - self.sim.now), begin)
        if fault.until != float("inf"):
            self.sim.schedule(max(0.0, fault.until - self.sim.now), end)

    def _pressure_event(self, pool: "BufferPool", **frames: int) -> None:
        self.stats.pool_pressure_events += 1
        tracer = trace_slot.active
        if tracer is not None:
            tracer.emit(FaultPoolPressure(
                time=self.sim.now,
                effective_capacity=pool.capacity - pool.reserved_frames,
                **frames,
            ))
        self.check_invariants()

    # ------------------------------------------------------------------
    # Disk hooks
    # ------------------------------------------------------------------

    def disk_service_time(self, disk: "Disk", service_time: float) -> float:
        """Stretch a service time by every delay window active right now.

        Clauses with a ``device`` index only strike the matching spindle
        of a striped array.
        """
        factor = 1.0
        now = self.sim.now
        device_index = disk.device_index
        for fault in self._delay_faults:
            if fault.active_at(now) and fault.matches_device(device_index):
                factor *= fault.factor
        if factor == 1.0:
            return service_time
        self.stats.disk_delayed_requests += 1
        tracer = trace_slot.active
        if tracer is not None:
            request = disk._active
            tracer.emit(FaultDiskDelay(
                time=now,
                start_page=request.start_page if request is not None else -1,
                factor=factor,
            ))
        return service_time * factor

    def maybe_disk_error(
        self, disk: "Disk", request: "DiskRequest"
    ) -> Optional[float]:
        """Decide whether a completing request fails transiently.

        Returns the retry backoff in seconds, or ``None`` to let the
        request complete.  After ``max_retries`` attempts the request is
        always allowed through, so errors degrade but never wedge.
        """
        now = self.sim.now
        device_index = disk.device_index
        for fault in self._error_faults:
            if not fault.active_at(now) or request.retries >= fault.max_retries:
                continue
            if not fault.matches_device(device_index):
                continue
            if self._rng.random() >= fault.rate:
                continue
            backoff = fault.backoff * (2 ** request.retries)
            self.stats.disk_errors_injected += 1
            tracer = trace_slot.active
            if tracer is not None:
                tracer.emit(FaultDiskError(
                    time=now, start_page=request.start_page,
                    n_pages=request.n_pages, retries=request.retries + 1,
                    backoff=backoff,
                ))
            return backoff
        return None

    # ------------------------------------------------------------------
    # Scan kills
    # ------------------------------------------------------------------

    def maybe_kill_scan(
        self, manager: "SharingPolicy", scan_id: int, pages_scanned: int
    ) -> None:
        """Raise :class:`ScanKilled` if a kill clause targets this scan now.

        Scan operators call this once per page, *before* pinning, so a
        kill never leaks a pinned frame.
        """
        if not self._kill_faults:
            return
        try:
            state = manager.scan_state(scan_id)
        except KeyError:
            return
        for index, fault in enumerate(self._kill_faults):
            if self._kill_remaining[index] <= 0:
                continue
            if pages_scanned < fault.at * state.range_pages:
                continue
            if not self._kill_matches(manager, state, fault):
                continue
            self._kill_remaining[index] -= 1
            self.stats.scans_killed += 1
            tracer = trace_slot.active
            if tracer is not None:
                tracer.emit(FaultScanKilled(
                    time=self.sim.now, scan_id=scan_id,
                    target=fault.target, pages_scanned=pages_scanned,
                ))
            raise ScanKilled(scan_id, pages_scanned)

    def _kill_matches(
        self, manager: "SharingPolicy", state, fault: ScanKillFault
    ) -> bool:
        if fault.target == "any":
            return True
        if fault.target == "nth":
            return state.scan_id == fault.nth
        group = manager.group_of(state.scan_id)
        if group is None or group.size <= 1:
            return False
        if fault.target == "leader":
            return state.scan_id == group.leader.scan_id
        if fault.target == "trailer":
            return state.scan_id == group.trailer.scan_id
        # "anchor": exactly the scan evaluate_throttle waits on.
        anchor = group.throttle_anchor()
        return anchor is not None and anchor.scan_id == state.scan_id
