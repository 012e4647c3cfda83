"""The pluggable scan-sharing policy interface.

The paper's grouping+throttling mechanism is one point in the
scan-sharing design space.  To compare it against rivals (cooperative
attach/elevator scans, predictive buffer management) every strategy is
a :class:`SharingPolicy`, which answers exactly the calls the scan
operator and the harness make:

* :meth:`SharingPolicy.start_scan` — register, get a start location;
* :meth:`SharingPolicy.update_location` — report progress, possibly
  receive an inserted throttle wait (0.0 for non-throttling policies);
* :meth:`SharingPolicy.end_scan` / :meth:`SharingPolicy.abort_scan` —
  deregister (cleanly, or after a mid-scan death).

The scan releases each page at ``ScanState.priority``, which a policy
that steers the pool restamps when a scan's role changes.  The base
class runs every scan's lifecycle once; a subclass supplies only what
makes it a policy: where a scan starts (:meth:`SharingPolicy._place`),
its bookkeeping after admission and before retirement, what runs after
a change, and its own structural invariants
(:meth:`SharingPolicy.invariant_problems`).

A policy never touches the bufferpool or the disk; it only observes scan
progress and answers placement/wait/priority questions.  Policies are
constructed by :func:`make_sharing_policy` from the registry names in
:data:`SHARING_POLICY_NAMES`, which is the value space of the
``sharing_policy`` axis threaded through :class:`~repro.engine.database.
SystemConfig` and ``ExperimentSettings``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from repro.buffer.page import Priority
from repro.core.config import SharingConfig
from repro.core.grouping import ScanGroup
from repro.core.placement import PlacementDecision
from repro.core.scan_state import ScanDescriptor, ScanState
from repro.sim.kernel import Simulator
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.trace.events import ScanAborted, ScanDeregistered, ScanRegistered
import repro.trace.tracer as trace_slot

#: Registry names accepted by :func:`make_sharing_policy` (and by the
#: ``sharing_policy`` fields of SystemConfig / ExperimentSettings).
SHARING_POLICY_NAMES = ("grouping-throttling", "cooperative", "pbm")

#: Weight of the newest speed sample in a scan's exponential moving
#: average of its measured speed (1.0 would use only the latest
#: interval, like the prototype).
SPEED_SMOOTHING = 0.7


@dataclass
class SharingStats:
    """Counters exposed for tests and experiment reports.

    Shared by every policy; counters a policy has no concept of (e.g.
    ``throttle_waits`` under ``cooperative``) simply stay zero.
    """

    scans_started: int = 0
    scans_finished: int = 0
    scans_aborted: int = 0
    scans_joined_ongoing: int = 0
    scans_joined_last_finished: int = 0
    regroups: int = 0
    throttle_waits: int = 0
    total_throttle_time: float = 0.0
    fairness_cap_hits: int = 0


class SharingPolicy:
    """Scan-sharing strategy: placement, pacing, priorities.

    On its own, the policy that never steers anything: every scan starts
    at its first page, runs unthrottled and releases pages NORMAL.
    """

    def __init__(
        self,
        sim: Simulator,
        catalog: Catalog,
        pool_capacity: int,
        config: Optional[SharingConfig] = None,
    ):
        self.sim = sim
        self.catalog = catalog
        self.pool_capacity = pool_capacity
        self.config = config or SharingConfig()
        self.stats = SharingStats()
        self._states: Dict[int, ScanState] = {}
        self._next_scan_id = 0
        # Set by the fault injector: called after every structural change
        # so the invariant checker sees each one.  None (the default)
        # costs one attribute test per change.
        self.invariant_hook: Optional[Callable[[], None]] = None
        # The push prefetch pipeline, when the database enables it; the
        # policy notifies it of every scan exit so consumer sets never
        # outlive their scans.
        self._push = None

    # ------------------------------------------------------------------
    # The policy interface (what scans and the harness call)
    # ------------------------------------------------------------------

    def start_scan(self, descriptor: ScanDescriptor) -> ScanState:
        """Register a new scan and decide where it starts."""
        table = self._checked_table(descriptor)
        decision = self._place(descriptor, table)
        state = self._admit(descriptor, decision)
        self._admitted(state, decision, table)
        self._changed()
        return state

    def update_location(self, scan_id: int, pages_scanned: int) -> float:
        """Record scan progress; returns seconds of inserted wait.

        ``pages_scanned`` is the cumulative page count since scan start
        (monotonically non-decreasing).  Non-throttling policies always
        return 0.0.
        """
        self._record_progress(scan_id, pages_scanned)
        return 0.0

    def end_scan(self, scan_id: int) -> None:
        """Deregister a finished scan."""
        self._retire(scan_id, aborted=False)

    def abort_scan(self, scan_id: int) -> None:
        """Deregister a scan that died without finishing."""
        self._retire(scan_id, aborted=True)

    # ------------------------------------------------------------------
    # What a subclass supplies (defaults: no steering at all)
    # ------------------------------------------------------------------

    def _place(self, descriptor: ScanDescriptor, table: Table) -> PlacementDecision:
        """Where a new scan starts: its first page, joining nobody."""
        return PlacementDecision(start_page=descriptor.first_page)

    def _admitted(
        self, state: ScanState, decision: PlacementDecision, table: Table
    ) -> None:
        """Bookkeeping for a scan just admitted at ``decision``."""

    def _retiring(self, state: ScanState, aborted: bool) -> None:
        """Bookkeeping for a registered scan about to be retired."""

    def _changed(self) -> None:
        """Runs after every scan start and exit: the invariant hook."""
        if self.invariant_hook is not None:
            self.invariant_hook()

    def invariant_problems(self, strict_order: bool = False) -> Iterator[str]:
        """Every violation of this policy's structural invariants.

        ``strict_order`` asks for the checks that hold only right after
        a regroup.  The default policy never steers the pool, so every
        release priority must be NORMAL.
        """
        for scan_id, state in self._states.items():
            if state.priority != Priority.NORMAL:
                yield (
                    f"scan {scan_id} releases at priority {state.priority!r} "
                    f"under {type(self).__name__}, which never steers the pool"
                )

    # ------------------------------------------------------------------
    # Introspection (sensible defaults for non-grouping policies)
    # ------------------------------------------------------------------

    @property
    def active_scan_count(self) -> int:
        """Number of currently registered scans."""
        return len(self._states)

    def active_scans(self) -> List[ScanState]:
        """Snapshot of registered scan states."""
        return list(self._states.values())

    def scan_state(self, scan_id: int) -> ScanState:
        """State of a registered scan (raises if unknown/finished)."""
        return self._state(scan_id)

    def groups(self) -> List[ScanGroup]:
        """The current scan groups — none for non-grouping policies."""
        return []

    def group_of(self, scan_id: int) -> Optional[ScanGroup]:
        """The group a scan belongs to — None for non-grouping policies."""
        self._state(scan_id)  # preserve the unknown-scan error contract
        return None

    # ------------------------------------------------------------------
    # Push pipeline hooks (defaults: every scan drives its own push)
    # ------------------------------------------------------------------

    def bind_push(self, pipeline) -> None:
        """Wire the push prefetch pipeline in (called by Database.open)."""
        self._push = pipeline

    def push_consumer_set(self, scan_id: int) -> List[int]:
        """Scan ids to register as consumers of extents this scan pushes.

        Grouping policies return the whole group; cooperative returns
        the scan plus its attached followers.  The default — a set of
        one — turns the pipeline into plain per-scan read-ahead.
        """
        self._state(scan_id)  # preserve the unknown-scan error contract
        return [scan_id]

    def is_push_driver(self, scan_id: int) -> bool:
        """Whether this scan issues pushes for its consumer set.

        Exactly one member of every consumer set answers True (the group
        leader / attach target); the rest consume without re-requesting.
        """
        self._state(scan_id)
        return True

    # ------------------------------------------------------------------
    # Shared bookkeeping for concrete policies
    # ------------------------------------------------------------------

    def _state(self, scan_id: int) -> ScanState:
        try:
            return self._states[scan_id]
        except KeyError:
            raise KeyError(f"unknown or finished scan id {scan_id}") from None

    def _checked_table(self, descriptor: ScanDescriptor) -> Table:
        """The descriptor's table, with its range validated against it."""
        table = self.catalog.table(descriptor.table_name)
        if descriptor.last_page >= table.n_pages:
            raise ValueError(
                f"scan range [{descriptor.first_page}, {descriptor.last_page}] "
                f"exceeds table {table.name!r} of {table.n_pages} pages"
            )
        return table

    def _admit(
        self, descriptor: ScanDescriptor, decision: PlacementDecision
    ) -> ScanState:
        """Create, register, count, and trace a new scan state."""
        state = ScanState(
            scan_id=self._next_scan_id,
            descriptor=descriptor,
            start_page=decision.start_page,
            start_time=self.sim.now,
            speed=descriptor.estimated_speed,
            last_update_time=self.sim.now,
        )
        self._next_scan_id += 1
        self._states[state.scan_id] = state
        self.stats.scans_started += 1
        if decision.joined_scan_id is not None:
            self.stats.scans_joined_ongoing += 1
        if decision.joined_last_finished:
            self.stats.scans_joined_last_finished += 1
        tracer = trace_slot.active
        if tracer is not None:
            tracer.emit(ScanRegistered(
                time=self.sim.now, scan_id=state.scan_id,
                table=descriptor.table_name,
                first_page=descriptor.first_page,
                last_page=descriptor.last_page,
                start_page=decision.start_page,
                joined_scan_id=decision.joined_scan_id,
                joined_last_finished=decision.joined_last_finished,
            ))
        return state

    def _retire(self, scan_id: int, aborted: bool) -> None:
        """The one exit path: the subclass's bookkeeping, then deregister,
        count and trace the scan, then the after-change step."""
        state = self._state(scan_id)
        self._retiring(state, aborted)
        state.finished = True
        del self._states[scan_id]
        if self._push is not None:
            self._push.scan_ended(scan_id, aborted)
        tracer = trace_slot.active
        if aborted:
            self.stats.scans_aborted += 1
            if tracer is not None:
                tracer.emit(ScanAborted(
                    time=self.sim.now, scan_id=scan_id,
                    table=state.descriptor.table_name,
                    pages_scanned=state.pages_scanned,
                ))
        else:
            self.stats.scans_finished += 1
            if tracer is not None:
                tracer.emit(ScanDeregistered(
                    time=self.sim.now, scan_id=scan_id,
                    table=state.descriptor.table_name,
                    pages_scanned=state.pages_scanned,
                    accumulated_delay=state.accumulated_delay,
                ))
        self._changed()

    def _record_progress(self, scan_id: int, pages_scanned: int) -> ScanState:
        """Update a scan's position/speed bookkeeping from a progress report."""
        state = self._state(scan_id)
        if pages_scanned < state.pages_scanned:
            raise ValueError(
                f"scan {scan_id}: pages_scanned went backwards "
                f"({pages_scanned} < {state.pages_scanned})"
            )
        now = self.sim.now
        delta_pages = pages_scanned - state.pages_at_last_update
        delta_time = now - state.last_update_time
        state.pages_scanned = pages_scanned
        if delta_time > 0 and delta_pages > 0:
            instantaneous = delta_pages / delta_time
            state.speed = (SPEED_SMOOTHING * instantaneous
                           + (1.0 - SPEED_SMOOTHING) * state.speed)
        # Advance the bookkeeping unconditionally: pages reported in a
        # zero-elapsed-time update must not be counted again in the next
        # sample's delta, and a no-progress interval must not stretch the
        # next sample's time window.
        state.last_update_time = now
        state.pages_at_last_update = pages_scanned
        return state


def make_sharing_policy(
    name: str,
    sim: Simulator,
    catalog: Catalog,
    pool_capacity: int,
    config: Optional[SharingConfig] = None,
) -> SharingPolicy:
    """Construct a scan-sharing policy by registry name.

    Imports lazily so the concrete policies may themselves import this
    module for the base class.
    """
    if name == "grouping-throttling":
        from repro.core.manager import ScanSharingManager

        return ScanSharingManager(sim, catalog, pool_capacity, config)
    if name == "cooperative":
        from repro.core.cooperative import CooperativeScanManager

        return CooperativeScanManager(sim, catalog, pool_capacity, config)
    if name == "pbm":
        from repro.core.pbm import PbmScanManager

        return PbmScanManager(sim, catalog, pool_capacity, config)
    raise ValueError(
        f"unknown sharing policy {name!r}; known: {SHARING_POLICY_NAMES}"
    )
