"""The scan sharing manager (the paper's central component).

One manager exists per bufferpool.  Scan operators talk to it through
exactly the calls the paper adds to the scan code:

* :meth:`ScanSharingManager.start_scan` — register, get a start location;
* :meth:`ScanSharingManager.update_location` — report progress, possibly
  receive an inserted throttle wait;
* :meth:`ScanSharingManager.page_priority` — the priority for releasing
  the current page;
* :meth:`ScanSharingManager.end_scan` — deregister.

The manager never touches the bufferpool or the disk; it only observes
scan progress and returns placement, wait, and priority decisions.  It is
the ``grouping-throttling`` implementation of the pluggable
:class:`~repro.core.policy.SharingPolicy` interface; the rival policies
live in :mod:`repro.core.cooperative` and :mod:`repro.core.pbm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.buffer.page import Priority
from repro.core.config import SharingConfig
from repro.core.grouping import ScanGroup, form_groups
from repro.core.placement import PlacementDecision, choose_start
from repro.core.policy import SharingPolicy, SharingStats
from repro.core.priority import release_priority
from repro.core.scan_state import ScanDescriptor, ScanState
from repro.core.throttle import evaluate_throttle
from repro.sim.kernel import Simulator
from repro.storage.catalog import Catalog
from repro.trace.events import FairnessCapTripped, Regrouped, ThrottleEvaluated
import repro.trace.tracer as trace_slot

__all__ = ["ScanSharingManager", "SharingStats"]


@dataclass(frozen=True)
class LastFinishedMark:
    """Where the last scan on a table finished, and under how much load.

    The position is only a useful placement hint while the pages trailing
    it may still be resident.  Residency is governed by eviction pressure,
    not by wall-clock time — a mark on a small hot table stays warm for
    arbitrarily long if nothing competes for frames — so the mark records
    the manager's cumulative observed scan traffic (``observed_pages``)
    at finish time.  Once the elevator has streamed enough further pages
    past the pool to have wrapped (turned over) its capacity many times,
    everything the finisher left behind is certainly cold and the mark is
    dropped.
    """

    position: int
    observed_pages: int

    def stale(self, observed_now: int, pool_capacity: int,
              retention_wraps: float) -> bool:
        """Whether observed traffic since the finish could have turned the
        pool over ``retention_wraps`` times, evicting the leftovers."""
        elapsed_pages = observed_now - self.observed_pages
        return elapsed_pages >= retention_wraps * max(pool_capacity, 1)


class ScanSharingManager(SharingPolicy):
    """Tracks ongoing scans and issues placement/throttle/priority decisions."""

    policy_name = "grouping-throttling"

    def __init__(
        self,
        sim: Simulator,
        catalog: Catalog,
        pool_capacity: int,
        config: Optional[SharingConfig] = None,
    ):
        super().__init__(sim, catalog, pool_capacity, config)
        self._groups: List[ScanGroup] = []
        self._group_by_id: Dict[int, ScanGroup] = {}
        self._last_finished: Dict[str, LastFinishedMark] = {}
        # Cumulative pages reported via update_location across all scans:
        # the eviction-pressure clock that ages last-finished marks out.
        self._observed_pages = 0
        self._last_regroup_time: float = -1.0

    # ------------------------------------------------------------------
    # Scan lifecycle callbacks
    # ------------------------------------------------------------------

    def start_scan(self, descriptor: ScanDescriptor) -> ScanState:
        """Register a new scan and decide where it starts."""
        table = self._checked_table(descriptor)
        decision = self._place(descriptor, table.extent_size)
        state = self._admit(descriptor, decision)
        self._regroup(force=True)
        return state

    def update_location(self, scan_id: int, pages_scanned: int) -> float:
        """Record scan progress; returns seconds of inserted throttle wait.

        ``pages_scanned`` is the cumulative page count since scan start
        (monotonically non-decreasing).
        """
        previously_reported = self._state(scan_id).pages_at_last_update
        state = self._record_progress(scan_id, pages_scanned)
        self._observed_pages += pages_scanned - previously_reported
        now = self.sim.now

        if not self.config.enabled:
            return 0.0

        # Regroup periodically — or immediately when scan movement has
        # invalidated the group's circular trailer→leader ordering (some
        # member now lies outside the arc the flags were stamped for).
        group = self._group_of(state)
        self._regroup(force=self._order_violated(group))
        group = self._group_of(state)
        if group is None:
            return 0.0
        table = self.catalog.table(state.descriptor.table_name)
        decision = evaluate_throttle(state, group, self.config, table.extent_size)
        if decision.capped_by_fairness:
            self.stats.fairness_cap_hits += 1
        if decision.throttled:
            state.accumulated_delay += decision.wait
            self.stats.throttle_waits += 1
            self.stats.total_throttle_time += decision.wait
        tracer = trace_slot.active
        if tracer is not None:
            tracer.emit(ThrottleEvaluated(
                time=now, scan_id=state.scan_id,
                group_id=state.group_id if state.group_id is not None else -1,
                distance=decision.distance, threshold=decision.threshold,
                allowance=decision.allowance, wait=decision.wait,
                capped_by_fairness=decision.capped_by_fairness,
            ))
            if decision.capped_by_fairness:
                tracer.emit(FairnessCapTripped(
                    time=now, scan_id=state.scan_id,
                    accumulated_delay=state.accumulated_delay,
                    estimated_total_time=state.estimated_total_time,
                ))
        return decision.wait

    def page_priority(self, scan_id: int) -> Priority:
        """Replacement priority for pages this scan releases right now."""
        state = self._state(scan_id)
        group = self._group_of(state)
        group_size = group.size if group is not None else 1
        return release_priority(state, group_size, self.config)

    def end_scan(self, scan_id: int) -> None:
        """Deregister a finished scan."""
        state = self._state(scan_id)
        # Remember where the scan's *reading* stopped (one page before its
        # wrapped final position): the pages it left in the bufferpool
        # trail that location, and a future scan may start there.  A scan
        # that read nothing left nothing behind — recording its (start-1)
        # position would steer future placements at cold pages.
        if state.pages_scanned > 0:
            first = state.descriptor.first_page
            final_read = first + (state.position - first - 1) % state.range_pages
            self._last_finished[state.descriptor.table_name] = LastFinishedMark(
                position=final_read,
                observed_pages=self._observed_pages,
            )
        self._retire(scan_id, aborted=False)
        self._regroup(force=True)

    def abort_scan(self, scan_id: int) -> None:
        """Deregister a scan that died without finishing.

        The death path for a killed/aborted scan: its groups are
        dissolved and re-formed immediately so no group keeps a dead
        member, no throttle anchor points at a ghost, and a throttled
        leader re-anchors on the next live trailer (or runs free).  The
        aborted scan's position is *not* recorded as a last-finished
        location — its partial footprint is not a placement signal.
        """
        self._retire(scan_id, aborted=True)
        self._regroup(force=True)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def groups(self) -> List[ScanGroup]:
        """The most recently formed groups."""
        return list(self._groups)

    def group_of(self, scan_id: int) -> Optional[ScanGroup]:
        """The group a registered scan currently belongs to, if any."""
        return self._group_of(self._state(scan_id))

    def push_consumer_set(self, scan_id: int) -> List[int]:
        """Every member of the scan's group consumes its pushed extents."""
        group = self.group_of(scan_id)
        if group is None:
            return [scan_id]
        return [member.scan_id for member in group.members]

    def is_push_driver(self, scan_id: int) -> bool:
        """The group leader drives the push; trailers never re-request."""
        group = self.group_of(scan_id)
        return group is None or group.leader.scan_id == scan_id

    def last_finished_position(self, table_name: str) -> Optional[int]:
        """Final position of the last scan that finished on a table.

        Ages out: None once the scan traffic observed since the finish
        could have turned the bufferpool over
        ``config.last_finished_retention_wraps`` times — by then the
        pages trailing the mark are cold, and placing a late arrival
        there would only delay its own sequential start for no hits.
        """
        mark = self._last_finished.get(table_name)
        if mark is None:
            return None
        if mark.stale(self._observed_pages, self.pool_capacity,
                      self.config.last_finished_retention_wraps):
            del self._last_finished[table_name]
            return None
        return mark.position

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _place(self, descriptor: ScanDescriptor, extent_size: int) -> PlacementDecision:
        candidates = [
            state
            for state in self._states.values()
            if state.descriptor.table_name == descriptor.table_name
        ]
        return choose_start(
            descriptor,
            candidates,
            self.config,
            extent_size,
            last_finished_position=self.last_finished_position(
                descriptor.table_name
            ),
            # Conservative estimate of the finished scan's pages still
            # resident: other scans and tables share the pool.
            leftover_pages=self.pool_capacity // 2,
            table_pages=self.catalog.table(descriptor.table_name).n_pages,
        )

    def _group_of(self, state: ScanState) -> Optional[ScanGroup]:
        if state.group_id is None:
            return None
        return self._group_by_id.get(state.group_id)

    def _order_violated(self, group: Optional[ScanGroup]) -> bool:
        """Whether scan movement has invalidated the group's flags.

        The flags stamped at group formation describe the group as a
        circular arc: trailer first, leader last, with the *largest* gap
        between circularly consecutive members lying leader→trailer
        (outside the arc).  The ordering is violated once that stops
        holding — a member overtook the flagged leader, fell behind the
        flagged trailer, or the leader drifted so far that the flagged
        split is no longer the widest gap.  Measured wrap-aware, so a
        scan that wrapped past the range end (now at a small linear
        position) is not misclassified as the trailer of its own group.
        """
        if group is None or group.size <= 1:
            return False
        circle = group.table_pages
        if circle <= 0:
            circle = self.catalog.table(group.table_name).n_pages
        ordered = sorted(group.members, key=lambda s: (s.position, s.scan_id))
        k = len(ordered)
        gaps = [
            ordered[i].forward_distance_to(ordered[(i + 1) % k], circle)
            for i in range(k)
        ]
        leader_index = next(
            i for i, s in enumerate(ordered)
            if s.scan_id == group.leader.scan_id
        )
        successor = ordered[(leader_index + 1) % k]
        return (
            successor.scan_id != group.trailer.scan_id
            or gaps[leader_index] < max(gaps)
        )

    def _regroup(self, force: bool = False) -> None:
        if not (self.config.enabled and self.config.grouping_enabled):
            # Clear stale membership flags too: a state stamped while
            # grouping was on must not keep reporting leader/trailer
            # roles (page_priority reads the flags directly).
            for state in self._states.values():
                state.group_id = None
                state.is_leader = False
                state.is_trailer = False
            self._groups = []
            self._group_by_id = {}
            if self.invariant_hook is not None:
                self.invariant_hook()
            return
        now = self.sim.now
        if not force and now - self._last_regroup_time < self.config.regroup_interval:
            return
        self._last_regroup_time = now
        by_table: Dict[str, List[ScanState]] = {}
        for state in self._states.values():
            by_table.setdefault(state.descriptor.table_name, []).append(state)
        budget = int(self.pool_capacity * self.config.pool_budget_fraction)
        self._groups = form_groups(
            by_table,
            budget,
            table_pages={
                name: self.catalog.table(name).n_pages for name in by_table
            },
        )
        self._group_by_id = {group.group_id: group for group in self._groups}
        self.stats.regroups += 1
        self.stats.group_count_trace.append((now, len(self._groups)))
        tracer = trace_slot.active
        if tracer is not None:
            tracer.emit(Regrouped(
                time=now, n_scans=len(self._states),
                n_groups=len(self._groups), forced=force,
                group_sizes=tuple(group.size for group in self._groups),
            ))
        if self.invariant_hook is not None:
            self.invariant_hook()
