"""The scan sharing manager (the paper's central component).

One manager exists per bufferpool.  Scan operators talk to it through
exactly the calls the paper adds to the scan code:

* :meth:`ScanSharingManager.start_scan` — register, get a start location;
* :meth:`ScanSharingManager.update_location` — report progress, possibly
  receive an inserted throttle wait;
* ``ScanState.priority`` — the priority for releasing the current page,
  stamped by every regroup (``page_priority`` returns it);
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

#: Seconds between periodic group re-formations (scan starts and ends,
#: and a broken group order, regroup at once).
REGROUP_INTERVAL = 0.25

#: A finished scan's end position is kept as a placement hint only until
#: this many bufferpool turnovers of scan traffic (pages reported via
#: location updates, in units of the pool capacity) have streamed past.
#: Beyond that the pages the finisher left behind are certainly evicted,
#: and placing a late arrival behind the cold position would only delay
#: its sequential start.  Deliberately conservative — several dozen
#: turnovers — so the hint is pruned only when it is overwhelmingly
#: certain to be cold.
RETENTION_WRAPS = 64.0


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

    def stale(self, observed_now: int, pool_capacity: int) -> bool:
        """Whether observed traffic since the finish could have turned the
        pool over :data:`RETENTION_WRAPS` times, evicting the leftovers."""
        elapsed_pages = observed_now - self.observed_pages
        return elapsed_pages >= RETENTION_WRAPS * max(pool_capacity, 1)


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
        could have turned the bufferpool over :data:`RETENTION_WRAPS`
        times — by then the pages trailing the mark are cold, and placing
        a late arrival there would only delay its own sequential start for
        no hits.
        """
        mark = self._last_finished.get(table_name)
        if mark is None:
            return None
        if mark.stale(self._observed_pages, self.pool_capacity):
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
        # Each position once; the index keeps the sort stable on ties.
        keyed = sorted(
            (s.position, s.scan_id, i) for i, s in enumerate(group.members)
        )
        k = len(keyed)
        gaps = [(keyed[(i + 1) % k][0] - keyed[i][0]) % circle for i in range(k)]
        leader_id = group.members[-1].scan_id
        leader_index = next(i for i, key in enumerate(keyed) if key[1] == leader_id)
        return (
            keyed[(leader_index + 1) % k][1] != group.members[0].scan_id
            or gaps[leader_index] < max(gaps)
        )

    def _regroup(self, force: bool = False) -> None:
        now = self.sim.now
        if not force and now - self._last_regroup_time < REGROUP_INTERVAL:
            return
        self._last_regroup_time = now
        by_table: Dict[str, List[ScanState]] = {}
        for state in self._states.values():
            by_table.setdefault(state.descriptor.table_name, []).append(state)
        # The combined group extents may occupy the whole bufferpool.
        self._groups = form_groups(
            by_table,
            self.pool_capacity,
            table_pages={
                name: self.catalog.table(name).n_pages for name in by_table
            },
        )
        self._group_by_id = {group.group_id: group for group in self._groups}
        config = self.config
        for group in self._groups:
            size = group.size
            for member in group.members:
                member.priority = release_priority(member, size, config)
        self.stats.regroups += 1
        tracer = trace_slot.active
        if tracer is not None:
            tracer.emit(Regrouped(
                time=now, n_scans=len(self._states),
                n_groups=len(self._groups), forced=force,
                group_sizes=tuple(group.size for group in self._groups),
            ))
        if self.invariant_hook is not None:
            self.invariant_hook()
