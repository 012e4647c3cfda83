"""Runtime checker for the sharing stack's structural invariants.

The sharing mechanism rests on a handful of properties that must hold
whenever the manager is quiescent (i.e. right after a regroup) and that
no fault — a member dying, a disk degrading, the pool shrinking — may
break:

* **group membership** — every group member is a registered, unfinished
  scan; every registered scan belongs to at most one group; the
  ``group_id`` / ``is_leader`` / ``is_trailer`` flags stamped on states
  agree with the group structures.
* **group ordering** — members form a circular arc in scan direction:
  the forward distances trailer → … → leader sum to the trailer→leader
  distance and the arc fits inside the table circle.  (Checked only in
  *strict* mode: between regroups scans drift and the manager repairs
  ordering lazily via ``_order_violated``.)
* **throttle-anchor liveness** — the anchor a throttled leader would
  wait for is a registered, unfinished scan, never a ghost.
* **priority consistency** — the release priority each scan would get
  matches its group role (leader HIGH, trailer LOW in multi-member
  groups when prioritization is on).
* **accounting identity** — ``logical = hits + misses + inflight_waits``
  on the bufferpool, fault or no fault.

The group/anchor/priority invariants above are specific to the
``grouping-throttling`` policy.  The rival policies carry their own
structural invariants instead:

* ``cooperative`` — every live attach edge connects two registered
  scans (no ghost attach targets after an abort), and every release
  priority is NORMAL (cooperative scans do not steer the pool);
* ``pbm`` — the reuse-time map holds exactly the registered, unfinished
  scans (a departed scan's predictions must not linger), and every
  release priority is NORMAL.

When the push prefetch pipeline is enabled two more properties hold
under every policy:

* **consumer-set liveness** — every scan registered as a consumer of a
  pushed extent (pending or delivered) is a registered scan; no
  consumer set survives ``abort_scan``;
* **at-most-once delivery** — within one push generation, no consumer
  receives an extent twice (``duplicate_deliveries`` stays 0).

The accounting identity holds under every policy.  Violations raise
:class:`InvariantViolation` so a chaos run fails loudly instead of
producing quietly-wrong metrics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.buffer.page import Priority
from repro.trace.events import InvariantChecked
import repro.trace.tracer as trace_slot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.buffer.pool import BufferPool
    from repro.core.policy import SharingPolicy


class InvariantViolation(AssertionError):
    """A sharing-stack invariant failed to hold."""


class InvariantChecker:
    """Validates manager/pool invariants; raises on the first violation.

    The check set is selected by the manager's ``policy_name``, so the
    same checker (and the same fault-injector hook) guards every
    :class:`~repro.core.policy.SharingPolicy` implementation.
    """

    def __init__(
        self,
        manager: "SharingPolicy",
        pool: Optional["BufferPool"] = None,
    ):
        self.manager = manager
        self.pool = pool
        self.checks_run = 0

    def run_checks(self, strict_order: bool = False) -> None:
        """One full pass over the active policy's invariants.

        ``strict_order=True`` additionally validates the circular arc
        ordering of every group (grouping-throttling only) — only valid
        immediately after a regroup, before scans have drifted.
        """
        policy = getattr(self.manager, "policy_name", "grouping-throttling")
        if policy == "cooperative":
            self._check_attach_edges()
            self._check_flat_priorities()
        elif policy == "pbm":
            self._check_reuse_sources()
            self._check_flat_priorities()
        else:
            self._check_groups(strict_order)
            self._check_anchors()
            self._check_priorities()
        self._check_push()
        self._check_accounting()
        self.checks_run += 1
        tracer = trace_slot.active
        if tracer is not None:
            manager = self.manager
            tracer.emit(InvariantChecked(
                time=manager.sim.now,
                n_scans=len(manager._states),
                n_groups=len(getattr(manager, "_groups", ())),
                strict_order=strict_order,
            ))

    # ------------------------------------------------------------------
    # Individual invariants
    # ------------------------------------------------------------------

    def _fail(self, message: str) -> None:
        raise InvariantViolation(
            f"t={self.manager.sim.now:.6f}: {message}"
        )

    def _check_groups(self, strict_order: bool) -> None:
        manager = self.manager
        states = manager._states
        seen_in_group = {}
        for group in manager._groups:
            if group.size == 0:
                self._fail(f"group {group.group_id} is empty")
            for index, member in enumerate(group.members):
                registered = states.get(member.scan_id)
                if registered is not member:
                    self._fail(
                        f"group {group.group_id} member scan {member.scan_id} "
                        f"is not a registered scan (dead member left in group)"
                    )
                if member.finished:
                    self._fail(
                        f"group {group.group_id} member scan {member.scan_id} "
                        f"is finished"
                    )
                if member.scan_id in seen_in_group:
                    self._fail(
                        f"scan {member.scan_id} appears in groups "
                        f"{seen_in_group[member.scan_id]} and {group.group_id}"
                    )
                seen_in_group[member.scan_id] = group.group_id
                if member.group_id != group.group_id:
                    self._fail(
                        f"scan {member.scan_id} carries group_id "
                        f"{member.group_id} but sits in group {group.group_id}"
                    )
                expect_leader = index == group.size - 1
                expect_trailer = index == 0
                if member.is_leader != expect_leader:
                    self._fail(
                        f"scan {member.scan_id} is_leader={member.is_leader} "
                        f"but holds position {index} of {group.size} in group "
                        f"{group.group_id}"
                    )
                if member.is_trailer != expect_trailer:
                    self._fail(
                        f"scan {member.scan_id} is_trailer={member.is_trailer} "
                        f"but holds position {index} of {group.size} in group "
                        f"{group.group_id}"
                    )
            if strict_order and group.size > 1:
                circle = group.table_pages
                if circle <= 0:
                    circle = manager.catalog.table(group.table_name).n_pages
                hops = sum(
                    group.members[i].forward_distance_to(
                        group.members[i + 1], circle
                    )
                    for i in range(group.size - 1)
                )
                span = group.trailer.forward_distance_to(group.leader, circle)
                if hops != span:
                    self._fail(
                        f"group {group.group_id} members are not arc-ordered: "
                        f"consecutive hops sum to {hops}, trailer→leader "
                        f"distance is {span}"
                    )
                if span >= circle:
                    self._fail(
                        f"group {group.group_id} arc spans {span} pages on a "
                        f"{circle}-page circle"
                    )
        group_ids = {group.group_id for group in manager._groups}
        for state in states.values():
            if state.group_id is not None and manager._groups:
                if state.group_id not in group_ids:
                    self._fail(
                        f"scan {state.scan_id} carries stale group_id "
                        f"{state.group_id} (no such group)"
                    )
                if state.scan_id not in seen_in_group:
                    self._fail(
                        f"scan {state.scan_id} carries group_id "
                        f"{state.group_id} but no group lists it"
                    )
            if state.group_id is None and (state.is_leader or state.is_trailer):
                self._fail(
                    f"ungrouped scan {state.scan_id} carries leader/trailer "
                    f"flags ({state.is_leader}/{state.is_trailer})"
                )

    def _check_anchors(self) -> None:
        manager = self.manager
        for group in manager._groups:
            if group.size <= 1:
                continue
            anchors = [
                member
                for member in group.members
                if member.scan_id != group.leader.scan_id
                and not member.finished
                and not member.throttle_exempt
            ]
            if not anchors:
                continue  # leader legitimately runs free
            anchor = anchors[0]
            registered = manager._states.get(anchor.scan_id)
            if registered is not anchor or anchor.finished:
                self._fail(
                    f"group {group.group_id} throttle anchor scan "
                    f"{anchor.scan_id} is dead or finished — the leader "
                    f"would wait forever"
                )

    def _check_priorities(self) -> None:
        # Derive the expected priority from the group *structure* (member
        # positions), not from the stamped flags page_priority itself
        # reads — so a stale flag shows up as a mismatch.
        manager = self.manager
        config = manager.config
        adaptive = (
            config.enabled
            and config.prioritization_enabled
            and config.grouping_enabled
        )
        for state in manager._states.values():
            group = manager._group_of(state)
            expected = Priority.NORMAL
            if adaptive and group is not None and group.size > 1:
                if state.scan_id == group.leader.scan_id:
                    expected = Priority.HIGH
                elif state.scan_id == group.trailer.scan_id:
                    expected = Priority.LOW
            actual = manager.page_priority(state.scan_id)
            if actual != expected:
                self._fail(
                    f"scan {state.scan_id} releases at priority {actual!r} "
                    f"but its group role implies {expected!r}"
                )

    def _check_attach_edges(self) -> None:
        """Cooperative: live attach edges connect registered scans only."""
        manager = self.manager
        states = manager._states
        for follower, target in manager.attach_edges().items():
            if follower not in states:
                self._fail(
                    f"attach edge from unregistered scan {follower} "
                    f"(to {target}) survived its owner's departure"
                )
            if target not in states:
                self._fail(
                    f"scan {follower} still attached to departed scan "
                    f"{target} (ghost attach target)"
                )

    def _check_reuse_sources(self) -> None:
        """PBM: the reuse-time map mirrors the registered scans exactly."""
        manager = self.manager
        states = manager._states
        listed = set()
        for space_id, scans in manager.reuse_sources().items():
            if not scans:
                self._fail(f"reuse-time map keeps empty space {space_id}")
            for scan_id, state in scans.items():
                registered = states.get(scan_id)
                if registered is not state:
                    self._fail(
                        f"reuse-time map lists scan {scan_id} on space "
                        f"{space_id} but it is not a registered scan "
                        f"(stale prediction source)"
                    )
                if state.finished:
                    self._fail(
                        f"reuse-time map lists finished scan {scan_id} "
                        f"on space {space_id}"
                    )
                listed.add(scan_id)
        for scan_id in states:
            if scan_id not in listed:
                self._fail(
                    f"registered scan {scan_id} is missing from the "
                    f"reuse-time map (its pages would all predict inf)"
                )

    def _check_flat_priorities(self) -> None:
        """Non-steering policies: every release priority is NORMAL."""
        manager = self.manager
        for scan_id in manager._states:
            actual = manager.page_priority(scan_id)
            if actual != Priority.NORMAL:
                self._fail(
                    f"scan {scan_id} releases at priority {actual!r} under "
                    f"{manager.policy_name}, which never steers the pool"
                )

    def _check_push(self) -> None:
        """Push pipeline: live consumer sets, at-most-once delivery."""
        pipeline = getattr(self.manager, "push_pipeline", None)
        if pipeline is None:
            return
        states = self.manager._states
        for key, consumers in pipeline.consumer_sets().items():
            for scan_id in sorted(consumers):
                if scan_id not in states:
                    self._fail(
                        f"push consumer set for extent {key} still lists "
                        f"scan {scan_id}, which is no longer registered "
                        f"(consumer set survived the scan's departure)"
                    )
        for key, delivered in pipeline.delivery_counts().items():
            for scan_id, count in sorted(delivered.items()):
                if scan_id not in states:
                    self._fail(
                        f"push delivery log for extent {key} still lists "
                        f"departed scan {scan_id}"
                    )
                if count > 1:
                    self._fail(
                        f"extent {key} was delivered {count} times to scan "
                        f"{scan_id} within one push generation"
                    )
        if pipeline.stats.duplicate_deliveries:
            self._fail(
                f"push pipeline recorded "
                f"{pipeline.stats.duplicate_deliveries} duplicate deliveries "
                f"(at-most-once per consumer per generation violated)"
            )

    def _check_accounting(self) -> None:
        if self.pool is None:
            return
        stats = self.pool.stats
        classified = stats.hits + stats.misses + stats.inflight_waits
        if stats.logical_reads != classified:
            self._fail(
                f"bufferpool accounting identity broken: logical_reads="
                f"{stats.logical_reads} but hits+misses+inflight_waits="
                f"{classified} ({stats.hits}+{stats.misses}+"
                f"{stats.inflight_waits})"
            )
