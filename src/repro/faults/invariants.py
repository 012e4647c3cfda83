"""Runtime checker for the sharing stack's structural invariants.

The sharing mechanism rests on structural properties that must hold
whenever the policy is quiescent (right after a scan starts or exits,
and after every regroup) and that no fault — a member dying, a disk
degrading, the pool shrinking — may break.  Each policy states its own
through :meth:`~repro.core.policy.SharingPolicy.invariant_problems`:
grouping-throttling its group membership, arc order, throttle-anchor
liveness and role priorities; cooperative its attach edges; PBM its
reuse-time map; and every non-steering policy NORMAL release
priorities.

Two more properties hold under every policy when the push prefetch
pipeline is enabled:

* **consumer-set liveness** — every scan registered as a consumer of a
  pushed extent (pending or delivered) is a registered scan; no
  consumer set survives ``abort_scan``;
* **at-most-once delivery** — within one push generation, no consumer
  receives an extent twice (``duplicate_deliveries`` stays 0).

and one on the bufferpool, fault or no fault: the **accounting
identity** ``logical = hits + misses + inflight_waits``.  Violations
raise :class:`InvariantViolation` so a chaos run fails loudly instead of
producing quietly-wrong metrics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.trace.events import InvariantChecked
import repro.trace.tracer as trace_slot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.buffer.pool import BufferPool
    from repro.buffer.push import PushPipeline
    from repro.core.policy import SharingPolicy


class InvariantViolation(AssertionError):
    """A sharing-stack invariant failed to hold."""


class InvariantChecker:
    """Validates policy/push/pool invariants; raises on the first violation.

    Reads only the policy's public surface, so the same checker (and the
    same fault-injector hook) guards every
    :class:`~repro.core.policy.SharingPolicy` implementation.
    """

    def __init__(
        self,
        manager: "SharingPolicy",
        pool: Optional["BufferPool"] = None,
        push: Optional["PushPipeline"] = None,
    ):
        self.manager = manager
        self.pool = pool
        self.push = push
        self.checks_run = 0

    def run_checks(self, strict_order: bool = False) -> None:
        """One full pass over the active policy's invariants.

        ``strict_order=True`` additionally asks for the checks valid only
        immediately after a regroup, before scans have drifted (the arc
        ordering of every group under grouping-throttling).
        """
        manager = self.manager
        for problem in manager.invariant_problems(strict_order):
            self._fail(problem)
        self._check_push()
        self._check_accounting()
        self.checks_run += 1
        tracer = trace_slot.active
        if tracer is not None:
            tracer.emit(InvariantChecked(
                time=manager.sim.now,
                n_scans=manager.active_scan_count,
                n_groups=len(manager.groups()),
                strict_order=strict_order,
            ))

    # ------------------------------------------------------------------
    # Individual invariants
    # ------------------------------------------------------------------

    def _fail(self, message: str) -> None:
        raise InvariantViolation(
            f"t={self.manager.sim.now:.6f}: {message}"
        )

    def _check_push(self) -> None:
        """Push pipeline: live consumer sets, at-most-once delivery."""
        pipeline = self.push
        if pipeline is None:
            return
        registered = {state.scan_id for state in self.manager.active_scans()}
        for key, consumers in pipeline.consumer_sets().items():
            for scan_id in sorted(consumers):
                if scan_id not in registered:
                    self._fail(
                        f"push consumer set for extent {key} still lists "
                        f"scan {scan_id}, which is no longer registered "
                        f"(consumer set survived the scan's departure)"
                    )
        for key, delivered in pipeline.delivery_counts().items():
            for scan_id, count in sorted(delivered.items()):
                if scan_id not in registered:
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
