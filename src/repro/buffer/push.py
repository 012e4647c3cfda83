"""The leader-driven push prefetch pipeline.

The classic model in this codebase is *pull*: every scan demands a page,
misses read one prefetch extent, and trailing group members re-request
pages their leader already consumed.  The push model (the
High-Throughput Push-Based Storage Manager thesis, arXiv 1905.07113)
inverts it: when the *driving* scan of a consumer set crosses an extent
boundary, the sharing policy registers every member of the set as a
consumer of the next few extents, the storage array fetches each extent
**once** from its owning device, and the completed pages fan out to all
registered consumers — trailers never issue a re-request for pushed
pages, they simply hit.

Responsibilities are split three ways:

* the sharing policy answers *who* consumes (``push_consumer_set``) and
  *who* drives (``is_push_driver``) — group members behind the leader,
  cooperative followers behind their attach target;
* :meth:`~repro.buffer.pool.BufferPool.push_read` answers *how* pages
  become resident without disturbing hit/miss accounting;
* this pipeline owns the consumer bookkeeping: registration merging,
  at-most-once delivery per consumer per push, and purging a scan from
  every consumer set the moment it ends or aborts (the invariant checker
  asserts both properties under fault injection).

With ``push_enabled=False`` (the default) this module is never
constructed and every metric stays byte-identical to a build without it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

#: A pushed unit: (table name, extent number).
ExtentKey = Tuple[str, int]


@dataclass
class PushStats:
    """Cumulative pipeline counters (tests, invariants, bench tables)."""

    #: Fresh push generations started (one physical fetch each, at most).
    extents_pushed: int = 0
    #: Registrations merged into an already in-flight push of the extent.
    merged_registrations: int = 0
    #: Pushes answered entirely from resident/in-flight pages.
    extents_already_resident: int = 0
    #: Pushes dropped because no clean room could be made.
    extents_dropped_no_room: int = 0
    #: Pushes deferred because the outstanding-push budget was full
    #: (bounds pool churn: a push must never thrash pages faster than
    #: consumers drain them).
    extents_throttled: int = 0
    #: Per-consumer extent deliveries fanned out by the sim kernel.
    deliveries: int = 0
    pages_delivered: int = 0
    #: Deliveries that would have been the second one for the same
    #: consumer within one push generation.  Always 0 — the invariant
    #: checker fails the run otherwise.
    duplicate_deliveries: int = 0
    #: ``on_extent_entered`` calls by scans that are not their set's
    #: driver (trailers/followers — they never issue requests).
    non_driver_calls: int = 0
    #: Consumer registrations dropped because the scan ended or aborted
    #: before its extent landed.
    purged_registrations: int = 0


@dataclass
class _PushState:
    """Bookkeeping for one in-flight or delivered push generation."""

    consumers: Set[int] = field(default_factory=set)
    delivered: Dict[int, int] = field(default_factory=dict)
    #: Pages this push put in flight (charged against the budget until
    #: fan-out).
    pages_issued: int = 0


class PushPipeline:
    """Fan-out coordinator between sharing policy, pool, and array."""

    #: Extents kept in flight ahead of the driving scan when the config
    #: asks for "auto" (``push_depth=0``).  One extent ahead keeps the
    #: next extent's owning device busy while the current one is
    #: consumed; deeper pipelines read ahead of what small pools can
    #: hold and start thrashing pages their own consumers still need.
    DEFAULT_DEPTH = 1

    #: Ceiling on pages in flight from pushes, as a fraction of pool
    #: capacity.  Past it new pushes are deferred (the driver's next
    #: extent crossing retries), so the pipeline can never churn a small
    #: pool faster than consumers drain it.
    BUDGET_FRACTION = 0.125

    def __init__(self, sim, pool, catalog, policy, depth: int = 0):
        if depth < 0:
            raise ValueError(f"push depth must be >= 0, got {depth}")
        self.sim = sim
        self.pool = pool
        self.catalog = catalog
        self.policy = policy
        self.depth = depth or self.DEFAULT_DEPTH
        self.stats = PushStats()
        self.page_budget = max(1, int(pool.capacity * self.BUDGET_FRACTION))
        self._outstanding_pages = 0
        # Extents with a registration cycle open: consumers still waiting
        # for fan-out.  Popped (moved to _delivered) when the extent's
        # pages land.
        self._pending: Dict[ExtentKey, _PushState] = {}
        # Completed generations, kept until a re-push or scan exit purges
        # them; the at-most-once invariant is checked against these.
        self._delivered: Dict[ExtentKey, _PushState] = {}
        policy.bind_push(self)

    # ------------------------------------------------------------------
    # Scan-facing entry points
    # ------------------------------------------------------------------

    def on_extent_entered(
        self,
        scan_id: int,
        table,
        extent_no: int,
        first_page: int,
        last_page: int,
    ) -> None:
        """The scan crossed into ``extent_no``: stage the extents ahead.

        Only the consumer set's driver issues pushes; every other member
        returns immediately (that *is* the no-re-request property).
        """
        if not self.policy.is_push_driver(scan_id):
            self.stats.non_driver_calls += 1
            return
        consumers = self.policy.push_consumer_set(scan_id)
        first_extent = table.extent_of(first_page)
        last_extent = table.extent_of(last_page)
        target = extent_no
        for _ in range(self.depth):
            target = target + 1 if target < last_extent else first_extent
            if target == extent_no:
                break  # the range is narrower than the pipeline depth
            self._push_extent(consumers, table, target)

    def scan_ended(self, scan_id: int, aborted: bool) -> None:
        """Purge a departing scan from every consumer set and log.

        Called by :meth:`SharingPolicy._retire` for clean ends and aborts
        alike, so no consumer set ever survives ``abort_scan``.
        """
        del aborted  # same cleanup either way
        for state in self._pending.values():
            if scan_id in state.consumers:
                state.consumers.discard(scan_id)
                self.stats.purged_registrations += 1
        for state in self._delivered.values():
            state.consumers.discard(scan_id)
            state.delivered.pop(scan_id, None)

    # ------------------------------------------------------------------
    # Introspection (invariant checker, tests)
    # ------------------------------------------------------------------

    def consumer_sets(self) -> Dict[ExtentKey, Set[int]]:
        """Live (pending) extent -> consumer-set snapshot."""
        return {
            key: set(state.consumers) for key, state in self._pending.items()
        }

    def delivery_counts(self) -> Dict[ExtentKey, Dict[int, int]]:
        """Completed extent -> per-consumer delivery counts."""
        return {
            key: dict(state.delivered)
            for key, state in self._delivered.items()
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _push_extent(self, consumers, table, extent_no: int) -> None:
        key = (table.name, extent_no)
        pending = self._pending.get(key)
        if pending is not None:
            # A push of this extent is already in flight (our own earlier
            # call, or another group's driver): merge the registration —
            # the pool's in-flight merging already guarantees one
            # physical fetch, the set union guarantees one delivery each.
            pending.consumers.update(consumers)
            self.stats.merged_registrations += 1
            return
        done = self._delivered.get(key)
        if done is not None and set(consumers) <= set(done.delivered):
            # The last generation already reached every consumer in this
            # set; the driver advancing one extent re-announces the same
            # pipeline window, it is not a new push.
            return
        # Interned in the catalog — one dict hit per extent, no per-page
        # key construction on the push hot path.
        keys = self.catalog.extent_keys(table.name, extent_no)
        # The budget is a ceiling, not a gate: with nothing outstanding one
        # push always proceeds, so a pool smaller than budget/extent math
        # would suggest still gets at-most-one extent in flight.
        if self._outstanding_pages + len(keys) > self.page_budget:
            self.stats.extents_throttled += 1
            return
        state = _PushState(consumers=set(consumers))
        self._pending[key] = state
        # A re-push (evicted extent, or a new consumer joined) starts a
        # fresh generation; the previous generation's delivery log must
        # not trip the at-most-once check against the new deliveries.
        self._delivered.pop(key, None)
        completion, outcome = self.pool.push_read(keys)
        if outcome == "no_room":
            self._pending.pop(key, None)
            self.stats.extents_dropped_no_room += 1
            return
        self.stats.extents_pushed += 1
        if completion is None:
            self.stats.extents_already_resident += 1
            self._fan_out(key, len(keys))
        else:
            state.pages_issued = len(keys)
            self._outstanding_pages += len(keys)
            completion.add_callback(
                lambda _ev, k=key, n=len(keys): self._fan_out(k, n)
            )

    def _fan_out(self, key: ExtentKey, n_pages: int) -> None:
        """The extent landed: deliver it to every registered consumer."""
        state = self._pending.pop(key, None)
        if state is None:
            return
        self._outstanding_pages -= state.pages_issued
        for consumer in sorted(state.consumers):
            count = state.delivered.get(consumer, 0) + 1
            state.delivered[consumer] = count
            if count > 1:
                self.stats.duplicate_deliveries += 1
            self.stats.deliveries += 1
            self.stats.pages_delivered += n_pages
        self._delivered[key] = state
