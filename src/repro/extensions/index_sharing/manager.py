"""The index scan sharing manager (ISM) — anchors, offsets, placement.

Location semantics: the ISM stores each SISCAN's current location (a
key position) and can *compare* locations — keys are ordered — but it
cannot compute a *distance* from two locations, because index entries
are not uniformly spaced over pages.  Distances therefore come from the
anchor/offset machinery: a scan's offset counts the entries it advanced
since its anchor, and two scans sharing an anchor are ordered by offset
difference.  Scans acquire a shared anchor when one is placed at the
other's location.

A SISCAN that wraps (finishes phase one and restarts at its range
start) receives a *fresh* anchor: the jump breaks the offset ordering
with its old group, exactly as a newly started scan would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.buffer.page import Priority
from repro.core.config import SharingConfig
from repro.sim.kernel import Simulator

_MIN_SPEED = 1e-9


@dataclass(frozen=True)
class IndexScanDescriptor:
    """Registration data for one index scan (key range + estimates)."""

    index_name: str
    first_entry: int
    last_entry: int
    estimated_speed: float  # entries per second

    def __post_init__(self) -> None:
        if self.first_entry < 0 or self.last_entry < self.first_entry:
            raise ValueError(
                f"bad entry range [{self.first_entry}, {self.last_entry}]"
            )
        if self.estimated_speed <= 0:
            raise ValueError(
                f"estimated_speed must be positive, got {self.estimated_speed}"
            )

    @property
    def range_entries(self) -> int:
        """Entries between start and end key, inclusive."""
        return self.last_entry - self.first_entry + 1

    @property
    def estimated_total_time(self) -> float:
        """Estimated seconds for the whole scan."""
        return self.range_entries / self.estimated_speed


@dataclass
class IndexScanState:
    """Runtime state of one registered SISCAN."""

    scan_id: int
    descriptor: IndexScanDescriptor
    start_entry: int
    start_time: float
    speed: float
    anchor_id: int = -1
    anchor_offset: int = 0
    location: int = 0  # current key position (entry index)
    entries_scanned: int = 0
    last_update_time: float = 0.0
    entries_at_last_update: int = 0
    accumulated_delay: float = 0.0
    throttle_exempt: bool = False
    finished: bool = False
    is_leader: bool = False
    is_trailer: bool = False

    @property
    def remaining_entries(self) -> int:
        """Entries left in the scan."""
        return max(0, self.descriptor.range_entries - self.entries_scanned)


@dataclass
class AnchorGroup:
    """Scans sharing one anchor, ordered by offset."""

    anchor_id: int
    members: List[IndexScanState] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def trailer(self) -> IndexScanState:
        """Smallest offset (rear of the group)."""
        return self.members[0]

    @property
    def leader(self) -> IndexScanState:
        """Largest offset (front of the group)."""
        return self.members[-1]


@dataclass
class IndexSharingStats:
    """Counters for tests and reports."""

    scans_started: int = 0
    scans_finished: int = 0
    scans_joined: int = 0
    anchors_created: int = 0
    throttle_waits: int = 0
    total_throttle_time: float = 0.0
    rebases_on_wrap: int = 0


class IndexScanSharingManager:
    """Tracks SISCANs and decides placement, waits, and priorities."""

    def __init__(
        self,
        sim: Simulator,
        pages_per_entry: int,
        pool_capacity: int,
        config: Optional[SharingConfig] = None,
    ):
        if pages_per_entry < 1:
            raise ValueError(f"pages_per_entry must be >= 1, got {pages_per_entry}")
        self.sim = sim
        self.pages_per_entry = pages_per_entry
        self.pool_capacity = pool_capacity
        self.config = config or SharingConfig()
        self.stats = IndexSharingStats()
        self._states: Dict[int, IndexScanState] = {}
        self._last_finished: Dict[str, int] = {}
        self._next_scan_id = 0
        self._next_anchor_id = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start_scan(self, descriptor: IndexScanDescriptor) -> IndexScanState:
        """Register a SISCAN; decides its start location and anchor."""
        start_entry, joined = self._place(descriptor)
        state = IndexScanState(
            scan_id=self._next_scan_id,
            descriptor=descriptor,
            start_entry=start_entry,
            start_time=self.sim.now,
            speed=descriptor.estimated_speed,
            location=start_entry,
            last_update_time=self.sim.now,
        )
        self._next_scan_id += 1
        if joined is not None:
            state.anchor_id = joined.anchor_id
            state.anchor_offset = joined.anchor_offset
            self.stats.scans_joined += 1
        else:
            state.anchor_id = self._new_anchor()
            state.anchor_offset = 0
        self._states[state.scan_id] = state
        self.stats.scans_started += 1
        self._reclassify()
        return state

    def update_location(
        self, scan_id: int, location: int, entries_scanned: int,
        wrapped_since_last: bool = False,
    ) -> float:
        """Record progress; returns seconds of inserted throttle wait.

        ``wrapped_since_last`` tells the ISM the scan jumped from its
        range end back to its range start, which rebases it onto a fresh
        anchor (offset ordering with the old group is void).
        """
        state = self._state(scan_id)
        if entries_scanned < state.entries_scanned:
            raise ValueError(
                f"scan {scan_id}: entries_scanned went backwards "
                f"({entries_scanned} < {state.entries_scanned})"
            )
        delta_entries = entries_scanned - state.entries_at_last_update
        delta_time = self.sim.now - state.last_update_time
        if wrapped_since_last:
            state.anchor_id = self._new_anchor()
            state.anchor_offset = 0
            self.stats.rebases_on_wrap += 1
        else:
            state.anchor_offset += entries_scanned - state.entries_scanned
        state.location = location
        state.entries_scanned = entries_scanned
        if delta_time > 0 and delta_entries > 0:
            instantaneous = delta_entries / delta_time
            alpha = self.config.speed_smoothing
            state.speed = alpha * instantaneous + (1 - alpha) * state.speed
        # Advance unconditionally, as SharingPolicy._record_progress does:
        # entries reported at zero elapsed time must not be counted again,
        # and a no-progress interval must not stretch the next window.
        state.last_update_time = self.sim.now
        state.entries_at_last_update = entries_scanned

        if not (self.config.enabled and self.config.throttling_enabled):
            self._reclassify()
            return 0.0
        self._reclassify()
        return self._throttle(state)

    def page_priority(self, scan_id: int) -> Priority:
        """Release priority for the scan's current block pages."""
        state = self._state(scan_id)
        if not (
            self.config.enabled
            and self.config.prioritization_enabled
            and self.config.grouping_enabled
        ):
            return Priority.NORMAL
        group = self._group_of(state)
        if group is None or group.size <= 1:
            return Priority.NORMAL
        if state.is_leader:
            return Priority.HIGH
        if state.is_trailer:
            return Priority.LOW
        return Priority.NORMAL

    def end_scan(self, scan_id: int) -> None:
        """Deregister a finished SISCAN."""
        state = self._state(scan_id)
        state.finished = True
        self._last_finished[state.descriptor.index_name] = state.location
        del self._states[scan_id]
        self.stats.scans_finished += 1
        self._reclassify()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def active_scan_count(self) -> int:
        """Currently registered scans."""
        return len(self._states)

    def anchor_groups(self) -> List[AnchorGroup]:
        """Current anchor groups (size >= 1), ordered by anchor id."""
        by_anchor: Dict[int, List[IndexScanState]] = {}
        for state in self._states.values():
            by_anchor.setdefault(state.anchor_id, []).append(state)
        groups = []
        for anchor_id in sorted(by_anchor):
            members = sorted(
                by_anchor[anchor_id], key=lambda s: (s.anchor_offset, s.scan_id)
            )
            groups.append(AnchorGroup(anchor_id=anchor_id, members=members))
        return groups

    # ------------------------------------------------------------------
    # Placement — the sharing-potential estimate
    # ------------------------------------------------------------------

    def expected_shared_pages(
        self, descriptor: IndexScanDescriptor, candidate: IndexScanState
    ) -> float:
        """Estimated pages co-read if the new scan starts at ``candidate``.

        Constant-speed analysis (the paper's calculateReads evaluated for
        a two-scan overlap): sharing lasts until either the candidate
        finishes or the new scan reaches its range end (its pre-wrap
        phase), and proceeds at the slower scan's pace.
        """
        if candidate.finished:
            return 0.0
        if not descriptor.first_entry <= candidate.location <= descriptor.last_entry:
            return 0.0
        phase_one = descriptor.last_entry - candidate.location + 1
        cand_speed = max(candidate.speed, _MIN_SPEED)
        new_speed = max(descriptor.estimated_speed, _MIN_SPEED)
        overlap_time = min(
            candidate.remaining_entries / cand_speed, phase_one / new_speed
        )
        shared_entries = overlap_time * min(cand_speed, new_speed)
        return shared_entries * self.pages_per_entry

    def _place(
        self, descriptor: IndexScanDescriptor
    ) -> Tuple[int, Optional[IndexScanState]]:
        if not (self.config.enabled and self.config.placement_enabled):
            return descriptor.first_entry, None
        candidates = [
            state
            for state in self._states.values()
            if state.descriptor.index_name == descriptor.index_name
        ]
        best: Optional[IndexScanState] = None
        best_pages = 0.0
        for candidate in candidates:
            pages = self.expected_shared_pages(descriptor, candidate)
            if pages > best_pages:
                best_pages = pages
                best = candidate
        if best is not None and best_pages >= self.config.min_share_pages:
            return best.location, best
        if not candidates:
            last = self._last_finished.get(descriptor.index_name)
            if last is not None:
                leftover_entries = max(
                    1, self.pool_capacity // (2 * self.pages_per_entry)
                )
                backed_off = last - leftover_entries + 1
                if descriptor.first_entry < backed_off <= descriptor.last_entry:
                    return backed_off, None
        return descriptor.first_entry, None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _state(self, scan_id: int) -> IndexScanState:
        try:
            return self._states[scan_id]
        except KeyError:
            raise KeyError(f"unknown or finished index scan id {scan_id}") from None

    def _new_anchor(self) -> int:
        anchor_id = self._next_anchor_id
        self._next_anchor_id += 1
        self.stats.anchors_created += 1
        return anchor_id

    def _group_of(self, state: IndexScanState) -> Optional[AnchorGroup]:
        for group in self.anchor_groups():
            if any(m.scan_id == state.scan_id for m in group.members):
                return group
        return None

    def _reclassify(self) -> None:
        if not (self.config.enabled and self.config.grouping_enabled):
            for state in self._states.values():
                state.is_leader = state.is_trailer = False
            return
        for group in self.anchor_groups():
            for member in group.members:
                member.is_leader = member.scan_id == group.leader.scan_id
                member.is_trailer = member.scan_id == group.trailer.scan_id

    def _throttle(self, state: IndexScanState) -> float:
        group = self._group_of(state)
        if group is None or group.size <= 1:
            return 0.0
        if not state.is_leader or state.throttle_exempt:
            return 0.0
        trailer = group.trailer
        if trailer.finished:
            return 0.0
        gap_entries = state.anchor_offset - trailer.anchor_offset
        threshold_entries = (
            self.config.distance_threshold_extents
            * 16  # pages per prefetch extent (the prototype's constant)
            / self.pages_per_entry
        )
        if gap_entries <= threshold_entries:
            return 0.0
        target_entries = (
            self.config.target_distance_extents * 16 / self.pages_per_entry
        )
        wait = (gap_entries - target_entries) / max(trailer.speed, _MIN_SPEED)
        wait = min(wait, self.config.max_wait_per_update)
        allowance = (
            self.config.slowdown_cap_fraction * state.descriptor.estimated_total_time
            - state.accumulated_delay
        )
        if allowance <= 0:
            state.throttle_exempt = True
            return 0.0
        if wait > allowance:
            wait = allowance
            state.throttle_exempt = True
        state.accumulated_delay += wait
        self.stats.throttle_waits += 1
        self.stats.total_throttle_time += wait
        return wait
