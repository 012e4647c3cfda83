"""The bufferpool: fix/unfix with prefetch, in-flight merging, priorities.

Scans interact with the pool exactly the way the paper's pseudo-code
does::

    frame = yield from pool.fix(key, prefetch=extent_keys)
    ... process the page ...
    pool.unfix(key, priority=ism.pr())

Two properties matter for reproducing the paper's numbers:

* **In-flight merging** — if scan B fixes a page for which scan A's read
  is already on the disk queue, B waits on A's I/O instead of issuing a
  second one.  This is how close-together scans turn into hits rather
  than duplicated physical reads.
* **Prefetch** — a miss reads the whole surrounding run of non-resident
  pages (one prefetch extent) in a single disk request, so seek counts
  reflect extents, not pages, matching the DB2 prototype's sequential
  prefetch.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import repro.trace.tracer as trace_slot
from repro.buffer.page import Frame, PageKey, Priority
from repro.buffer.replacement import ReplacementPolicy, make_policy
from repro.buffer.stats import BufferStats
from repro.disk.device import Disk
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.trace.events import BufferEvict, BufferFix, BufferRelease

AddressOf = Callable[[PageKey], int]

#: Placeholder identity for slab frames that do not hold a page yet.
_NO_KEY = PageKey(-1, -1)

#: Bit width reserved for page numbers in the int-packed slot-map key;
#: ``space_id << _PAGE_BITS | page_no`` is injective for any database this
#: simulator can hold and hashes as a plain int (identity hash) instead of
#: a two-element tuple.
_PAGE_BITS = 48


class BufferPoolError(RuntimeError):
    """Raised on pin-count misuse or pool overcommit."""


class FrameReservation:
    """A named frame reservation held by a memory-budgeted operator.

    Unlike the anonymous fault-pressure counter, a named reservation
    tracks *who* holds the frames and can be clawed back one frame at a
    time under pool pressure: the pool decrements :attr:`granted`,
    increments :attr:`clawed`, and invokes ``on_clawback`` so the owner
    can mark itself for spilling.  The callback is bookkeeping only — it
    must not perform simulation I/O (claw-back happens inside the pool's
    eviction path, which is not a point where an operator generator can
    be driven).
    """

    __slots__ = ("name", "granted", "clawed", "on_clawback", "released")

    def __init__(self, name: str, granted: int, on_clawback=None):
        self.name = name
        self.granted = granted
        self.clawed = 0
        self.on_clawback = on_clawback
        self.released = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FrameReservation({self.name!r}, granted={self.granted}, "
            f"clawed={self.clawed})"
        )


class PoolExhausted(BufferPoolError):
    """Every frame is pinned, reserved, or in flight: no victim exists.

    The single typed endpoint for "the pool cannot make room": raised
    only after eviction found nothing, no in-flight read can be waited
    on, and no reserved frame can be clawed back.  Callers that want to
    survive overcommit (rather than treat it as a bug) catch this one
    type instead of pattern-matching message strings.
    """


class BufferPool:
    """A fixed-capacity page cache over a simulated disk."""

    #: Safety bound for the fix retry loop (a re-fixed page being evicted
    #: between I/O completion and pinning is rare; more than a handful of
    #: retries indicates a livelock-sized pool).
    MAX_FIX_RETRIES = 16

    def __init__(
        self,
        sim: Simulator,
        disk: Disk,
        capacity: int,
        address_of: AddressOf,
        policy: Optional[ReplacementPolicy] = None,
        name: str = "bufferpool",
    ):
        if capacity < 4:
            raise BufferPoolError(f"bufferpool capacity must be >= 4, got {capacity}")
        self.sim = sim
        self.disk = disk
        self.capacity = capacity
        self.address_of = address_of
        self.policy = policy if policy is not None else make_policy(
            "priority-lru", capacity
        )
        self.name = name
        self.stats = BufferStats()
        # Slot-indexed frame table: a contiguous slab of ``capacity``
        # preallocated frames, a LIFO free-slot stack, and an int-keyed
        # page→slot map.  Admission recycles a slab frame (a few attribute
        # stores) instead of constructing a dataclass, and every residency
        # probe is an int-dict hit.  ``_slot_map`` preserves admission
        # order, so ``resident_keys()`` reads exactly as the old
        # ``Dict[PageKey, Frame]`` did.
        self._slots: List[Frame] = [Frame(key=_NO_KEY) for _ in range(capacity)]
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        self._slot_map: Dict[int, int] = {}
        self._inflight: Dict[PageKey, Event] = {}
        # Frames reserved away by external pressure (fault injection)
        # plus named operator reservations; always 0 in runs that use
        # neither, so every path below behaves exactly as if the
        # reservation mechanism did not exist.
        self._reserved = 0
        # Named claimants (memory-budgeted operators).  The sum of their
        # ``granted`` counts is part of ``_reserved``; the remainder is
        # the anonymous fault-pressure share.
        self._claimants: List[FrameReservation] = []
        self.clawed_back_frames = 0

    # ------------------------------------------------------------------
    # External pressure (fault injection)
    # ------------------------------------------------------------------

    #: Frames that can never be reserved away: forward progress needs a
    #: handful of pinnable frames (mirrors the capacity >= 4 floor).
    MIN_USABLE_FRAMES = 4

    @property
    def effective_capacity(self) -> int:
        """Capacity minus frames reserved by external pressure."""
        return self.capacity - self._reserved

    @property
    def reserved_frames(self) -> int:
        """Frames currently reserved away from the pool."""
        return self._reserved

    def reserve(self, pages: int) -> int:
        """Reserve up to ``pages`` frames away from the pool.

        Clamped so at least :data:`MIN_USABLE_FRAMES` remain usable;
        returns the number actually reserved.
        """
        if pages < 0:
            raise BufferPoolError(f"cannot reserve {pages} pages")
        granted = max(
            0, min(pages, self.capacity - self.MIN_USABLE_FRAMES - self._reserved)
        )
        self._reserved += granted
        return granted

    def release_reserved(self, pages: int) -> int:
        """Return previously reserved *anonymous* frames.

        Clamped to the anonymous share so a fault-pressure release can
        never free frames a named operator reservation still holds.
        Returns how many frames were actually freed.
        """
        if pages < 0:
            raise BufferPoolError(f"cannot release {pages} reserved pages")
        anonymous = self._reserved - sum(r.granted for r in self._claimants)
        freed = min(pages, anonymous)
        self._reserved -= freed
        return freed

    # ------------------------------------------------------------------
    # Named operator reservations (memory-budgeted operators)
    # ------------------------------------------------------------------

    def reserve_frames(
        self, name: str, pages: int, on_clawback=None
    ) -> FrameReservation:
        """Grant a named, claw-backable frame reservation.

        The grant is clamped exactly like :meth:`reserve`; the returned
        :class:`FrameReservation` records how many frames the owner
        actually holds (``granted``) and how many the pool later clawed
        back (``clawed``).  Release with :meth:`release_frames`.
        """
        granted = self.reserve(pages)
        reservation = FrameReservation(name, granted, on_clawback)
        self._claimants.append(reservation)
        return reservation

    def release_frames(self, reservation: FrameReservation) -> int:
        """Return every frame a named reservation still holds."""
        if reservation.released:
            return 0
        reservation.released = True
        try:
            self._claimants.remove(reservation)
        except ValueError:
            return 0
        freed = reservation.granted
        reservation.granted = 0
        self._reserved -= freed
        return freed

    def _claw_back_one(self) -> bool:
        """Take one reserved frame back under pool pressure.

        Named claimants are clawed first, newest first (LIFO): the most
        recently admitted operator is the one asked to shrink, mirroring
        how late arrivals are the first throttled elsewhere.  The
        anonymous fault-pressure share is only touched when no claimant
        holds frames.  Returns whether a frame was recovered.
        """
        if self._reserved <= 0:
            return False
        for reservation in reversed(self._claimants):
            if reservation.granted > 0:
                reservation.granted -= 1
                reservation.clawed += 1
                self._reserved -= 1
                self.clawed_back_frames += 1
                if reservation.on_clawback is not None:
                    reservation.on_clawback(reservation)
                return True
        self._reserved -= 1
        self.clawed_back_frames += 1
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def resident_count(self) -> int:
        """Number of pages currently resident."""
        return len(self._slot_map)

    @property
    def inflight_count(self) -> int:
        """Number of pages with a disk read outstanding."""
        return len(self._inflight)

    def is_resident(self, key: PageKey) -> bool:
        """Whether the page is currently in the pool."""
        return (key.space_id << _PAGE_BITS | key.page_no) in self._slot_map

    def frame_of(self, key: PageKey) -> Optional[Frame]:
        """The resident frame for ``key``, if any."""
        slot = self._slot_map.get(key.space_id << _PAGE_BITS | key.page_no)
        return None if slot is None else self._slots[slot]

    def resident_keys(self) -> List[PageKey]:
        """Snapshot of resident page keys in admission order (tests and
        metrics)."""
        slots = self._slots
        return [slots[slot].key for slot in self._slot_map.values()]

    # ------------------------------------------------------------------
    # Fix / unfix
    # ------------------------------------------------------------------

    def try_fix(self, key: PageKey) -> Optional[Frame]:
        """Non-generator hit fast path: pin ``key`` if it is resident.

        Scans call this first; a resident page then costs one dict lookup
        and a handful of attribute updates instead of a generator frame.
        Returns ``None`` on a miss or an in-flight read **without touching
        any counter**, so the caller's fall back to :meth:`fix` performs
        the full classification and the accounting identity
        ``logical = hits + misses + inflight_waits`` is preserved exactly.
        The trace event emitted on a hit is identical to the generator
        path's.
        """
        slot = self._slot_map.get(key.space_id << _PAGE_BITS | key.page_no)
        if slot is None:
            return None
        frame = self._slots[slot]
        stats = self.stats
        stats.logical_reads += 1
        stats.hits += 1
        frame.pin_count += 1
        self.policy.on_hit(key)
        tracer = trace_slot.active
        if tracer is not None:
            tracer.emit(BufferFix(
                time=self.sim.now, space_id=key.space_id, page_no=key.page_no,
                outcome="hit",
            ))
        return frame

    def fix(
        self, key: PageKey, prefetch: Optional[Sequence[PageKey]] = None
    ) -> Generator[Event, object, Frame]:
        """Pin ``key`` into the pool, reading from disk if necessary.

        This is a simulation generator: drive it with ``yield from`` inside
        a process.  ``prefetch`` is an optional run of keys (one table's
        consecutive pages, containing ``key``) that a miss is allowed to
        read in one request.
        """
        self.stats.logical_reads += 1
        # Each fix is classified (hit / miss / in-flight wait) by the FIRST
        # resolution path it takes, so the accounting identity
        # ``logical = hits + misses + inflight_waits`` always holds; rare
        # eviction races that force another round count as fix_retries.
        classified = False
        slot_key = key.space_id << _PAGE_BITS | key.page_no
        for attempt in range(self.MAX_FIX_RETRIES):
            if attempt > 0:
                self.stats.fix_retries += 1
            slot = self._slot_map.get(slot_key)
            if slot is not None:
                frame = self._slots[slot]
                frame.pin_count += 1
                self.policy.on_hit(key)
                if not classified:
                    self.stats.hits += 1
                    self._trace_fix(key, "hit")
                return frame

            pending = self._inflight.get(key)
            if pending is not None:
                if not classified:
                    self.stats.inflight_waits += 1
                    classified = True
                    self._trace_fix(key, "inflight_wait")
                yield pending
            else:
                if not classified:
                    self.stats.misses += 1
                    classified = True
                    self._trace_fix(key, "miss")
                yield from self._read_run(key, prefetch)

            slot = self._slot_map.get(slot_key)
            if slot is not None:
                frame = self._slots[slot]
                frame.pin_count += 1
                return frame
            # Evicted between I/O completion and our resumption; retry.
        raise BufferPoolError(
            f"page {key} evicted {self.MAX_FIX_RETRIES} times before it could be "
            f"pinned; pool of {self.capacity} pages is too small for the pin load"
        )

    def unfix(self, key: PageKey, priority: Priority = Priority.NORMAL) -> None:
        """Release one pin on ``key`` with a replacement-priority hint."""
        slot = self._slot_map.get(key.space_id << _PAGE_BITS | key.page_no)
        if slot is None:
            raise BufferPoolError(f"unfix of non-resident page {key}")
        frame = self._slots[slot]
        if frame.pin_count <= 0:
            raise BufferPoolError(f"unfix of unpinned page {key}")
        frame.pin_count -= 1
        self.policy.on_release(key, priority)
        tracer = trace_slot.active
        if tracer is not None:
            tracer.emit(BufferRelease(
                time=self.sim.now, space_id=key.space_id, page_no=key.page_no,
                priority=int(priority),
            ))

    # The paper calls this operation "release page with priority p".
    release = unfix

    def _trace_fix(self, key: PageKey, outcome: str) -> None:
        tracer = trace_slot.active
        if tracer is not None:
            tracer.emit(BufferFix(
                time=self.sim.now, space_id=key.space_id, page_no=key.page_no,
                outcome=outcome,
            ))

    # ------------------------------------------------------------------
    # Push path (leader-driven prefetch pipeline)
    # ------------------------------------------------------------------

    def push_read(self, keys: Sequence[PageKey]) -> "Tuple[Optional[Event], str]":
        """Asynchronously read the absent pages of a pushed extent.

        The push pipeline's entry point: a plain call (no generator — the
        driving scan never blocks on it) that issues one disk read per
        address-contiguous run of absent pages and admits them exactly
        like a demand prefetch.  None of the fix classification counters
        move — pushed pages surface later as ``hits`` or
        ``inflight_waits`` of the consuming scans, so the accounting
        identity ``logical = hits + misses + inflight_waits`` is
        untouched and nothing is double-counted.

        Room is made by evicting unpinned victims; when even that cannot
        fit the extent, the push is dropped — consumers simply fall back
        to demand fetching.

        Returns ``(completion, outcome)``: ``("issued", event)`` waits on
        every read issued here, ``(None, "resident")`` means the whole
        extent is already resident or in flight, ``(None, "no_room")``
        means the push was dropped.
        """
        segments = self._absent_segments(keys)
        if not segments:
            return None, "resident"
        needed = sum(len(segment) for segment in segments)
        room = self.capacity - self._reserved - len(self._slot_map) - len(self._inflight)
        if needed > room:
            room += self._evict(needed - room)
        kept: List[List[PageKey]] = []
        for segment in segments:
            if len(segment) <= room:
                kept.append(segment)
                room -= len(segment)
        if not kept:
            return None, "no_room"
        stats = self.stats
        completions: List[Event] = []
        for segment in kept:
            completion = Event(self.sim)
            for run_key in segment:
                self._inflight[run_key] = completion
            stats.physical_requests += 1
            stats.physical_pages_read += len(segment)
            stats.pushed_requests += 1
            stats.pushed_pages += len(segment)
            read_done = self.disk.read(self.address_of(segment[0]), len(segment))
            read_done.add_callback(
                lambda _ev, seg=segment, comp=completion: self._admit_run(seg, comp)
            )
            completions.append(completion)
        if len(completions) == 1:
            return completions[0], "issued"
        return self.sim.all_of(completions), "issued"

    def _evict(self, count: int) -> int:
        """Evict up to ``count`` unpinned pages; returns how many were freed."""
        victims = self.policy.evict_victims(self._evictable, count)
        slot_map_pop = self._slot_map.pop
        free = self._free
        for victim_key in victims:
            free.append(slot_map_pop(
                victim_key.space_id << _PAGE_BITS | victim_key.page_no
            ))
        self.stats.evictions += len(victims)
        tracer = trace_slot.active
        if tracer is not None:
            for victim_key in victims:
                tracer.emit(BufferEvict(
                    time=self.sim.now, space_id=victim_key.space_id,
                    page_no=victim_key.page_no,
                ))
        return len(victims)

    def _evictable(self, key: PageKey) -> bool:
        slot = self._slot_map.get(key.space_id << _PAGE_BITS | key.page_no)
        return slot is not None and not self._slots[slot].pin_count

    # ------------------------------------------------------------------
    # Miss path
    # ------------------------------------------------------------------

    def _read_run(
        self, key: PageKey, prefetch: Optional[Sequence[PageKey]]
    ) -> Generator[Event, object, None]:
        slot_key = key.space_id << _PAGE_BITS | key.page_no
        while True:
            if slot_key in self._slot_map:
                return  # became resident while we waited for room
            pending = self._inflight.get(key)
            if pending is not None:
                yield pending
                return
            run = self._plan_run(key, prefetch)
            # Reserve room: frames + inflight + new run must fit in the
            # capacity left after external pressure reservations.
            capacity = self.capacity - self._reserved
            needed = len(self._slot_map) + len(self._inflight) + len(run) - capacity
            if needed <= 0 or self._evict(needed) >= needed:
                break
            # Could not make room for the whole prefetch run; fall back to
            # reading just the demanded page.
            run = [key]
            needed = len(self._slot_map) + len(self._inflight) + 1 - capacity
            if needed <= 0 or self._evict(needed) >= needed:
                break
            if self._inflight:
                # Every frame is pinned or in flight: wait for any
                # outstanding read to land, then re-plan.
                yield next(iter(self._inflight.values()))
                continue
            if self._claw_back_one():
                # Everything usable is pinned but reservations hold
                # frames: claw one back (named claimants first) rather
                # than wedging the scan.
                continue
            raise PoolExhausted(
                f"bufferpool {self.name} overcommitted: all "
                f"{self.capacity} pages pinned"
            )
        completion = Event(self.sim)
        for run_key in run:
            self._inflight[run_key] = completion
        self.stats.physical_requests += 1
        self.stats.physical_pages_read += len(run)
        if len(run) > 1:
            self.stats.prefetched_pages += len(run) - 1
        read_done = self.disk.read(self.address_of(run[0]), len(run))
        read_done.add_callback(lambda _ev: self._admit_run(run, completion))
        yield completion

    def _admit_run(self, run: List[PageKey], completion: Event) -> None:
        slot_map = self._slot_map
        slots = self._slots
        free = self._free
        inflight_pop = self._inflight.pop
        admitted: List[PageKey] = []
        for run_key in run:
            inflight_pop(run_key, None)
            slot_key = run_key.space_id << _PAGE_BITS | run_key.page_no
            if slot_key in slot_map:
                continue
            if not free:
                raise BufferPoolError(
                    f"bufferpool {self.name} slot table overcommitted admitting "
                    f"{run_key}: {len(slot_map)} resident of {self.capacity}"
                )
            slot = free.pop()
            slots[slot].key = run_key
            slot_map[slot_key] = slot
            admitted.append(run_key)
        self.policy.on_admit_run(admitted)
        completion.succeed(run)

    def _plan_run(
        self, key: PageKey, prefetch: Optional[Sequence[PageKey]]
    ) -> List[PageKey]:
        """The stretch of absent pages around (absent) ``key`` to read."""
        if not prefetch:
            return [key]
        start = index = _run_index(key, prefetch)
        absent = self._absence(prefetch)
        while start and absent[start - 1]:
            start -= 1
        stop = index + 1
        while stop < len(absent) and absent[stop]:
            stop += 1
        return list(prefetch[start:stop])

    def _absent_segments(self, keys: Sequence[PageKey]) -> List[List[PageKey]]:
        """Split a run of consecutive pages into its stretches of absent
        pages (each one address-contiguous, so one disk read)."""
        _run_index(keys[0], keys)
        stretches = groupby(zip(self._absence(keys), keys), itemgetter(0))
        return [[key for _, key in stretch] for absent, stretch in stretches if absent]

    def _absence(self, keys: Sequence[PageKey]) -> List[bool]:
        """Whether each of one table's pages is neither resident nor in flight."""
        slot_map = self._slot_map
        inflight = self._inflight
        space = keys[0].space_id << _PAGE_BITS
        return [
            (space | key.page_no) not in slot_map and key not in inflight
            for key in keys
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BufferPool {self.name} {len(self._slot_map)}/{self.capacity} "
            f"resident, {len(self._inflight)} in flight>"
        )


def _run_index(key: PageKey, run: Sequence[PageKey]) -> int:
    """``key``'s index in ``run``: one table's consecutive pages (so disk
    addresses) holding ``key``, checked at the ends and at ``key`` only."""
    index = key.page_no - run[0].page_no
    if not (
        0 <= index < len(run)
        and run[index] == key
        and run[-1] == (key.space_id, run[0].page_no + len(run) - 1)
    ):
        raise BufferPoolError(
            f"prefetch run must be one table's consecutive pages holding the "
            f"demanded page {key}"
        )
    return index
