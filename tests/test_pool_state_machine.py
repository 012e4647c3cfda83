"""One stateful model of the bufferpool: fixes, pins, reservations, pushes.

A Hypothesis ``RuleBasedStateMachine`` interleaves every way the pool is
driven — demand fixes (with and without a prefetch run), the ``try_fix``
hit path, unfixes at any priority, claw-backable and plain frame
reservations, claw-back, leader pushes, and simulated time — and checks
the pool after every step against a dict-and-counter model:

* every pin the model holds is on a resident frame, with that pin count;
* resident + in-flight pages never exceed the capacity, and every read
  issue (demand or push) leaves them within ``capacity - reserved``;
* ``logical = hits + misses + inflight_waits``, and each class equals the
  model's count of fixes that found the page resident / in flight /
  absent;
* ``reserved_frames`` is the sum of live grants and leaves at least
  ``MIN_USABLE_FRAMES`` usable; each reservation's initial grant equals
  ``granted + clawed`` until it is released, claw-back takes shedders
  (an ``on_clawback``) before the rest, newest first in each kind, and a
  release returns exactly what claw-back left;
* the disk read exactly the pages the pool counts as physically read.
"""

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.buffer.page import PageKey, Priority
from repro.buffer.pool import BufferPool, PoolExhausted
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.sim.kernel import Simulator

from tests.conftest import make_pool

N_PAGES = 40
EXTENT = 4

pages = st.integers(min_value=0, max_value=N_PAGES - 1)


def extent_of(page: int):
    """The aligned run of ``EXTENT`` consecutive keys holding ``page``."""
    first = page - page % EXTENT
    return [PageKey(0, p) for p in range(first, first + EXTENT)]


class PoolMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.disk = Disk(self.sim, DiskGeometry(total_pages=4096))
        self.pool = None
        self.pins = {}            # PageKey -> pins the model holds
        self.expected = {"hit": 0, "miss": 0, "inflight_wait": 0}
        self.live = []            # [reservation, initial grant], grant order
        self.clawed_seen = {}     # id(reservation) -> clawed at last step
        self.procs = []

    @initialize(capacity=st.integers(min_value=BufferPool.MIN_USABLE_FRAMES, max_value=16))
    def open_pool(self, capacity):
        self.pool = make_pool(self.sim, self.disk, capacity=capacity)
        issue = self.pool._issue

        def checked_issue(run):
            completion = issue(run)
            pool = self.pool
            assert (
                pool.resident_count + pool.inflight_count
                <= pool.capacity - pool.reserved_frames
            ), "a read was issued into reserved frames"
            return completion

        self.pool._issue = checked_issue

    # ------------------------------------------------------------------
    # Pins
    # ------------------------------------------------------------------

    def _classify(self, key):
        if self.pool.is_resident(key):
            return "hit"
        return "inflight_wait" if key in self.pool._inflight else "miss"

    @rule(page=pages, prefetch=st.booleans())
    def spawn_fix(self, page, prefetch):
        key = PageKey(0, page)
        run = extent_of(page) if prefetch else None

        def worker(sim):
            # fix classifies synchronously on its first drive, so the
            # state seen here is the one it classifies against.
            self.expected[self._classify(key)] += 1
            try:
                frame = yield from self.pool.fix(key, prefetch=run)
            except PoolExhausted:
                pool = self.pool
                assert pool.inflight_count == 0 and pool.reserved_frames == 0
                assert pool.resident_count == pool.capacity
                assert all(pool.frame_of(k).pin_count for k in pool.resident_keys())
                return
            assert frame.key == key and frame.pin_count > 0
            self.pins[key] = self.pins.get(key, 0) + 1

        self.procs.append(self.sim.spawn(worker(self.sim)))

    @rule(page=pages)
    def try_fix(self, page):
        key = PageKey(0, page)
        resident = self.pool.is_resident(key)
        before = self.pool.stats.logical_reads
        frame = self.pool.try_fix(key)
        assert (frame is not None) == resident
        if frame is None:
            assert self.pool.stats.logical_reads == before
            return
        self.expected["hit"] += 1
        self.pins[key] = self.pins.get(key, 0) + 1

    @rule(data=st.data(), priority=st.sampled_from(list(Priority)))
    @precondition(lambda self: any(self.pins.values()))
    def unfix(self, data, priority):
        key = data.draw(st.sampled_from(sorted(k for k, n in self.pins.items() if n)))
        self.pool.unfix(key, priority)
        self.pins[key] -= 1

    # ------------------------------------------------------------------
    # Reservations
    # ------------------------------------------------------------------

    @rule(pages=st.integers(min_value=0, max_value=12), shed=st.booleans())
    def reserve_frames(self, pages, shed):
        pool = self.pool
        room = pool.capacity - BufferPool.MIN_USABLE_FRAMES - pool.reserved_frames
        reservation = pool.reserve_frames(
            f"r{len(self.live)}", pages,
            on_clawback=(lambda r: None) if shed else None,
        )
        assert reservation.granted == max(0, min(pages, room))
        self.live.append([reservation, reservation.granted])
        self.clawed_seen[id(reservation)] = 0

    @rule(data=st.data())
    @precondition(lambda self: self.live)
    def release_frames(self, data):
        index = data.draw(st.integers(min_value=0, max_value=len(self.live) - 1))
        reservation, _ = self.live.pop(index)
        held = reservation.granted
        before = self.pool.reserved_frames
        assert self.pool.release_frames(reservation) == held
        assert self.pool.reserved_frames == before - held
        assert self.pool.release_frames(reservation) == 0

    @rule()
    def claw_back(self):
        holders = [r for r, _ in reversed(self.live) if r.granted]
        shedders = [r for r in holders if r.on_clawback is not None]
        target = (shedders or holders or [None])[0]
        before = target.granted if target is not None else 0
        assert self.pool._claw_back_one() == (target is not None)
        if target is not None:
            assert target.granted == before - 1

    # ------------------------------------------------------------------
    # Push and time
    # ------------------------------------------------------------------

    @rule(page=pages, length=st.integers(min_value=1, max_value=8))
    def push_read(self, page, length):
        pool = self.pool
        keys = [PageKey(0, p) for p in range(page, min(page + length, N_PAGES))]
        absent = [k for k in keys if self._classify(k) == "miss"]
        stats = pool.stats
        pushed, inflight = stats.pushed_pages, pool.inflight_count
        completion, outcome = pool.push_read(keys)
        delivered = stats.pushed_pages - pushed
        assert pool.inflight_count - inflight == delivered
        assert (outcome == "resident") == (not absent)
        assert (outcome == "issued") == (delivered > 0)
        assert (completion is not None) == (outcome == "issued")

    @rule(dt=st.sampled_from([0.0, 0.001, 0.005, 0.02, 0.1]))
    def advance(self, dt):
        self.sim.run(until=self.sim.now + dt)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    @invariant()
    def pins_stay_resident(self):
        for key in self.pool.resident_keys():
            assert self.pool.frame_of(key).pin_count == self.pins.get(key, 0)
        for key, count in self.pins.items():
            assert not count or self.pool.is_resident(key), "pinned page evicted"

    @invariant()
    def frames_fit(self):
        pool = self.pool
        assert pool.resident_count + pool.inflight_count <= pool.capacity
        assert not any(pool.is_resident(k) for k in pool._inflight)

    @invariant()
    def fixes_add_up(self):
        stats = self.pool.stats
        assert stats.logical_reads == stats.hits + stats.misses + stats.inflight_waits
        assert (stats.hits, stats.misses, stats.inflight_waits) == (
            self.expected["hit"], self.expected["miss"],
            self.expected["inflight_wait"],
        )

    @invariant()
    def reservations_conserved(self):
        pool = self.pool
        assert pool.reserved_frames == sum(r.granted for r, _ in self.live)
        assert pool.capacity - pool.reserved_frames >= BufferPool.MIN_USABLE_FRAMES
        for reservation, initial in self.live:
            assert reservation.granted >= 0
            assert reservation.granted + reservation.clawed == initial

    @invariant()
    def claw_back_order(self):
        """A reservation clawed since the last step means no newer one of
        its kind, and no shedder at all if it is not one, holds frames."""
        for index, (reservation, _) in enumerate(self.live):
            if reservation.clawed == self.clawed_seen[id(reservation)]:
                continue
            self.clawed_seen[id(reservation)] = reservation.clawed
            shed = reservation.on_clawback is not None
            for other, _ in self.live[index + 1:]:
                if (other.on_clawback is not None) == shed:
                    assert not other.granted, "claw-back skipped a newer reservation"
            if not shed:
                assert not any(
                    r.granted for r, _ in self.live if r.on_clawback is not None
                ), "claw-back took a plain reservation while a shedder held frames"

    @invariant()
    def disk_reads_match(self):
        read, counted = self.disk.stats.pages_read, self.pool.stats.physical_pages_read
        if self.pool.inflight_count:
            assert read <= counted
        else:
            assert read == counted

    def teardown(self):
        self.sim.run()
        for proc in self.procs:
            assert proc.completion.triggered, "a fix never finished"
            if proc.completion.failed:
                raise proc.completion.value
        self.disk_reads_match()
        assert self.disk.stats.pages_read == self.pool.stats.physical_pages_read
        for key, count in self.pins.items():
            for _ in range(count):
                self.pool.unfix(key)
        for reservation, _ in self.live:
            self.pool.release_frames(reservation)
        assert self.pool.reserved_frames == 0


PoolMachine.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestPoolStateMachine = PoolMachine.TestCase
