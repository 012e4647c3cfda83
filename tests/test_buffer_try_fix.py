"""Tests for the non-generator ``try_fix`` hit fast path.

Covers the two guarantees the fast path makes:

* accounting — ``logical = hits + misses + inflight_waits`` holds under
  any interleaving of fast-path hits and generator-path fallbacks;
* equivalence — a scan using ``try_fix`` with a ``fix`` fallback leaves
  the pool in exactly the same frame/LRU/stats state as one driving the
  generator path for every access.

Also here: the pool and kernel hot paths read the tracer slot
(``repro.trace.tracer.active``), which must follow sink/tracer swaps that
happen mid-run.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer.page import PageKey, Priority
from repro.sim.kernel import Simulator
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.trace.sinks import RingBufferSink
from repro.trace.tracer import get_tracer, tracing

from tests.conftest import make_pool


def key(n: int) -> PageKey:
    return PageKey(0, n)


def fast_access(pool, page_no, priority=Priority.NORMAL):
    """Pin/release one page the way the optimized scans do."""
    k = key(page_no)
    frame = pool.try_fix(k)
    if frame is None:
        frame = yield from pool.fix(k)
    pool.unfix(k, priority)
    return frame


def slow_access(pool, page_no, priority=Priority.NORMAL):
    """Pin/release one page through the generator path only (pre-PR)."""
    k = key(page_no)
    frame = yield from pool.fix(k)
    pool.unfix(k, priority)
    return frame


class TestStatsIdentity:
    def test_try_fix_miss_touches_no_counters(self, sim, disk):
        pool = make_pool(sim, disk)
        assert pool.try_fix(key(5)) is None
        stats = pool.stats
        assert (stats.logical_reads, stats.hits, stats.misses,
                stats.inflight_waits) == (0, 0, 0, 0)

    def test_identity_under_mixed_access(self, sim, disk):
        """Fast-path hits, fallback misses, and concurrent in-flight
        waits must all land in exactly one accounting bucket."""
        pool = make_pool(sim, disk)

        def scanner(sim, pages):
            for page_no in pages:
                yield from fast_access(pool, page_no)

        # Two workers share a page range so the second one's first
        # touches find reads in flight; later passes are fast-path hits.
        sim.spawn(scanner(sim, [0, 1, 2, 0, 1, 2, 3]))
        sim.spawn(scanner(sim, [0, 1, 2, 4, 0, 4]))
        sim.run()
        stats = pool.stats
        assert stats.logical_reads == 13
        assert stats.misses == 5  # pages 0..4 each read once
        assert stats.inflight_waits >= 1
        assert (stats.hits + stats.misses + stats.inflight_waits
                == stats.logical_reads)

    def test_fast_path_hit_counts_once(self, sim, disk):
        pool = make_pool(sim, disk)

        def worker(sim):
            yield from slow_access(pool, 7)
            for _ in range(3):
                frame = pool.try_fix(key(7))
                assert frame is not None
                pool.unfix(key(7))

        sim.spawn(worker(sim))
        sim.run()
        stats = pool.stats
        assert (stats.logical_reads, stats.hits, stats.misses) == (4, 3, 1)

    def test_fast_path_emits_same_hit_trace_event(self, sim, disk):
        pool = make_pool(sim, disk)
        ring = RingBufferSink()

        def worker(sim):
            yield from slow_access(pool, 1)  # miss
            yield from slow_access(pool, 1)  # generator hit
            yield from fast_access(pool, 1)  # fast-path hit

        with tracing(ring):
            sim.spawn(worker(sim))
            sim.run()
        fixes = [e for e in ring.events() if e.kind == "fix"]
        assert [e.outcome for e in fixes] == ["miss", "hit", "hit"]
        # Fast-path and generator-path hit events are indistinguishable.
        assert fixes[1].to_dict().keys() == fixes[2].to_dict().keys()
        assert fixes[1].page_no == fixes[2].page_no == 1


def policy_state(pool):
    """The replacement policy's observable LRU order, per priority level."""
    policy = pool.policy
    if hasattr(policy, "_levels"):
        return {int(level): list(order) for level, order in
                policy._levels.items()}
    return None


def frame_state(pool):
    frames = {k: pool.frame_of(k) for k in pool.resident_keys()}
    return {k: f.pin_count for k, f in sorted(frames.items())}


def stats_state(pool):
    s = pool.stats
    return (s.logical_reads, s.hits, s.misses, s.inflight_waits,
            s.evictions, s.prefetched_pages)


class TestFastSlowEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        accesses=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=15),
                st.sampled_from(list(Priority)),
            ),
            min_size=1,
            max_size=40,
        ),
        capacity=st.sampled_from([4, 8, 32]),
    )
    def test_fast_and_generator_paths_leave_identical_state(
            self, accesses, capacity):
        """Property: for any access sequence (with evictions and priority
        hints), try_fix+fallback and pure-generator scans end with
        byte-identical frame, LRU, and stats state."""

        def run(access):
            sim = Simulator()
            disk = Disk(sim, DiskGeometry(total_pages=4096))
            pool = make_pool(sim, disk, capacity=capacity)

            def worker(sim):
                for page_no, priority in accesses:
                    yield from access(pool, page_no, priority)

            sim.spawn(worker(sim))
            sim.run()
            return pool, sim.now

        fast_pool, fast_end = run(fast_access)
        slow_pool, slow_end = run(slow_access)
        assert fast_end == slow_end
        assert frame_state(fast_pool) == frame_state(slow_pool)
        assert policy_state(fast_pool) == policy_state(slow_pool)
        assert stats_state(fast_pool) == stats_state(slow_pool)


class TestTracerSlotSwap:
    """The tracer slot the hot paths read must follow sink swaps."""

    def test_pool_sees_sink_added_mid_run(self, sim, disk):
        pool = make_pool(sim, disk)
        ring = RingBufferSink()
        tracer = get_tracer()

        def worker(sim):
            yield from slow_access(pool, 0)   # untraced: no sinks yet
            tracer.add_sink(ring)
            yield from fast_access(pool, 0)   # traced fast-path hit
            tracer.remove_sink(ring)
            yield from fast_access(pool, 0)   # untraced again

        sim.spawn(worker(sim))
        sim.run()
        kinds = [(e.kind, getattr(e, "outcome", None)) for e in ring.events()]
        assert ("fix", "hit") in kinds
        assert ("fix", "miss") not in kinds
        # Exactly one traced fix/release pair: the middle access.
        assert sum(1 for k, _ in kinds if k == "fix") == 1
        assert sum(1 for k, _ in kinds if k == "release") == 1

    def test_kernel_dispatch_sees_sink_added_mid_run(self):
        sim = Simulator()
        ring = RingBufferSink()
        tracer = get_tracer()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: tracer.add_sink(ring))
        sim.schedule(3.0, lambda: None)
        sim.schedule(4.0, lambda: tracer.remove_sink(ring))
        sim.schedule(5.0, lambda: None)
        sim.run()
        dispatches = [e for e in ring.events() if e.kind == "dispatch"]
        # Only the events dispatched while the sink was attached: t=3, t=4.
        assert [e.time for e in dispatches] == [3.0, 4.0]

    def test_tracing_context_manager_swap_is_picked_up(self, sim, disk):
        """``tracing()`` swaps the global Tracer object itself; the slot
        must follow it, not keep emitting to the old tracer."""
        pool = make_pool(sim, disk)
        first, second = RingBufferSink(), RingBufferSink()

        def worker(sim):
            yield from slow_access(pool, 0)
            yield from slow_access(pool, 1)

        with tracing(first):
            sim.spawn(worker(sim))
            sim.run()
        sim2 = Simulator()
        disk2 = Disk(sim2, DiskGeometry(total_pages=4096))
        pool2 = make_pool(sim2, disk2)

        def worker2(sim):
            yield from slow_access(pool2, 0)

        with tracing(second):
            sim2.spawn(worker2(sim2))
            sim2.run()
        n_first = len(first.events())
        assert n_first > 0 and len(second.events()) > 0
        # The second run must not leak anything into the first sink.
        assert len(first.events()) == n_first
