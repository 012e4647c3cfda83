"""Unit tests for the bufferpool: fix/unfix, prefetch, in-flight merging."""

import pytest

from repro.buffer.page import PageKey, Priority
from repro.buffer.pool import BufferPool, BufferPoolError
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.sim.kernel import Simulator

from tests.conftest import make_pool


def key(n: int) -> PageKey:
    return PageKey(0, n)


def fix_and_release(pool, page_no, priority=Priority.NORMAL, prefetch=None, log=None):
    frame = yield from pool.fix(key(page_no), prefetch=prefetch)
    if log is not None:
        log.append(page_no)
    pool.unfix(key(page_no), priority)
    return frame


class TestFixBasics:
    def test_miss_then_hit(self, sim, disk):
        pool = make_pool(sim, disk)

        def worker(sim):
            yield from fix_and_release(pool, 5)
            yield from fix_and_release(pool, 5)

        sim.spawn(worker(sim))
        sim.run()
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1
        assert disk.stats.reads == 1

    def test_capacity_validation(self, sim, disk):
        with pytest.raises(BufferPoolError):
            BufferPool(sim, disk, capacity=2, address_of=lambda k: k.page_no)

    def test_pin_prevents_eviction(self, sim, disk):
        pool = make_pool(sim, disk, capacity=4)

        def worker(sim):
            pinned = yield from pool.fix(key(0))
            assert pinned.pin_count
            # Fill the rest of the pool; key 0 must survive because pinned.
            for n in range(1, 10):
                yield from fix_and_release(pool, n)
            assert pool.is_resident(key(0))
            pool.unfix(key(0))

        sim.spawn(worker(sim))
        sim.run()

    def test_unfix_nonresident_raises(self, sim, disk):
        pool = make_pool(sim, disk)
        with pytest.raises(BufferPoolError):
            pool.unfix(key(99))

    def test_unfix_unpinned_raises(self, sim, disk):
        pool = make_pool(sim, disk)

        def worker(sim):
            yield from fix_and_release(pool, 0)

        sim.spawn(worker(sim))
        sim.run()
        with pytest.raises(BufferPoolError):
            pool.unfix(key(0))

    def test_eviction_when_full(self, sim, disk):
        pool = make_pool(sim, disk, capacity=4)

        def worker(sim):
            for n in range(8):
                yield from fix_and_release(pool, n)

        sim.spawn(worker(sim))
        sim.run()
        assert pool.resident_count <= 4
        assert pool.stats.evictions >= 4

    def test_overcommit_raises(self, sim, disk):
        pool = make_pool(sim, disk, capacity=4)

        def worker(sim):
            for n in range(5):  # pin 5 pages in a 4-page pool
                yield from pool.fix(key(n))

        proc = sim.spawn(worker(sim))
        sim.run()
        assert proc.completion.failed
        assert isinstance(proc.completion.value, BufferPoolError)


class TestInflightMerging:
    def test_concurrent_miss_issues_one_read(self, sim, disk):
        pool = make_pool(sim, disk)
        log = []

        def worker(sim, name):
            yield from fix_and_release(pool, 7, log=log)

        sim.spawn(worker(sim, "a"))
        sim.spawn(worker(sim, "b"))
        sim.run()
        assert disk.stats.reads == 1
        assert pool.stats.inflight_waits == 1
        assert log == [7, 7]

    def test_hit_ratio_counts_inflight_waits(self, sim, disk):
        pool = make_pool(sim, disk)

        def worker(sim):
            yield from fix_and_release(pool, 3)

        for _ in range(4):
            sim.spawn(worker(sim))
        sim.run()
        # 4 logical reads, 1 physical: ratio 3/4.
        assert pool.stats.hit_ratio == pytest.approx(0.75)


class TestPrefetch:
    def test_prefetch_reads_whole_run_in_one_request(self, sim, disk):
        pool = make_pool(sim, disk)
        run = [key(n) for n in range(8)]

        def worker(sim):
            yield from fix_and_release(pool, 0, prefetch=run)

        sim.spawn(worker(sim))
        sim.run()
        assert disk.stats.reads == 1
        assert disk.stats.pages_read == 8
        assert pool.stats.prefetched_pages == 7
        for n in range(8):
            assert pool.is_resident(key(n))

    def test_prefetched_pages_hit_later(self, sim, disk):
        pool = make_pool(sim, disk)
        run = [key(n) for n in range(8)]

        def worker(sim):
            for n in range(8):
                yield from fix_and_release(pool, n, prefetch=run)

        sim.spawn(worker(sim))
        sim.run()
        assert disk.stats.reads == 1
        assert pool.stats.hits == 7

    def test_prefetch_skips_resident_pages(self, sim, disk):
        pool = make_pool(sim, disk)
        run = [key(n) for n in range(8)]

        def worker(sim):
            yield from fix_and_release(pool, 3)  # page 3 resident
            yield from fix_and_release(pool, 0, prefetch=run)

        sim.spawn(worker(sim))
        sim.run()
        # Second request reads only the absent prefix [0..2].
        assert disk.stats.reads == 2
        assert disk.stats.pages_read == 1 + 3

    def test_prefetch_must_contain_demanded_page(self, sim, disk):
        pool = make_pool(sim, disk)

        def worker(sim):
            yield from pool.fix(key(0), prefetch=[key(1), key(2)])

        proc = sim.spawn(worker(sim))
        sim.run()
        assert proc.completion.failed
        assert isinstance(proc.completion.value, BufferPoolError)

    def test_prefetch_must_be_consecutive_pages(self, sim, disk):
        pool = make_pool(sim, disk)

        def worker(sim):
            yield from pool.fix(key(2), prefetch=[key(0), key(2), key(4)])

        proc = sim.spawn(worker(sim))
        sim.run()
        assert proc.completion.failed
        assert isinstance(proc.completion.value, BufferPoolError)
        assert disk.stats.reads == 0

    def test_prefetch_shrinks_when_pool_nearly_full(self, sim, disk):
        pool = make_pool(sim, disk, capacity=4)
        run = [key(n) for n in range(100, 108)]

        def worker(sim):
            # Pin 3 of 4 frames, then prefetch-fix: run cannot fit, the
            # pool must fall back to a single-page read.
            for n in range(3):
                yield from pool.fix(key(n))
            yield from fix_and_release(pool, 100, prefetch=run)
            for n in range(3):
                pool.unfix(key(n))

        proc = sim.spawn(worker(sim))
        sim.run()
        assert not proc.completion.failed
        assert disk.stats.pages_read == 4  # 3 singles + 1 demanded


class TestPrioritiesAndDirty:
    def test_release_priority_reaches_policy(self, sim, disk):
        pool = make_pool(sim, disk, capacity=4)

        def worker(sim):
            yield from fix_and_release(pool, 0, priority=Priority.HIGH)
            for n in range(1, 4):
                yield from fix_and_release(pool, n, priority=Priority.LOW)
            # One more page: a LOW page must be evicted, not the HIGH one.
            yield from fix_and_release(pool, 10)
            assert pool.is_resident(key(0))

        proc = sim.spawn(worker(sim))
        sim.run()
        assert not proc.completion.failed
