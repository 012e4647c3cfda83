"""Model-based property test for the bufferpool.

Hypothesis drives random fix/unfix programs through the pool while a
simple reference model tracks what must be true: pinned pages stay
resident, residency never exceeds capacity, every fix eventually
returns the right frame, and the hit/miss/in-flight accounting always
adds up.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.buffer.page import PageKey, Priority
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.sim.kernel import Simulator

from tests.conftest import make_pool

# A program is a list of worker scripts; each script is a list of
# (page, hold_steps, priority_index) accesses executed sequentially.
access = st.tuples(
    st.integers(min_value=0, max_value=40),   # page number
    st.integers(min_value=0, max_value=3),    # hold duration (steps)
    st.integers(min_value=0, max_value=2),    # release priority
)
script = st.lists(access, min_size=1, max_size=12)
program = st.lists(script, min_size=1, max_size=4)

PRIORITIES = [Priority.LOW, Priority.NORMAL, Priority.HIGH]


class TestPoolModel:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scripts=program, capacity=st.integers(min_value=6, max_value=16))
    def test_random_programs_hold_invariants(self, scripts, capacity):
        sim = Simulator()
        disk = Disk(sim, DiskGeometry(total_pages=4096))
        pool = make_pool(sim, disk, capacity=capacity)
        observed = []

        def worker(sim, accesses):
            for page, hold, priority_index in accesses:
                key = PageKey(0, page)
                frame = yield from pool.fix(key)
                # Invariant: fix returns the demanded, pinned, resident frame.
                assert frame.key == key
                assert frame.pin_count
                assert pool.is_resident(key)
                for _ in range(hold):
                    yield sim.timeout(0.0001)
                    assert pool.is_resident(key), "pinned page evicted"
                pool.unfix(key, PRIORITIES[priority_index])
                observed.append(page)
                # Invariant: never over capacity.
                assert pool.resident_count <= capacity
                assert pool.resident_count + pool.inflight_count <= capacity

        procs = [sim.spawn(worker(sim, accesses)) for accesses in scripts]
        sim.run()
        for proc in procs:
            if proc.completion.failed:
                raise proc.completion.value
        # Every access completed.
        assert len(observed) == sum(len(s) for s in scripts)
        # Accounting identity.
        stats = pool.stats
        assert stats.logical_reads == len(observed)
        assert stats.logical_reads == stats.hits + stats.misses + stats.inflight_waits
        # All pins released.
        for key in pool.resident_keys():
            assert not pool.frame_of(key).pin_count
        assert pool.inflight_count == 0
        # Physical reads cover exactly the distinct pages that ever
        # missed (no page read without a logical demand).
        assert stats.physical_pages_read >= len(set(observed)) - capacity
        assert stats.physical_pages_read <= stats.logical_reads

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scripts=program)
    def test_disk_reads_match_pool_accounting(self, scripts):
        sim = Simulator()
        disk = Disk(sim, DiskGeometry(total_pages=4096))
        pool = make_pool(sim, disk, capacity=8)

        def worker(sim, accesses):
            for page, hold, priority_index in accesses:
                key = PageKey(0, page)
                yield from pool.fix(key)
                pool.unfix(key, PRIORITIES[priority_index])

        procs = [sim.spawn(worker(sim, accesses)) for accesses in scripts]
        sim.run()
        for proc in procs:
            if proc.completion.failed:
                raise proc.completion.value
        assert disk.stats.pages_read == pool.stats.physical_pages_read
        assert disk.stats.reads == pool.stats.physical_requests
