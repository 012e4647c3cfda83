"""Victim selection under pinned/reserved pressure, across every policy.

Bugfix coverage: every ``choose_victim`` implementation must return
``None`` — never leak ``StopIteration``/``KeyError`` or pick a pinned
page — when the evictable set is empty, and the pool must surface that
single condition as the typed :class:`~repro.buffer.pool.PoolExhausted`.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.buffer.page import PageKey, Priority
from repro.buffer.pool import BufferPoolError, PoolExhausted
from repro.buffer.replacement import KNOWN_POLICY_NAMES, PbmPolicy, make_policy

from tests.conftest import make_pool

PRIORITIES = [Priority.LOW, Priority.NORMAL, Priority.HIGH]


class _ModuloOracle:
    """Reuse predictions for PBM: every fourth page is never read again."""

    def next_consumption_time(self, page: PageKey) -> float:
        return math.inf if page.page_no % 4 == 0 else float(page.page_no % 3)


#: The registry's policies plus PBM, which only takes its oracle when
#: built directly.
POLICY_NAMES = KNOWN_POLICY_NAMES + ("pbm",)


def build(name: str):
    if name == "pbm":
        return PbmPolicy(_ModuloOracle())
    return make_policy(name, 32)

# One random workload: distinct admitted pages, re-hit indices (possibly
# repeating), release priorities, and a pin mask over the admitted pages.
workload = st.tuples(
    st.lists(st.integers(min_value=0, max_value=63),
             unique=True, min_size=1, max_size=16),
    st.lists(st.integers(min_value=0, max_value=15), max_size=24),
    st.lists(st.integers(min_value=0, max_value=2), max_size=24),
    st.lists(st.booleans(), min_size=16, max_size=16),
)


class TestChooseVictimNeverLeaks:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    @settings(max_examples=30, deadline=None)
    @given(data=workload)
    def test_random_pin_sets(self, name, data):
        pages, hit_indices, priorities, pin_mask = data
        policy = build(name)
        keys = [PageKey(0, page) for page in pages]
        for k in keys:
            policy.on_admit(k)
        for position, index in enumerate(hit_indices):
            k = keys[index % len(keys)]
            policy.on_hit(k)
            priority = PRIORITIES[priorities[position % len(priorities)]
                                  if priorities else 1]
            policy.on_release(k, priority)
        pinned = {k for k, is_pinned in zip(keys, pin_mask) if is_pinned}
        unpinned = set(keys) - pinned

        victim = policy.choose_victim(lambda k: k not in pinned)
        if unpinned:
            assert victim in unpinned, (
                f"{name}: victim {victim} not among evictable pages"
            )
        else:
            assert victim is None, (
                f"{name}: returned {victim} with every frame pinned"
            )
        # With nothing evictable at all, every policy must yield None.
        assert policy.choose_victim(lambda k: False) is None

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_empty_policy_returns_none(self, name):
        policy = build(name)
        assert policy.choose_victim(lambda k: True) is None


class TestPoolExhausted:
    def _overcommit(self, sim, disk):
        pool = make_pool(sim, disk, capacity=4)

        def worker(sim):
            for n in range(5):  # pin 5 pages in a 4-page pool
                yield from pool.fix(PageKey(0, n))

        proc = sim.spawn(worker(sim))
        sim.run()
        return proc

    def test_overcommit_raises_typed_error(self, sim, disk):
        proc = self._overcommit(sim, disk)
        assert proc.completion.failed
        assert type(proc.completion.value) is PoolExhausted

    def test_pool_exhausted_is_a_buffer_pool_error(self, sim, disk):
        """Existing except BufferPoolError handlers keep working."""
        proc = self._overcommit(sim, disk)
        assert isinstance(proc.completion.value, BufferPoolError)
