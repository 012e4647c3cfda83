"""The pool's per-run calls equal the per-key loops they replace.

* ``ReplacementPolicy.evict_victims`` and ``on_admit_run`` against the
  ``choose_victim`` -> ``on_evict`` loop and an ``on_admit`` per key, for
  priority-LRU and PBM: same victims in the same order, same state.
* ``BufferPool._plan_run`` (index arithmetic around the demanded page)
  and ``_absent_segments`` (one pass over consecutive pages) against the
  address-checking planner they replace, written out below.
"""

from __future__ import annotations

import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer.page import PageKey, Priority
from repro.buffer.pool import _PAGE_BITS
from repro.buffer.replacement import PbmPolicy, PriorityLruPolicy
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.sim.events import Event
from repro.sim.kernel import Simulator

from tests.conftest import make_pool

PAGES = 24


def key(n: int) -> PageKey:
    return PageKey(0, n)


class _ModuloOracle:
    """Deterministic reuse predictions for PBM: some pages never again."""

    def next_consumption_time(self, page: PageKey) -> float:
        return math.inf if page.page_no % 4 == 0 else float(page.page_no % 3)


_ORACLE = _ModuloOracle()


#: The pool's default policy and PBM's, which takes its oracle.
POLICY_NAMES = ("priority-lru", "pbm")


def build(name: str):
    if name == "pbm":
        return PbmPolicy(_ORACLE)
    return PriorityLruPolicy()


def snapshot(value):
    """Policy state with dict order kept: victim ties iterate in it."""
    if isinstance(value, dict):
        return [(k, snapshot(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple, deque)):
        return [snapshot(v) for v in value]
    return value


def policy_state(policy):
    return snapshot(vars(policy))


def loop_evict(policy, evictable, count):
    """The reference: one choose_victim -> on_evict round per victim."""
    victims = []
    while len(victims) < count:
        victim = policy.choose_victim(evictable)
        if victim is None:
            break
        policy.on_evict(victim)
        victims.append(victim)
    return victims


operations = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), st.integers(0, PAGES - 1),
                  st.integers(1, 6)),
        st.tuples(st.just("hit"), st.integers(0, PAGES - 1)),
        st.tuples(st.just("release"), st.integers(0, PAGES - 1),
                  st.sampled_from(list(Priority))),
        st.tuples(st.just("pin"), st.integers(0, PAGES - 1)),
        st.tuples(st.just("unpin"), st.integers(0, PAGES - 1)),
        st.tuples(st.just("evict"), st.integers(1, 8)),
    ),
    max_size=40,
)


class TestBatchedPolicyCalls:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    @settings(max_examples=40, deadline=None)
    @given(ops=operations)
    def test_same_victims_and_state_as_the_per_key_loops(self, name, ops):
        batched, reference = build(name), build(name)
        resident = []
        pinned = set()

        def evictable(page: PageKey) -> bool:
            return page in resident and page not in pinned

        for op in ops:
            kind = op[0]
            if kind == "admit":
                # A read admits the absent pages of a run, in order.
                _, first, length = op
                run = [key(n) for n in range(first, min(first + length, PAGES))
                       if key(n) not in resident]
                batched.on_admit_run(run)
                for page in run:
                    reference.on_admit(page)
                resident.extend(run)
            elif kind == "evict":
                victims = batched.evict_victims(evictable, op[1])
                assert victims == loop_evict(reference, evictable, op[1])
                for victim in victims:
                    resident.remove(victim)
            elif key(op[1]) not in resident:
                continue
            elif kind == "hit":
                batched.on_hit(key(op[1]))
                reference.on_hit(key(op[1]))
            elif kind == "release":
                batched.on_release(key(op[1]), op[2])
                reference.on_release(key(op[1]), op[2])
            elif kind == "pin":
                pinned.add(key(op[1]))
            else:
                pinned.discard(key(op[1]))
            assert policy_state(batched) == policy_state(reference)


# ----------------------------------------------------------------------
# Run planning
# ----------------------------------------------------------------------


def legacy_segments(pool, candidates):
    """The planner before index arithmetic: split candidates wherever a
    page is present or the next disk address does not follow."""
    segments, current, prev_addr = [], [], None
    for candidate in candidates:
        absent = not pool.is_resident(candidate) and candidate not in pool._inflight
        addr = pool.address_of(candidate)
        contiguous = prev_addr is not None and addr == prev_addr + 1
        if absent and current and contiguous:
            current.append(candidate)
        elif absent:
            if current:
                segments.append(current)
            current = [candidate]
        else:
            if current:
                segments.append(current)
            current = []
        prev_addr = addr if absent else None
    if current:
        segments.append(current)
    return segments


def legacy_plan(pool, demanded, prefetch):
    for segment in legacy_segments(pool, list(prefetch)):
        if demanded in segment:
            return segment
    return [demanded]


extent_states = st.lists(
    st.sampled_from(["absent", "absent", "resident", "inflight"]),
    min_size=1, max_size=16,
)


def pool_with(first, states):
    """A pool holding the extent starting at ``first`` in ``states``."""
    sim = Simulator()
    pool = make_pool(sim, Disk(sim, DiskGeometry(total_pages=4096)), capacity=32)
    for offset, state in enumerate(states):
        page = key(first + offset)
        if state == "resident":
            pool._slot_map[page.space_id << _PAGE_BITS | page.page_no] = (
                pool._free.pop()
            )
        elif state == "inflight":
            pool._inflight[page] = Event(sim)
    return pool


class TestRunPlanning:
    @settings(max_examples=200, deadline=None)
    @given(first=st.integers(0, 100), states=extent_states, data=st.data())
    def test_plan_run_matches_the_address_planner(self, first, states, data):
        pool = pool_with(first, states)
        extent = [key(first + offset) for offset in range(len(states))]
        absent = [page for page, state in zip(extent, states) if state == "absent"]
        if not absent:
            return
        demanded = data.draw(st.sampled_from(absent))
        assert pool._plan_run(demanded, extent) == legacy_plan(pool, demanded, extent)

    @settings(max_examples=200, deadline=None)
    @given(first=st.integers(0, 100), states=extent_states)
    def test_absent_segments_match_the_address_planner(self, first, states):
        pool = pool_with(first, states)
        extent = [key(first + offset) for offset in range(len(states))]
        assert pool._absent_segments(extent) == legacy_segments(pool, extent)
