"""Belady's OPT (``repro.metrics.opt``) and the bound it puts on reads.

* ``opt_misses`` against the textbook reference string, against an
  exhaustive search over every eviction choice, and below priority-LRU
  driven over the same stream;
* ``recorded_fixes`` joins the installed tracer without disturbing its
  sinks;
* the sanity bound at smoke size: a run never reads fewer pages than OPT
  takes misses on its own fix stream, Base and SS, under every sharing
  policy and with push prefetch.  OPT is a theorem, so a failure here
  means the read accounting is broken.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.buffer.page import PageKey, Priority
from repro.buffer.replacement import PriorityLruPolicy
from repro.core.config import SharingConfig
from repro.core.policy import SHARING_POLICY_NAMES
from repro.experiments.harness import (
    ExperimentSettings,
    expected_pool_pages,
    run_mode,
)
from repro.metrics.opt import opt_misses, recorded_fixes
from repro.trace import RingBufferSink, tracing
from repro.trace.events import BufferFix
import repro.trace.tracer as trace_slot

#: Silberschatz's reference string; OPT takes 9 faults with 3 frames.
TEXTBOOK = [7, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2, 1, 2, 0, 1, 7, 0, 1]


def exhaustive_misses(stream, capacity):
    """The fewest misses over every choice of victim at every miss."""
    @lru_cache(maxsize=None)
    def best(i, resident):
        if i == len(stream):
            return 0
        page = stream[i]
        if page in resident:
            return best(i + 1, resident)
        if len(resident) < capacity:
            return 1 + best(i + 1, resident | {page})
        return 1 + min(best(i + 1, (resident - {victim}) | {page})
                       for victim in resident)
    return best(0, frozenset())


def priority_lru_misses(stream, capacity, priorities):
    """Misses of the pool's policy as a plain cache: admit on a miss,
    evict when full, release every fix with the next priority."""
    policy = PriorityLruPolicy()
    resident = set()
    misses = 0
    for position, page in enumerate(stream):
        key = PageKey(0, page)
        if key in resident:
            policy.on_hit(key)
        else:
            misses += 1
            if len(resident) == capacity:
                victim = policy.choose_victim(lambda k: True)
                policy.on_evict(victim)
                resident.remove(victim)
            policy.on_admit(key)
            resident.add(key)
        policy.on_release(key, priorities[position % len(priorities)])
    return misses


streams = st.lists(st.integers(min_value=0, max_value=5), max_size=10)

SMOKE = ExperimentSettings(scale=0.05, n_streams=2)


class TestOptMisses:
    def test_textbook_string(self):
        assert opt_misses(TEXTBOOK, 3) == 9

    def test_room_for_everything_misses_once_per_page(self):
        assert opt_misses(TEXTBOOK, 6) == len(set(TEXTBOOK))
        assert opt_misses([], 1) == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            opt_misses(TEXTBOOK, 0)

    @settings(max_examples=300, deadline=None)
    @given(stream=streams, capacity=st.integers(min_value=1, max_value=4))
    def test_equals_exhaustive_search(self, stream, capacity):
        assert opt_misses(stream, capacity) == exhaustive_misses(
            tuple(stream), capacity)

    @settings(max_examples=200, deadline=None)
    @given(stream=st.lists(st.integers(min_value=0, max_value=20),
                           max_size=200),
           capacity=st.integers(min_value=1, max_value=8),
           priorities=st.lists(st.sampled_from(list(Priority)),
                               min_size=1, max_size=8))
    def test_never_above_priority_lru(self, stream, capacity, priorities):
        assert opt_misses(stream, capacity) <= priority_lru_misses(
            stream, capacity, priorities)


class TestRecordedFixes:
    def test_joins_the_installed_tracer_and_leaves_it(self):
        ring = RingBufferSink(capacity=None)
        with tracing(ring) as tracer:
            with recorded_fixes() as fixes:
                run_mode(SMOKE, SharingConfig(enabled=False), "Base")
            assert tracer._sinks == [ring]
        fix_events = [(e.space_id, e.page_no) for e in ring.events()
                      if isinstance(e, BufferFix)]
        assert fixes == fix_events and fixes

    def test_tracing_off_again_afterwards(self):
        with recorded_fixes():
            assert trace_slot.active is not None
        assert trace_slot.active is None


@pytest.mark.parametrize("geometry", [
    *(SMOKE.with_(sharing_policy=name) for name in SHARING_POLICY_NAMES),
    SMOKE.with_(push_prefetch=True, device_count=2),
], ids=[*SHARING_POLICY_NAMES, "push"])
def test_e4_reads_at_least_opt(geometry):
    """E4's two modes at smoke size: pages read >= OPT on their own
    fix streams."""
    capacity = expected_pool_pages(geometry)
    for sharing, label in ((SharingConfig(enabled=False), "Base"),
                           (SharingConfig(), "SS")):
        with recorded_fixes() as fixes:
            mode = run_mode(geometry, sharing, label)
        assert mode.pages_read >= opt_misses(fixes, capacity), label
