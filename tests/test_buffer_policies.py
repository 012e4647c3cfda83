"""Unit tests for every replacement policy."""

import pytest

from repro.buffer.page import PageKey, Priority
from repro.buffer.replacement import (
    ArcPolicy,
    ClockPolicy,
    LruKPolicy,
    LruPolicy,
    PriorityLruPolicy,
    TwoQPolicy,
    make_policy,
)


def key(n: int) -> PageKey:
    return PageKey(0, n)


def always(_key: PageKey) -> bool:
    return True


class TestRegistry:
    @pytest.mark.parametrize(
        "name", ["priority-lru", "lru", "clock", "lru-k"]
    )
    def test_make_policy_capacityless(self, name):
        assert make_policy(name) is not None

    @pytest.mark.parametrize("name", ["2q", "arc"])
    def test_make_policy_needs_capacity(self, name):
        with pytest.raises(ValueError):
            make_policy(name)
        assert make_policy(name, capacity=16) is not None

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_policy("belady")

    def test_names_match_instances(self):
        assert make_policy("lru").name == "lru"
        assert make_policy("arc", 8).name == "arc"


class TestLru:
    def test_evicts_least_recent(self):
        policy = LruPolicy()
        for n in range(3):
            policy.on_admit(key(n))
        policy.on_hit(key(0))  # 0 becomes most recent
        assert policy.choose_victim(always) == key(1)

    def test_respects_evictability(self):
        policy = LruPolicy()
        for n in range(3):
            policy.on_admit(key(n))
        assert policy.choose_victim(lambda k: k != key(0)) == key(1)

    def test_no_victim_when_nothing_evictable(self):
        policy = LruPolicy()
        policy.on_admit(key(0))
        assert policy.choose_victim(lambda k: False) is None

    def test_evict_removes_tracking(self):
        policy = LruPolicy()
        policy.on_admit(key(0))
        policy.on_evict(key(0))
        assert policy.choose_victim(always) is None


class TestPriorityLru:
    def test_low_priority_evicted_before_high(self):
        policy = PriorityLruPolicy()
        policy.on_admit(key(0))
        policy.on_admit(key(1))
        policy.on_release(key(0), Priority.HIGH)
        policy.on_release(key(1), Priority.LOW)
        assert policy.choose_victim(always) == key(1)

    def test_lru_within_priority_level(self):
        policy = PriorityLruPolicy()
        for n in range(3):
            policy.on_admit(key(n))
        policy.on_hit(key(0))
        assert policy.choose_victim(always) == key(1)

    def test_release_moves_between_levels(self):
        policy = PriorityLruPolicy()
        policy.on_admit(key(0))
        policy.on_release(key(0), Priority.LOW)
        sizes = policy.level_sizes()
        assert sizes[Priority.LOW] == 1
        assert sizes[Priority.NORMAL] == 0
        policy.on_release(key(0), Priority.HIGH)
        sizes = policy.level_sizes()
        assert sizes[Priority.HIGH] == 1
        assert sizes[Priority.LOW] == 0

    def test_hit_on_untracked_page_raises(self):
        policy = PriorityLruPolicy()
        with pytest.raises(KeyError):
            policy.on_hit(key(9))

    def test_high_pages_survive_low_churn(self):
        """HIGH pages are only victims once no LOW/NORMAL pages remain."""
        policy = PriorityLruPolicy()
        policy.on_admit(key(0))
        policy.on_release(key(0), Priority.HIGH)
        for n in range(1, 5):
            policy.on_admit(key(n))
            policy.on_release(key(n), Priority.LOW)
        victims = []
        for _ in range(5):
            victim = policy.choose_victim(always)
            victims.append(victim)
            policy.on_evict(victim)
        assert victims[-1] == key(0)


class TestClock:
    def test_second_chance(self):
        policy = ClockPolicy()
        for n in range(3):
            policy.on_admit(key(n))
        # All reference bits set; first sweep clears 0,1,2, then evicts 0.
        assert policy.choose_victim(always) == key(0)

    def test_recently_hit_survives_one_sweep(self):
        policy = ClockPolicy()
        for n in range(2):
            policy.on_admit(key(n))
        first = policy.choose_victim(always)
        policy.on_evict(first)
        policy.on_admit(key(2))
        policy.on_hit(key(2))
        second = policy.choose_victim(always)
        assert second != key(2) or second is not None

    def test_empty_ring(self):
        assert ClockPolicy().choose_victim(always) is None


class TestLruK:
    def test_pages_without_k_references_evicted_first(self):
        policy = LruKPolicy()
        policy.on_admit(key(0))
        policy.on_hit(key(0))  # 0 now has 2 references
        policy.on_admit(key(1))  # 1 has only 1
        assert policy.choose_victim(always) == key(1)

    def test_oldest_kth_reference_evicted(self):
        policy = LruKPolicy()
        policy.on_admit(key(0))   # 0: refs at 1
        policy.on_hit(key(0))     # 0: refs at 1,2
        policy.on_admit(key(1))   # 1: refs at 3
        policy.on_hit(key(1))     # 1: refs at 3,4
        policy.on_hit(key(0))     # 0: refs at 2,5 -> kth-recent = 2
        # 0's K-th most recent reference (t=2) is older than 1's (t=3),
        # so 0 has the larger backward K-distance and is the victim.
        assert policy.choose_victim(always) == key(0)


class TestTwoQ:
    def test_first_admit_goes_to_a1in(self):
        policy = TwoQPolicy(capacity=8)
        policy.on_admit(key(0))
        assert policy.queue_sizes()["a1in"] == 1

    def test_ghost_readmit_promotes_to_am(self):
        policy = TwoQPolicy(capacity=8)
        policy.on_admit(key(0))
        policy.on_evict(key(0))  # moves identity to a1out
        assert policy.queue_sizes()["a1out"] == 1
        policy.on_admit(key(0))  # ghost hit
        sizes = policy.queue_sizes()
        assert sizes["am"] == 1
        assert sizes["a1out"] == 0

    def test_a1in_preferred_victim_when_full(self):
        policy = TwoQPolicy(capacity=4)
        # Promote key 0 into Am via the ghost path.
        policy.on_admit(key(0))
        policy.on_evict(key(0))
        policy.on_admit(key(0))
        for n in range(1, 4):
            policy.on_admit(key(n))
        assert policy.choose_victim(always) == key(1)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TwoQPolicy(capacity=1)


class TestArc:
    def test_first_access_lands_in_t1(self):
        policy = ArcPolicy(capacity=8)
        policy.on_admit(key(0))
        assert policy.list_sizes()["t1"] == 1

    def test_hit_promotes_to_t2(self):
        policy = ArcPolicy(capacity=8)
        policy.on_admit(key(0))
        policy.on_hit(key(0))
        sizes = policy.list_sizes()
        assert sizes["t2"] == 1
        assert sizes["t1"] == 0

    def test_ghost_hit_in_b1_grows_p(self):
        policy = ArcPolicy(capacity=8)
        policy.on_admit(key(0))
        policy.on_evict(key(0))  # to B1
        p_before = policy.p
        policy.on_admit(key(0))  # ghost hit
        assert policy.p > p_before
        assert policy.list_sizes()["t2"] == 1

    def test_ghost_hit_in_b2_shrinks_p(self):
        policy = ArcPolicy(capacity=8)
        policy.p = 4.0
        policy.on_admit(key(0))
        policy.on_hit(key(0))  # into T2
        policy.on_evict(key(0))  # to B2
        policy.on_admit(key(0))  # ghost hit in B2
        assert policy.p < 4.0

    def test_prefers_t1_when_above_target(self):
        policy = ArcPolicy(capacity=4)
        policy.p = 0.0
        for n in range(3):
            policy.on_admit(key(n))
        victim = policy.choose_victim(always)
        assert victim == key(0)  # LRU end of T1

    def test_ghost_lists_bounded(self):
        policy = ArcPolicy(capacity=4)
        for n in range(20):
            policy.on_admit(key(n))
            policy.on_evict(key(n))
        sizes = policy.list_sizes()
        assert sizes["b1"] + sizes["b2"] <= 2 * 4
