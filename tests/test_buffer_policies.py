"""Unit tests for priority-LRU, the pool's victim policy."""

import pytest

from repro.buffer.page import PageKey, Priority
from repro.buffer.replacement import PriorityLruPolicy


def key(n: int) -> PageKey:
    return PageKey(0, n)


def always(_key: PageKey) -> bool:
    return True


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
