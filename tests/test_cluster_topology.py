"""Property and unit tests for the consistent-hash ring and router."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.spec import ClusterSpec
from repro.cluster.topology import (
    RING_POINTS,
    SHARDS_PER_TABLE,
    ClusterRouter,
    HashRing,
)
from repro.workloads.arrivals import stable_hash
from repro.workloads.loadgen import LoadSpec, UserClass


def _spec(**changes) -> ClusterSpec:
    load = LoadSpec(classes=(UserClass(name="u"),), n_users=100)
    base = dict(load=load, n_replicas=3)
    base.update(changes)
    return ClusterSpec(**base)


replica_counts = st.integers(min_value=1, max_value=8)
keys = st.text(min_size=1, max_size=24)


class TestRingHash:
    """Ring positions are :func:`stable_hash` values of their keys."""

    def test_stable_across_calls(self):
        assert stable_hash("lineitem/3") == stable_hash("lineitem/3")

    def test_64_bit_range(self):
        assert 0 <= stable_hash("x") < 2 ** 64


class TestHashRing:
    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing([0, 0])

    def test_ring_size_is_replicas_times_points(self):
        ring = HashRing(range(3))
        assert len(ring) == 3 * RING_POINTS

    def test_preference_rejects_nonpositive(self):
        ring = HashRing(range(2))
        with pytest.raises(ValueError):
            ring.preference("k", 0)

    @settings(max_examples=50, deadline=None)
    @given(n=replica_counts, key=keys)
    def test_totality(self, n, key):
        """Every key routes to a valid replica."""
        ring = HashRing(range(n))
        assert ring.owner(key) in range(n)

    @settings(max_examples=50, deadline=None)
    @given(n=replica_counts, key=keys)
    def test_stability_under_rebuild(self, n, key):
        """A rebuilt ring routes every key identically."""
        a = HashRing(range(n))
        b = HashRing(range(n))
        assert a.owner(key) == b.owner(key)
        assert a.preference(key, n) == b.preference(key, n)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=2, max_value=6), key=keys)
    def test_preference_distinct_and_clamped(self, n, key):
        """Preference lists never repeat a replica and clamp to the fleet."""
        ring = HashRing(range(n))
        prefs = ring.preference(key, n + 5)
        assert len(prefs) == n
        assert len(set(prefs)) == n

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(min_value=1, max_value=6))
    def test_minimal_movement_on_add(self, n):
        """Adding a replica only moves keys *onto* the new replica."""
        before = HashRing(range(n))
        after = HashRing(range(n + 1))
        sample = [f"table/{i}" for i in range(400)]
        moved = [
            key for key in sample if before.owner(key) != after.owner(key)
        ]
        assert all(after.owner(key) == n for key in moved)
        # With RING_POINTS vnodes the moved share should be near 1/(n+1); allow
        # generous slack for hash lumpiness.
        assert len(moved) / len(sample) < 2.5 / (n + 1)

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(min_value=2, max_value=6))
    def test_minimal_movement_on_remove(self, n):
        """Removing a replica only moves keys that *belonged* to it."""
        before = HashRing(range(n))
        after = HashRing(range(n - 1))
        sample = [f"table/{i}" for i in range(400)]
        for key in sample:
            if before.owner(key) != after.owner(key):
                assert before.owner(key) == n - 1

    def test_balance_with_enough_vnodes(self):
        """RING_POINTS vnodes spread a uniform keyspace within loose bounds."""
        ring = HashRing(range(4))
        counts = [0, 0, 0, 0]
        for i in range(2000):
            counts[ring.owner(f"k/{i}")] += 1
        for count in counts:
            assert 2000 * 0.10 < count < 2000 * 0.45


class TestClusterRouter:
    def test_route_updates_load_stats(self):
        router = ClusterRouter(_spec())
        for user in range(50):
            router.route("lineitem", user)
        assert sum(router.assigned) == 50
        assert sum(router.shards_touched()) >= 1

    def test_shard_key_folds_users(self):
        router = ClusterRouter(_spec())
        assert router.shard_key("lineitem", 3) == "lineitem/3"
        assert router.shard_key("lineitem", 3 + SHARDS_PER_TABLE) == "lineitem/3"

    def test_preference_balance_ignores_load(self):
        """rf=1 always routes to the ring owner, whatever the counters."""
        spec = _spec(replication_factor=1)
        a, b = ClusterRouter(spec), ClusterRouter(spec)
        for user in range(40):
            assert a.route("orders", user) == b.route("orders", user)

    def test_least_loaded_evens_the_split(self):
        """With rf == K every arrival may go anywhere; least-loaded
        routing must then keep the fleet within one arrival of even."""
        spec = _spec(
            n_replicas=3, replication_factor=3, balance="least-loaded"
        )
        router = ClusterRouter(spec)
        for user in range(60):
            router.route("lineitem", user)
        assert max(router.assigned) - min(router.assigned) <= 1

    def test_least_loaded_is_deterministic(self):
        spec = _spec(
            n_replicas=3, replication_factor=2, balance="least-loaded"
        )
        a, b = ClusterRouter(spec), ClusterRouter(spec)
        tables = ["lineitem", "orders", "part"]
        for user in range(90):
            table = tables[user % 3]
            assert a.route(table, user) == b.route(table, user)

    def test_stats_shape(self):
        router = ClusterRouter(_spec())
        router.route("lineitem", 1)
        stats = router.stats()
        assert stats["balance"] == "preference"
        assert set(stats["assigned"]) == {"0", "1", "2"}
        assert sum(stats["assigned"].values()) == 1
