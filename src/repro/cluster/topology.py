"""Cluster topology: the consistent-hash shard ring and the router.

The router is the cluster's only placement authority: a pure function
from ``(table, user)`` shard keys to replica ids, built so that

* every key routes (**totality** — the ring walk always terminates on a
  non-empty ring),
* the same key routes the same way on every rebuild (**stability** —
  all positions are SHA-256 of stable strings, never ``hash()``),
* growing or shrinking the fleet by one replica only moves keys onto or
  off that replica (**minimal movement** — the defining consistent-
  hashing property; roughly ``1/K`` of keys per membership change).

``replication_factor > 1`` turns the single owner into a *preference
list* — the first ``R`` distinct replicas clockwise from the key — and
the router may then break the tie toward the least-loaded holder using
the cross-replica load stats it accumulates as it assigns arrivals.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.workloads.arrivals import stable_hash

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.spec import ClusterSpec

#: Virtual nodes per replica on the consistent-hash ring.
RING_POINTS = 64

#: Shards each table is split into; a ``(table, user)`` pair maps to
#: shard ``user_id % SHARDS_PER_TABLE`` of that table.
SHARDS_PER_TABLE = 8


class HashRing:
    """A consistent-hash ring over replica ids with virtual nodes.

    Each replica contributes :data:`RING_POINTS` virtual nodes at positions
    ``sha256("replica:<id>#vnode:<v>")``; more points smooth the load
    split at the cost of a longer (still tiny) sorted array.
    """

    def __init__(self, replica_ids: Sequence[int]):
        if not replica_ids:
            raise ValueError("hash ring needs at least one replica")
        if len(set(replica_ids)) != len(replica_ids):
            raise ValueError(f"duplicate replica ids: {list(replica_ids)}")
        self.replica_ids = tuple(replica_ids)
        points: List[Tuple[int, int]] = []
        for replica_id in replica_ids:
            for vnode in range(RING_POINTS):
                points.append(
                    (stable_hash(f"replica:{replica_id}#vnode:{vnode}"),
                     replica_id)
                )
        # Sorting by (position, id) makes even a position collision
        # between two replicas' vnodes resolve identically on rebuild.
        points.sort()
        self._points = points
        self._positions = [position for position, _ in points]

    def __len__(self) -> int:
        return len(self._points)

    def preference(self, key: str, n: int = 1) -> List[int]:
        """The first ``n`` distinct replicas clockwise from ``key``.

        ``n`` is clamped to the replica count, so the list is always
        non-empty and never repeats a replica.
        """
        if n < 1:
            raise ValueError(f"preference length must be >= 1, got {n}")
        n = min(n, len(self.replica_ids))
        start = bisect_left(self._positions, stable_hash(key))
        chosen: List[int] = []
        for step in range(len(self._points)):
            _, replica_id = self._points[(start + step) % len(self._points)]
            if replica_id not in chosen:
                chosen.append(replica_id)
                if len(chosen) == n:
                    break
        return chosen

    def owner(self, key: str) -> int:
        """The single primary owner of ``key``."""
        return self.preference(key, 1)[0]


class ClusterRouter:
    """Stateful arrival router: the ring plus cross-replica load stats.

    ``route`` must be called in global arrival order — the least-loaded
    tie-break reads the assignment counters, so call order is part of
    the deterministic contract (the cluster service sorts the merged
    load plan before routing).
    """

    def __init__(self, spec: "ClusterSpec"):
        self.spec = spec
        self.ring = HashRing(range(spec.n_replicas))
        #: Arrivals assigned so far, per replica (the load stats).
        self.assigned: List[int] = [0] * spec.n_replicas
        #: Distinct shard keys each replica has been asked to serve.
        self._shards_touched: List[set] = [set() for _ in range(spec.n_replicas)]

    def shard_key(self, table: str, user_id: int) -> str:
        """The shard a ``(table, user)`` pair belongs to."""
        return f"{table}/{user_id % SHARDS_PER_TABLE}"

    def route(self, table: str, user_id: int) -> int:
        """Assign one arrival to a replica and update the load stats."""
        key = self.shard_key(table, user_id)
        candidates = self.ring.preference(key, self.spec.replication_factor)
        if self.spec.balance == "least-loaded" and len(candidates) > 1:
            # Ties resolve toward ring-preference order, so a balanced
            # fleet degrades to plain consistent hashing.
            chosen = min(
                candidates,
                key=lambda rid: (self.assigned[rid], candidates.index(rid)),
            )
        else:
            chosen = candidates[0]
        self.assigned[chosen] += 1
        self._shards_touched[chosen].add(key)
        return chosen

    def shards_touched(self) -> List[int]:
        """Distinct shard keys routed to each replica so far."""
        return [len(shards) for shards in self._shards_touched]

    def stats(self) -> Dict[str, object]:
        """JSON-safe routing summary for cluster metrics."""
        return {
            "balance": self.spec.balance,
            "assigned": {
                str(rid): count for rid, count in enumerate(self.assigned)
            },
            "shards": {
                str(rid): count
                for rid, count in enumerate(self.shards_touched())
            },
        }
