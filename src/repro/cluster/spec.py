"""Declarative, hashable specification of one simulated cluster.

A :class:`ClusterSpec` pins everything a cluster run depends on — the
replica fleet shape, the replication factor, the routing policy, the
admission controller, and the offered load (a
:class:`~repro.workloads.loadgen.LoadSpec`) — so that a run is a pure
function of ``(ClusterSpec, seed)`` and can participate in the
experiment runner's content-addressed caching exactly like a
single-node :class:`~repro.service.spec.ServiceSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from repro.cluster.topology import RING_POINTS, SHARDS_PER_TABLE
from repro.service.spec import ControllerConfig
from repro.workloads.loadgen import BALANCE_KINDS, LoadSpec


@dataclass(frozen=True)
class ClusterSpec:
    """One cluster configuration: fleet shape + routing + load.

    The shard map itself (:data:`~repro.cluster.topology.SHARDS_PER_TABLE`
    shards per table on a ring of
    :data:`~repro.cluster.topology.RING_POINTS` virtual nodes per
    replica) is fixed in :mod:`repro.cluster.topology`.
    """

    #: The offered load (classes, population, horizon).
    load: LoadSpec
    #: Replica fleet size (each replica is one full QueryService run).
    n_replicas: int = 2
    #: How many replicas hold each shard (1 = pure partitioning).
    replication_factor: int = 1
    #: Replica choice among a shard's holders: ``preference`` (ring
    #: order) or ``least-loaded`` (cross-replica load stats tie-break).
    balance: str = "preference"
    #: Admission controller applied to every replica.
    controller: ControllerConfig = field(default_factory=ControllerConfig)

    def __post_init__(self) -> None:
        if self.n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {self.n_replicas}")
        if not 1 <= self.replication_factor <= self.n_replicas:
            raise ValueError(
                f"replication_factor must be in [1, n_replicas], got "
                f"{self.replication_factor} with {self.n_replicas} replicas"
            )
        if self.balance not in BALANCE_KINDS:
            raise ValueError(
                f"unknown balance {self.balance!r}; expected one of "
                f"{BALANCE_KINDS}"
            )

    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary for metrics dicts and reports."""
        return {
            "n_replicas": self.n_replicas,
            "replication_factor": self.replication_factor,
            "shards_per_table": SHARDS_PER_TABLE,
            "ring_points": RING_POINTS,
            "balance": self.balance,
            "n_users": self.load.n_users,
            "user_zipf": self.load.user_zipf,
            "horizon": self.load.horizon,
            "classes": [cls.name for cls in self.load.classes],
        }
