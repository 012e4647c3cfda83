"""The cluster layer: sharded multi-replica service simulations.

One :class:`~repro.cluster.spec.ClusterSpec` describes a whole fleet —
replica count, shard map, routing policy, admission controller, and a
templated user-population load (:mod:`repro.workloads.loadgen`).  The
:class:`~repro.cluster.service.ClusterService` renders the load once,
routes every arrival through a deterministic consistent-hash ring
(:mod:`repro.cluster.topology`), and runs one full single-node service
simulation per replica, reducing the results into fleet-wide metrics.
A run is a pure function of ``(ClusterSpec, seed)``.
"""

from repro.cluster.scenarios import (
    CLUSTER_SCENARIOS,
    build_cluster_spec,
    run_cluster_scenario,
    sv_cluster_scale,
    sv_cluster_skew,
    sv_cluster_steady,
)
from repro.cluster.service import (
    ClusterResult,
    ClusterScalingResult,
    ClusterService,
    ReplicaResult,
    derive_loadgen_seed,
    derive_replica_seed,
)
from repro.cluster.spec import ClusterSpec
from repro.cluster.topology import ClusterRouter, HashRing

__all__ = [
    "CLUSTER_SCENARIOS",
    "ClusterResult",
    "ClusterRouter",
    "ClusterScalingResult",
    "ClusterService",
    "ClusterSpec",
    "HashRing",
    "ReplicaResult",
    "build_cluster_spec",
    "derive_loadgen_seed",
    "derive_replica_seed",
    "run_cluster_scenario",
    "sv_cluster_scale",
    "sv_cluster_skew",
    "sv_cluster_steady",
]
