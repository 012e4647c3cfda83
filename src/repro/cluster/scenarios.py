"""Named cluster scenarios, registered as ``sv-cluster-*`` experiments.

Like the single-node ``sv-*`` scenarios, rates and horizons are
calibrated in units of the estimated Q6 service time at the current
``scale`` (see :func:`repro.service.scenarios.estimated_query_seconds`),
so the offered load per replica is scale-invariant.  Population sizes
default to a million simulated users — the load generator renders only
the arrivals the horizon admits, so population size costs nothing; it
feeds the user-attribution skew, not the event count.

Per-class aggregate rates are expressed through the population algebra
of :class:`~repro.workloads.loadgen.LoadSpec`: giving every class
``share = rate_i`` and ``think_mean = n_users / Σ rate_i`` makes
``class_rate`` come out to exactly ``rate_i`` regardless of
``n_users``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple

from repro.cluster.service import (
    ClusterResult,
    ClusterScalingResult,
    ClusterService,
)
from repro.cluster.spec import ClusterSpec
from repro.experiments.harness import ExperimentSettings
from repro.service.scenarios import _controller, estimated_query_seconds
from repro.workloads.loadgen import (
    ExplicitScan,
    LoadSpec,
    Scannable,
    UserClass,
)

#: scenario name -> one-line description (shown by ``cluster-sim --list``).
CLUSTER_SCENARIOS: Dict[str, str] = {
    "steady": "mixed interactive+reporting fleet at moderate load, rf=2, "
              "least-loaded routing",
    "skew": "zipf-skewed users hammering their favourite tables "
            "(hot-shard stress), rf=1",
    "scale": "identical load over 1 -> 2 -> 4 replicas "
             "(throughput must not drop)",
}

#: Default simulated population (overridable via --users).
DEFAULT_USERS = 1_000_000


def _rated_classes(
    rated: List[Tuple[UserClass, float]], n_users: int
) -> Tuple[UserClass, ...]:
    """Bind desired aggregate rates onto user classes.

    Every class gets ``share = rate`` and the shared ``think_mean =
    n_users / Σ rate``, so the :class:`LoadSpec` population algebra
    reproduces each class's rate exactly.
    """
    think_mean = n_users / sum(rate for _, rate in rated)
    return tuple(
        replace(cls, share=rate, think_mean=think_mean) for cls, rate in rated
    )


def build_cluster_spec(name: str, settings: ExperimentSettings) -> ClusterSpec:
    """The :class:`ClusterSpec` for one named scenario at these settings.

    For ``scale`` this is the spec of the *first* sweep point; the
    experiment itself rebuilds the fleet per axis value.
    """
    if name not in CLUSTER_SCENARIOS:
        raise KeyError(
            f"unknown cluster scenario {name!r} "
            f"(known: {', '.join(sorted(CLUSTER_SCENARIOS))})"
        )
    cost = estimated_query_seconds(settings)
    n_users = settings.cluster_users or DEFAULT_USERS

    if name == "steady":
        classes = _rated_classes([
            (UserClass(
                name="interactive", weight=3.0,
                templates=("Q6", "Q14"), table_zipf=0.8,
                latency_slo=8.0 * cost,
            ), 0.8 / cost),
            (UserClass(
                name="reporting", weight=1.0, templates=("Q1",),
            ), 0.25 / cost),
        ], n_users)
        load = LoadSpec(
            classes=classes,
            n_users=n_users,
            horizon=60.0 * cost,
            max_arrivals_per_class=300,
        )
        return ClusterSpec(
            load=_with_horizon(load, settings),
            n_replicas=settings.cluster_replicas or 2,
            replication_factor=min(2, settings.cluster_replicas or 2),
            balance="least-loaded",
            controller=_controller(cost),
        )

    if name == "skew":
        classes = _rated_classes([
            (UserClass(
                name="analyst", weight=2.0,
                templates=("Q6", "Q14", "Q3", "Q1"), table_zipf=1.5,
                latency_slo=10.0 * cost, patience=25.0 * cost,
            ), 1.5 / cost),
            (UserClass(
                name="dashboard", weight=1.0,
                templates=("Q6",),
            ), 0.3 / cost),
        ], n_users)
        load = LoadSpec(
            classes=classes,
            n_users=n_users,
            user_zipf=1.2,
            horizon=50.0 * cost,
            max_arrivals_per_class=400,
        )
        return ClusterSpec(
            load=_with_horizon(load, settings),
            n_replicas=settings.cluster_replicas or 3,
            replication_factor=1,
            balance="preference",
            controller=_controller(cost),
        )

    # scale: the load must overwhelm a single replica (makespan well
    # past the arrival window) so added replicas genuinely relieve a
    # bottleneck; the multi-table mix keeps scan sharing from absorbing
    # the whole overload on one node.
    classes = _rated_classes([
        (UserClass(
            name="scan", weight=1.0, templates=("Q6", "Q14", "Q3"),
        ), 8.0 / cost),
    ], n_users)
    load = LoadSpec(
        classes=classes,
        n_users=n_users,
        horizon=30.0 * cost,
        max_arrivals_per_class=360,
    )
    return ClusterSpec(
        load=_with_horizon(load, settings),
        n_replicas=scale_axis(settings).axis.sequence[0],
        replication_factor=1,
        balance="preference",
        controller=_controller(cost),
    )


def _with_horizon(load: LoadSpec, settings: ExperimentSettings) -> LoadSpec:
    """``load`` with the CLI's ``--horizon`` override applied, if any."""
    if settings.service_horizon is None:
        return load
    return replace(load, horizon=settings.service_horizon)


def scale_axis(settings: ExperimentSettings) -> Scannable:
    """The replica-count axis the scale experiment sweeps.

    Defaults to 1 → 2 → 4; ``--replicas K`` reshapes it to doubling
    steps from 1 up to (and including) K.
    """
    if settings.cluster_replicas is None:
        points: Tuple[int, ...] = (1, 2, 4)
    else:
        values = [1]
        while values[-1] < settings.cluster_replicas:
            values.append(min(values[-1] * 2, settings.cluster_replicas))
        points = tuple(values)
    return Scannable("replicas", ExplicitScan(points))


def run_cluster_scenario(
    name: str, settings: ExperimentSettings
) -> ClusterResult:
    """Build the named cluster and run it once."""
    spec = build_cluster_spec(name, settings)
    return ClusterService(
        spec, settings, scenario=f"cluster-{name}"
    ).run()


def sv_cluster_steady(settings: ExperimentSettings) -> ClusterResult:
    """Moderate mixed load over a replicated fleet (the golden workhorse)."""
    return run_cluster_scenario("steady", settings)


def sv_cluster_skew(settings: ExperimentSettings) -> ClusterResult:
    """Hot-shard stress: zipf users, zipf tables, no replication slack."""
    return run_cluster_scenario("skew", settings)


def sv_cluster_scale(settings: ExperimentSettings) -> ClusterScalingResult:
    """Identical offered load over a growing fleet (1 → 2 → 4 replicas)."""
    axis = scale_axis(settings)
    base_spec = build_cluster_spec("scale", settings)
    points: List[ClusterResult] = []
    for n_replicas in axis:
        spec = replace(base_spec, n_replicas=n_replicas)
        points.append(ClusterService(
            spec, settings, scenario=f"cluster-scale/x{n_replicas}"
        ).run())
    return ClusterScalingResult(
        scenario="cluster-scale",
        axis=axis.describe(),
        points=points,
    )
