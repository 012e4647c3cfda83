"""Determinism and scaling-claim tests for the sv-cluster-* experiments."""

import pytest

from repro.cluster.scenarios import (
    CLUSTER_SCENARIOS,
    build_cluster_spec,
    scale_axis,
)
from repro.experiments.harness import ExperimentSettings
from repro.experiments.registry import REGISTRY
from repro.experiments.runner import ExperimentTask, execute_task, run_tasks
from repro.service.metrics import bounded_problems

SETTINGS = ExperimentSettings(scale=0.1, seed=42)

CLUSTER_EXPERIMENTS = ("sv-cluster-steady", "sv-cluster-skew",
                      "sv-cluster-scale")


class TestRegistration:
    def test_cluster_experiments_registered(self):
        for name in CLUSTER_EXPERIMENTS:
            assert name in REGISTRY

    def test_every_scenario_has_a_spec(self):
        for name in CLUSTER_SCENARIOS:
            spec = build_cluster_spec(name, SETTINGS)
            assert spec.n_replicas >= 1

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            build_cluster_spec("nope", SETTINGS)

    def test_replicas_override_shapes_the_fleet(self):
        spec = build_cluster_spec(
            "steady", SETTINGS.with_(cluster_replicas=4)
        )
        assert spec.n_replicas == 4

    def test_scale_axis_doubles_to_override(self):
        assert tuple(scale_axis(SETTINGS)) == (1, 2, 4)
        assert tuple(
            scale_axis(SETTINGS.with_(cluster_replicas=6))
        ) == (1, 2, 4, 6)
        assert tuple(
            scale_axis(SETTINGS.with_(cluster_replicas=1))
        ) == (1,)

    def test_horizon_override_applies(self):
        spec = build_cluster_spec(
            "steady", SETTINGS.with_(service_horizon=0.25)
        )
        assert spec.load.horizon == 0.25


class TestDeterminism:
    def test_serial_equals_parallel_digests(self):
        """--jobs N must be byte-identical to --jobs 1 for every
        cluster experiment (the acceptance invariant)."""
        tasks = [ExperimentTask(name, SETTINGS)
                 for name in CLUSTER_EXPERIMENTS]
        serial = run_tasks(tasks, jobs=1, use_cache=False)
        parallel = run_tasks(tasks, jobs=3, use_cache=False)
        assert serial.suite_digest() == parallel.suite_digest()
        for a, b in zip(serial.tasks, parallel.tasks):
            assert a.digest == b.digest, a.label

    def test_rerun_reproduces_digest(self):
        task = ExperimentTask("sv-cluster-skew", SETTINGS)
        assert execute_task(task).digest == execute_task(task).digest


class TestScalingClaim:
    def test_fleet_throughput_monotone_in_replicas(self):
        """Adding replicas to the identical offered load must never
        reduce fleet throughput (ISSUE acceptance criterion)."""
        result = execute_task(
            ExperimentTask("sv-cluster-scale", SETTINGS)
        ).metrics
        assert result["monotone_throughput"] is True
        throughputs = result["fleet_throughput"]
        assert set(throughputs) == {"1", "2", "4"}
        assert throughputs["4"] > throughputs["1"]

    def test_every_point_serves_the_same_arrivals(self):
        result = execute_task(
            ExperimentTask("sv-cluster-scale", SETTINGS)
        ).metrics
        offered = {
            point["n_offered"] for point in result["points"].values()
        }
        assert len(offered) == 1


class TestSkewScenario:
    def test_skew_concentrates_load(self):
        """The hot-shard scenario must actually produce a hot replica."""
        result = execute_task(
            ExperimentTask("sv-cluster-skew", SETTINGS)
        ).metrics
        routed = sorted(
            replica["arrivals_routed"]
            for replica in result["replicas"].values()
        )
        assert routed[-1] > 2 * routed[0]


class TestReplicaQueueBounds:
    @pytest.mark.parametrize("replicas", [3, 2])
    def test_every_skew_replica_keeps_its_queue_bound(self, replicas):
        """Each replica's queue bound is set from the arrivals routed to
        it (count ÷ horizon), so a replica that receives most of the
        skewed load gets a bound its patience-capped queue keeps."""
        settings = SETTINGS.with_(cluster_replicas=replicas)
        metrics = execute_task(
            ExperimentTask("sv-cluster-skew", settings)
        ).metrics
        assert len(metrics["replicas"]) == replicas
        for replica_id, replica in metrics["replicas"].items():
            assert bounded_problems(f"r{replica_id}", replica["service"]) == []
