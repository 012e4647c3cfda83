"""Tests for ClusterSpec, seed derivation, and the ClusterService."""

import pytest

from repro.cluster.service import (
    ClusterService,
    derive_loadgen_seed,
    derive_replica_seed,
)
from repro.cluster.spec import ClusterSpec
from repro.experiments.harness import ExperimentSettings
from repro.experiments.runner import canonical_json
from repro.service.spec import ControllerConfig
from repro.workloads.loadgen import LoadSpec, UserClass

SETTINGS = ExperimentSettings(scale=0.1, seed=42)


def _load(**changes) -> LoadSpec:
    base = dict(
        classes=(
            UserClass(name="scan", templates=("Q6", "Q14"),
                      think_mean=1000 / 60.0),
        ),
        n_users=1000,
        horizon=0.6,
        max_arrivals_per_class=60,
    )
    base.update(changes)
    return LoadSpec(**base)


def _spec(**changes) -> ClusterSpec:
    base = dict(
        load=_load(),
        n_replicas=2,
        controller=ControllerConfig(interval=0.01),
    )
    base.update(changes)
    return ClusterSpec(**base)


class TestClusterSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            _spec(n_replicas=0)
        with pytest.raises(ValueError):
            _spec(replication_factor=3)  # > n_replicas
        with pytest.raises(ValueError):
            _spec(balance="random")

    def test_describe_is_json_safe(self):
        canonical_json(_spec().describe())


class TestSeedDerivation:
    def test_replica_seeds_distinct_and_stable(self):
        seeds = {derive_replica_seed(42, k) for k in range(8)}
        assert len(seeds) == 8
        assert derive_replica_seed(42, 3) == derive_replica_seed(42, 3)

    def test_base_seed_decorrelates(self):
        assert derive_replica_seed(42, 0) != derive_replica_seed(43, 0)
        assert derive_loadgen_seed(42) != derive_loadgen_seed(43)

    def test_loadgen_seed_differs_from_replica_seeds(self):
        assert derive_loadgen_seed(42) not in {
            derive_replica_seed(42, k) for k in range(8)
        }


class TestClusterService:
    def test_run_drains_and_conserves_arrivals(self):
        result = ClusterService(_spec(), SETTINGS, scenario="t").run()
        assert result.drained
        assert result.n_offered > 0
        assert result.n_arrived == result.n_offered
        assert result.n_completed + result.n_abandoned == result.n_arrived
        routed = sum(r.arrivals_routed for r in result.replicas)
        assert routed == result.n_offered

    def test_rerun_is_byte_identical(self):
        a = ClusterService(_spec(), SETTINGS, scenario="t").run()
        b = ClusterService(_spec(), SETTINGS, scenario="t").run()
        assert canonical_json(a.metrics()) == canonical_json(b.metrics())

    def test_seed_changes_the_run(self):
        a = ClusterService(_spec(), SETTINGS, scenario="t").run()
        b = ClusterService(
            _spec(), SETTINGS.with_(seed=43), scenario="t"
        ).run()
        assert canonical_json(a.metrics()) != canonical_json(b.metrics())

    def test_metrics_shape(self):
        result = ClusterService(_spec(), SETTINGS, scenario="t").run()
        metrics = result.metrics()
        assert metrics["scenario"] == "t"
        assert set(metrics["replicas"]) == {"0", "1"}
        assert metrics["fleet_throughput"] > 0
        assert 0.0 <= metrics["fleet_miss_rate"] <= 1.0
        assert metrics["router"]["assigned"]
        canonical_json(metrics)  # must be JSON-safe

    def test_render_contains_fleet_row(self):
        result = ClusterService(_spec(), SETTINGS, scenario="t").run()
        text = result.render()
        assert "FLEET" in text
        assert "r0" in text and "r1" in text

    def test_least_loaded_with_full_replication_balances(self):
        spec = _spec(
            n_replicas=2, replication_factor=2, balance="least-loaded"
        )
        result = ClusterService(spec, SETTINGS, scenario="t").run()
        routed = [r.arrivals_routed for r in result.replicas]
        assert abs(routed[0] - routed[1]) <= 1

    def test_replica_pinned_fault_isolates_other_replicas(self):
        """Killing replica 1's scans must not move a single draw on
        replica 0 — the ``replica=`` pin filters clauses before the
        injector is even built."""
        clean = ClusterService(_spec(), SETTINGS, scenario="t").run()
        faulty = ClusterService(
            _spec(), SETTINGS.with_(
                fault_spec="scan-kill:target=any,at=0.3,count=2,replica=1"
            ), scenario="t",
        ).run()
        assert canonical_json(clean.replicas[0].service.metrics()) == \
            canonical_json(faulty.replicas[0].service.metrics())
        assert canonical_json(clean.replicas[1].service.metrics()) != \
            canonical_json(faulty.replicas[1].service.metrics())

    def test_unpinned_fault_hits_every_replica(self):
        clean = ClusterService(_spec(), SETTINGS, scenario="t").run()
        faulty = ClusterService(
            _spec(), SETTINGS.with_(fault_spec="disk-delay:factor=8.0"),
            scenario="t",
        ).run()
        for k in range(2):
            assert canonical_json(clean.replicas[k].service.metrics()) != \
                canonical_json(faulty.replicas[k].service.metrics())
