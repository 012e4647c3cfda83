"""End-to-end tests for the admission-controlled query service.

Everything here runs the tiny calibrated scenarios (scale 0.1), so the
whole module stays in CI-smoke territory while still pushing real
queries through the shared-scan engine.
"""

from __future__ import annotations

import pytest

from repro.experiments.harness import ExperimentSettings
from repro.experiments.registry import REGISTRY, get
from repro.experiments.runner import (
    ExperimentTask,
    first_divergence,
    run_tasks,
)
from repro.service import ServiceResult
from repro.service.controller import (
    DECREASE_FACTOR,
    MISS_EWMA_ALPHA,
    MISS_RATE_HIGH,
    MISS_RATE_LOW,
    MIN_WINDOW_READS,
    PRESSURE_HIGH,
    AdmissionController,
)
from repro.service.metrics import bounded_problems
from repro.service.scenarios import (
    SCENARIOS,
    build_service_spec,
    estimated_query_seconds,
    run_scenario,
)
from repro.service.spec import INITIAL_MPL, MIN_MPL, ControllerConfig
from repro.trace import RingBufferSink, tracing
from repro.workloads.arrivals import stable_hash

TINY = ExperimentSettings(scale=0.1, seed=42)


class TestScenarioSpecs:
    def test_every_scenario_builds(self):
        for name in SCENARIOS:
            spec = build_service_spec(name, TINY)
            assert spec.horizon > 0
            assert spec.classes

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            build_service_spec("nope", TINY)

    def test_calibration_cost_scales_with_data(self):
        small = estimated_query_seconds(ExperimentSettings(scale=0.1))
        large = estimated_query_seconds(ExperimentSettings(scale=0.5))
        assert 0 < small < large

    def test_service_horizon_override(self):
        spec = build_service_spec("steady", TINY.with_(service_horizon=1.25))
        assert spec.horizon == 1.25

    def test_sv_experiments_registered(self):
        for name in SCENARIOS:
            assert f"sv-{name}" in REGISTRY


class TestSteadyEndToEnd:
    @pytest.fixture(scope="class")
    def result(self) -> ServiceResult:
        return run_scenario("steady", TINY)

    def test_drains_and_conserves_requests(self, result):
        assert result.drained
        assert result.n_arrived == result.n_completed + result.n_abandoned
        assert result.n_arrived > 0

    def test_both_classes_served(self, result):
        interactive = result.class_metrics("interactive")
        batch = result.class_metrics("batch")
        assert interactive.n_completed > 0
        assert batch.n_completed > 0
        # Closed batch streams never abandon (no patience configured).
        assert batch.n_abandoned == 0

    def test_concurrency_stayed_inside_controller_range(self, result):
        spec = build_service_spec("steady", TINY)
        # peak_running may exceed mpl by in-flight work admitted before a
        # decrease, but never the controller's configured ceiling.
        assert result.peak_running <= spec.controller.max_mpl
        assert MIN_MPL <= result.mpl_final <= spec.controller.max_mpl
        assert result.controller_ticks > 0

    def test_metrics_dict_shape(self, result):
        metrics = result.metrics()
        assert metrics["controller"]["enabled"]
        assert set(metrics["classes"]) == {"interactive", "batch"}
        assert metrics["n_completed"] == result.n_completed
        assert bounded_problems("steady", metrics) == []

    def test_render_mentions_every_class(self, result):
        rendered = result.render()
        assert "interactive" in rendered and "batch" in rendered
        assert "controller: mpl" in rendered

    def test_latency_bounds_sane(self, result):
        for cls in result.classes:
            if cls.n_completed:
                assert 0 <= cls.latency_p50 <= cls.latency_p95 <= cls.latency_p99
                assert cls.wait_p50 <= cls.wait_p99


class TestServiceTracing:
    def test_trace_events_conserve_requests(self):
        ring = RingBufferSink(capacity=200_000)
        with tracing(ring):
            result = run_scenario("steady", TINY)
        events = [e for e in ring.events() if e.category == "service"]
        kinds = {}
        for event in events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        assert kinds["arrival"] == result.n_arrived
        assert kinds["admit"] == result.n_completed
        assert kinds["complete"] == result.n_completed
        assert kinds.get("abandon", 0) == result.n_abandoned

    def test_admit_events_monotone_in_time(self):
        ring = RingBufferSink(capacity=200_000)
        with tracing(ring):
            run_scenario("steady", TINY)
        admits = [e for e in ring.events()
                  if e.category == "service" and e.kind == "admit"]
        times = [e.time for e in admits]
        assert times == sorted(times)
        assert all(e.waited >= 0 for e in admits)


class TestDeterminism:
    def test_same_settings_same_metrics(self):
        a = run_scenario("steady", TINY).metrics()
        b = run_scenario("steady", TINY).metrics()
        assert first_divergence(a, b) is None

    def test_seed_changes_the_run(self):
        a = run_scenario("steady", TINY)
        b = run_scenario("steady", TINY.with_(seed=43))
        assert a.metrics() != b.metrics()

    def test_registry_entry_matches_direct_call(self):
        via_registry = get("sv-steady").run(TINY).metrics()
        direct = run_scenario("steady", TINY).metrics()
        assert first_divergence(via_registry, direct) is None

    def test_serial_vs_parallel_digests_identical(self, tmp_path):
        tasks = [ExperimentTask(f"sv-{name}", TINY)
                 for name in ("steady", "burst")]
        serial = run_tasks(tasks, jobs=1, use_cache=False,
                           cache_dir=str(tmp_path / "a"))
        parallel = run_tasks(tasks, jobs=2, use_cache=False,
                             cache_dir=str(tmp_path / "b"))
        for left, right in zip(serial.tasks, parallel.tasks):
            assert left.label == right.label
            assert left.digest == right.digest, (
                f"{left.label}: serial/parallel digest mismatch at "
                f"{first_divergence(left.metrics, right.metrics)}"
            )

    def test_class_seed_is_stable_and_distinct(self):
        # The service's per-class seed; tests/test_load_model.py pins
        # the values the service itself derives.
        def class_seed(base_seed, name):
            return stable_hash("repro.service", base_seed, name)

        assert class_seed(42, "a") == class_seed(42, "a")
        assert class_seed(42, "a") != class_seed(42, "b")
        assert class_seed(42, "a") != class_seed(43, "a")


class TestControllerUnit:
    @pytest.fixture()
    def db(self):
        from repro.core.config import SharingConfig
        from repro.experiments.harness import build_database
        return build_database(ExperimentSettings(scale=0.05),
                             SharingConfig(enabled=True))

    def test_disabled_controller_always_has_slots(self, db):
        controller = AdmissionController(db, ControllerConfig(enabled=False))
        assert controller.has_slot(10_000)
        controller.start()
        assert controller.process is None

    def test_pool_pressure_triggers_multiplicative_decrease(self, db):
        controller = AdmissionController(db, ControllerConfig())
        db.pool.reserve_frames(
            "pool-pressure", int(db.pool.capacity * (PRESSURE_HIGH + 0.1))
        )
        controller._tick()
        assert controller.mpl == int(INITIAL_MPL * DECREASE_FACTOR) == 2
        controller._tick()
        assert controller.mpl == MIN_MPL == 1
        assert controller.stats.decreases == 2

    def test_clean_window_gives_additive_increase(self, db):
        controller = AdmissionController(db, ControllerConfig(max_mpl=6))
        for _ in range(5):
            controller._tick()
        assert controller.mpl == 6  # +1 per tick, clamped at max_mpl
        assert controller.stats.increases == 2

    def test_windowed_miss_rate_triggers_decrease(self, db):
        controller = AdmissionController(db, ControllerConfig())
        stats = db.pool.stats
        estimate = 0.0
        estimates, mpls = [], []
        for _ in range(3):
            stats.logical_reads += 100
            stats.misses += 90
            controller._tick()
            estimate += MISS_EWMA_ALPHA * (0.9 - estimate)
            assert controller._miss_ewma == pytest.approx(estimate)
            estimates.append(estimate)
            mpls.append(controller.mpl)
        # The smoothed rate climbs 0.27 (clean: +1), 0.46 (hold) and
        # crosses the shrink threshold at the third window (halve).
        assert estimates[0] < MISS_RATE_LOW <= estimates[1] <= MISS_RATE_HIGH
        assert estimates[2] > MISS_RATE_HIGH
        assert mpls == [INITIAL_MPL + 1, INITIAL_MPL + 1,
                        int((INITIAL_MPL + 1) * DECREASE_FACTOR)]
        # Next window is idle: the estimate holds above the threshold,
        # so it halves again.
        controller._tick()
        assert controller._miss_ewma == pytest.approx(estimate)
        assert controller.mpl == MIN_MPL

    def test_near_idle_window_does_not_move_estimate(self, db):
        controller = AdmissionController(db, ControllerConfig())
        stats = db.pool.stats
        stats.logical_reads += MIN_WINDOW_READS - 1
        stats.misses += MIN_WINDOW_READS - 1
        controller._tick()
        assert controller._miss_ewma == 0.0
        assert controller.mpl == INITIAL_MPL + 1  # clean -> additive increase
