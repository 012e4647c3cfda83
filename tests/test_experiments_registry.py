"""Tests for the experiment registry and the result protocol.

Every registered experiment returns an object with ``metrics()`` (the
JSON-safe dict the runner caches and digests) and ``render()``; these
cases pin each result type's own flattening and text.
"""

from __future__ import annotations

import pytest

from repro.experiments.experiments import (
    ComparisonSweep,
    PerQueryResult,
    PerStreamResult,
    StreamScalingResult,
    SweepResult,
    e1_overhead,
    e5_reads_timeline,
)
from repro.experiments.harness import ExperimentSettings
from repro.experiments.registry import (
    REGISTRY,
    UnknownExperimentError,
    all_experiments,
    get,
)

TINY = ExperimentSettings(scale=0.05, n_streams=2, seed=7)


@pytest.fixture(scope="module")
def tiny_overhead():
    """One real tiny E1 run; its Comparison seeds the heavier fixtures."""
    return e1_overhead(TINY.with_(n_streams=1))


class TestRegistryTable:
    def test_core_ids_registered(self):
        for exp_id in [f"e{i}" for i in range(1, 10)]:
            assert exp_id in REGISTRY
        for exp_id in ["a1", "a2", "a3", "a4", "a5", "a6", "a7", "a9"]:
            assert exp_id in REGISTRY

    def test_specs_well_formed(self):
        for spec in all_experiments():
            assert spec.description
            assert callable(spec.run)
            assert REGISTRY[spec.name] is spec

    def test_all_experiments_sorted(self):
        names = [spec.name for spec in all_experiments()]
        assert names == sorted(names)

    def test_get_unknown_raises_named_error(self):
        with pytest.raises(UnknownExperimentError) as excinfo:
            get("e99")
        assert "e99" in str(excinfo.value)
        assert "known:" in str(excinfo.value)


class TestMetricsOf:
    def test_overhead(self, tiny_overhead):
        metrics = tiny_overhead.metrics()
        assert "overhead_percent" in metrics
        assert metrics["base_makespan"] > 0

    def test_comparison(self, tiny_overhead):
        metrics = tiny_overhead.comparison.metrics()
        for key in ("base_makespan", "shared_makespan",
                    "end_to_end_gain_percent", "disk_read_gain_percent",
                    "disk_seek_gain_percent"):
            assert key in metrics

    def test_throughput(self, tiny_overhead):
        # E4 returns its Comparison as is.
        metrics = tiny_overhead.comparison.metrics()
        assert metrics["base_pages_read"] > 0
        assert "End-to-end gain" in tiny_overhead.comparison.render()

    def test_timeline(self, tiny_overhead):
        result = e5_reads_timeline(comparison=tiny_overhead.comparison)
        metrics = result.metrics()
        assert metrics["metric"] == "pages read / bucket"
        assert metrics["base_total"] == pytest.approx(sum(metrics["base_series"]))

    def test_per_stream_keys_stringified(self):
        result = PerStreamResult(base_elapsed={0: 2.0}, shared_elapsed={0: 1.0})
        metrics = result.metrics()
        assert metrics["base_elapsed"] == {"0": 2.0}
        assert metrics["gain_percent"]["0"] == pytest.approx(50.0)

    def test_per_query(self):
        result = PerQueryResult(base_elapsed={"Q6": 2.0},
                                shared_elapsed={"Q6": 1.5})
        metrics = result.metrics()
        assert metrics["gain_percent"]["Q6"] == pytest.approx(25.0)

    def test_stream_scaling(self, tiny_overhead):
        result = StreamScalingResult(points={1: tiny_overhead.comparison})
        metrics = result.metrics()
        assert set(metrics) == {"1"}
        assert metrics["1"]["base_qps"] > 0

    def test_sweep_rows(self):
        result = SweepResult(knob="k", rows=[("x", 1.0, 10, 2)])
        metrics = result.metrics()
        assert metrics["rows"] == [
            {"label": "x", "makespan": 1.0, "pages_read": 10, "seeks": 2}
        ]

    def test_comparison_dict(self, tiny_overhead):
        sweep = ComparisonSweep("pool", {0.05: tiny_overhead.comparison})
        assert set(sweep.metrics()) == {"0.05"}

    def test_metrics_are_json_safe(self, tiny_overhead):
        import json

        json.dumps(tiny_overhead.metrics())


class TestRenderResult:
    def test_renders_result_objects(self, tiny_overhead):
        assert "overhead" in tiny_overhead.render()

    def test_renders_pool_fraction_sweep(self, tiny_overhead):
        text = ComparisonSweep("pool", {0.05: tiny_overhead.comparison}).render()
        assert "pool" in text
        assert "5%" in text

    def test_renders_disk_count_sweep(self, tiny_overhead):
        text = ComparisonSweep("disks", {1: tiny_overhead.comparison,
                                         2: tiny_overhead.comparison}).render()
        assert "disks" in text
