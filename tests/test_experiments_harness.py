"""Tests for the experiment harness (small scales, smoke + semantics)."""

import pytest

from repro.core.config import SharingConfig
from repro.experiments.harness import (
    Comparison,
    ExperimentSettings,
    build_database,
    compare_modes,
    expected_pool_pages,
    expected_table_pages,
    run_mode,
)

TINY = ExperimentSettings(scale=0.05, n_streams=2, query_names=("Q6", "Q14"))


class TestSettings:
    def test_with_creates_modified_copy(self):
        settings = ExperimentSettings()
        changed = settings.with_(scale=0.5, n_streams=2)
        assert changed.scale == 0.5
        assert changed.n_streams == 2
        assert settings.scale != 0.5  # original untouched

    def test_expected_table_pages_matches_database(self):
        db = build_database(TINY, SharingConfig(enabled=False))
        for name in ("lineitem", "orders", "nation"):
            assert db.catalog.table(name).n_pages == expected_table_pages(TINY, name)

    def test_expected_pool_pages_matches_database(self):
        db = build_database(TINY, SharingConfig(enabled=False))
        assert db.pool.capacity == expected_pool_pages(TINY)

    def test_explicit_pool_pages_override(self):
        settings = TINY.with_(pool_pages=128)
        db = build_database(settings, SharingConfig())
        assert db.pool.capacity == 128


class TestRunMode:
    def test_mode_result_populated(self):
        mode = run_mode(TINY, SharingConfig(enabled=False), "Base")
        assert mode.label == "Base"
        assert mode.makespan > 0
        assert mode.pages_read > 0
        assert len(mode.reads_per_bucket) > 0
        assert set(mode.per_stream_elapsed) == {0, 1}
        assert set(mode.per_query_elapsed) == {"Q6", "Q14"}

    def test_cpu_breakdown_fractions(self):
        mode = run_mode(TINY, SharingConfig(), "SS")
        assert sum(mode.cpu.as_dict().values()) == pytest.approx(1.0)

    def test_streams_override(self):
        from tests.conftest import uniform_scan_query

        query = uniform_scan_query("lineitem", 0.0, 0.3, name="slice")
        mode = run_mode(TINY, SharingConfig(enabled=False), "x",
                        streams=[[query]])
        assert set(mode.per_query_elapsed) == {"slice"}


class TestCompareModes:
    def test_comparison_gains_signs(self):
        comparison = compare_modes(TINY)
        assert isinstance(comparison, Comparison)
        # Gains are base-relative percentages; simply well-formed here.
        assert -100.0 < comparison.end_to_end_gain < 100.0
        assert comparison.base.label == "Base"
        assert comparison.shared.label == "SS"

    def test_gain_formula(self):
        comparison = compare_modes(TINY)
        expected = 100.0 * (
            comparison.base.makespan - comparison.shared.makespan
        ) / comparison.base.makespan
        assert comparison.end_to_end_gain == pytest.approx(expected)

    def test_custom_shared_config_applied(self):
        comparison = compare_modes(
            TINY, shared_config=SharingConfig(throttling_enabled=False)
        )
        assert comparison.shared.throttle_waits == 0
