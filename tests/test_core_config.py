"""Unit tests for SharingConfig validation and helpers."""

import pytest

from repro.core.config import BASELINE, FULL_SHARING, SharingConfig


class TestValidation:
    def test_defaults_valid(self):
        SharingConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"update_interval_pages": 0},
            {"distance_threshold_extents": 0.5, "target_distance_extents": 1.0},
            {"slowdown_cap_fraction": -0.1},
            {"slowdown_cap_fraction": 1.1},
            {"max_wait_per_update": -1.0},
            {"speed_smoothing": 0.0},
            {"speed_smoothing": 1.5},
            {"pool_budget_fraction": 0.0},
            {"pool_budget_fraction": 1.2},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SharingConfig(**kwargs)


class TestHelpers:
    def test_presets(self):
        assert not BASELINE.enabled
        assert FULL_SHARING.enabled

    def test_frozen(self):
        with pytest.raises(Exception):
            SharingConfig().enabled = False  # type: ignore[misc]
