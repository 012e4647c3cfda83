"""Unit tests for SharingConfig validation."""

import pytest

from repro.core.config import TARGET_DISTANCE_EXTENTS, SharingConfig


class TestValidation:
    def test_defaults_valid(self):
        SharingConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"distance_threshold_extents": TARGET_DISTANCE_EXTENTS / 2},
            {"slowdown_cap_fraction": -0.1},
            {"slowdown_cap_fraction": 1.1},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SharingConfig(**kwargs)


class TestHelpers:
    def test_frozen(self):
        with pytest.raises(Exception):
            SharingConfig().enabled = False  # type: ignore[misc]
