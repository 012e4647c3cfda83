"""Validation tests for the declarative service specifications."""

import pytest

from repro.service.spec import (
    CLASS_ARRIVAL_KINDS,
    ControllerConfig,
    ServiceClass,
    ServiceSpec,
)
from repro.workloads.arrivals import ARRIVAL_KINDS


class TestServiceClass:
    def test_defaults_are_valid_open_poisson(self):
        cls = ServiceClass(name="c")
        assert cls.is_open
        assert cls.arrival == "poisson"
        assert cls.query_weight_map() is None

    def test_all_arrival_kinds_accepted(self):
        for kind in CLASS_ARRIVAL_KINDS:
            ServiceClass(name="c", arrival=kind, alpha=1.5)

    def test_closed_is_not_open(self):
        assert not ServiceClass(name="c", arrival="closed").is_open

    def test_arrival_kinds_cover_open_generators(self):
        assert set(ARRIVAL_KINDS) < set(CLASS_ARRIVAL_KINDS)
        assert "closed" in CLASS_ARRIVAL_KINDS

    @pytest.mark.parametrize("kwargs", [
        dict(name=""),
        dict(name="c", weight=0.0),
        dict(name="c", weight=-1.0),
        dict(name="c", max_mpl=-1),
        dict(name="c", latency_slo=0.0),
        dict(name="c", patience=-0.5),
        dict(name="c", arrival="uniform"),
        dict(name="c", rate=0.0),
        dict(name="c", arrival="closed", n_streams=0),
        dict(name="c", query_names=()),
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            ServiceClass(**kwargs)

    def test_closed_class_ignores_rate_validation(self):
        # Closed classes never consult rate, so rate<=0 is not an error.
        ServiceClass(name="c", arrival="closed", rate=0.0)

    def test_query_weight_map_round_trips(self):
        cls = ServiceClass(
            name="c", query_names=("Q6", "Q14"),
            query_weights=(("Q6", 3.0), ("Q14", 1.0)),
        )
        assert cls.query_weight_map() == {"Q6": 3.0, "Q14": 1.0}


class TestControllerConfig:
    def test_defaults_valid(self):
        config = ControllerConfig()
        assert config.min_mpl <= config.initial_mpl <= config.max_mpl

    @pytest.mark.parametrize("kwargs", [
        dict(min_mpl=0),
        dict(initial_mpl=20, max_mpl=16),
        dict(initial_mpl=0),
        dict(interval=0.0),
        dict(miss_rate_low=0.8, miss_rate_high=0.5),
        dict(miss_rate_high=1.5),
        dict(pressure_high=0.0),
        dict(pressure_high=1.5),
        dict(decrease_factor=1.0),
        dict(decrease_factor=0.0),
        dict(increase_step=0),
        dict(speed_floor=1.0),
        dict(speed_floor=-0.1),
        dict(miss_ewma_alpha=0.0),
        dict(miss_ewma_alpha=1.5),
        dict(min_window_reads=0),
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            ControllerConfig(**kwargs)


class TestServiceSpec:
    def test_minimal_spec(self):
        spec = ServiceSpec(classes=(ServiceClass(name="a"),))
        assert [cls.name for cls in spec.classes] == ["a"]

    def test_rejects_empty_classes(self):
        with pytest.raises(ValueError):
            ServiceSpec(classes=())

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            ServiceSpec(classes=(
                ServiceClass(name="a"), ServiceClass(name="a"),
            ))

    def test_rejects_bad_horizon_and_cap(self):
        classes = (ServiceClass(name="a"),)
        with pytest.raises(ValueError):
            ServiceSpec(classes=classes, horizon=0.0)
        with pytest.raises(ValueError):
            ServiceSpec(classes=classes, max_arrivals_per_class=0)

    def test_spec_is_hashable_and_frozen(self):
        spec = ServiceSpec(classes=(ServiceClass(name="a"),))
        hash(spec)  # cache keys rely on this
        with pytest.raises(AttributeError):
            spec.horizon = 5.0
