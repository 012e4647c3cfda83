"""Validation tests for the declarative service specifications."""

import numpy as np
import pytest

from repro.service.spec import (
    INITIAL_MPL,
    MIN_MPL,
    ControllerConfig,
    ServiceClass,
    ServiceSpec,
)
from repro.workloads.arrivals import (
    Arrival,
    ArrivalPlan,
    Closed,
    Lognormal,
    Mmpp,
    OpenProcess,
    Pareto,
    Poisson,
    plan_arrivals,
    query_mix,
)
from repro.workloads.tpch_queries import make_query

#: One value of every open kind.
OPEN_PROCESSES = (Poisson(1.0), Lognormal(1.0, sigma=1.2), Pareto(1.0, alpha=1.5),
                  Mmpp(1.0, rate_off=0.5, mean_on=2.0, mean_off=3.0))


class TestServiceClass:
    def test_defaults_are_valid_open_poisson(self):
        cls = ServiceClass(name="c")
        assert cls.arrival == Poisson(rate=1.0)
        assert cls.query_weights == ()

    def test_all_arrival_kinds_accepted(self):
        replay = ArrivalPlan((Arrival(0.5, make_query("Q6")), Arrival(1.5, make_query("Q6"))))
        for process in OPEN_PROCESSES + (Closed(n_streams=2), replay):
            assert ServiceClass(name="c", arrival=process).arrival is process

    def test_closed_is_not_open(self):
        closed = ServiceClass(name="c", arrival=Closed(n_streams=1))
        assert not isinstance(closed.arrival, OpenProcess)
        assert closed.arrival.offered_rate(10.0) is None

    def test_arrival_kinds_cover_open_generators(self):
        for process in OPEN_PROCESSES:
            assert isinstance(process, OpenProcess)
            assert process.offered_rate(10.0) == 1.0
            assert plan_arrivals(process, 10.0, seed=1).n_arrivals > 0

    @pytest.mark.parametrize("kwargs", [
        dict(name=""),
        dict(name="c", weight=0.0),
        dict(name="c", weight=-1.0),
        dict(name="c", max_mpl=-1),
        dict(name="c", latency_slo=0.0),
        dict(name="c", patience=-0.5),
        dict(name="c", arrival=Mmpp(1.0, rate_off=-1.0)),
        dict(name="c", arrival=Poisson(rate=0.0)),
        dict(name="c", arrival=Closed(n_streams=0)),
        dict(name="c", query_names=()),
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            ServiceClass(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        pytest.param(dict(query_names=("Q99",)), id="unknown-template"),
        pytest.param(dict(query_names=("Q6", "Q14"),
                          query_weights=(("Q6", 1.0), ("Q14", -1.0))),
                     id="negative-weight"),
        pytest.param(dict(query_names=("Q6",),
                          query_weights=(("Q6", 1.0), ("Q14", 2.0))),
                     id="weight-outside-the-mix"),
        pytest.param(dict(arrival=Pareto(1.0, alpha=0.9)), id="pareto-alpha"),
        pytest.param(dict(arrival=Lognormal(1.0, sigma=-1.0)),
                     id="lognormal-sigma"),
        pytest.param(dict(arrival=Mmpp(1.0, mean_on=0.0)), id="mmpp-mean-on"),
    ])
    def test_rejects_at_construction_naming_the_class(self, kwargs):
        """Each of these used to be accepted and failed only once the
        run started, or was silently ignored."""
        with pytest.raises(ValueError, match="class analyst"):
            ServiceClass(name="analyst", **kwargs)

    def test_rejects_replay_out_of_time_order(self):
        replay = ArrivalPlan((Arrival(1.5, make_query("Q6")), Arrival(0.5, make_query("Q6"))))
        with pytest.raises(ValueError, match="class c: .*time order"):
            ServiceClass(name="c", arrival=replay)

    def test_closed_class_ignores_rate_validation(self):
        # A closed class has no rate: it offers whatever completes.
        cls = ServiceClass(name="c", arrival=Closed(n_streams=2))
        assert cls.arrival.offered_rate(1.0) is None

    def test_query_weight_map_round_trips(self):
        """The mix reads the class's ``(name, weight)`` pairs and the
        same weights as a dict identically."""
        cls = ServiceClass(
            name="c", query_names=("Q6", "Q14"),
            query_weights=(("Q6", 3.0), ("Q14", 1.0)),
        )
        assert dict(cls.query_weights) == {"Q6": 3.0, "Q14": 1.0}
        from_pairs = query_mix("c", cls.query_names, cls.query_weights)
        from_map = query_mix("c", cls.query_names, dict(cls.query_weights))
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        drawn = [from_pairs(a).name for _ in range(200)]
        assert drawn == [from_map(b).name for _ in range(200)]
        assert drawn.count("Q6") > drawn.count("Q14")


class TestControllerConfig:
    def test_defaults_valid(self):
        config = ControllerConfig()
        assert MIN_MPL <= INITIAL_MPL <= config.max_mpl

    @pytest.mark.parametrize("kwargs", [
        dict(max_mpl=INITIAL_MPL - 1),
        dict(interval=0.0),
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
