"""Unit tests for the open arrival processes and their rendering."""

import pytest

from repro.core.config import SharingConfig
from repro.engine.database import SystemConfig
from repro.engine.executor import run_workload
from repro.workloads.arrivals import (
    Lognormal,
    Mmpp,
    Pareto,
    Poisson,
    plan_arrivals,
)
from repro.workloads.tpch_schema import make_tpch_database


def times(plan):
    return [arrival.time for arrival in plan.arrivals]


def names(plan):
    return [arrival.query.name for arrival in plan.arrivals]


class TestPoissonArrivals:
    def test_validation(self):
        with pytest.raises(ValueError):
            plan_arrivals(Poisson(rate=0), 1.0)
        with pytest.raises(ValueError):
            plan_arrivals(Poisson(rate=1.0), 0)
        with pytest.raises(ValueError):
            plan_arrivals(Poisson(1.0), 1.0, query_names=["Q6"],
                          query_weights={"Q6": 0.0})

    def test_arrivals_within_horizon_and_sorted(self):
        plan = plan_arrivals(Poisson(rate=5.0), 10.0)
        assert all(0 <= t < 10.0 for t in times(plan))
        assert times(plan) == sorted(times(plan))
        assert plan.n_arrivals == len(plan.arrivals) > 0

    def test_rate_roughly_respected(self):
        plan = plan_arrivals(Poisson(rate=10.0), 50.0, seed=3)
        # Expect ~500; allow generous stochastic slack.
        assert 350 < plan.n_arrivals < 650

    def test_deterministic_per_seed(self):
        a = plan_arrivals(Poisson(2.0), 20.0, seed=9)
        b = plan_arrivals(Poisson(2.0), 20.0, seed=9)
        assert times(a) == times(b)
        assert names(a) == names(b)

    def test_query_subset_and_weights(self):
        plan = plan_arrivals(
            Poisson(5.0), 30.0, seed=1, query_names=["Q1", "Q6"],
            query_weights={"Q6": 50.0, "Q1": 1.0},
        )
        drawn = names(plan)
        assert set(drawn) <= {"Q1", "Q6"}
        assert drawn.count("Q6") > drawn.count("Q1")

    def test_as_streams_plugs_into_run_workload(self):
        plan = plan_arrivals(Poisson(8.0), 0.5, seed=2, query_names=["Q6", "Q14"])
        if plan.n_arrivals == 0:
            pytest.skip("no arrivals drawn in the tiny horizon")
        db = make_tpch_database(
            SystemConfig(sharing=SharingConfig(enabled=True)), scale=0.05
        )
        streams, delays = plan.as_streams()
        result = run_workload(db, streams, stagger_list=delays)
        assert len(result.streams) == plan.n_arrivals
        starts = sorted(s.started_at for s in result.streams)
        assert starts == sorted(times(plan))


def lognormal_arrivals(rate, horizon, seed=42, sigma=1.0):
    return plan_arrivals(Lognormal(rate, sigma=sigma), horizon, seed=seed)


def pareto_arrivals(rate, horizon, seed=42, alpha=1.5):
    return plan_arrivals(Pareto(rate, alpha=alpha), horizon, seed=seed)


class TestHeavyTailedArrivals:
    """Lognormal and Pareto generators share the Poisson contract."""

    GENERATORS = [
        (lognormal_arrivals, {"sigma": 1.0}),
        (pareto_arrivals, {"alpha": 1.5}),
    ]

    @pytest.mark.parametrize("generate,kwargs", GENERATORS)
    def test_validation(self, generate, kwargs):
        with pytest.raises(ValueError):
            generate(0.0, 1.0, **kwargs)
        with pytest.raises(ValueError):
            generate(1.0, 0.0, **kwargs)

    def test_shape_parameters_validated(self):
        with pytest.raises(ValueError, match="sigma"):
            lognormal_arrivals(1.0, 1.0, sigma=0.0)
        with pytest.raises(ValueError, match="alpha"):
            pareto_arrivals(1.0, 1.0, alpha=1.0)  # infinite-mean regime

    @pytest.mark.parametrize("generate,kwargs", GENERATORS)
    def test_sorted_within_horizon_and_deterministic(self, generate, kwargs):
        a = generate(5.0, 20.0, seed=11, **kwargs)
        b = generate(5.0, 20.0, seed=11, **kwargs)
        assert times(a) == times(b)
        assert names(a) == names(b)
        assert all(0 <= t < 20.0 for t in times(a))
        assert times(a) == sorted(times(a))

    @pytest.mark.parametrize("generate,kwargs", GENERATORS)
    def test_mean_rate_preserved(self, generate, kwargs):
        # Both are parameterised so the mean gap is 1/rate regardless of
        # the tail shape: expect ~rate*horizon arrivals, generous slack
        # because heavy tails converge slowly.
        plan = generate(10.0, 200.0, seed=4, **kwargs)
        assert 1_200 < plan.n_arrivals < 2_800

    def test_lognormal_tail_heavier_with_sigma(self):
        light = lognormal_arrivals(10.0, 500.0, seed=5, sigma=0.25)
        heavy = lognormal_arrivals(10.0, 500.0, seed=5, sigma=2.0)

        def max_gap(plan):
            gaps = times(plan)
            return max(b - a for a, b in zip(gaps, gaps[1:]))

        assert max_gap(heavy) > 4 * max_gap(light)


def mmpp_arrivals(rate, horizon, seed=42, **phases):
    return plan_arrivals(Mmpp(rate, **phases), horizon, seed=seed)


class TestMmppArrivals:
    def test_validation(self):
        with pytest.raises(ValueError):
            mmpp_arrivals(0.0, 1.0)
        with pytest.raises(ValueError):
            mmpp_arrivals(1.0, 1.0, rate_off=-0.1)
        with pytest.raises(ValueError):
            mmpp_arrivals(1.0, 1.0, mean_on=0.0)
        with pytest.raises(ValueError):
            mmpp_arrivals(1.0, 1.0, mean_off=0.0)

    def test_deterministic_and_sorted(self):
        a = mmpp_arrivals(20.0, 50.0, seed=8, mean_on=2.0, mean_off=3.0)
        b = mmpp_arrivals(20.0, 50.0, seed=8, mean_on=2.0, mean_off=3.0)
        assert times(a) == times(b)
        assert times(a) == sorted(times(a))
        assert all(0 <= t < 50.0 for t in times(a))

    def test_silent_off_phase_produces_gaps(self):
        plan = mmpp_arrivals(50.0, 100.0, seed=3, rate_off=0.0,
                             mean_on=1.0, mean_off=2.0)
        arrivals = times(plan)
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        # ON gaps ~0.02s; OFF sojourns ~2s: the trace must show both.
        assert min(gaps) < 0.1
        assert max(gaps) > 0.5

    def test_off_rate_fills_the_gaps(self):
        silent = mmpp_arrivals(50.0, 100.0, seed=3, rate_off=0.0)
        trickle = mmpp_arrivals(50.0, 100.0, seed=3, rate_off=5.0)
        assert trickle.n_arrivals > silent.n_arrivals

    def test_effective_rate_between_on_and_off(self):
        plan = mmpp_arrivals(40.0, 300.0, seed=6, rate_off=0.0,
                             mean_on=1.0, mean_off=1.0)
        # Equal sojourns, silent OFF phase: effective rate ~ on/2.
        effective = plan.n_arrivals / 300.0
        assert 10.0 < effective < 30.0


class TestPlanArrivals:
    OPEN = (Poisson(5.0), Lognormal(5.0), Pareto(5.0), Mmpp(5.0))

    def test_renders_every_open_kind(self):
        for process in self.OPEN:
            assert plan_arrivals(process, 10.0, seed=1).n_arrivals > 0

    def test_invalid_process_rejected(self):
        with pytest.raises(ValueError, match="arrival process: alpha"):
            plan_arrivals(Pareto(5.0, alpha=1.0), 10.0)

    def test_max_arrivals_caps_plan(self):
        for process in self.OPEN:
            plan = plan_arrivals(process, 100.0, max_arrivals=25)
            assert plan.n_arrivals == 25
