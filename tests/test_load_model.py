"""The offered-load model against the generators it replaced.

``tests/reference_load.py`` keeps verbatim copies of the four
per-kind arrival generators and of ``generate_load`` as they were
before the model became typed processes behind one render loop.  The
properties here hold every open process and the load generator to
them, bit for bit: the same arrival times (compared exactly) and the
same queries, drawn from one generator in the same order.  The pins at
the end fix the numeric value of every derived seed at base seed 42,
so a typo in a hash prefix fails the fast lane instead of quietly
moving every digest.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.service as service_module
import repro.workloads.loadgen as loadgen_module
from repro.cluster.service import derive_loadgen_seed, derive_replica_seed
from repro.cluster.topology import HashRing
from repro.core.config import SharingConfig
from repro.experiments.harness import ExperimentSettings, build_database
from repro.service.service import QueryService
from repro.service.spec import ServiceClass, ServiceSpec
from repro.workloads.arrivals import (
    ALL_TEMPLATES,
    Lognormal,
    Mmpp,
    Pareto,
    Poisson,
    plan_arrivals,
    stable_hash,
)
from repro.workloads.loadgen import LoadSpec, UserClass, generate_load
from tests import reference_load as reference


def shape(value):
    """A comparable, exact form of a query: floats by ``float.hex``,
    objects by their type and attributes (expressions define no ``==``)."""
    if isinstance(value, type):
        return value.__qualname__
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, (str, int, type(None))):
        return value
    if isinstance(value, (tuple, list)):
        return tuple(shape(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((shape(item) for item in value), key=repr))
    return (type(value).__name__,
            tuple((key, shape(item)) for key, item in sorted(vars(value).items())))


def rendered(plan):
    return [(float.hex(a.time), shape(a.query)) for a in plan.arrivals]


def reference_rendered(plan):
    return [(float.hex(time), shape(query))
            for time, query in zip(plan.arrival_times, plan.queries)]


windows = dict(
    rate=st.floats(0.2, 60.0),
    horizon=st.floats(0.05, 30.0),
    seed=st.integers(0, 2 ** 32 - 1),
    max_arrivals=st.integers(1, 300),
)
mixes = st.one_of(
    st.just((None, None)),
    st.lists(st.sampled_from(ALL_TEMPLATES), min_size=1, max_size=4,
             unique=True).flatmap(lambda names: st.tuples(
                 st.just(names),
                 st.one_of(st.none(), st.dictionaries(
                     st.sampled_from(names), st.floats(0.1, 10.0))))),
)


def _both(process, reference_plan, horizon, seed, max_arrivals, mix):
    names, weights = mix
    new = plan_arrivals(process, horizon, seed=seed, query_names=names,
                        query_weights=weights, max_arrivals=max_arrivals)
    old = reference_plan(horizon_seconds=horizon, seed=seed,
                         query_names=names, query_weights=weights,
                         max_arrivals=max_arrivals)
    assert rendered(new) == reference_rendered(old)


class TestEveryOpenProcessMatchesTheReference:
    @settings(max_examples=40, deadline=None)
    @given(mix=mixes, **windows)
    def test_poisson(self, rate, horizon, seed, max_arrivals, mix):
        _both(Poisson(rate),
              lambda **kw: reference.poisson_arrivals(rate, **kw),
              horizon, seed, max_arrivals, mix)

    @settings(max_examples=40, deadline=None)
    @given(mix=mixes, sigma=st.floats(0.05, 2.5), **windows)
    def test_lognormal(self, rate, horizon, seed, max_arrivals, mix, sigma):
        _both(Lognormal(rate, sigma=sigma),
              lambda **kw: reference.lognormal_arrivals(rate, sigma=sigma, **kw),
              horizon, seed, max_arrivals, mix)

    @settings(max_examples=40, deadline=None)
    @given(mix=mixes, alpha=st.floats(1.01, 4.0), **windows)
    def test_pareto(self, rate, horizon, seed, max_arrivals, mix, alpha):
        _both(Pareto(rate, alpha=alpha),
              lambda **kw: reference.pareto_arrivals(rate, alpha=alpha, **kw),
              horizon, seed, max_arrivals, mix)

    @settings(max_examples=40, deadline=None)
    @given(mix=mixes, rate_off=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
           mean_on=st.floats(0.01, 5.0), mean_off=st.floats(0.01, 5.0),
           **windows)
    def test_mmpp(self, rate, horizon, seed, max_arrivals, mix,
                  rate_off, mean_on, mean_off):
        _both(Mmpp(rate, rate_off=rate_off, mean_on=mean_on, mean_off=mean_off),
              lambda **kw: reference.mmpp_arrivals(
                  rate, rate_off=rate_off, mean_on_seconds=mean_on,
                  mean_off_seconds=mean_off, **kw),
              horizon, seed, max_arrivals, mix)


user_classes = st.builds(
    UserClass,
    name=st.sampled_from(["analyst", "dashboard", "batch"]),
    share=st.floats(0.1, 5.0),
    templates=st.lists(st.sampled_from(ALL_TEMPLATES), min_size=1, max_size=4,
                       unique=True).map(tuple),
    table_zipf=st.floats(0.0, 2.0),
    think_mean=st.floats(1.0, 5_000.0),
    think_sigma=st.floats(0.05, 2.0),
)


class TestGenerateLoadMatchesTheReference:
    @settings(max_examples=40, deadline=None)
    @given(
        classes=st.lists(user_classes, min_size=1, max_size=3,
                         unique_by=lambda cls: cls.name),
        n_users=st.integers(1, 1_000_000),
        user_zipf=st.one_of(st.just(0.0), st.floats(1.05, 2.5)),
        horizon=st.floats(0.05, 20.0),
        max_arrivals=st.integers(1, 200),
        seed=st.integers(0, 2 ** 63 - 1),
    )
    def test_same_users_times_and_queries(self, classes, n_users, user_zipf,
                                          horizon, max_arrivals, seed):
        spec = LoadSpec(classes=tuple(classes), n_users=n_users,
                        user_zipf=user_zipf, horizon=horizon,
                        max_arrivals_per_class=max_arrivals)
        new = generate_load(spec, seed=seed)
        old = reference.generate_load(spec, seed=seed)
        for new_class, old_class in zip(new.classes, old.classes, strict=True):
            assert [(float.hex(a.time), a.user_id, shape(a.query))
                    for a in new_class.arrivals] == \
                   [(float.hex(a.time), a.user_id, shape(a.query))
                    for a in old_class.arrivals]


class TestDerivedSeedsArePinned:
    """Each value below is what the derivation gave at seed 42 before the
    five SHA-256 helpers became :func:`stable_hash`."""

    def test_cluster_seeds(self):
        assert [derive_replica_seed(42, k) for k in range(3)] == [
            7175934450304739724, 7893578358254285118, 6552175898596822865,
        ]
        assert derive_loadgen_seed(42) == 597452074096512689

    def test_ring_positions(self):
        ring = HashRing([0, 1])
        assert ring._points[:2] == [(14877052961576578, 0),
                                    (266476451150337112, 1)]
        assert stable_hash("lineitem/3") == 18026925917366871472

    def test_load_generator_class_seeds(self, monkeypatch):
        derived = []

        def recording(*parts):
            derived.append(stable_hash(*parts))
            return derived[-1]

        monkeypatch.setattr(loadgen_module, "stable_hash", recording)
        generate_load(LoadSpec(
            classes=(UserClass(name="analyst"), UserClass(name="dashboard")),
            n_users=10, horizon=0.5, max_arrivals_per_class=1,
        ), seed=42)
        assert derived == [8736350109390096778, 11447400042775510645]

    def test_service_class_seeds(self, monkeypatch):
        class Rendered(Exception):
            pass

        seeds = []

        def recording(process, horizon, seed, **kwargs):
            seeds.append(seed)
            if len(seeds) == 2:
                raise Rendered
            return plan_arrivals(process, horizon, seed=seed, **kwargs)

        monkeypatch.setattr(service_module, "plan_arrivals", recording)
        settings = ExperimentSettings(scale=0.05, seed=42)
        db = build_database(settings, SharingConfig())
        assert db.config.seed == 42
        spec = ServiceSpec(classes=(ServiceClass(name="interactive"),
                                    ServiceClass(name="batch")))
        with pytest.raises(Rendered):
            QueryService(db, spec).run()
        assert seeds == [9210050244951451118, 12995351944475369775]
