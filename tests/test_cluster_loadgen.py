"""Tests for the templated load generator."""

import numpy as np
import pytest

from repro.workloads.loadgen import LoadSpec, UserClass, generate_load


def _spec(**changes) -> LoadSpec:
    base = dict(
        classes=(UserClass(name="u", templates=("Q6", "Q14")),),
        n_users=1000,
        horizon=5.0,
        max_arrivals_per_class=200,
    )
    base.update(changes)
    return LoadSpec(**base)


class TestSpecValidation:
    def test_user_class_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            UserClass(name="")
        with pytest.raises(ValueError):
            UserClass(name="u", share=0.0)
        with pytest.raises(ValueError):
            UserClass(name="u", templates=("NOPE",))
        with pytest.raises(ValueError):
            UserClass(name="u", think_mean=0.0)

    def test_load_spec_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            LoadSpec(classes=())
        with pytest.raises(ValueError):
            _spec(user_zipf=0.5)  # must be 0 or > 1
        with pytest.raises(ValueError):
            LoadSpec(classes=(UserClass(name="a"), UserClass(name="a")))

    def test_class_rate_algebra(self):
        """share=rate with think_mean=n_users/total reproduces the rate."""
        a = UserClass(name="a", share=3.0, think_mean=1000 / 4.0)
        b = UserClass(name="b", share=1.0, think_mean=1000 / 4.0)
        spec = _spec(classes=(a, b), n_users=1000)
        assert spec.class_rate(a) == pytest.approx(3.0)
        assert spec.class_rate(b) == pytest.approx(1.0)

    def test_template_probabilities_zipf_shape(self):
        flat = UserClass(name="u", templates=("Q6", "Q14"), table_zipf=0.0)
        skew = UserClass(name="u", templates=("Q6", "Q14"), table_zipf=2.0)
        assert flat.template_probabilities()[0] == pytest.approx(0.5)
        assert skew.template_probabilities()[0] > 0.7


class TestGenerateLoad:
    def test_deterministic_for_same_seed(self):
        spec = _spec()
        a = generate_load(spec, seed=7)
        b = generate_load(spec, seed=7)
        assert a.n_arrivals == b.n_arrivals
        for plan_a, plan_b in zip(a.classes, b.classes):
            for left, right in zip(plan_a.arrivals, plan_b.arrivals):
                assert left.time == right.time
                assert left.user_id == right.user_id
                assert left.query.name == right.query.name

    def test_seed_changes_the_plan(self):
        spec = _spec()
        a = generate_load(spec, seed=7)
        b = generate_load(spec, seed=8)
        assert [x.time for p in a.classes for x in p.arrivals] != \
               [x.time for p in b.classes for x in p.arrivals]

    def test_arrivals_ordered_and_bounded(self):
        spec = _spec(horizon=3.0, max_arrivals_per_class=50)
        plan = generate_load(spec, seed=1)
        for class_plan in plan.classes:
            times = [a.time for a in class_plan.arrivals]
            assert times == sorted(times)
            assert all(0 < t < spec.horizon for t in times)
            assert class_plan.n_arrivals <= 50

    def test_rate_roughly_honoured(self):
        cls = UserClass(name="u", think_mean=100 / 40.0)  # rate 40/s
        spec = _spec(classes=(cls,), n_users=100, horizon=10.0,
                     max_arrivals_per_class=10_000)
        plan = generate_load(spec, seed=3)
        assert 250 < plan.n_arrivals < 550  # ~400 expected

    def test_user_zipf_concentrates_arrivals(self):
        uniform = generate_load(_spec(n_users=100_000), seed=5)
        skewed = generate_load(
            _spec(n_users=100_000, user_zipf=1.3), seed=5
        )
        assert skewed.distinct_users() < uniform.distinct_users()
        # Skew must send some users multiple queries.
        counts = {}
        for class_plan in skewed.classes:
            for arrival in class_plan.arrivals:
                counts[arrival.user_id] = counts.get(arrival.user_id, 0) + 1
        assert max(counts.values()) > 1

    def test_table_zipf_biases_per_user_templates(self):
        """A heavily skewed user keeps hitting their favourite table."""
        cls = UserClass(
            name="u", templates=("Q6", "Q1", "Q14"), table_zipf=4.0,
            think_mean=10 / 50.0,
        )
        spec = _spec(
            classes=(cls,), n_users=10, horizon=20.0,
            max_arrivals_per_class=500,
        )
        plan = generate_load(spec, seed=11)
        by_user = {}
        for arrival in plan.classes[0].arrivals:
            by_user.setdefault(arrival.user_id, []).append(arrival.table)
        for user_id, tables in by_user.items():
            if len(tables) < 10:
                continue
            top_share = max(tables.count(t) for t in set(tables)) / len(tables)
            assert top_share > 0.5

    def test_arrival_table_matches_query(self):
        plan = generate_load(_spec(), seed=2)
        arrival = plan.classes[0].arrivals[0]
        assert arrival.table == arrival.query.steps[0].table
