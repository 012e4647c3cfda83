"""Tests for the parallel experiment runner, its cache, and seeding.

The determinism regression test here is the invariant everything else
rests on: the cache may only serve stale-looking results and the pool
may only fan work out because a task's numbers depend on nothing but
(experiment id, sweep point, settings).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.harness import ExperimentSettings
from repro.experiments.runner import (
    ExperimentTask,
    ResultCache,
    cache_key,
    canonical_json,
    code_fingerprint,
    coerce_sweep_value,
    derive_seed,
    execute_task,
    first_divergence,
    metrics_digest,
    run_tasks,
    suite_tasks,
    sweep_tasks,
)

TINY = ExperimentSettings(scale=0.05, n_streams=2, seed=7)

_SUBPROCESS_SNIPPET = """\
import json, sys
from repro.experiments.harness import ExperimentSettings
from repro.experiments.runner import ExperimentTask, execute_task

task = ExperimentTask("e1", ExperimentSettings(scale=0.05, n_streams=2, seed=7))
result = execute_task(task)
json.dump(result.metrics, sys.stdout, sort_keys=True)
"""


def _e1_task() -> ExperimentTask:
    return ExperimentTask("e1", TINY)


class TestDeterminism:
    """Same settings => byte-identical metrics, in and across processes."""

    def test_two_in_process_runs_identical(self):
        first = execute_task(_e1_task())
        second = execute_task(_e1_task())
        divergence = first_divergence(first.metrics, second.metrics)
        assert divergence is None, (
            f"E1 diverged between two in-process runs at {divergence}"
        )
        assert first.digest == second.digest

    def test_subprocess_run_identical(self):
        """A spawned interpreter must reproduce the same digest.

        Guards against accidental dependence on PYTHONHASHSEED, process
        state, or import order.  On failure the assertion names the
        first diverging metric field.
        """
        in_process = execute_task(_e1_task())
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "random"
        completed = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_SNIPPET],
            capture_output=True, text=True, env=env, check=True,
        )
        subprocess_metrics = json.loads(completed.stdout)
        divergence = first_divergence(in_process.metrics, subprocess_metrics)
        assert divergence is None, (
            f"E1 diverged between in-process and subprocess runs at "
            f"{divergence}"
        )
        assert metrics_digest(subprocess_metrics) == in_process.digest

    def test_parallel_suite_matches_serial(self):
        tasks = suite_tasks(TINY, ["e1", "e5"])
        serial = run_tasks(tasks, jobs=1, use_cache=False)
        parallel = run_tasks(tasks, jobs=2, use_cache=False)
        assert serial.suite_digest() == parallel.suite_digest()
        for left, right in zip(serial.tasks, parallel.tasks):
            assert first_divergence(left.metrics, right.metrics) is None

    def test_derived_seed_replaces_base_seed(self):
        result = execute_task(_e1_task())
        assert result.seed == derive_seed("e1", "", TINY.seed)
        assert result.seed != TINY.seed


class TestSeedDerivation:
    def test_stable_value(self):
        assert derive_seed("e1", "", 42) == derive_seed("e1", "", 42)

    def test_experiments_decorrelated(self):
        assert derive_seed("e1", "", 42) != derive_seed("e2", "", 42)

    def test_sweep_points_decorrelated(self):
        assert (derive_seed("e4", "scale=0.1", 42)
                != derive_seed("e4", "scale=0.2", 42))

    def test_base_seed_matters(self):
        assert derive_seed("e1", "", 1) != derive_seed("e1", "", 2)

    def test_range(self):
        seed = derive_seed("e9", "n_streams=8", 123)
        assert 0 <= seed < 2 ** 63

    @pytest.mark.parametrize("experiment, point, base, seed", [
        ("e4", "", 42, 5941212912926288024),
        # Lengths count UTF-8 bytes, not characters.
        ("e4", "label=café·∞", 7, 6632554369756391344),
    ])
    def test_pinned_values(self, experiment, point, base, seed):
        assert derive_seed(experiment, point, base) == seed


class TestResultCache:
    def test_second_run_hits(self, tmp_path):
        first = run_tasks(suite_tasks(TINY, ["e1"]), cache_dir=str(tmp_path))
        second = run_tasks(suite_tasks(TINY, ["e1"]), cache_dir=str(tmp_path))
        assert [task.cache for task in first.tasks] == ["miss"]
        assert [task.cache for task in second.tasks] == ["hit"]
        assert first.suite_digest() == second.suite_digest()
        assert first_divergence(first.tasks[0].metrics,
                                second.tasks[0].metrics) is None

    def test_settings_change_misses(self, tmp_path):
        run_tasks(suite_tasks(TINY, ["e1"]), cache_dir=str(tmp_path))
        bumped = run_tasks(suite_tasks(TINY.with_(seed=8), ["e1"]),
                           cache_dir=str(tmp_path))
        assert [task.cache for task in bumped.tasks] == ["miss"]

    def test_no_cache_skips_store(self, tmp_path):
        suite = run_tasks(suite_tasks(TINY, ["e1"]), use_cache=False,
                          cache_dir=str(tmp_path))
        assert [task.cache for task in suite.tasks] == ["off"]
        assert not list(tmp_path.glob("*.json"))

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        run_tasks(suite_tasks(TINY, ["e1"]), cache_dir=str(tmp_path))
        for entry in tmp_path.glob("*.json"):
            entry.write_text("{not json")
        suite = run_tasks(suite_tasks(TINY, ["e1"]), cache_dir=str(tmp_path))
        assert [task.cache for task in suite.tasks] == ["miss"]

    def test_key_depends_on_code_fingerprint(self):
        key = cache_key("e1", "", TINY)
        assert code_fingerprint() in canonical_json({
            "code": code_fingerprint()
        })
        assert key != cache_key("e1", "", TINY.with_(scale=0.06))
        assert key != cache_key("e2", "", TINY)
        assert key != cache_key("e1", "scale=0.05", TINY)

    def test_cache_roundtrip_preserves_payload(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        result = execute_task(_e1_task())
        cache.put("k", result)
        loaded = cache.get("k")
        assert loaded is not None
        assert loaded.cache == "hit"
        assert loaded.seed == result.seed
        assert loaded.digest == result.digest
        assert loaded.render == result.render
        assert first_divergence(loaded.metrics, result.metrics) is None

    def test_missing_key_is_none(self, tmp_path):
        assert ResultCache(str(tmp_path)).get("absent") is None


class TestSweep:
    def test_sweep_points_labelled_and_decorrelated(self):
        suite = run_tasks(sweep_tasks("e5", "n_streams", [2, 3], TINY),
                          use_cache=False)
        assert [task.label for task in suite.tasks] == [
            "e5[n_streams=2]", "e5[n_streams=3]"
        ]
        assert suite.tasks[0].seed != suite.tasks[1].seed

    def test_coerce_matches_field_types(self):
        assert coerce_sweep_value("n_streams", "4") == 4
        assert coerce_sweep_value("scale", "0.5") == 0.5
        assert coerce_sweep_value("sharing_policy", "pbm") == "pbm"
        assert coerce_sweep_value("pool_pages", "128") == 128
        assert coerce_sweep_value("push_prefetch", "on") is True

    def test_coerce_optional_fields_by_declared_type(self):
        # Defaults of None say nothing about the type: the declaration does.
        assert coerce_sweep_value("service_horizon", "2.5") == 2.5
        assert coerce_sweep_value("stripe_extents", "2") == 2
        assert coerce_sweep_value("fault_spec", "leader-abort") == "leader-abort"
        with pytest.raises(ValueError, match="needs a int"):
            coerce_sweep_value("stripe_extents", "two")

    def test_bool_tokens_are_strict(self):
        for token in ("1", "true", "Yes", "on"):
            assert coerce_sweep_value("push_prefetch", token) is True
        for token in ("0", "false", "No", "off"):
            assert coerce_sweep_value("push_prefetch", token) is False
        with pytest.raises(ValueError, match="needs a bool"):
            coerce_sweep_value("push_prefetch", "maybe")

    @pytest.mark.parametrize("param", ["query_names", "sharing_overrides"])
    def test_fields_without_a_single_value_rejected(self, param):
        with pytest.raises(ValueError, match="cannot be set from a single value"):
            coerce_sweep_value(param, "Q6")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            coerce_sweep_value("nonsense", "1")
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            sweep_tasks("e1", "nonsense", ["1"], TINY)


class TestFirstDivergence:
    def test_identical_is_none(self):
        tree = {"a": [1.0, 2.0], "b": {"c": "x"}}
        assert first_divergence(tree, dict(tree)) is None

    def test_names_leaf_path(self):
        left = {"a": {"b": [1.0, 2.0]}}
        right = {"a": {"b": [1.0, 3.0]}}
        assert first_divergence(left, right) == "$.a.b[1]: 2.0 != 3.0"

    def test_names_missing_key(self):
        assert first_divergence({"a": 1}, {}) == "$.a: missing on right"
        assert first_divergence({}, {"a": 1}) == "$.a: missing on left"

    def test_names_length_mismatch(self):
        assert first_divergence([1], [1, 2]) == "$: length 1 != 2"

    def test_names_type_mismatch(self):
        assert first_divergence(1, 1.0) == "$: type int != float"


class TestRunTasks:
    def test_empty_task_list(self):
        suite = run_tasks([], use_cache=False)
        assert suite.tasks == []
        assert suite.suite_digest()

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_tasks([], jobs=0)

    def test_results_follow_task_order(self, tmp_path):
        tasks = [ExperimentTask("e5", TINY), ExperimentTask("e1", TINY)]
        suite = run_tasks(tasks, jobs=2, cache_dir=str(tmp_path))
        assert [task.experiment for task in suite.tasks] == ["e5", "e1"]

    def test_mixed_hit_and_miss(self, tmp_path):
        run_tasks(suite_tasks(TINY, ["e1"]), cache_dir=str(tmp_path))
        suite = run_tasks(suite_tasks(TINY, ["e1", "e5"]),
                          cache_dir=str(tmp_path))
        assert [task.cache for task in suite.tasks] == ["hit", "miss"]
        assert suite.cache_hits == 1


class TestCacheKeyCoversNewSettings:
    """S4 regression: a cache key that ignores sharing overrides or the
    fault plan would serve a clean run's numbers for a chaos run."""

    def test_sharing_overrides_change_key(self):
        plain = cache_key("e1", "", TINY)
        tuned = cache_key(
            "e1", "", TINY.with_(sharing_overrides={"distance_threshold_extents": 4.0})
        )
        assert plain != tuned

    def test_override_value_changes_key(self):
        a = cache_key("e1", "", TINY.with_(sharing_overrides={"slowdown_cap_fraction": 0.5}))
        b = cache_key("e1", "", TINY.with_(sharing_overrides={"slowdown_cap_fraction": 0.6}))
        assert a != b

    def test_override_order_does_not_change_key(self):
        a = TINY.with_(sharing_overrides={"slowdown_cap_fraction": 0.5,
                                          "distance_threshold_extents": 4.0})
        b = TINY.with_(sharing_overrides=[("distance_threshold_extents", 4.0),
                                          ("slowdown_cap_fraction", 0.5)])
        assert cache_key("e1", "", a) == cache_key("e1", "", b)

    def test_fault_spec_changes_key(self):
        clean = cache_key("e1", "", TINY)
        chaotic = cache_key("e1", "", TINY.with_(fault_spec="leader-abort"))
        assert clean != chaotic
        other = cache_key("e1", "", TINY.with_(fault_spec="disk-degrade"))
        assert chaotic != other

    def test_settings_dict_is_json_safe(self):
        """The key digests ``asdict(settings)`` as plain JSON: tuples are
        written as arrays, so the payload is the list form."""
        import hashlib
        from dataclasses import asdict

        settings = TINY.with_(
            query_names=("Q6", "Q14"),
            sharing_overrides={"distance_threshold_extents": 4.0},
            fault_spec="leader-abort",
        )
        raw = asdict(settings)
        assert raw["sharing_overrides"] == (("distance_threshold_extents", 4.0),)
        raw["query_names"] = ["Q6", "Q14"]
        raw["sharing_overrides"] = [["distance_threshold_extents", 4.0]]
        assert json.loads(canonical_json(raw)) == raw
        payload = canonical_json({
            "experiment": "e1", "sweep_point": "", "settings": raw,
            "code": code_fingerprint(),
        })
        assert cache_key("e1", "", settings) == (
            hashlib.sha256(payload.encode("utf-8")).hexdigest())
