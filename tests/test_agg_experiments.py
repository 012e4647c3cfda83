"""Determinism, spill, and rendering coverage for ``ag-*``/``mj-*``.

The budgeted experiments must be byte-identical run-to-run (their
metrics are digest-cached by the runner), must demonstrably spill in
their default scenarios, and must render the spill counters alongside
the paper's headline numbers.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.aggregation import (
    AGG_MIX_QUERIES,
    JOIN_MIX_QUERIES,
    SPILL_KEYS,
    ag_compete,
    ag_mix,
    mj_join,
)
from repro.experiments.harness import ExperimentSettings
from repro.experiments.registry import REGISTRY
from repro.experiments.runner import metrics_digest, run_tasks, suite_tasks

#: Small enough for the test lane, sized so the AG18 template's group
#: table genuinely outgrows its frame budget and spills.
SCENARIO = ExperimentSettings(scale=0.1, n_streams=2, seed=7)


class TestAgCompete:
    def test_spills_and_reports_both_modes(self):
        result = ag_compete(SCENARIO)
        metrics = result.metrics()
        assert metrics["base_spill"]["spilled_partitions"] > 0
        assert metrics["shared_spill"]["spilled_partitions"] > 0
        assert metrics["base_spill"]["granted_pages"] > 0
        assert set(metrics["base_spill"]) == set(SPILL_KEYS)
        rendered = result.render()
        assert "spill" in rendered and "end-to-end gain" in rendered

    def test_deterministic_across_runs(self):
        first = metrics_digest(ag_compete(SCENARIO).metrics())
        second = metrics_digest(ag_compete(SCENARIO).metrics())
        assert first == second

    def test_strategy_changes_cost_not_registration(self):
        hash_run = ag_compete(SCENARIO)
        sort_run = ag_compete(SCENARIO.with_(agg_strategy="sort"))
        assert hash_run.agg_strategy == "hash"
        assert sort_run.agg_strategy == "sort"
        assert (
            metrics_digest(hash_run.metrics())
            != metrics_digest(sort_run.metrics())
        ), "agg_strategy must be part of the metrics identity"


class TestAgMix:
    def test_metrics_shaped_for_policy_sweep_table(self):
        result = ag_mix(SCENARIO)
        metrics = result.metrics()
        # The sweep table aggregator keys on these (pl-mix shape).
        for key in ("policy", "makespan", "pages_read", "hit_percent"):
            assert key in metrics
        for key in SPILL_KEYS:
            assert key in metrics
        assert metrics["spilled_partitions"] > 0
        assert "spill [hash]" in result.render()

    def test_policy_flows_through(self):
        result = ag_mix(SCENARIO.with_(sharing_policy="cooperative"))
        assert result.mode.label == "cooperative"
        assert result.metrics()["policy"] == "cooperative"

    def test_custom_query_names_respected(self):
        result = ag_mix(SCENARIO.with_(query_names=("Q6", "AG18")))
        assert result.metrics()["spill_events"] > 0


class TestMjJoin:
    def test_chunks_and_determinism(self):
        result = mj_join(SCENARIO)
        metrics = result.metrics()
        assert metrics["join_chunks"] >= 1
        assert metrics["build_pages_needed"] > 0
        assert "probe passes" in result.render()
        repeat = mj_join(SCENARIO)
        assert metrics_digest(metrics) == metrics_digest(repeat.metrics())


@pytest.mark.slow
@pytest.mark.parametrize("experiment", ["ag-mix", "mj-join"])
def test_digest_stable_under_jobs(experiment):
    """Serial and multi-process runner executions must be byte-identical."""
    digests = []
    for jobs in (1, 2):
        suite = run_tasks(suite_tasks(SCENARIO, [experiment]), jobs=jobs,
                          use_cache=False)
        (task,) = suite.tasks
        digests.append(task.digest)
    assert digests[0] == digests[1], (
        f"{experiment} digest differs between --jobs 1 and --jobs 2"
    )


class TestRegistration:
    def test_budgeted_experiments_registered(self):
        for name in ("ag-compete", "ag-mix", "mj-join"):
            assert name in REGISTRY
            assert "budgeted" in REGISTRY[name].description

    def test_default_mixes_stay_budgeted(self):
        assert any(name.startswith("AG") for name in AGG_MIX_QUERIES)
        assert any(name.startswith("MJ") for name in JOIN_MIX_QUERIES)


class TestCli:
    def test_run_ag_mix_renders_spill_line(self, capsys):
        code = main(["run", "ag-mix", "--scale", "0.1", "--streams", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "spill [hash]" in out

    def test_sweep_agg_strategy_grid(self, capsys, tmp_path):
        out_file = tmp_path / "grid.json"
        code = main([
            "sweep", "ag-mix", "--param", "agg_strategy",
            "--values", "hash,sort", "--scale", "0.1", "--streams", "2",
            "--jobs", "1", "--no-cache", "--cache-dir", str(tmp_path),
            "--out", str(out_file),
        ])
        assert code == 0
        points = json.loads(out_file.read_text())["experiments"]
        strategies = {pt["metrics"]["agg_strategy"] for pt in points}
        assert strategies == {"hash", "sort"}

    def test_cli_rejects_unknown_agg_strategy(self):
        with pytest.raises(SystemExit):
            main(["run", "ag-mix", "--agg-strategy", "bogus"])
