"""Golden, determinism, and CLI coverage for the ``pl-*`` experiments.

The head-to-head policy comparison is pinned to a golden metrics file
(regenerate with ``--regen-golden`` / ``REPRO_REGEN_GOLDEN=1``); each
policy's ``pl-mix`` digest must be identical whether the runner executes
serially or with worker processes; and the ``sweep`` command over
``sharing_policy`` must emit the aggregated comparison table.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.policy import SHARING_POLICY_NAMES
from repro.experiments.harness import ExperimentSettings
from repro.experiments.policies import pl_head2head, pl_mix
from repro.experiments.runner import first_divergence, run_tasks, suite_tasks

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_FILE = GOLDEN_DIR / "policy_head2head.json"

#: Pinned scenario: small enough for the test lane, big enough that the
#: three policies genuinely differentiate (joins, waits, and hit rates
#: all differ at this point).
SCENARIO = ExperimentSettings(scale=0.15, n_streams=2, seed=7)


def test_head2head_matches_golden(regen_golden):
    actual = {
        "scenario": {
            "experiment": "pl-head2head",
            "scale": SCENARIO.scale,
            "n_streams": SCENARIO.n_streams,
            "seed": SCENARIO.seed,
        },
        "metrics": pl_head2head(SCENARIO).metrics(),
    }
    if regen_golden or not GOLDEN_FILE.exists():
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        GOLDEN_FILE.write_text(
            json.dumps(actual, indent=2, sort_keys=True) + "\n"
        )
        assert GOLDEN_FILE.exists()
        return
    golden = json.loads(GOLDEN_FILE.read_text())
    divergence = first_divergence(golden, actual)
    assert divergence is None, (
        f"policy head-to-head diverged from tests/golden/{GOLDEN_FILE.name} "
        f"at {divergence}; if intentional, regenerate with --regen-golden "
        f"(or REPRO_REGEN_GOLDEN=1) and commit the new golden file"
    )


def test_head2head_metrics_shape():
    golden = json.loads(GOLDEN_FILE.read_text())
    metrics = golden["metrics"]
    assert set(metrics["policies"]) == set(SHARING_POLICY_NAMES)
    for row in metrics["policies"].values():
        for key in ("makespan", "pages_read", "seeks", "hit_percent",
                    "end_to_end_gain_percent"):
            assert key in row


@pytest.mark.slow
@pytest.mark.parametrize("policy", SHARING_POLICY_NAMES)
def test_pl_mix_digest_stable_under_jobs(policy, tmp_path):
    """Serial and multi-process runs must produce identical digests."""
    settings = SCENARIO.with_(sharing_policy=policy)
    digests = []
    for jobs in (1, 2):
        suite = run_tasks(suite_tasks(settings, ["pl-mix"]), jobs=jobs,
                          use_cache=False)
        (task,) = suite.tasks
        digests.append(task.digest)
    assert digests[0] == digests[1], (
        f"pl-mix digest for {policy} differs between --jobs 1 and --jobs 2"
    )


def test_pl_mix_runs_under_each_policy():
    for policy in SHARING_POLICY_NAMES:
        metrics = pl_mix(SCENARIO.with_(sharing_policy=policy)).metrics()
        assert metrics["policy"] == policy
        assert metrics["makespan"] > 0


@pytest.mark.slow
def test_sweep_emits_policy_comparison_table(capsys, tmp_path):
    code = main([
        "sweep", "pl-mix", "--param", "sharing_policy",
        "--values", ",".join(SHARING_POLICY_NAMES),
        "--scale", "0.15", "--streams", "2", "--seed", "7",
        "--jobs", "1", "--no-cache", "--cache-dir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "=== sharing-policy comparison ===" in out
    for policy in SHARING_POLICY_NAMES:
        assert policy in out


def test_cli_rejects_unknown_sharing_policy(capsys):
    assert main(["run", "e1", "--sharing-policy", "elevator"]) == 2
    assert "unknown --sharing-policy 'elevator'" in capsys.readouterr().err
