"""Determinism and golden tests for the ``st-*`` striped experiments.

Two layers of pinning:

* **serial vs fanned-out** — an ``st-push`` run must produce the same
  metrics digest whether the runner executes it inline or in a worker
  process, at every supported device count;
* **golden scenario** — a small pinned push run is compared
  field-by-field against ``tests/golden/striped_push.json``; regenerate
  with ``--regen-golden`` (or ``REPRO_REGEN_GOLDEN=1``) after an
  intentional behavior change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.harness import ExperimentSettings
from repro.experiments.registry import get
from repro.experiments.runner import (
    ExperimentTask,
    first_divergence,
    metrics_digest,
    run_tasks,
)
from repro.experiments.striped import st_push, st_scaling

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_FILE = GOLDEN_DIR / "striped_push.json"

TINY = ExperimentSettings(scale=0.05, n_streams=2, seed=7)

#: Pinned golden scenario: two devices, push on, small but genuinely
#: overlapping workload.
SCENARIO = ExperimentSettings(
    scale=0.1, n_streams=3, seed=123, device_count=2, stripe_extents=1,
)


class TestRegistry:
    def test_st_experiments_registered(self):
        assert get("st-push").run is st_push
        assert get("st-scaling").run is st_scaling

    def test_st_push_metrics_are_json_safe(self):
        result = st_push(TINY.with_(device_count=2))
        metrics = result.metrics()
        json.dumps(metrics, sort_keys=True)
        assert metrics["device_count"] == 2
        assert metrics["push"]["pushed_pages"] > 0
        assert metrics["pull"]["pushed_pages"] == 0

    def test_st_push_renders(self):
        result = st_push(TINY.with_(device_count=2))
        text = result.render()
        assert "SS push" in text
        assert "Per-device load:" in text


@pytest.mark.slow
class TestSerialVsJobs:
    @pytest.mark.parametrize("device_count", [1, 2, 4])
    def test_st_push_digest_identical_across_jobs(self, device_count):
        settings = TINY.with_(device_count=device_count, stripe_extents=1)
        tasks = [ExperimentTask("st-push", settings)]
        serial = run_tasks(tasks, jobs=1, use_cache=False)
        fanned = run_tasks(tasks, jobs=2, use_cache=False)
        for left, right in zip(serial.tasks, fanned.tasks):
            divergence = first_divergence(left.metrics, right.metrics)
            assert divergence is None, (
                f"st-push at device_count={device_count} diverged between "
                f"serial and fanned-out runs at {divergence}"
            )
            assert metrics_digest(left.metrics) == metrics_digest(right.metrics)
        assert serial.suite_digest() == fanned.suite_digest()

    def test_st_scaling_digest_identical_across_jobs(self):
        tasks = [ExperimentTask("st-scaling", TINY)]
        serial = run_tasks(tasks, jobs=1, use_cache=False)
        fanned = run_tasks(tasks, jobs=2, use_cache=False)
        assert serial.suite_digest() == fanned.suite_digest()


def _run_scenario() -> dict:
    result = st_push(SCENARIO)
    return {
        "scenario": {
            "experiment": "st-push",
            "scale": SCENARIO.scale,
            "n_streams": SCENARIO.n_streams,
            "seed": SCENARIO.seed,
            "device_count": SCENARIO.device_count,
            "stripe_extents": SCENARIO.stripe_extents,
        },
        "metrics": result.metrics(),
    }


def test_striped_push_matches_golden(regen_golden):
    actual = _run_scenario()
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
        f"striped push scenario diverged from tests/golden/"
        f"{GOLDEN_FILE.name} at {divergence}; if this change is "
        f"intentional, regenerate with --regen-golden (or "
        f"REPRO_REGEN_GOLDEN=1) and commit the new golden file"
    )


def test_golden_file_is_committed():
    """The reference must exist in the tree, not be a regen artifact."""
    assert GOLDEN_FILE.exists(), (
        "tests/golden/striped_push.json is missing; run with "
        "--regen-golden once and commit it"
    )
    golden = json.loads(GOLDEN_FILE.read_text())
    assert golden["scenario"]["device_count"] == SCENARIO.device_count
    assert golden["metrics"]["push"]["pushed_pages"] > 0
