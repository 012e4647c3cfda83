"""Golden-result test: a pinned staggered two-scan scenario.

A small E2-style run (two staggered Q6 scans, Base vs SS) is replayed
on every test run and compared field-by-field against a reference
checked into ``tests/golden/``.  Any change to the simulator, the
sharing mechanism, the tracer, or the workload generator that moves a
single number or event count fails here with the exact diverging field.

``tests/golden/manifest.json`` is the wider, coarser rail: the metrics
digest of every registered experiment at the quick geometry (``run-all
--scale 0.1 --streams 2``) plus the suite digest over them, and the
SHA-256 of every experiment's printed ``render()`` text.  One ``slow``
test reruns the suite and names the experiments whose numbers or text
moved.
The manifest runs every experiment at the default ``agg_strategy``
(``hash``); ``tests/golden/sort_strategy.json`` pins the two budgeted
aggregation experiments at the same geometry under ``sort``, so the
sort-spill path has a digest of its own.

To bless an intentional change::

    PYTHONPATH=src python -m pytest tests/test_golden.py --regen-golden
    # or: REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_golden.py

then commit the updated golden files alongside the code change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.experiments import e2_staggered_q6
from repro.experiments.harness import ExperimentSettings
from repro.experiments.runner import first_divergence, run_tasks, suite_tasks
from repro.trace import RingBufferSink, tracing
from repro.trace.summary import summarize

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_FILE = GOLDEN_DIR / "staggered_two_scan.json"

#: Pinned scenario: small enough to run in under a second, big enough
#: that the two scans genuinely overlap and a scan join happens.
SCENARIO = ExperimentSettings(scale=0.2, n_streams=2, seed=123)
N_RUNS = 2

MANIFEST_FILE = GOLDEN_DIR / "manifest.json"
#: ``python -m repro run-all --scale 0.1 --streams 2`` (default seed).
QUICK_GEOMETRY = ExperimentSettings(scale=0.1, n_streams=2)

SORT_STRATEGY_FILE = GOLDEN_DIR / "sort_strategy.json"
SORT_STRATEGY_EXPERIMENTS = ("ag-compete", "ag-mix")


def _run_scenario() -> dict:
    ring = RingBufferSink(capacity=500_000)
    with tracing(ring):
        result = e2_staggered_q6(SCENARIO, n_runs=N_RUNS)
    summary = summarize(ring.events())
    assert ring.total_seen == summary["n_events"], (
        "ring buffer overflowed; raise its capacity so the golden trace "
        "summary covers every event"
    )
    return {
        "scenario": {
            "experiment": "e2",
            "n_runs": N_RUNS,
            "scale": SCENARIO.scale,
            "n_streams": SCENARIO.n_streams,
            "seed": SCENARIO.seed,
        },
        "metrics": result.metrics(),
        "trace": {
            "n_events": summary["n_events"],
            "first_time": summary["first_time"],
            "last_time": summary["last_time"],
            "counts": summary["counts"],
        },
    }


def test_staggered_two_scan_matches_golden(regen_golden):
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
        f"staggered two-scan scenario diverged from tests/golden/"
        f"{GOLDEN_FILE.name} at {divergence}; if this change is "
        f"intentional, regenerate with --regen-golden (or "
        f"REPRO_REGEN_GOLDEN=1) and commit the new golden file"
    )


def test_golden_file_is_committed():
    """The reference must exist in the tree, not be a regen artifact."""
    assert GOLDEN_FILE.exists(), (
        "tests/golden/staggered_two_scan.json is missing; run with "
        "--regen-golden once and commit it"
    )
    golden = json.loads(GOLDEN_FILE.read_text())
    assert golden["scenario"]["n_runs"] == N_RUNS
    assert golden["trace"]["n_events"] > 0
    assert golden["metrics"]["base_makespan"] > 0


@pytest.mark.slow
def test_suite_digests_match_manifest(regen_golden):
    """Every experiment's metrics digest at the quick geometry."""
    suite = run_tasks(suite_tasks(QUICK_GEOMETRY), use_cache=False)
    actual = {
        "geometry": {
            "scale": QUICK_GEOMETRY.scale,
            "n_streams": QUICK_GEOMETRY.n_streams,
            "seed": QUICK_GEOMETRY.seed,
        },
        "suite_digest": suite.suite_digest(),
        "experiments": {task.label: task.digest for task in suite.tasks},
        "renders": {
            task.label: hashlib.sha256(task.render.encode("utf-8")).hexdigest()
            for task in suite.tasks
        },
    }
    if regen_golden:
        MANIFEST_FILE.write_text(json.dumps(actual, indent=2) + "\n")
        return
    golden = json.loads(MANIFEST_FILE.read_text())
    assert actual["geometry"] == golden["geometry"]
    for rail, what in (("experiments", "metrics digest"),
                       ("renders", "render() text")):
        names = sorted(set(golden[rail]) | set(actual[rail]))
        moved = [
            name for name in names
            if golden[rail].get(name) != actual[rail].get(name)
        ]
        assert not moved, (
            f"{what} moved for {len(moved)} of {len(names)} experiments: "
            f"{', '.join(moved)}; if this change is intentional, regenerate "
            f"tests/golden/{MANIFEST_FILE.name} with --regen-golden (or "
            f"REPRO_REGEN_GOLDEN=1) and commit it"
        )
    assert actual["suite_digest"] == golden["suite_digest"]


def test_sort_strategy_digests_match_golden(regen_golden):
    """The budgeted aggregation experiments under ``agg_strategy="sort"``,
    which spill whole sorted tables instead of hash partitions."""
    settings = QUICK_GEOMETRY.with_(agg_strategy="sort")
    suite = run_tasks(suite_tasks(settings, SORT_STRATEGY_EXPERIMENTS),
                      use_cache=False)
    actual = {
        "geometry": {
            "scale": settings.scale,
            "n_streams": settings.n_streams,
            "seed": settings.seed,
            "agg_strategy": settings.agg_strategy,
        },
        "experiments": {task.label: task.digest for task in suite.tasks},
    }
    if regen_golden:
        SORT_STRATEGY_FILE.write_text(json.dumps(actual, indent=2) + "\n")
        return
    golden = json.loads(SORT_STRATEGY_FILE.read_text())
    assert actual == golden, (
        f"sort-strategy digests diverged from tests/golden/"
        f"{SORT_STRATEGY_FILE.name}; if this change is intentional, "
        f"regenerate with --regen-golden (or REPRO_REGEN_GOLDEN=1) and "
        f"commit it"
    )
