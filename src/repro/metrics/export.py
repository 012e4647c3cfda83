"""Serializing suite results to the consolidated ``results.json``.

A reproduction is only useful if its numbers can leave the process:
``run-all``, ``sweep``, ``serve-sim`` and ``cluster-sim`` write one JSON
artifact that downstream plotting/analysis scripts can consume without
importing the library.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # avoid a circular import; the runner imports metrics
    from repro.experiments.runner import SuiteResult


def suite_to_dict(suite: "SuiteResult") -> Dict:
    """The consolidated ``results.json`` artifact for one suite run.

    Deterministic metrics (and their digests) are kept separate from the
    volatile provenance fields (wall-clock timings, cache hit/miss), so
    two runs of the same configuration produce byte-identical
    ``experiments[*].metrics`` sections even when their timings differ.
    """
    return {
        "schema": "repro-suite-v1",
        "base_seed": suite.base_seed,
        "code_fingerprint": suite.code_fingerprint,
        "jobs": suite.jobs,
        "wall_seconds": suite.wall_seconds,
        "cache_hits": suite.cache_hits,
        "suite_digest": suite.suite_digest(),
        "experiments": [
            {
                "experiment": task.experiment,
                "sweep_point": task.sweep_point,
                "label": task.label,
                "seed": task.seed,
                "metrics": task.metrics,
                "metrics_digest": task.digest,
                "elapsed_seconds": task.elapsed_seconds,
                "cache": task.cache,
            }
            for task in suite.tasks
        ],
    }


def suite_to_json(suite: "SuiteResult", indent: Optional[int] = 2) -> str:
    """JSON text of the consolidated suite artifact."""
    return json.dumps(suite_to_dict(suite), indent=indent, sort_keys=True)


def write_suite_json(suite: "SuiteResult", path: str) -> None:
    """Write the consolidated suite artifact to ``path``."""
    with open(path, "w") as handle:
        handle.write(suite_to_json(suite))
        handle.write("\n")
