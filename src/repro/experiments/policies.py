"""Head-to-head experiments over the sharing-policy axis (``pl-*``).

Two experiments compare the paper's grouping+throttling mechanism with
its rivals (cooperative attach, predictive buffer management) on the
same TPC-H stream mix:

* ``pl-mix`` runs the mix once under ``settings.sharing_policy`` — the
  unit of a ``repro sweep --param sharing_policy`` grid, whose CLI
  output aggregates the grid points into one comparison table;
* ``pl-head2head`` runs Base (sharing off) plus all three policies
  inside one experiment, so every row shares one derived seed and the
  gain columns are apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.core.config import SharingConfig
from repro.core.policy import SHARING_POLICY_NAMES
from repro.experiments.harness import ExperimentSettings, ModeResult, run_mode
from repro.metrics.report import format_policy_table


@dataclass
class PolicyMixResult:
    """``pl-mix``: the TPC-H stream mix under one sharing policy."""

    run: ModeResult

    def metrics(self) -> Dict[str, Any]:
        return self.run.policy_row()

    def render(self) -> str:
        return format_policy_table([self.run.policy_row()])


@dataclass
class PolicyComparisonResult:
    """``pl-head2head``: Base plus every sharing policy, one seed."""

    base: ModeResult
    runs: List[ModeResult]

    def metrics(self) -> Dict[str, Any]:
        return {
            "base": self.base.policy_row(),
            "policies": {
                run.label: run.policy_row(self.base) for run in self.runs
            },
        }

    def render(self) -> str:
        rows = [self.base.policy_row()]
        rows.extend(run.policy_row(self.base) for run in self.runs)
        return format_policy_table(rows)


def pl_mix(settings: ExperimentSettings) -> PolicyMixResult:
    """PL-MIX: the stream mix under ``settings.sharing_policy`` alone."""
    return PolicyMixResult(
        run=run_mode(settings, SharingConfig(), settings.sharing_policy)
    )


def pl_head2head(settings: ExperimentSettings) -> PolicyComparisonResult:
    """PL-HEAD2HEAD: Base vs all three policies on one workload."""
    base = run_mode(settings, SharingConfig(enabled=False), "base")
    runs = [
        run_mode(settings.with_(sharing_policy=name), SharingConfig(), name)
        for name in SHARING_POLICY_NAMES
    ]
    return PolicyComparisonResult(base=base, runs=runs)
