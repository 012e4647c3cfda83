"""Memory-budgeted operator experiments (``ag-*`` / ``mj-*``).

Three experiments exercise the operators that *compete with scans for
bufferpool frames* (spillable aggregation, multibuffer hash joins)
inside the paper's multi-scan workloads:

* ``ag-compete`` — Base-vs-SS comparison on a scans-plus-aggregation
  mix: classic range scans (Q1/Q6) interleaved with budgeted
  high-cardinality aggregation (AG18), reporting spill and reservation
  counters next to the paper's headline gains;
* ``ag-mix`` — the same mix under one sharing policy, shaped like
  ``pl-mix`` so ``repro sweep ag-mix --param sharing_policy`` renders
  the three-way policy comparison table over the aggregation scenario;
* ``mj-join`` — multibuffer joins (MJ1/MJ18) among Q6 scans, reporting
  chunk counts and build-side spills.

All spill metrics are read from the workload's per-step operator stats,
so the experiments stay cache/digest-compatible with the runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.core.config import SharingConfig
from repro.experiments.harness import (
    Comparison,
    ExperimentSettings,
    ModeResult,
    compare_modes,
    run_mode,
)
from repro.metrics.report import format_policy_table, format_table
from repro.workloads.streams import tpch_streams

#: Default scans-plus-aggregation mix: two classic scan templates and
#: the two budgeted aggregations, so budgeted and classic queries fight
#: over the same pool.
AGG_MIX_QUERIES = ("Q1", "Q6", "AG1", "AG18")

#: Default join mix: multibuffer joins among I/O-bound range scans.
JOIN_MIX_QUERIES = ("Q6", "MJ1", "MJ18")

#: The spill/reservation counters surfaced per mode in reports.
SPILL_KEYS = (
    "spill_events",
    "spilled_partitions",
    "spill_pages_written",
    "spill_pages_read",
    "granted_pages",
    "clawed_pages",
    "pressure_events",
)


def _spill(stats: Dict[str, float]) -> Dict[str, float]:
    """The :data:`SPILL_KEYS` counters of one run's operator totals."""
    return {key: stats.get(key, 0) for key in SPILL_KEYS}


def _mix_streams(settings: ExperimentSettings, default_names) -> list:
    names = (
        list(settings.query_names) if settings.query_names
        else list(default_names)
    )
    return tpch_streams(settings.n_streams, seed=settings.seed,
                        query_names=names)


@dataclass
class AggCompeteResult:
    """``ag-compete``: budgeted aggregation vs scans, Base vs SS."""

    comparison: Comparison
    agg_strategy: str

    def metrics(self) -> Dict[str, Any]:
        base, shared = self.comparison.base, self.comparison.shared
        return {
            "agg_strategy": self.agg_strategy,
            "base_makespan": base.makespan,
            "shared_makespan": shared.makespan,
            "base_pages_read": base.pages_read,
            "shared_pages_read": shared.pages_read,
            "end_to_end_gain_percent": self.comparison.end_to_end_gain,
            "disk_read_gain_percent": self.comparison.disk_read_gain,
            "base_spill": _spill(base.operator_totals()),
            "shared_spill": _spill(shared.operator_totals()),
        }

    def render(self) -> str:
        rows = []
        for label, mode in (
            ("Base", self.comparison.base),
            ("SS", self.comparison.shared),
        ):
            stats = mode.operator_totals()
            rows.append([
                label,
                mode.makespan,
                mode.pages_read,
                int(stats.get("spill_events", 0)),
                int(stats.get("spill_pages_written", 0)),
                int(stats.get("spill_pages_read", 0)),
                int(stats.get("granted_pages", 0)),
                int(stats.get("clawed_pages", 0)),
            ])
        table = format_table(
            ["mode", "makespan (s)", "pages read", "spills",
             "spill wr", "spill rd", "granted", "clawed"],
            rows,
        )
        return (
            f"{table}\nagg strategy: {self.agg_strategy}; "
            f"end-to-end gain: {self.comparison.end_to_end_gain:.1f} %"
        )


def ag_compete(settings: ExperimentSettings) -> AggCompeteResult:
    """AG-COMPETE: spillable aggregation competing with scans, Base/SS."""
    streams = _mix_streams(settings, AGG_MIX_QUERIES)
    return AggCompeteResult(
        comparison=compare_modes(settings, streams=streams),
        agg_strategy=settings.agg_strategy,
    )


@dataclass
class AggMixResult:
    """``ag-mix``: the aggregation mix under one sharing policy.

    Metric shape deliberately matches ``pl-mix`` (the
    :meth:`~repro.experiments.harness.ModeResult.policy_row` keys) so
    the CLI's sharing-policy sweep table aggregates ``ag-mix`` grid
    points exactly as it does ``pl-mix`` ones; the spill counters ride
    along as extra keys the table formatter ignores.
    """

    mode: ModeResult
    agg_strategy: str

    def metrics(self) -> Dict[str, Any]:
        merged = self.mode.policy_row()
        merged["agg_strategy"] = self.agg_strategy
        merged.update(_spill(self.mode.operator_totals()))
        return merged

    def render(self) -> str:
        table = format_policy_table([self.mode.policy_row()])
        spill = ", ".join(
            f"{key}={int(value)}"
            for key, value in _spill(self.mode.operator_totals()).items()
        )
        return f"{table}\nspill [{self.agg_strategy}]: {spill}"


def ag_mix(settings: ExperimentSettings) -> AggMixResult:
    """AG-MIX: scans-plus-aggregation under ``settings.sharing_policy``."""
    streams = _mix_streams(settings, AGG_MIX_QUERIES)
    return AggMixResult(
        mode=run_mode(
            settings, SharingConfig(), settings.sharing_policy, streams=streams
        ),
        agg_strategy=settings.agg_strategy,
    )


@dataclass
class JoinResult:
    """``mj-join``: multibuffer hash joins among range scans."""

    mode: ModeResult

    def metrics(self) -> Dict[str, Any]:
        stats = self.mode.operator_totals()
        merged = {
            "policy": self.mode.label,
            "makespan": self.mode.makespan,
            "pages_read": self.mode.pages_read,
            "join_chunks": stats.get("join_chunks", 0),
            "build_pages_needed": stats.get("build_pages_needed", 0),
        }
        merged.update(_spill(stats))
        return merged

    def render(self) -> str:
        stats = self.mode.operator_totals()
        return format_table(
            ["policy", "makespan (s)", "pages read", "probe passes",
             "build frames", "spills", "spill wr"],
            [[
                self.mode.label,
                self.mode.makespan,
                self.mode.pages_read,
                int(stats.get("join_chunks", 0)),
                int(stats.get("build_pages_needed", 0)),
                int(stats.get("spill_events", 0)),
                int(stats.get("spill_pages_written", 0)),
            ]],
        )


def mj_join(settings: ExperimentSettings) -> JoinResult:
    """MJ-JOIN: multibuffer joins sharing the pool with range scans."""
    streams = _mix_streams(settings, JOIN_MIX_QUERIES)
    return JoinResult(mode=run_mode(
        settings, SharingConfig(), settings.sharing_policy, streams=streams
    ))
