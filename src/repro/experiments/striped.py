"""`st-*` experiments: striped storage and the push prefetch pipeline.

Two questions the single-disk experiments cannot answer:

* **st-push** — at a fixed device count, what does switching the shared
  workload from the classic pull model to the leader-driven push
  pipeline buy?  (One fetch per extent fanned out to the whole consumer
  set, no trailer re-requests.)
* **st-scaling** — with the push pipeline on, does multi-stream
  throughput actually scale as the address space is striped over more
  devices?  (The paper's testbeds were arrays; the reproduction was a
  single arm until now.)

Both report per-device request/seek/busy tables next to the aggregate,
exercising the :class:`~repro.disk.array.ArrayStats` per-device split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from repro.core.config import SharingConfig
from repro.experiments.harness import ExperimentSettings, ModeResult, run_mode
from repro.metrics.report import format_table, percent_gain


def _mode_metrics(mode: ModeResult) -> Dict[str, Any]:
    """The per-mode numbers both ``st-*`` experiments report."""
    return {
        "makespan": mode.makespan,
        "throughput_qps": mode.throughput_qps,
        "pages_read": mode.pages_read,
        "seeks": mode.seeks,
        "buffer_hit_ratio": mode.workload.buffer_hit_ratio,
        "pushed_pages": mode.pushed_pages,
        "push_deliveries": mode.push_deliveries,
        "per_device": [dict(row) for row in mode.per_device],
    }


def _device_table(modes: Sequence[ModeResult]) -> str:
    rows = []
    for mode in modes:
        for entry in mode.per_device:
            rows.append([
                mode.label, entry["device"], entry["reads"],
                entry["pages_read"], entry["seeks"],
                f"{entry['busy_time']:.3f}",
            ])
    return format_table(
        ["mode", "device", "requests", "pages", "seeks", "busy (s)"], rows
    )


@dataclass
class StripedPushResult:
    """st-push: the same shared workload, pull vs push, one device count."""

    device_count: int
    pull: ModeResult
    push: ModeResult

    @property
    def end_to_end_gain(self) -> float:
        return percent_gain(self.pull.makespan, self.push.makespan)

    @property
    def disk_read_gain(self) -> float:
        return percent_gain(self.pull.pages_read, self.push.pages_read)

    def metrics(self) -> Dict[str, Any]:
        return {
            "device_count": self.device_count,
            "pull": _mode_metrics(self.pull),
            "push": _mode_metrics(self.push),
            "end_to_end_gain_percent": self.end_to_end_gain,
            "disk_read_gain_percent": self.disk_read_gain,
        }

    def render(self) -> str:
        headline = format_table(
            ["mode", "makespan (s)", "qps", "pages", "seeks", "hit ratio",
             "pushed pages"],
            [
                [mode.label, mode.makespan, f"{mode.throughput_qps:.2f}",
                 mode.pages_read, mode.seeks,
                 f"{mode.workload.buffer_hit_ratio:.3f}", mode.pushed_pages]
                for mode in (self.pull, self.push)
            ],
        )
        summary = (
            f"push vs pull at {self.device_count} device(s): "
            f"{self.end_to_end_gain:+.1f} % end-to-end, "
            f"{self.disk_read_gain:+.1f} % pages read"
        )
        return "\n".join([
            headline, "", "Per-device load:",
            _device_table((self.pull, self.push)), "", summary,
        ])


@dataclass
class StripedScalingResult:
    """st-scaling: push-pipeline throughput across device counts."""

    points: Dict[int, ModeResult]

    def speedup(self, device_count: int) -> float:
        """Throughput relative to the smallest configured device count."""
        baseline = self.points[min(self.points)]
        if baseline.throughput_qps == 0:
            return 0.0
        return self.points[device_count].throughput_qps / baseline.throughput_qps

    def metrics(self) -> Dict[str, Any]:
        return {
            str(n): dict(_mode_metrics(self.points[n]), speedup=self.speedup(n))
            for n in sorted(self.points)
        }

    def render(self) -> str:
        rows = [
            [n, self.points[n].makespan,
             f"{self.points[n].throughput_qps:.2f}",
             f"{self.speedup(n):.2f}x",
             self.points[n].pages_read, self.points[n].seeks]
            for n in sorted(self.points)
        ]
        table = format_table(
            ["devices", "makespan (s)", "qps", "speedup", "pages", "seeks"],
            rows,
        )
        return "\n".join([
            table, "", "Per-device load:",
            _device_table([self.points[n] for n in sorted(self.points)]),
        ])


def st_push(settings: Optional[ExperimentSettings] = None) -> StripedPushResult:
    """ST-PUSH: pull vs push on the shared workload.

    Respects ``--device-count``/``--stripe-extents``; the stripe unit
    defaults to one prefetch extent so a pushed extent lands on exactly
    one device.
    """
    settings = settings or ExperimentSettings()
    if settings.stripe_extents is None:
        settings = settings.with_(stripe_extents=1)
    pull = run_mode(
        settings.with_(push_prefetch=False), SharingConfig(enabled=True),
        "SS pull",
    )
    push = run_mode(
        settings.with_(push_prefetch=True), SharingConfig(enabled=True),
        "SS push",
    )
    return StripedPushResult(
        device_count=settings.device_count, pull=pull, push=push
    )


def st_scaling(
    settings: Optional[ExperimentSettings] = None,
    device_counts: Sequence[int] = (1, 2, 4),
) -> StripedScalingResult:
    """ST-SCALING: push-pipeline throughput vs device count."""
    settings = settings or ExperimentSettings()
    if settings.stripe_extents is None:
        settings = settings.with_(stripe_extents=1)
    points: Dict[int, ModeResult] = {}
    for count in device_counts:
        points[count] = run_mode(
            settings.with_(device_count=count, push_prefetch=True),
            SharingConfig(enabled=True),
            f"{count} device(s)",
        )
    return StripedScalingResult(points=points)
