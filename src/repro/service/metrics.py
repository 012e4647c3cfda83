"""Per-class SLO metrics and result objects for service runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.metrics.report import format_service_table, format_table, percentile
from repro.service.queues import AdmissionQueue, QueryRequest
from repro.workloads.arrivals import ClassContract


@dataclass
class ClassMetrics:
    """SLO-facing metrics for one service class over one run."""

    name: str
    n_arrived: int = 0
    n_completed: int = 0
    n_abandoned: int = 0
    wait_mean: float = 0.0
    wait_p50: float = 0.0
    wait_p95: float = 0.0
    wait_p99: float = 0.0
    latency_mean: float = 0.0
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    #: Completions per simulated second over the run span.
    throughput: float = 0.0
    #: Fraction of completed requests inside the latency SLO (None: no SLO).
    slo_attainment: Optional[float] = None
    #: Fraction of arrivals that abandoned before admission.
    abandonment_rate: float = 0.0
    queue_p99: float = 0.0
    queue_peak: int = 0
    #: Expected queue-length ceiling for open classes with patience
    #: (arrivals during one patience window at the offered rate,
    #: doubled for slack); the boundedness assertion compares
    #: ``queue_p99`` against it.
    queue_bound: Optional[float] = None

    def as_dict(self) -> Dict[str, Any]:
        """The row shape :func:`~repro.metrics.report.format_service_table` eats."""
        return {
            "class": self.name,
            "n_arrived": self.n_arrived,
            "n_completed": self.n_completed,
            "n_abandoned": self.n_abandoned,
            "wait_mean": self.wait_mean,
            "wait_p50": self.wait_p50,
            "wait_p95": self.wait_p95,
            "wait_p99": self.wait_p99,
            "latency_mean": self.latency_mean,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "throughput": self.throughput,
            "slo_attainment": self.slo_attainment,
            "abandonment_rate": self.abandonment_rate,
            "queue_p99": self.queue_p99,
            "queue_peak": self.queue_peak,
            "queue_bound": self.queue_bound,
        }


def compute_class_metrics(
    spec: ClassContract,
    requests: Sequence[QueryRequest],
    queue: AdmissionQueue,
    span: float,
    rate: Optional[float],
) -> ClassMetrics:
    """Reduce one class's requests + queue samples to :class:`ClassMetrics`.

    ``rate`` is the class's offered arrivals per second (None for a
    closed class, which gets no queue bound).
    """
    metrics = ClassMetrics(name=spec.name, n_arrived=len(requests))
    completed = [r for r in requests if r.finished_at is not None]
    abandoned = [r for r in requests if r.abandoned_at is not None]
    waits = [r.admission_wait for r in requests if r.resolved]
    latencies = [r.latency for r in completed]
    metrics.n_completed = len(completed)
    metrics.n_abandoned = len(abandoned)
    if requests:
        metrics.abandonment_rate = len(abandoned) / len(requests)
    if waits:
        metrics.wait_mean = sum(waits) / len(waits)
        metrics.wait_p50 = percentile(waits, 50)
        metrics.wait_p95 = percentile(waits, 95)
        metrics.wait_p99 = percentile(waits, 99)
    if latencies:
        metrics.latency_mean = sum(latencies) / len(latencies)
        metrics.latency_p50 = percentile(latencies, 50)
        metrics.latency_p95 = percentile(latencies, 95)
        metrics.latency_p99 = percentile(latencies, 99)
    if span > 0:
        metrics.throughput = len(completed) / span
    if spec.latency_slo is not None and completed:
        within = sum(1 for lat in latencies if lat <= spec.latency_slo)
        metrics.slo_attainment = within / len(completed)
    lengths = [length for _, length in queue.length_samples]
    if lengths:
        metrics.queue_p99 = percentile(lengths, 99)
        metrics.queue_peak = max(lengths)
    if rate is not None and spec.patience is not None:
        # Abandonment caps the waiting line near rate × patience
        # (arrivals during one patience window); double it for slack.
        metrics.queue_bound = 2.0 * rate * spec.patience + 4.0
    return metrics


@dataclass
class ServiceResult:
    """Everything measured over one service run."""

    scenario: str
    horizon: float
    #: Simulated time when the last request resolved.
    end_time: float
    classes: List[ClassMetrics] = field(default_factory=list)
    controller_enabled: bool = True
    mpl_final: int = 0
    mpl_min: int = 0
    mpl_max: int = 0
    mpl_increases: int = 0
    mpl_decreases: int = 0
    controller_ticks: int = 0
    #: Highest concurrent running count observed.
    peak_running: int = 0
    #: Highest queued+running population observed.
    peak_in_system: int = 0
    in_system_p99: float = 0.0
    buffer_hit_ratio: float = 0.0
    buffer_miss_rate: float = 0.0
    pages_read: int = 0
    #: True when every arrived request completed or abandoned.
    drained: bool = False

    @property
    def n_arrived(self) -> int:
        return sum(c.n_arrived for c in self.classes)

    @property
    def n_completed(self) -> int:
        return sum(c.n_completed for c in self.classes)

    @property
    def n_abandoned(self) -> int:
        return sum(c.n_abandoned for c in self.classes)

    def class_metrics(self, name: str) -> ClassMetrics:
        for metrics in self.classes:
            if metrics.name == name:
                return metrics
        raise KeyError(f"no class {name!r} in result")

    def metrics(self) -> Dict[str, Any]:
        """JSON-safe dict — the unit of caching and digesting."""
        return {
            "scenario": self.scenario,
            "horizon": self.horizon,
            "end_time": self.end_time,
            "n_arrived": self.n_arrived,
            "n_completed": self.n_completed,
            "n_abandoned": self.n_abandoned,
            "drained": self.drained,
            "peak_running": self.peak_running,
            "peak_in_system": self.peak_in_system,
            "in_system_p99": self.in_system_p99,
            "buffer_hit_ratio": self.buffer_hit_ratio,
            "buffer_miss_rate": self.buffer_miss_rate,
            "pages_read": self.pages_read,
            "controller": {
                "enabled": self.controller_enabled,
                "mpl_final": self.mpl_final,
                "mpl_min": self.mpl_min,
                "mpl_max": self.mpl_max,
                "increases": self.mpl_increases,
                "decreases": self.mpl_decreases,
                "ticks": self.controller_ticks,
            },
            "classes": {c.name: c.as_dict() for c in self.classes},
        }

    def render(self) -> str:
        controller = (
            f"controller: mpl {self.mpl_final} "
            f"(range {self.mpl_min}-{self.mpl_max}, "
            f"+{self.mpl_increases}/-{self.mpl_decreases} over "
            f"{self.controller_ticks} ticks)"
            if self.controller_enabled
            else "controller: disabled (unbounded admission)"
        )
        lines = [
            f"scenario {self.scenario}: "
            f"{self.n_completed}/{self.n_arrived} completed, "
            f"{self.n_abandoned} abandoned, "
            f"drained={'yes' if self.drained else 'NO'} "
            f"at t={self.end_time:.3f}s (horizon {self.horizon:.3f}s)",
            controller,
            f"engine: hit ratio {self.buffer_hit_ratio:.3f}, "
            f"miss rate {self.buffer_miss_rate:.3f}, "
            f"pages read {self.pages_read}, "
            f"peak running {self.peak_running}, "
            f"peak in-system {self.peak_in_system}",
            "",
            format_service_table([c.as_dict() for c in self.classes]),
        ]
        return "\n".join(lines)


def bounded_problems(label: str, metrics: Dict[str, Any]) -> List[str]:
    """Boundedness violations in one task's metrics dict (empty = OK).

    Used by ``serve-sim --assert-bounded``: the run must have drained,
    concurrency must have stayed within the controller's MPL range, and
    every patience-bounded open class must have kept its p99 queue
    length under its abandonment ceiling.  For a comparison, only the
    controlled run is held to the bounds — the uncontrolled baseline is
    *supposed* to blow through them.
    """
    if "controlled" in metrics and "uncontrolled" in metrics:
        return bounded_problems(f"{label}.controlled", metrics["controlled"])
    problems: List[str] = []
    if not metrics.get("drained", False):
        problems.append(f"{label}: run did not drain "
                        f"({metrics.get('n_arrived', '?')} arrived, "
                        f"{metrics.get('n_completed', '?')} completed)")
    controller = metrics.get("controller", {})
    if controller.get("enabled"):
        bound = controller.get("mpl_max", 0)
        peak = metrics.get("peak_running", 0)
        if peak > bound:
            problems.append(
                f"{label}: peak running {peak} exceeded MPL bound {bound}"
            )
    for name, row in sorted(metrics.get("classes", {}).items()):
        bound = row.get("queue_bound")
        if bound is not None and row.get("queue_p99", 0.0) > bound:
            problems.append(
                f"{label}/{name}: p99 queue length {row['queue_p99']:.1f} "
                f"exceeded bound {bound:.1f}"
            )
    return problems


@dataclass
class ServiceComparison:
    """Controller-on vs controller-off over the same scenario + seed."""

    scenario: str
    controlled: ServiceResult
    uncontrolled: ServiceResult

    def metrics(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "controlled": self.controlled.metrics(),
            "uncontrolled": self.uncontrolled.metrics(),
            "miss_rate_delta": (
                self.uncontrolled.buffer_miss_rate
                - self.controlled.buffer_miss_rate
            ),
            "peak_in_system_ratio": (
                self.uncontrolled.peak_in_system
                / max(1, self.controlled.peak_in_system)
            ),
        }

    def render(self) -> str:
        rows: List[Tuple[object, ...]] = []
        for label, result in (
            ("controlled", self.controlled),
            ("uncontrolled", self.uncontrolled),
        ):
            rows.append((
                label, result.n_completed, result.n_abandoned,
                result.peak_running, result.peak_in_system,
                result.in_system_p99, result.buffer_miss_rate,
                result.end_time,
            ))
        header = format_table(
            ["run", "done", "abandoned", "peak_run", "peak_sys",
             "sys_p99", "miss_rate", "end (s)"],
            rows,
        )
        sections = [f"scenario {self.scenario}: backpressure comparison", header]
        for label, result in (
            ("controlled", self.controlled),
            ("uncontrolled", self.uncontrolled),
        ):
            sections.append("")
            sections.append(f"-- {label} --")
            sections.append(result.render())
        return "\n".join(sections)
