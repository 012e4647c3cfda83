"""Parallel experiment runner with deterministic seeding and caching.

The paper's evidence is a battery of experiments (E1–E9) plus ablation
sweeps; running every mode serially in one process takes tens of
minutes at full fidelity.  This module industrializes that battery:

* **Fan-out** — tasks run across a :class:`~concurrent.futures.\
ProcessPoolExecutor`; ``jobs=1`` runs inline through the *same* task
  function, so parallel and serial execution are byte-identical.
* **Deterministic seeding** — every task's seed is derived as
  SHA-256(experiment id, sweep point, base seed), so results do not
  depend on scheduling order, worker identity, or ``PYTHONHASHSEED``.
* **Result cache** — finished tasks are stored on disk under a content
  address: a digest of the experiment id, sweep point, settings, and a
  fingerprint of the package's own source code.  Re-running a suite
  after an unrelated edit is near-instant; any code or settings change
  invalidates exactly the affected entries.
* **Consolidated artifact** — :class:`SuiteResult` serializes to one
  ``results.json`` with per-experiment metrics, timings, and cache
  provenance (see :func:`repro.metrics.export.suite_to_dict`).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.harness import ExperimentSettings
from repro.experiments.registry import all_experiments, get
from repro.fields import FieldError, parse_field_value
from repro.workloads.arrivals import stable_hash

#: Default on-disk cache location; override per-call or with REPRO_CACHE_DIR.
DEFAULT_CACHE_DIR = ".repro-cache"


# ----------------------------------------------------------------------
# Deterministic seed derivation
# ----------------------------------------------------------------------


def derive_seed(experiment: str, sweep_point: str, base_seed: int) -> int:
    """A per-task seed that is stable across processes and platforms.

    A :func:`~repro.workloads.arrivals.stable_hash` rather than
    :func:`hash`, so the value does not depend on ``PYTHONHASHSEED``;
    distinct (experiment, sweep point) pairs get decorrelated workloads
    while the same pair always replays the same workload for a given
    base seed.  Components are prefixed with their UTF-8 length and
    split by a unit separator, so no concatenation of two different
    pairs can produce the same payload.
    """
    exp_bytes = len(experiment.encode("utf-8"))
    point_bytes = len(sweep_point.encode("utf-8"))
    return stable_hash(
        exp_bytes, f"{experiment}\x1f{point_bytes}",
        f"{sweep_point}\x1f{int(base_seed)}",
    ) % 2 ** 63


# ----------------------------------------------------------------------
# Content addressing
# ----------------------------------------------------------------------


def code_fingerprint() -> str:
    """A digest of every ``.py`` file in the installed ``repro`` package.

    Part of the cache key: editing any source file invalidates cached
    results, so a cache hit always means "this exact code already
    produced this exact configuration's numbers".
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _FINGERPRINT = digest.hexdigest()[:16]
    return _FINGERPRINT


_FINGERPRINT: Optional[str] = None


def canonical_json(value: Any) -> str:
    """The one serialization used for digests: sorted keys, no spaces,
    tuples written as arrays."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def metrics_digest(metrics: Dict[str, Any]) -> str:
    """Digest of one task's metrics dict (the determinism invariant)."""
    return hashlib.sha256(canonical_json(metrics).encode("utf-8")).hexdigest()


def cache_key(experiment: str, sweep_point: str,
              settings: ExperimentSettings) -> str:
    """Content address of one task: experiment + settings + code."""
    payload = canonical_json({
        "experiment": experiment,
        "sweep_point": sweep_point,
        "settings": asdict(settings),
        "code": code_fingerprint(),
    })
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def first_divergence(a: Any, b: Any, path: str = "$") -> Optional[str]:
    """The path of the first field where two metric trees differ.

    Returns ``None`` when the trees are identical; used by the
    determinism regression test to name the culprit field instead of
    dumping two full JSON blobs.
    """
    if type(a) is not type(b):
        return f"{path}: type {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                return f"{path}.{key}: missing on left"
            if key not in b:
                return f"{path}.{key}: missing on right"
            found = first_divergence(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, (list, tuple)):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for index, (left, right) in enumerate(zip(a, b)):
            found = first_divergence(left, right, f"{path}[{index}]")
            if found:
                return found
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


# ----------------------------------------------------------------------
# Tasks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentTask:
    """One unit of work: an experiment at one settings/sweep point."""

    experiment: str
    settings: ExperimentSettings
    sweep_point: str = ""

    @property
    def derived_seed(self) -> int:
        return derive_seed(self.experiment, self.sweep_point,
                           self.settings.seed)


@dataclass
class TaskResult:
    """One finished task: metrics plus provenance."""

    experiment: str
    sweep_point: str
    seed: int
    metrics: Dict[str, Any]
    render: str
    elapsed_seconds: float
    cache: str  # "hit" | "miss" | "off"
    digest: str = ""

    def __post_init__(self) -> None:
        if not self.digest:
            self.digest = metrics_digest(self.metrics)

    @property
    def label(self) -> str:
        if self.sweep_point:
            return f"{self.experiment}[{self.sweep_point}]"
        return self.experiment


def execute_task(task: ExperimentTask) -> TaskResult:
    """Run one task from scratch (no cache) with its derived seed.

    This is the only code path that produces numbers — serial runs,
    pool workers, and cache misses all come through here, which is what
    makes ``--jobs N`` byte-identical to ``--jobs 1``.
    """
    seed = task.derived_seed
    settings = task.settings.with_(seed=seed)
    spec = get(task.experiment)
    start = time.perf_counter()
    result = spec.run(settings)
    elapsed = time.perf_counter() - start
    return TaskResult(
        experiment=task.experiment,
        sweep_point=task.sweep_point,
        seed=seed,
        metrics=result.metrics(),
        render=result.render(),
        elapsed_seconds=elapsed,
        cache="off",
    )


# ----------------------------------------------------------------------
# On-disk result cache
# ----------------------------------------------------------------------


class ResultCache:
    """Content-addressed store of finished :class:`TaskResult` payloads.

    One JSON file per key under ``directory``; corrupt or unreadable
    entries are treated as misses, never as errors.
    """

    def __init__(self, directory: Optional[str] = None):
        self.directory = Path(
            directory
            or os.environ.get("REPRO_CACHE_DIR")
            or DEFAULT_CACHE_DIR
        )

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[TaskResult]:
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
            return TaskResult(
                experiment=payload["experiment"],
                sweep_point=payload["sweep_point"],
                seed=payload["seed"],
                metrics=payload["metrics"],
                render=payload["render"],
                elapsed_seconds=payload["elapsed_seconds"],
                cache="hit",
                digest=payload["digest"],
            )
        except (OSError, ValueError, KeyError):
            return None

    def put(self, key: str, result: TaskResult) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "experiment": result.experiment,
            "sweep_point": result.sweep_point,
            "seed": result.seed,
            "metrics": result.metrics,
            "render": result.render,
            "elapsed_seconds": result.elapsed_seconds,
            "digest": result.digest,
            "code_fingerprint": code_fingerprint(),
            "created_at": time.time(),
        }
        tmp = self._path(key).with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True, indent=1))
        tmp.replace(self._path(key))


# ----------------------------------------------------------------------
# Suite execution
# ----------------------------------------------------------------------


@dataclass
class SuiteResult:
    """Everything one ``run-all``/``sweep`` invocation produced."""

    base_seed: int
    code_fingerprint: str
    tasks: List[TaskResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    jobs: int = 1

    @property
    def cache_hits(self) -> int:
        return sum(1 for task in self.tasks if task.cache == "hit")

    def suite_digest(self) -> str:
        """One digest over every task's metrics, in task order."""
        return metrics_digest({
            task.label: task.digest for task in self.tasks
        })


def run_tasks(
    tasks: Sequence[ExperimentTask],
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
) -> SuiteResult:
    """Run tasks (cache-first), fanning misses out over ``jobs`` workers.

    Results come back in task order regardless of completion order, so
    artifacts diff cleanly between runs.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    start = time.perf_counter()
    cache = ResultCache(cache_dir) if use_cache else None
    slots: List[Optional[TaskResult]] = [None] * len(tasks)
    # Each key digests the settings plus the full source fingerprint —
    # compute it once per task, not once for the probe and again for the
    # store.
    keys = [cache_key(task.experiment, task.sweep_point, task.settings)
            for task in tasks] if cache else []
    misses: List[Tuple[int, ExperimentTask]] = []
    for index, task in enumerate(tasks):
        cached = cache.get(keys[index]) if cache else None
        if cached is not None:
            slots[index] = cached
        else:
            misses.append((index, task))

    if misses:
        if jobs == 1 or len(misses) == 1:
            fresh = [execute_task(task) for _index, task in misses]
        else:
            with ProcessPoolExecutor(max_workers=min(jobs, len(misses))) as pool:
                fresh = list(pool.map(execute_task,
                                      [task for _index, task in misses]))
        for (index, task), result in zip(misses, fresh):
            result.cache = "miss" if cache else "off"
            slots[index] = result
            if cache:
                cache.put(keys[index], result)

    base_seed = tasks[0].settings.seed if tasks else 0
    return SuiteResult(
        base_seed=base_seed,
        code_fingerprint=code_fingerprint(),
        tasks=[slot for slot in slots if slot is not None],
        wall_seconds=time.perf_counter() - start,
        jobs=jobs,
    )


def suite_tasks(
    settings: ExperimentSettings, experiments: Optional[Sequence[str]] = None
) -> List[ExperimentTask]:
    """One task per experiment (default: every registered one)."""
    names = list(experiments) if experiments else [
        spec.name for spec in all_experiments()
    ]
    return [ExperimentTask(experiment=get(name).name, settings=settings)
            for name in names]


def coerce_sweep_value(param: str, raw: str) -> Any:
    """Parse one ``--values`` token to the sweep parameter's declared type."""
    valid = {f.name for f in fields(ExperimentSettings)}
    if param not in valid:
        raise FieldError(
            param, f"unknown sweep parameter {param!r} "
            f"(known: {', '.join(sorted(valid))})"
        )
    return parse_field_value(ExperimentSettings, param, raw)


def sweep_tasks(
    experiment: str,
    param: str,
    values: Sequence[Any],
    settings: ExperimentSettings,
) -> List[ExperimentTask]:
    """One task per grid point of one settings parameter.

    Each grid point gets its own derived seed (so points are
    decorrelated) and its own cache entry.  Every point is checked
    before any task runs.
    """
    spec = get(experiment)
    tasks = []
    for value in values:
        coerced = coerce_sweep_value(param, str(value))
        tasks.append(ExperimentTask(
            experiment=spec.name,
            settings=settings.with_(**{param: coerced}),
            sweep_point=f"{param}={coerced}",
        ))
    return tasks
