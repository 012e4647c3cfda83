"""Query and stream execution on the simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.buffer.pool import BufferPool
from repro.engine.database import Database
from repro.engine.query import HashJoin, QuerySpec, ScanStep
from repro.metrics.collector import QueryRecord
from repro.scans.base import ScanResult
from repro.scans.table_scan import TableScan
from repro.trace.events import QueryFinished, QueryStarted
import repro.trace.tracer as trace_slot


@dataclass
class StepResult:
    """Outcome of one scan step: the scan's mechanics plus its values."""

    label: str
    scan: ScanResult
    values: object
    #: Reservation/spill counters for memory-budgeted steps; None for
    #: classic steps.
    operator_stats: Optional[Dict[str, object]] = None


@dataclass
class QueryResult:
    """Outcome of one query execution."""

    name: str
    stream_id: int
    started_at: float
    finished_at: float
    steps: List[StepResult] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        """Simulated end-to-end query time."""
        return self.finished_at - self.started_at

    @property
    def pages_scanned(self) -> int:
        """Total pages visited across steps."""
        return sum(step.scan.pages_scanned for step in self.steps)

    @property
    def cpu_seconds(self) -> float:
        """Total CPU charged across steps."""
        return sum(step.scan.cpu_seconds for step in self.steps)

    @property
    def throttle_seconds(self) -> float:
        """Total inserted throttle waits served."""
        return sum(step.scan.throttle_seconds for step in self.steps)

    @property
    def values(self) -> Dict[str, object]:
        """Per-step pipeline results, keyed by step label (one of
        :attr:`QuerySpec.labels <repro.engine.query.QuerySpec.labels>`)."""
        return {step.label: step.values for step in self.steps}

    def operator_stats(self) -> Dict[str, float]:
        """Summed reservation/spill counters over budgeted steps."""
        totals: Dict[str, float] = {}
        for step in self.steps:
            if not step.operator_stats:
                continue
            for key, value in step.operator_stats.items():
                if isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0) + value
        return totals


@dataclass
class StreamResult:
    """Outcome of one stream (a sequence of queries)."""

    stream_id: int
    started_at: float
    finished_at: float
    queries: List[QueryResult] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        """Stream duration from its first query start to its last end."""
        return self.finished_at - self.started_at


def execute_query(
    db: Database, spec: QuerySpec, stream_id: int = 0
) -> Generator:
    """Simulation process body for one query; returns a :class:`QueryResult`."""
    result = QueryResult(
        name=spec.name, stream_id=stream_id, started_at=db.sim.now, finished_at=0.0
    )
    tracer = trace_slot.active
    if tracer is not None:
        tracer.emit(QueryStarted(
            time=result.started_at, stream_id=stream_id, query=spec.name,
        ))
    labels = iter(spec.labels)
    for step in spec.steps:
        if isinstance(step, HashJoin):
            sides = yield from _execute_join(
                db, step, next(labels), next(labels)
            )
            result.steps.extend(sides)
        else:
            result.steps.append(
                (yield from _execute_step(db, step, next(labels)))
            )
    result.finished_at = db.sim.now
    tracer = trace_slot.active
    if tracer is not None:
        tracer.emit(QueryFinished(
            time=result.finished_at, stream_id=stream_id, query=spec.name,
            elapsed=result.elapsed, pages_scanned=result.pages_scanned,
            throttle_seconds=result.throttle_seconds,
        ))
    db.metrics.record_query(
        QueryRecord(
            stream_id=stream_id,
            query_name=spec.name,
            started_at=result.started_at,
            finished_at=result.finished_at,
            pages_scanned=result.pages_scanned,
            cpu_seconds=result.cpu_seconds,
            throttle_seconds=result.throttle_seconds,
        )
    )
    return result


def resolve_budget_pages(requested: int, pool_capacity: int) -> int:
    """Turn a step's budget request into a concrete frame count.

    ``-1`` (auto) asks for a quarter of the pool — enough to matter,
    small enough that several budgeted operators plus the scans' working
    set coexist.  Explicit requests are honored up to what a reservation
    could ever grant (the pool keeps ``MIN_USABLE_FRAMES`` for itself);
    the pool may still grant less when other reservations exist.
    """
    ceiling = max(1, pool_capacity - BufferPool.MIN_USABLE_FRAMES)
    if requested == -1:
        return max(1, min(ceiling, pool_capacity // 4))
    return min(ceiling, requested)


def _negotiate_memory(db: Database, requested: Optional[int], name: str):
    """Reserve frames for a budgeted operator; None for a classic one."""
    from repro.engine.memory import OperatorMemory

    if requested is None:
        return None
    budget = resolve_budget_pages(requested, db.pool.capacity)
    memory = OperatorMemory(db, name, budget)
    memory.negotiate()
    return memory


def _run_step_scan(db: Database, step: ScanStep, pipeline) -> Generator:
    """Run one physical scan of ``step``'s range feeding ``pipeline``;
    returns its result."""
    table = db.catalog.table(step.table)
    first_page, last_page = step.page_range(table)
    scan = TableScan(
        db, step.table, first_page, last_page, pipeline.process_run,
        record_visits=db.config.record_page_visits,
        sharing=db.sharing if db.sharing_enabled else None,
        estimated_speed=(
            _estimate_scan_speed(db, pipeline, table.schema.rows_per_page)
            if db.sharing_enabled else None
        ),
    )
    result = yield from scan.run()
    return result


def _operator_stats(memory, sink) -> Dict[str, object]:
    """A spilling sink's reservation (if any) and spill counters."""
    stats: Dict[str, object] = dict(memory.stats()) if memory is not None else {}
    stats.update(sink.spill.as_dict())
    return stats


def _execute_step(db: Database, step: ScanStep, label: str) -> Generator:
    """Run one scan step; returns its :class:`StepResult`."""
    memory = _negotiate_memory(db, step.agg_budget_pages, f"agg[{label}]")
    pipeline = step.build_pipeline(
        db.cost, memory=memory, agg_strategy=db.config.agg_strategy,
        run_cache=db.run_cache,
    )
    scan_result = yield from _run_step_scan(db, step, pipeline)
    # Spilled state merges back here — temp reads and merge CPU land on
    # the simulated clock after the scan itself finished.
    yield from pipeline.finalize(db)
    values = pipeline.result()
    operator_stats = None
    if memory is not None:
        # Only budgeted (spilling) sinks are built with memory.
        operator_stats = _operator_stats(memory, pipeline.sink)
        memory.release()
    return StepResult(
        label=label, scan=scan_result, values=values,
        operator_stats=operator_stats,
    )


def _execute_join(
    db: Database, join: HashJoin, build_label: str, probe_label: str
) -> Generator:
    """Run a hash join; returns its build and probe :class:`StepResult`.

    The build scan hashes into the join's reservation, which it keeps
    across the probe phase (its frames keep competing with scans).  When
    the build table needs more frames than the reservation holds, the
    probe range is scanned once per chunk — the multibuffer trade of
    extra probe I/O for bounded memory.  Each pass counts matches only
    for its chunk's keys, so the summed counts equal the single-pass
    join result exactly.
    """
    from repro.engine.spill import chunk_factor, split_chunks

    memory = _negotiate_memory(db, join.budget_pages, f"join[{build_label}]")
    pipeline = join.build_pipeline(db.cost, memory=memory)
    build_scan = yield from _run_step_scan(db, join.build, pipeline)
    yield from pipeline.finalize(db)
    build = pipeline.sink
    build_result = StepResult(
        label=build_label, scan=build_scan, values=pipeline.result(),
        operator_stats=(
            _operator_stats(memory, build) if memory is not None else None
        ),
    )

    pages_needed = build.pages_needed
    n_chunks = chunk_factor(pages_needed, memory.pages) if memory is not None else 1
    combined_scan: Optional[ScanResult] = None
    rows_probed = 0
    matches = 0
    for chunk in split_chunks(build.table, n_chunks, build.key_crcs):
        pipeline = join.probe_pipeline(db.cost, chunk)
        scan_result = yield from _run_step_scan(db, join.probe, pipeline)
        chunk_values = pipeline.result()
        rows_probed += chunk_values["rows_probed"]
        matches += chunk_values["matches"]
        if combined_scan is None:
            combined_scan = scan_result
        else:
            combined_scan.pages_scanned += scan_result.pages_scanned
            combined_scan.rows_seen += scan_result.rows_seen
            combined_scan.cpu_seconds += scan_result.cpu_seconds
            combined_scan.throttle_seconds += scan_result.throttle_seconds
            combined_scan.finished_at = scan_result.finished_at
            combined_scan.visited_pages.extend(scan_result.visited_pages)
            combined_scan.aborted |= scan_result.aborted
    operator_stats: Dict[str, object] = {
        "join_chunks": n_chunks,
        "build_pages_needed": pages_needed,
    }
    operator_stats.update(_operator_stats(memory, build))
    if memory is not None:
        memory.release()
    assert combined_scan is not None
    probe_result = StepResult(
        label=probe_label,
        scan=combined_scan,
        values={"rows_probed": rows_probed, "matches": matches,
                "chunks": n_chunks},
        operator_stats=operator_stats,
    )
    return build_result, probe_result


def _estimate_scan_speed(db: Database, pipeline, rows_per_page: int) -> float:
    """Optimizer-style speed estimate of a scan feeding ``pipeline``:
    bounded by CPU or I/O per page (memoised per database under the
    pipeline's ``run_key``, as every execution of a step asks)."""
    key = (pipeline.run_key, rows_per_page)
    speed = db.speed_estimates.get(key)
    if speed is None:
        cpu_per_page = db.cost.seconds(
            pipeline.estimated_units_per_page(rows_per_page)
        )
        io_per_page = db.config.geometry.transfer_time(1)
        speed = 1.0 / max(cpu_per_page, io_per_page)
        db.speed_estimates.put(key, speed)
    return speed


def run_stream(
    db: Database,
    queries: Sequence[QuerySpec],
    stream_id: int,
    start_delay: float = 0.0,
) -> Generator:
    """Simulation process body for a stream; returns a :class:`StreamResult`."""
    if start_delay > 0:
        yield db.sim.timeout(start_delay)
    result = StreamResult(
        stream_id=stream_id, started_at=db.sim.now, finished_at=0.0
    )
    for spec in queries:
        query_result = yield from execute_query(db, spec, stream_id=stream_id)
        result.queries.append(query_result)
    result.finished_at = db.sim.now
    return result


@dataclass
class WorkloadResult:
    """Everything measured over one multi-stream workload run."""

    streams: List[StreamResult]
    makespan: float
    end_time: float
    pages_read: int
    physical_requests: int
    seeks: int
    buffer_hit_ratio: float
    throttle_seconds: float

    def stream_elapsed(self, stream_id: int) -> float:
        """One stream's duration."""
        for stream in self.streams:
            if stream.stream_id == stream_id:
                return stream.elapsed
        raise KeyError(f"no stream {stream_id}")

    def query_mean_elapsed(self) -> Dict[str, float]:
        """Mean elapsed time per query template across all streams."""
        sums: Dict[str, Tuple[float, int]] = {}
        for stream in self.streams:
            for query in stream.queries:
                total, count = sums.get(query.name, (0.0, 0))
                sums[query.name] = (total + query.elapsed, count + 1)
        return {name: total / count for name, (total, count) in sums.items()}


def run_workload(
    db: Database,
    streams: Sequence[Sequence[QuerySpec]],
    stagger: float = 0.0,
    stagger_list: Optional[Sequence[float]] = None,
) -> WorkloadResult:
    """Run several streams concurrently and drain the simulation.

    ``stagger`` starts stream *i* at ``i * stagger`` seconds;
    ``stagger_list`` gives explicit per-stream start delays instead.
    """
    if stagger_list is not None and len(stagger_list) != len(streams):
        raise ValueError(
            f"stagger_list has {len(stagger_list)} entries for {len(streams)} streams"
        )
    processes = []
    for stream_id, queries in enumerate(streams):
        delay = (
            stagger_list[stream_id] if stagger_list is not None else stream_id * stagger
        )
        processes.append(
            db.sim.spawn(
                run_stream(db, queries, stream_id, start_delay=delay),
                name=f"stream-{stream_id}",
            )
        )
    db.sim.run()
    stream_results: List[StreamResult] = []
    for process in processes:
        if not process.completion.triggered:
            raise RuntimeError(f"stream process {process.name} never finished")
        if process.completion.failed:
            raise process.completion.value
        stream_results.append(process.completion.value)
    makespan = (
        max(s.finished_at for s in stream_results)
        - min(s.started_at for s in stream_results)
        if stream_results
        else 0.0
    )
    return WorkloadResult(
        streams=stream_results,
        makespan=makespan,
        end_time=db.sim.now,
        pages_read=db.disk.stats.pages_read,
        physical_requests=db.disk.stats.reads,
        seeks=db.disk.stats.seeks,
        buffer_hit_ratio=db.pool.stats.hit_ratio,
        throttle_seconds=db.metrics.total_throttle_seconds(),
    )
