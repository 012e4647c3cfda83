"""Query and stream execution on the simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.buffer.pool import BufferPool
from repro.engine.database import Database
from repro.engine.query import QuerySpec, ScanStep
from repro.metrics.collector import QueryRecord
from repro.scans.base import ScanResult
from repro.scans.table_scan import TableScan
from repro.trace.events import QueryFinished, QueryStarted
from repro.trace.tracer import get_tracer


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
        """Per-step pipeline results, keyed by step label (or index)."""
        return {
            step.label or f"step{index}": step.values
            for index, step in enumerate(self.steps)
        }

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
    tracer = get_tracer()
    if tracer.enabled:
        tracer.emit(QueryStarted(
            time=result.started_at, stream_id=stream_id, query=spec.name,
        ))
    # Join state threaded between a build step and its probe step(s):
    # the built hash table, the sink (for sizing), and the still-held
    # frame reservation the probe passes run under.
    join_state: Dict[str, object] = {}
    for index, step in enumerate(spec.steps):
        for repeat in range(step.repeats):
            step_result = yield from _execute_step(db, step, index, join_state)
            if step.repeats > 1:
                step_result.label = f"{step_result.label}#{repeat}"
            result.steps.append(step_result)
    _release_join_state(join_state)
    result.finished_at = db.sim.now
    tracer = get_tracer()
    if tracer.enabled:
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


def _terminal_operator(pipeline):
    """The pipeline's terminal (sink) operator."""
    op = pipeline.entry
    while op.downstream is not None:
        op = op.downstream
    return op


def _release_join_state(join_state: Dict[str, object]) -> None:
    """Return any frames a join still holds (end-of-query safety net)."""
    memory = join_state.pop("memory", None)
    if memory is not None:
        memory.release()
    join_state.clear()


def resolve_budget_pages(requested: Optional[int], pool_capacity: int) -> int:
    """Turn a step's budget request into a concrete frame count.

    ``-1`` (auto) asks for a quarter of the pool — enough to matter,
    small enough that several budgeted operators plus the scans' working
    set coexist.  Explicit requests are honored up to what a reservation
    could ever grant (the pool keeps ``MIN_USABLE_FRAMES`` for itself);
    the pool may still grant less when other reservations exist.
    """
    ceiling = max(1, pool_capacity - BufferPool.MIN_USABLE_FRAMES)
    if requested is None or requested == -1:
        return max(1, min(ceiling, pool_capacity // 4))
    return max(1, min(ceiling, requested))


def _negotiate_memory(db: Database, step: ScanStep, label: str, kind: str):
    """Reserve frames for a budgeted step; None for classic steps."""
    from repro.engine.memory import OperatorMemory

    requested = (
        step.join_budget_pages if kind == "join" else step.agg_budget_pages
    )
    if requested is None:
        return None
    budget = resolve_budget_pages(requested, db.pool.capacity)
    memory = OperatorMemory(db, f"{kind}[{label}]", budget)
    memory.negotiate()
    return memory


def _run_step_scan(
    db: Database, step: ScanStep, pipeline, table, first_page, last_page
) -> Generator:
    """Run one physical scan feeding ``pipeline``; returns its result."""
    # A sharing scan may start mid-range and wrap, so a step that needs
    # rows in physical order runs unshared (paper §4.1).
    shared = db.sharing_enabled and not step.requires_order
    scan = TableScan(
        db, step.table, first_page, last_page, pipeline.process_run,
        record_visits=db.config.record_page_visits,
        sharing=db.sharing if shared else None,
        estimated_speed=(
            _estimate_scan_speed(db, step, table.schema.rows_per_page)
            if shared else None
        ),
    )
    result = yield from scan.run()
    return result


def _execute_step(
    db: Database,
    step: ScanStep,
    index: int,
    join_state: Optional[Dict[str, object]] = None,
) -> Generator:
    if step.via_index:
        return (yield from _execute_index_step(db, step, index))
    if join_state is None:
        join_state = {}
    label = step.label or f"step{index}"
    table = db.catalog.table(step.table)
    first_page, last_page = step.page_range(table)
    if step.join_probe_key is not None:
        return (
            yield from _execute_probe_step(
                db, step, label, table, first_page, last_page, join_state
            )
        )
    memory = None
    if step.join_build_key is not None:
        # A fresh build releases whatever a previous join left behind.
        _release_join_state(join_state)
        memory = _negotiate_memory(db, step, label, "join")
    else:
        memory = _negotiate_memory(db, step, label, "agg")
    pipeline = step.build_pipeline(
        db.cost, memory=memory, agg_strategy=db.config.agg_strategy,
        run_cache=db.run_cache,
    )
    scan_result = yield from _run_step_scan(
        db, step, pipeline, table, first_page, last_page
    )
    if pipeline.needs_finalize:
        # Spilled state merges back here — temp reads and merge CPU land
        # on the simulated clock after the scan itself finished.
        yield from pipeline.finalize(db)
    values = pipeline.result()
    operator_stats = None
    terminal = _terminal_operator(pipeline)
    if memory is not None:
        operator_stats = dict(memory.stats())
        spill = getattr(terminal, "spill", None)
        if spill is not None:
            operator_stats.update(spill.as_dict())
    if step.join_build_key is not None:
        # Keep the reservation: probe passes run under it (and compete
        # with scans for the remaining frames).  Released after probing.
        join_state["table"] = values
        join_state["sink"] = terminal
        join_state["memory"] = memory
    elif memory is not None:
        memory.release()
    return StepResult(
        label=label, scan=scan_result, values=values,
        operator_stats=operator_stats,
    )


def _execute_probe_step(
    db: Database,
    step: ScanStep,
    label: str,
    table,
    first_page: int,
    last_page: int,
    join_state: Dict[str, object],
) -> Generator:
    """Run the probe side of a join as one or more multibuffer passes.

    When the build table needs more frames than the join's reservation
    holds, the probe range is scanned once per chunk — the multibuffer
    trade of extra probe I/O for bounded memory.  Each pass counts
    matches only for its chunk's keys, so the summed counts equal the
    single-pass join result exactly.
    """
    from repro.engine.spill import chunk_factor, split_chunks

    build_table = join_state.get("table") or {}
    sink = join_state.get("sink")
    memory = join_state.get("memory")
    pages_needed = sink.pages_needed if sink is not None else 0
    granted = memory.pages if memory is not None else 1
    n_chunks = chunk_factor(pages_needed, max(1, granted))
    combined_scan: Optional[ScanResult] = None
    rows_probed = 0
    matches = 0
    for chunk_table in split_chunks(build_table, n_chunks):
        pipeline = step.build_pipeline(db.cost, join_table=chunk_table)
        scan_result = yield from _run_step_scan(
            db, step, pipeline, table, first_page, last_page
        )
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
    if memory is not None:
        operator_stats.update(memory.stats())
    if sink is not None and getattr(sink, "spill", None) is not None:
        operator_stats.update(sink.spill.as_dict())
    _release_join_state(join_state)
    assert combined_scan is not None
    return StepResult(
        label=label,
        scan=combined_scan,
        values={"rows_probed": rows_probed, "matches": matches,
                "chunks": n_chunks},
        operator_stats=operator_stats,
    )


def _execute_index_step(db: Database, step: ScanStep, index: int) -> Generator:
    """Run one step as a block-index scan (IXSCAN or SISCAN)."""
    from repro.extensions.index_sharing.siscan import IndexScan, SharedIndexScan
    from repro.workloads.tpch_schema import DATE_RANGE_DAYS

    block_index = db.block_index(step.table)
    table = db.catalog.table(step.table)
    # Resolve the step's range as a fraction of the index key domain.
    if step.fraction is not None:
        lo_frac, hi_frac = step.fraction
    elif step.cluster_range is not None:
        cluster = table.schema.clustering_column
        span = (cluster.high - cluster.low) if cluster else DATE_RANGE_DAYS
        low = cluster.low if cluster else 0.0
        lo_frac = min(max((step.cluster_range[0] - low) / span, 0.0), 1.0)
        hi_frac = min(max((step.cluster_range[1] - low) / span, 0.0), 1.0)
    else:
        lo_frac, hi_frac = 0.0, 1.0
    first_entry, last_entry = block_index.entries_for_key_fraction(lo_frac, hi_frac)
    pipeline = step.build_pipeline(db.cost, run_cache=db.run_cache)
    if db.sharing_enabled and not step.requires_order:
        scan = SharedIndexScan(
            db, block_index, db.index_sharing_manager(step.table),
            first_entry, last_entry, on_run=pipeline.process_run,
        )
    else:
        scan = IndexScan(
            db, block_index, first_entry, last_entry,
            on_run=pipeline.process_run,
        )
    index_result = yield from scan.run()
    # Adapt the index-scan result to the ScanResult shape steps report.
    scan_result = ScanResult(
        table_name=step.table,
        first_page=0,
        last_page=table.n_pages - 1,
        start_page=index_result.start_entry,
        pages_scanned=index_result.pages_fixed,
        rows_seen=index_result.pages_fixed * table.schema.rows_per_page,
        cpu_seconds=index_result.cpu_seconds,
        throttle_seconds=index_result.throttle_seconds,
        started_at=index_result.started_at,
        finished_at=index_result.finished_at,
    )
    return StepResult(
        label=step.label or f"step{index}", scan=scan_result,
        values=pipeline.result(),
    )


def _estimate_scan_speed(db: Database, step: ScanStep, rows_per_page: int) -> float:
    """Optimizer-style speed estimate: bounded by CPU or I/O per page
    (memoised per database, as every execution of a step asks)."""
    key = (step.run_key, rows_per_page)
    speed = db.speed_estimates.get(key)
    if speed is None:
        pipeline = step.build_pipeline(db.cost)
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
