"""The query service: arrivals → weighted-fair queues → admission → engine.

:class:`QueryService` owns one run over one
:class:`~repro.engine.database.Database`.  Per-class producers (open
arrival plans or closed looping streams) submit requests into per-class
admission queues; a weighted-fair selector hands admission slots to the
class owed the next one; the
:class:`~repro.service.controller.AdmissionController` bounds how many
slots exist at all, shrinking under bufferpool/scan backpressure.
Admitted requests run as ordinary
:func:`~repro.engine.executor.execute_query` processes, so the shared
scan engine, tracing, fault injection, and metrics collection all see
exactly the workload a closed harness would have produced.

Determinism: every stochastic choice derives from the database seed via
:func:`~repro.workloads.arrivals.stable_hash` (per class, per closed
stream), all queue decisions are pure
functions of event order, and the simulator dispatches ties in push
order — so a run is a pure function of ``(ServiceSpec, SystemConfig)``.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Generator, List, Tuple

import numpy as np

from repro.engine.database import Database
from repro.engine.executor import execute_query
from repro.service.controller import AdmissionController
from repro.service.metrics import ServiceResult, compute_class_metrics
from repro.service.queues import AdmissionQueue, QueryRequest, WeightedFairSelector
from repro.service.spec import ServiceClass, ServiceSpec
from repro.sim.events import Event
from repro.trace.events import (
    ServiceAbandoned,
    ServiceAdmitted,
    ServiceArrival,
    ServiceCompleted,
)
import repro.trace.tracer as trace_slot
from repro.workloads.arrivals import (
    ArrivalPlan,
    Closed,
    plan_arrivals,
    query_mix,
    stable_hash,
)


class QueryService:
    """One admission-controlled service run over a database."""

    def __init__(self, db: Database, spec: ServiceSpec, scenario: str = ""):
        self.db = db
        self.spec = spec
        self.scenario = scenario
        self.controller = AdmissionController(db, spec.controller)
        self.controller.on_increase = self._try_admit
        self._queues: Dict[str, AdmissionQueue] = {
            cls.name: AdmissionQueue(cls) for cls in spec.classes
        }
        self._selector = WeightedFairSelector(list(self._queues.values()))
        self._requests: Dict[str, List[QueryRequest]] = {
            cls.name: [] for cls in spec.classes
        }
        self._next_request_id = 0
        self._running = 0
        self._producers = 0
        self._in_system = 0
        self._in_system_samples: List[Tuple[float, int]] = []
        self._peak_running = 0
        self._peak_in_system = 0
        self._last_resolved = 0.0
        self._failures: List[BaseException] = []

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self) -> ServiceResult:
        """Drive the whole service to completion and reduce to a result."""
        base_seed = self.db.config.seed
        for cls in self.spec.classes:
            seed = stable_hash("repro.service", base_seed, cls.name)
            if isinstance(cls.arrival, Closed):
                for stream in range(cls.arrival.n_streams):
                    self._producers += 1
                    self.db.sim.spawn(
                        self._closed_producer(cls, seed, stream),
                        name=f"{cls.name}-stream-{stream}",
                    )
                continue
            if isinstance(cls.arrival, ArrivalPlan):
                plan = cls.arrival
            else:
                plan = plan_arrivals(
                    cls.arrival, self.spec.horizon, seed=seed,
                    query_names=cls.query_names,
                    query_weights=cls.query_weights,
                    max_arrivals=self.spec.max_arrivals_per_class,
                )
            self._producers += 1
            self.db.sim.spawn(
                self._open_producer(cls, plan), name=f"arrivals-{cls.name}"
            )
        self.controller.start()
        self.db.sim.run()
        process = self.controller.process
        if process is not None and process.completion.triggered \
                and process.completion.failed:
            raise process.completion.value
        if self._failures:
            raise self._failures[0]
        return self._build_result()

    def _open_producer(self, cls: ServiceClass, plan: ArrivalPlan) -> Generator:
        last = 0.0
        for arrival in plan.arrivals:
            yield self.db.sim.timeout(arrival.time - last)
            last = arrival.time
            self._submit(cls, arrival.query)
        self._producer_done()

    def _closed_producer(
        self, cls: ServiceClass, seed: int, stream: int
    ) -> Generator:
        rng = np.random.default_rng((seed, stream))
        draw = query_mix(f"class {cls.name}", cls.query_names, cls.query_weights)
        while self.db.sim.now < self.spec.horizon:
            request = self._submit(cls, draw(rng))
            yield request.completion
        self._producer_done()

    def _producer_done(self) -> None:
        self._producers -= 1
        self._maybe_finished()

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------

    def _submit(self, cls: ServiceClass, query) -> QueryRequest:
        now = self.db.sim.now
        request = QueryRequest(
            request_id=self._next_request_id,
            class_name=cls.name,
            query=query,
            arrived_at=now,
            completion=self.db.sim.event(),
        )
        self._next_request_id += 1
        queue = self._queues[cls.name]
        queue.push(request, now)
        self._requests[cls.name].append(request)
        self._note_in_system(+1)
        tracer = trace_slot.active
        if tracer is not None:
            tracer.emit(ServiceArrival(
                time=now, request_id=request.request_id,
                service_class=cls.name, query=query.name,
                queue_len=len(queue),
            ))
        if cls.patience is not None:
            self.db.sim.schedule(cls.patience, partial(self._abandon, request))
        self._try_admit()
        return request

    def _abandon(self, request: QueryRequest) -> None:
        """Patience timer fired; a no-op unless the request still waits."""
        if request.admitted or request.resolved:
            return
        now = self.db.sim.now
        queue = self._queues[request.class_name]
        if not queue.remove(request, now):
            return
        request.abandoned_at = now
        self._note_in_system(-1)
        self._last_resolved = now
        tracer = trace_slot.active
        if tracer is not None:
            tracer.emit(ServiceAbandoned(
                time=now, request_id=request.request_id,
                service_class=request.class_name,
                waited=request.admission_wait,
            ))
        request.completion.succeed(None)
        self._maybe_finished()

    def _try_admit(self) -> None:
        """Admit from the fairest eligible queue while slots remain."""
        while self.controller.has_slot(self._running):
            queue = self._selector.select()
            if queue is None:
                return
            now = self.db.sim.now
            request = queue.pop(now)
            self._selector.charge(queue)
            request.admitted_at = now
            queue.running += 1
            self._running += 1
            self._peak_running = max(self._peak_running, self._running)
            tracer = trace_slot.active
            if tracer is not None:
                tracer.emit(ServiceAdmitted(
                    time=now, request_id=request.request_id,
                    service_class=request.class_name,
                    waited=request.admission_wait,
                    running=self._running,
                ))
            process = self.db.sim.spawn(
                execute_query(self.db, request.query,
                              stream_id=request.request_id),
                name=f"request-{request.request_id}",
            )
            process.completion.add_callback(
                partial(self._on_query_done, request, queue)
            )

    def _on_query_done(
        self, request: QueryRequest, queue: AdmissionQueue, event: Event
    ) -> None:
        now = self.db.sim.now
        queue.running -= 1
        self._running -= 1
        request.finished_at = now
        self._note_in_system(-1)
        self._last_resolved = now
        if event.failed:
            self._failures.append(event.value)
        tracer = trace_slot.active
        if tracer is not None:
            tracer.emit(ServiceCompleted(
                time=now, request_id=request.request_id,
                service_class=request.class_name,
                latency=request.latency, waited=request.admission_wait,
            ))
        request.completion.succeed(None)
        self._maybe_finished()
        self._try_admit()

    def _note_in_system(self, delta: int) -> None:
        self._in_system += delta
        self._peak_in_system = max(self._peak_in_system, self._in_system)
        self._in_system_samples.append((self.db.sim.now, self._in_system))

    def _maybe_finished(self) -> None:
        if self._producers == 0 and self._in_system == 0:
            self.controller.stop()

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------

    def _build_result(self) -> ServiceResult:
        from repro.metrics.report import percentile

        span = self._last_resolved if self._last_resolved > 0 else self.spec.horizon
        stats = self.db.pool.stats
        miss_rate = (
            stats.misses / stats.logical_reads if stats.logical_reads else 0.0
        )
        populations = [count for _, count in self._in_system_samples]
        result = ServiceResult(
            scenario=self.scenario,
            horizon=self.spec.horizon,
            end_time=self._last_resolved,
            classes=[
                compute_class_metrics(
                    cls, self._requests[cls.name], self._queues[cls.name], span,
                    cls.arrival.offered_rate(self.spec.horizon),
                )
                for cls in self.spec.classes
            ],
            controller_enabled=self.spec.controller.enabled,
            mpl_final=self.controller.mpl,
            mpl_min=self.controller.stats.min_mpl_seen,
            mpl_max=self.controller.stats.max_mpl_seen,
            mpl_increases=self.controller.stats.increases,
            mpl_decreases=self.controller.stats.decreases,
            controller_ticks=self.controller.stats.ticks,
            peak_running=self._peak_running,
            peak_in_system=self._peak_in_system,
            in_system_p99=percentile(populations, 99) if populations else 0.0,
            buffer_hit_ratio=stats.hit_ratio,
            buffer_miss_rate=miss_rate,
            pages_read=self.db.disk.stats.pages_read,
            drained=self._producers == 0 and self._in_system == 0,
        )
        return result
