"""Tests for the structured event-tracing subsystem (repro.trace)."""

import json

import pytest

from repro.core.config import SharingConfig
from repro.engine.executor import run_workload
from repro.metrics.export import trace_to_jsonl
from repro.sim.kernel import Simulator
from repro.trace import (
    BufferFix,
    JsonlSink,
    NullSink,
    RingBufferSink,
    SimDispatch,
    Tracer,
    get_tracer,
    render_summary,
    set_tracer,
    summarize,
    tracing,
)
from repro.workloads.synthetic import uniform_scan_query

from tests.conftest import make_database


def fix_event(i):
    return BufferFix(time=float(i), space_id=0, page_no=i, outcome="hit")


def run_traced_workload(sink):
    db = make_database(n_pages=64, pool_pages=24,
                       sharing=SharingConfig(enabled=True))
    streams = [
        [uniform_scan_query("t", 0.0, 1.0, name=f"q{i}")] for i in range(2)
    ]
    with tracing(sink):
        result = run_workload(db, streams, stagger=0.002)
    return result


class TestTracer:
    def test_disabled_by_default(self):
        tracer = Tracer()
        assert not tracer.enabled
        tracer.emit(fix_event(0))  # must be a silent no-op
        assert tracer.events_emitted == 0

    def test_global_tracer_starts_disabled(self):
        assert not get_tracer().enabled

    def test_emit_stamps_increasing_seq(self):
        sink = RingBufferSink(capacity=None)
        tracer = Tracer([sink])
        for i in range(5):
            tracer.emit(fix_event(i))
        assert [e.seq for e in sink.events()] == [1, 2, 3, 4, 5]
        assert tracer.events_emitted == 5

    def test_emit_fans_out_to_all_sinks(self):
        a, b = RingBufferSink(), RingBufferSink()
        tracer = Tracer([a, b])
        tracer.emit(fix_event(0))
        assert len(a) == len(b) == 1

    def test_tracing_context_installs_and_restores(self):
        before = get_tracer()
        with tracing(NullSink()) as tracer:
            assert get_tracer() is tracer
            assert tracer.enabled
        assert get_tracer() is before
        assert not tracer.enabled  # sinks closed and detached on exit

    def test_set_tracer_returns_previous(self):
        replacement = Tracer()
        previous = set_tracer(replacement)
        try:
            assert get_tracer() is replacement
        finally:
            set_tracer(previous)


class TestRingBufferSink:
    def test_bounded_capacity_keeps_most_recent(self):
        sink = RingBufferSink(capacity=10)
        tracer = Tracer([sink])
        for i in range(50):
            tracer.emit(fix_event(i))
        assert len(sink) == 10
        assert sink.total_seen == 50
        assert [e.seq for e in sink.events()] == list(range(41, 51))

    def test_unbounded_keeps_everything(self):
        sink = RingBufferSink(capacity=None)
        tracer = Tracer([sink])
        for i in range(50):
            tracer.emit(fix_event(i))
        assert len(sink) == sink.total_seen == 50

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_counts_by_category(self):
        sink = RingBufferSink()
        tracer = Tracer([sink])
        tracer.emit(fix_event(0))
        tracer.emit(SimDispatch(time=0.0, queue_len=1))
        assert sink.counts_by_category == {"buffer": 1, "sim": 1}


class TestWorkloadTracing:
    def test_events_in_emission_and_time_order(self):
        sink = RingBufferSink(capacity=None)
        run_traced_workload(sink)
        events = sink.events()
        assert events
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        times = [e.time for e in events]
        assert times == sorted(times)  # simulated time never runs backwards

    def test_all_layers_emit(self):
        sink = RingBufferSink(capacity=None)
        run_traced_workload(sink)
        categories = {e.category for e in sink.events()}
        assert {"sim", "disk", "buffer", "manager", "query"} <= categories

    def test_tracing_does_not_perturb_results(self):
        """Attaching a tracer must not change any simulated outcome."""
        streams = [
            [uniform_scan_query("t", 0.0, 1.0, name=f"q{i}")] for i in range(2)
        ]

        def run_once(traced):
            db = make_database(n_pages=64, pool_pages=24,
                               sharing=SharingConfig(enabled=True))
            if traced:
                with tracing(RingBufferSink(capacity=None)):
                    result = run_workload(db, streams, stagger=0.002)
            else:
                result = run_workload(db, streams, stagger=0.002)
            return (result.makespan, result.pages_read, result.seeks)

        assert run_once(traced=False) == run_once(traced=True)

    def test_disabled_tracer_emits_nothing(self):
        tracer = get_tracer()
        assert not tracer.enabled
        emitted_before = tracer.events_emitted
        db = make_database(n_pages=64, pool_pages=24)
        streams = [[uniform_scan_query("t", 0.0, 1.0, name="q")]]
        run_workload(db, streams)
        assert tracer.events_emitted == emitted_before
        assert not tracer.enabled

    def test_dispatch_traced_still_emits_every_event(self):
        """The hoisted tracer handle must not drop or duplicate dispatches."""
        sim = Simulator()
        n = 500
        for i in range(n):
            sim.timeout(float(i))
        with tracing(RingBufferSink(capacity=10 * n)) as tracer:
            sim.run()
        assert tracer.events_emitted == n


class TestJsonlSink:
    def test_jsonl_file_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        ring = RingBufferSink(capacity=None)
        sink = JsonlSink(str(path))
        db = make_database(n_pages=64, pool_pages=24,
                           sharing=SharingConfig(enabled=True))
        streams = [[uniform_scan_query("t", 0.0, 1.0, name="q")]]
        with tracing(ring, sink):
            run_workload(db, streams)
        lines = path.read_text().splitlines()
        assert len(lines) == sink.events_written == ring.total_seen > 0
        parsed = [json.loads(line) for line in lines]
        assert parsed == [e.to_dict() for e in ring.events()]
        for record in parsed:
            assert {"seq", "category", "kind", "time"} <= record.keys()

    def test_trace_to_jsonl_matches_to_dict(self):
        events = [fix_event(0), SimDispatch(time=1.0, queue_len=2)]
        tracer = Tracer([NullSink()])
        for event in events:
            tracer.emit(event)
        lines = trace_to_jsonl(events).splitlines()
        assert [json.loads(line) for line in lines] == [
            e.to_dict() for e in events
        ]


class TestSummary:
    def test_summarize_counts_and_span(self):
        events = [fix_event(0), fix_event(3), SimDispatch(time=1.0, queue_len=0)]
        summary = summarize(events)
        assert summary["n_events"] == 3
        assert summary["first_time"] == 0.0
        assert summary["last_time"] == 3.0
        assert summary["counts"] == {"buffer.fix": 2, "sim.dispatch": 1}

    def test_render_summary_mentions_truncation(self):
        events = [fix_event(i) for i in range(3)]
        text = render_summary(events, total_seen=10)
        assert "buffer.fix" in text
        assert "3/10" in text

    def test_render_summary_empty(self):
        assert "no events" in render_summary([])
