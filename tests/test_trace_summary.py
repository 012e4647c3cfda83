"""Trace-summary tests under interleaved multi-stream runs.

``summarize``/``render_summary`` were previously only exercised on toy
hand-built traces; here they run against real interleaved workloads — six staggered streams over a small
pool, and a full service-scenario run — where many scans' register /
throttle / deregister threads overlap in one event stream.
"""

from __future__ import annotations

import pytest

from repro.core.config import SharingConfig
from repro.engine.executor import run_workload
from repro.trace import RingBufferSink, summarize, tracing

from tests.conftest import make_database, uniform_scan_query


@pytest.fixture(scope="module")
def interleaved_events():
    """Six staggered streams over a 24-frame pool: scans overlap heavily."""
    db = make_database(n_pages=96, pool_pages=24,
                       sharing=SharingConfig(enabled=True))
    streams = [
        [uniform_scan_query("t", 0.0, 1.0, name=f"q{i}")] for i in range(6)
    ]
    sink = RingBufferSink(capacity=None)
    with tracing(sink):
        run_workload(db, streams, stagger=0.003)
    return sink.events()


class TestInterleavedOrdering:
    def test_seq_strictly_increasing_across_streams(self, interleaved_events):
        seqs = [e.seq for e in interleaved_events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_time_never_runs_backwards(self, interleaved_events):
        times = [e.time for e in interleaved_events]
        assert times == sorted(times)

    def test_scan_lifetimes_actually_overlap(self, interleaved_events):
        """The fixture must genuinely interleave, or the module tests nothing."""
        live = 0
        peak = 0
        for event in interleaved_events:
            if event.category != "manager":
                continue
            if event.kind == "register":
                live += 1
                peak = max(peak, live)
            elif event.kind in ("deregister", "abort"):
                live -= 1
        assert peak >= 3

    def test_summary_counts_match_manual_count(self, interleaved_events):
        summary = summarize(interleaved_events)
        assert summary["n_events"] == len(interleaved_events)
        registers = sum(
            1 for e in interleaved_events
            if e.category == "manager" and e.kind == "register"
        )
        assert summary["counts"]["manager.register"] == registers == 6


class TestServiceRunAttribution:
    def test_service_scenario_trace_attributes_cleanly(self):
        from repro.experiments.harness import ExperimentSettings
        from repro.service.scenarios import run_scenario

        sink = RingBufferSink(capacity=None)
        with tracing(sink):
            result = run_scenario("steady", ExperimentSettings(scale=0.1, seed=42))
        events = sink.events()
        manager = [e for e in events if e.category == "manager"]
        registered = {e.scan_id for e in manager if e.kind == "register"}
        ended = [e.scan_id for e in manager if e.kind in ("deregister", "abort")]
        # Every admitted request ran >= 1 scan; each scan that ended was
        # registered first, and none ended twice.
        assert len(registered) >= result.n_completed
        assert ended and set(ended) <= registered
        assert len(ended) == len(set(ended))
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
