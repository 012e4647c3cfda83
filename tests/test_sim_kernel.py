"""Unit tests for the simulator event loop."""

import pytest

from repro.sim.events import SimulationError, Timeout
from repro.sim.kernel import Simulator


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_advances_with_events(self, sim):
        sim.schedule(2.5, lambda: None)
        sim.run()
        assert sim.now == 2.5

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-0.1)

    def test_run_until_stops_clock(self, sim):
        fired = []
        sim.schedule(10.0, lambda: fired.append(True))
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert not fired
        sim.run()
        assert fired

    def test_run_until_past_last_event_advances_clock(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_empty_run_returns_zero(self, sim):
        assert sim.run() == 0.0


class TestUntilSemantics:
    """The single-pop dispatch must not change any ``until`` behavior."""

    def test_event_beyond_until_survives_and_fires_later(self, sim):
        fired = []
        sim.schedule(3.0, lambda: fired.append("early"))
        sim.schedule(10.0, lambda: fired.append("late"))
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert fired == ["early"]
        sim.run()
        assert sim.now == 10.0
        assert fired == ["early", "late"]

    def test_requeued_entry_keeps_same_instant_insertion_order(self, sim):
        """Ties at the same time fire in insertion order even when the
        first run stopped short and re-pushed the popped entry."""
        fired = []
        for tag in ("a", "b", "c"):
            sim.schedule(7.0, lambda tag=tag: fired.append(tag))
        sim.run(until=2.0)
        assert fired == []
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_until_exactly_at_event_time_fires_the_event(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append(True))
        sim.run(until=5.0)
        assert fired == [True]
        assert sim.now == 5.0

    def test_repeated_bounded_runs_drain_in_order(self, sim):
        fired = []
        for t in (1.0, 2.0, 3.0, 4.0):
            sim.schedule(t, lambda t=t: fired.append(t))
        for bound in (1.5, 2.5, 3.5, 4.5):
            sim.run(until=bound)
            assert sim.now == bound
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_bound_in_the_past_leaves_the_clock_alone(self, sim):
        fired = []
        sim.schedule(10.0, lambda: fired.append(sim.now))
        sim.schedule(20.0, lambda: fired.append(sim.now))
        assert sim.run(until=10.0) == 10.0
        assert sim.run(until=5.0) == 10.0
        assert sim.now == 10.0 and fired == [10.0]
        # Scheduling relative to the unmoved clock still works.
        sim.timeout(1.0)
        sim.schedule(0.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [10.0, 10.0, 20.0]

    def test_callbacks_scheduled_during_bounded_run_respect_bound(self, sim):
        fired = []

        def chain():
            fired.append(sim.now)
            sim.schedule(2.0, chain)

        sim.schedule(0.0, chain)
        sim.run(until=5.0)
        assert fired == [0.0, 2.0, 4.0]
        assert sim.now == 5.0


class TestTimeout:
    def test_timeout_event_is_lambda_free(self, sim):
        ev = sim.timeout(1.0, "payload")
        assert isinstance(ev, Timeout)
        # The queue holds the event itself as its own callback.
        assert sim._queue._heap[0][2] is ev

    def test_timeout_delivers_value(self, sim):
        def worker(sim):
            value = yield sim.timeout(2.0, "tick")
            return value

        proc = sim.spawn(worker(sim))
        sim.run()
        assert proc.completion.value == "tick"
        assert sim.now == 2.0


class TestAllOf:
    def test_all_of_collects_values(self, sim):
        def worker(sim):
            events = [sim.timeout(1.0, "a"), sim.timeout(2.0, "b")]
            values = yield sim.all_of(events)
            return values

        proc = sim.spawn(worker(sim))
        sim.run()
        assert proc.completion.value == ["a", "b"]
        assert sim.now == 2.0

    def test_all_of_empty_succeeds_immediately(self, sim):
        combined = sim.all_of([])
        assert combined.triggered
        assert combined.value == []

    def test_all_of_fails_on_first_failure(self, sim):
        def worker(sim):
            bad = sim.event()
            sim.schedule(1.0, lambda: bad.fail(ValueError("nope")))
            try:
                yield sim.all_of([sim.timeout(5.0), bad])
            except ValueError:
                return "failed fast"

        proc = sim.spawn(worker(sim))
        sim.run()
        assert proc.completion.value == "failed fast"

    def test_all_of_detaches_from_pending_events_after_failure(self, sim):
        """After the combined event fails, the still-pending constituents
        must no longer carry the aggregation callback (regression: the
        dead callback used to linger and fire on each later trigger)."""
        bad = sim.event()
        pending = [sim.event(), sim.event()]
        combined = sim.all_of([bad] + pending)
        assert all(len(ev._callbacks) == 1 for ev in pending)
        bad.fail(ValueError("boom"))
        sim.run()
        assert combined.failed
        assert all(ev._callbacks == [] for ev in pending)
        # Late triggers of the survivors are now inert.
        for ev in pending:
            ev.succeed("late")
        sim.run()
        assert combined.failed
        assert isinstance(combined.value, ValueError)


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def trace_run():
            sim = Simulator()
            log = []

            def worker(sim, name, delays):
                for delay in delays:
                    yield sim.timeout(delay)
                    log.append((sim.now, name))

            sim.spawn(worker(sim, "a", [0.5, 0.5, 1.0]))
            sim.spawn(worker(sim, "b", [1.0, 0.5, 0.5]))
            sim.spawn(worker(sim, "c", [0.7, 0.7]))
            sim.run()
            return log

        assert trace_run() == trace_run()


class TestNonFiniteDelays:
    """NaN/inf delays must raise immediately instead of corrupting the
    queue: ``delay < 0`` is False for NaN, so the old guard let a
    NaN-timed entry poison the heap ordering silently."""

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), -1.0, -0.001])
    def test_schedule_rejects_bad_delay(self, sim, delay):
        with pytest.raises(SimulationError):
            sim.schedule(delay, lambda: None)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), -1.0])
    def test_timeout_rejects_bad_delay(self, sim, delay):
        with pytest.raises(SimulationError):
            sim.timeout(delay)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), -1.0])
    def test_schedule_many_rejects_bad_delay(self, sim, delay):
        with pytest.raises(SimulationError):
            sim.schedule_many(delay, [lambda: None])

    def test_queue_stays_usable_after_rejected_delay(self, sim):
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.now))
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: seen.append("poison"))
        sim.run()
        assert seen == [1.0]


class TestScheduleMany:
    def test_runs_in_order_interleaved_with_singles(self, sim):
        seen = []
        sim.schedule(0.0, lambda: seen.append("a"))
        sim.schedule_many(0.0, [lambda: seen.append("b"), lambda: seen.append("c")])
        sim.schedule(0.0, lambda: seen.append("d"))
        sim.run()
        assert seen == ["a", "b", "c", "d"]

    def test_future_batch_keeps_order(self, sim):
        seen = []
        sim.schedule_many(2.0, [lambda i=i: seen.append(i) for i in range(4)])
        sim.schedule(1.0, lambda: seen.append("early"))
        sim.run()
        assert seen == ["early", 0, 1, 2, 3]
        assert sim.now == 2.0


class TestDispatchTracing:
    def _dispatch_times(self):
        from repro.trace.events import SimDispatch
        from repro.trace.tracer import Tracer, set_tracer

        class ListSink:
            def __init__(self):
                self.events = []

            def write(self, event):
                self.events.append(event)

        sink = ListSink()
        previous = set_tracer(Tracer([sink]))
        try:
            sim = Simulator()
            for i in range(1, 7):
                sim.schedule(float(i), lambda: None)
            sim.run()
        finally:
            set_tracer(previous)
        return [e for e in sink.events if isinstance(e, SimDispatch)]

    def test_every_dispatch_is_traced(self):
        assert len(self._dispatch_times()) == 6
