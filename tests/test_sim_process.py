"""Unit tests for generator-based processes."""

import pytest

from repro.sim.events import SimulationError
from repro.sim.kernel import Simulator


class TestProcessBasics:
    def test_process_runs_to_completion(self, sim):
        def worker(sim):
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)
            return "done"

        proc = sim.spawn(worker(sim))
        sim.run()
        assert not proc.alive
        assert proc.completion.value == "done"
        assert sim.now == 3.0

    def test_process_receives_event_value(self, sim):
        def worker(sim):
            value = yield sim.timeout(1.0, value="payload")
            return value

        proc = sim.spawn(worker(sim))
        sim.run()
        assert proc.completion.value == "payload"

    def test_requires_generator(self, sim):
        with pytest.raises(SimulationError):
            sim.spawn(lambda: None)  # not a generator

    def test_yielding_non_event_raises(self, sim):
        def bad(sim):
            yield 42

        sim.spawn(bad(sim))
        with pytest.raises(SimulationError):
            sim.run()

    def test_processes_interleave_by_time(self, sim):
        order = []

        def worker(sim, name, delay):
            yield sim.timeout(delay)
            order.append(name)

        sim.spawn(worker(sim, "slow", 2.0))
        sim.spawn(worker(sim, "fast", 1.0))
        sim.run()
        assert order == ["fast", "slow"]

    def test_process_can_wait_on_another(self, sim):
        def producer(sim):
            yield sim.timeout(1.0)
            return 99

        def consumer(sim, producer_proc):
            value = yield producer_proc.completion
            return value + 1

        prod = sim.spawn(producer(sim))
        cons = sim.spawn(consumer(sim, prod))
        sim.run()
        assert cons.completion.value == 100

    def test_exception_propagates_through_wait(self, sim):
        def failing(sim):
            ev = sim.event()
            sim.schedule(1.0, lambda: ev.fail(RuntimeError("inner")))
            try:
                yield ev
            except RuntimeError as error:
                return f"caught {error}"

        proc = sim.spawn(failing(sim))
        sim.run()
        assert proc.completion.value == "caught inner"

    def test_process_return_none_by_default(self, sim):
        def worker(sim):
            yield sim.timeout(0.5)

        proc = sim.spawn(worker(sim))
        sim.run()
        assert proc.completion.value is None
