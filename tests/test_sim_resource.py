"""Unit tests for counted FIFO resources."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.events import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.resource import Resource


def hold(sim, resource, duration, log, name):
    yield resource.acquire()
    log.append(("start", name, sim.now))
    yield sim.timeout(duration)
    resource.release()
    log.append(("end", name, sim.now))


class TestResource:
    def test_capacity_must_be_positive(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, 0)

    def test_grants_up_to_capacity(self, sim):
        res = Resource(sim, 2)
        log = []
        for name in ("a", "b", "c"):
            sim.spawn(hold(sim, res, 1.0, log, name))
        sim.run()
        starts = {name: t for kind, name, t in log if kind == "start"}
        assert starts["a"] == 0.0
        assert starts["b"] == 0.0
        assert starts["c"] == 1.0  # waited for a slot

    def test_fifo_grant_order(self, sim):
        res = Resource(sim, 1)
        log = []
        for name in ("first", "second", "third"):
            sim.spawn(hold(sim, res, 1.0, log, name))
        sim.run()
        start_order = [name for kind, name, _ in log if kind == "start"]
        assert start_order == ["first", "second", "third"]

    def test_release_without_acquire_raises(self, sim):
        res = Resource(sim, 1)
        with pytest.raises(SimulationError):
            res.release()

    def test_in_use_and_queue_length(self, sim):
        res = Resource(sim, 1)
        log = []
        sim.spawn(hold(sim, res, 5.0, log, "holder"))
        sim.spawn(hold(sim, res, 1.0, log, "waiter"))
        sim.run(until=1.0)
        assert res.in_use == 1
        assert res.queue_length == 1

    def test_busy_time_integral(self, sim):
        res = Resource(sim, 2)
        log = []
        sim.spawn(hold(sim, res, 2.0, log, "a"))
        sim.spawn(hold(sim, res, 4.0, log, "b"))
        sim.run()
        # a holds for 2s, b for 4s -> 6 slot-seconds.
        points = list(res.busy_timeline.change_points())
        busy = sum(level * (end - start)
                   for (start, level), (end, _next) in zip(points, points[1:]))
        assert busy == pytest.approx(6.0)

    def test_busy_timeline_levels(self, sim):
        res = Resource(sim, 2)
        log = []
        sim.spawn(hold(sim, res, 1.0, log, "a"))
        sim.spawn(hold(sim, res, 2.0, log, "b"))
        sim.run()
        timeline = res.busy_timeline
        assert timeline.level_at(0.5) == 2
        assert timeline.level_at(1.5) == 1
        assert timeline.level_at(2.5) == 0


# ----------------------------------------------------------------------
# Resource.hold: the one-call form of acquire -> timeout -> release
# ----------------------------------------------------------------------


def three_step(sim, res, seconds):
    """The form ``hold`` replaces, written out: the reference."""
    yield res.acquire()
    try:
        yield sim.timeout(seconds)
    finally:
        res.release()


def one_call(sim, res, seconds):
    held = res.hold(seconds)
    if held is not None:
        yield held


def run_in_process(sim, body):
    """Run ``body()`` inside a process at time 0 and return its result."""
    out = []

    def proc():
        out.append(body())
        return
        yield

    sim.spawn(proc())
    return out


class TestHoldInline:
    def test_quiet_hold_moves_the_clock_without_an_event(self, sim):
        res = Resource(sim, 1)
        seen = []

        def proc():
            seen.append(res.hold(1.5))
            seen.append((sim.now, sim._queue.time, res.in_use, len(sim._queue)))
            seen.append(res.hold(0.5))
            return
            yield

        sim.spawn(proc())
        assert sim.run() == 2.0
        assert seen == [None, (1.5, 1.5, 0, 0), None]
        # Same change points as two back-to-back three-step holds.
        assert list(res.busy_timeline.change_points()) == [(0.0, 1.0), (2.0, 0.0)]

    def test_clock_does_not_rewind_when_the_heap_drains(self, sim):
        res = Resource(sim, 1)
        sim.spawn(one_call(sim, res, 3.0))
        assert sim.run() == 3.0
        assert sim.now == 3.0
        assert sim.run(until=10.0) == 10.0

    def test_work_scheduled_after_an_inline_hold_is_due_now(self, sim):
        res = Resource(sim, 1)
        times = []

        def proc():
            assert res.hold(2.0) is None
            sim.schedule(0.0, lambda: times.append(sim.now))
            yield sim.timeout(1.0)
            times.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert times == [2.0, 3.0]

    def test_ready_lane_not_empty_refuses(self, sim):
        res = Resource(sim, 1)

        def body():
            sim.schedule(0.0, lambda: None)
            return res.hold(1.0), sim.now, res.in_use

        out = run_in_process(sim, body)
        sim.run()
        held, now, in_use = out[0]
        assert held is not None and now == 0.0 and in_use == 1
        assert held.triggered and res.in_use == 0 and sim.now == 1.0

    @pytest.mark.parametrize("other_at, inline", [(1.0, False), (0.5, False), (1.5, True)])
    def test_heap_entry_at_or_before_the_expiry_refuses(self, sim, other_at, inline):
        res = Resource(sim, 1)
        order = []
        sim.schedule(other_at, lambda: order.append(("other", sim.now)))

        def proc():
            held = res.hold(1.0)
            assert (held is None) == inline
            if held is not None:
                yield held
            order.append(("holder", sim.now))

        sim.spawn(proc())
        sim.run()
        # The tie goes to the entry pushed first, as with a real timeout.
        first = ("holder", 1.0) if inline else ("other", other_at)
        assert order[0] == first and len(order) == 2

    def test_until_bound_refuses(self, sim):
        res = Resource(sim, 1)
        out = run_in_process(sim, lambda: (res.hold(1.0), res.hold(0.25)))
        assert sim.run(until=0.5) == 0.5
        late, early = out[0]
        # 0.25 <= until would have been inline had 1.0 not taken the slot.
        assert late is not None and not late.triggered and res.in_use == 1
        assert early is not None and res.queue_length == 1
        sim.run()
        assert sim.now == 1.25 and res.in_use == 0

    def test_hold_ending_exactly_at_until_is_inline(self, sim):
        res = Resource(sim, 1)
        out = run_in_process(sim, lambda: res.hold(0.5))
        assert sim.run(until=0.5) == 0.5
        assert out == [None]

    def test_outside_run_refuses(self, sim):
        res = Resource(sim, 1)
        held = res.hold(1.0)
        assert held is not None and sim.now == 0.0 and res.in_use == 1
        sim.run()
        assert held.triggered and sim.now == 1.0 and res.in_use == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-9])
    @pytest.mark.parametrize("quiet", [True, False])
    def test_bad_delay_raises_on_both_paths(self, sim, bad, quiet):
        res = Resource(sim, 1)
        if quiet:
            out = run_in_process(sim, lambda: pytest.raises(SimulationError, res.hold, bad))
            sim.run()
            assert out
        else:
            with pytest.raises(SimulationError):
                res.hold(bad)
        assert res.in_use == 0 and res.queue_length == 0 and sim.now == 0.0

    def test_busy_slot_and_waiters_refuse(self, sim):
        res = Resource(sim, 1)
        log = []
        sim.spawn(hold(sim, res, 1.0, log, "acquirer"))

        def proc():
            yield sim.timeout(0.5)
            held = res.hold(1.0)
            assert held is not None and res.queue_length == 1
            yield held
            log.append(("end", "holder", sim.now))

        sim.spawn(proc())
        sim.run()
        assert log[-1] == ("end", "holder", 2.0)


class TestHoldEvent:
    def test_a_hold_has_one_waiter(self, sim):
        res = Resource(sim, 1)
        held = res.hold(1.0)
        held.add_callback(lambda _ev: None)
        with pytest.raises(SimulationError, match="one waiter"):
            held.add_callback(lambda _ev: None)
        sim.run()
        assert held.triggered and res.in_use == 0

    def test_hold_and_acquire_share_one_fifo(self, sim):
        res = Resource(sim, 1)
        log = []

        def holder(name):
            yield from one_call(sim, res, 1.0)
            log.append(("end", name, sim.now))

        sim.spawn(hold(sim, res, 1.0, log, "a"))
        sim.spawn(holder("b"))
        sim.spawn(hold(sim, res, 1.0, log, "c"))
        sim.spawn(holder("d"))
        sim.run()
        assert [(n, t) for kind, n, t in log if kind == "end"] == [
            ("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 4.0)
        ]


class TestHoldEquivalence:
    """Random programs run the same with ``hold`` as with the three steps.

    ``hold`` skips two of the written-out form's queue hops where nothing
    can run in between: a grant made with an empty ready lane pushes its
    expiry at once, and an expiry leading its timestamp's batch has its
    finish appended directly.  The programs force both against their
    neighbours: expiries tie with plain timeouts (pushed before and after
    them), holds start with empty and non-empty ready lanes (``nudge``
    queues a zero-delay callback first), and a release grants a queued
    waiter while the releaser then sleeps to the waiter's expiry.  Each
    wrong elision fails it: every expiry treated as leading, a direct
    expiry push with a non-empty ready lane, a direct push for a grant
    made by ``release()``.
    """

    #: A coarse grid so expiries tie with each other, with plain
    #: timeouts and with the ``until`` cuts; 0 and a delay too small to
    #: move the clock are the edge cases.
    delays = st.sampled_from([0.0, 1e-18, 0.25, 0.5, 0.5, 1.0, 1.0, 1.5, 2.0])
    steps = st.lists(
        st.tuples(
            st.sampled_from(["hold", "hold", "sleep", "manual", "nudge"]),
            delays,
        ),
        max_size=6,
    )
    programs = st.lists(st.tuples(delays, steps), min_size=1, max_size=5)
    cuts = st.lists(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5]),
                    max_size=3).map(sorted)

    @staticmethod
    def execute(charge, capacity, program, cuts):
        sim = Simulator()
        res = Resource(sim, capacity)
        log = []

        def body(name, start, steps):
            yield sim.timeout(start)
            for kind, delay in steps:
                if kind == "nudge":
                    sim.schedule(0.0, lambda: None)
                    yield from charge(sim, res, delay)
                elif kind == "hold":
                    yield from charge(sim, res, delay)
                elif kind == "manual":
                    yield from three_step(sim, res, delay)
                else:
                    yield sim.timeout(delay)
                log.append((sim.now, name, res.in_use, res.queue_length))

        for name, (start, steps) in enumerate(program):
            sim.spawn(body(name, start, steps))
        clocks = [sim.run(until=cut) for cut in cuts]
        state_at_cut = (res.in_use, res.queue_length, len(log))
        clocks.append(sim.run())
        assert res.in_use == 0 and res.queue_length == 0
        return log, clocks, state_at_cut, list(res.busy_timeline.change_points())

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), programs, cuts)
    # A timeout pushed before a hold's expiry at the same instant: the
    # expiry does not lead its batch and keeps its hop.
    @example(1, [(0.0, [("sleep", 1.0)]), (0.0, [("hold", 1.0)])], [])
    # A hold's expiry pushed before a timeout at the same instant: it leads.
    @example(1, [(0.0, [("hold", 1.0)]), (0.5, [("sleep", 0.5)])], [])
    # A grant with the other process's resume still on the ready lane:
    # that resume pushes its timeout first.
    @example(1, [(0.0, [("hold", 1.0)]), (0.0, [("sleep", 1.0)])], [])
    @example(2, [(0.0, [("nudge", 1.0)]), (0.0, [("sleep", 1.0)])], [])
    # release() grants the queued hold, then the releaser sleeps to the
    # waiter's expiry instant: the releaser's timeout is pushed first.
    @example(1, [(0.0, [("hold", 1.0), ("sleep", 1.0)]),
                 (0.0, [("hold", 1.0)])], [])
    def test_same_resumes_clock_and_timeline(self, capacity, program, cuts):
        expected = self.execute(three_step, capacity, program, cuts)
        assert self.execute(one_call, capacity, program, cuts) == expected
