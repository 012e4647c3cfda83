"""Unit tests for the metrics layer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.cpu import _merged_changes, compute_cpu_breakdown
from repro.metrics.report import (
    fleet_aggregate_row,
    format_series,
    format_service_table,
    format_table,
    percent_gain,
    percentile,
)
from repro.sim.timeline import StepTimeline


class TestCpuBreakdown:
    def test_fractions_sum_to_one(self):
        cpu = StepTimeline()
        cpu.record(0.0, 2)
        cpu.record(5.0, 0)
        disk = StepTimeline()
        disk.record(0.0, 1)
        disk.record(8.0, 0)
        breakdown = compute_cpu_breakdown(cpu, disk, cores=4, until=10.0,
                                          io_requests=10, syscall_cost=0.01)
        total = (breakdown.user + breakdown.system + breakdown.idle
                 + breakdown.iowait)
        assert total == pytest.approx(1.0)

    def test_fully_busy_is_all_user(self):
        cpu = StepTimeline(initial=4)
        disk = StepTimeline()
        breakdown = compute_cpu_breakdown(cpu, disk, cores=4, until=10.0)
        assert breakdown.user == pytest.approx(1.0)
        assert breakdown.iowait == 0.0

    def test_idle_with_pending_io_is_iowait(self):
        cpu = StepTimeline(initial=0)
        disk = StepTimeline(initial=1)
        breakdown = compute_cpu_breakdown(cpu, disk, cores=2, until=10.0)
        assert breakdown.iowait == pytest.approx(1.0)
        assert breakdown.idle == 0.0

    def test_idle_without_io_is_idle(self):
        cpu = StepTimeline(initial=0)
        disk = StepTimeline(initial=0)
        breakdown = compute_cpu_breakdown(cpu, disk, cores=2, until=10.0)
        assert breakdown.idle == pytest.approx(1.0)

    def test_mixed_timelines(self):
        # CPU busy 1 of 2 cores for [0,4); disk busy [2,6); until=8.
        cpu = StepTimeline()
        cpu.record(0.0, 1)
        cpu.record(4.0, 0)
        disk = StepTimeline()
        disk.record(2.0, 1)
        disk.record(6.0, 0)
        b = compute_cpu_breakdown(cpu, disk, cores=2, until=8.0)
        assert b.user == pytest.approx(4.0 / 16.0)
        # iowait: [2,4): 1 idle core * 2s; [4,6): 2 idle * 2s = 6 core-s.
        assert b.iowait == pytest.approx(6.0 / 16.0)

    def test_system_time_shaved_from_iowait(self):
        cpu = StepTimeline(initial=0)
        disk = StepTimeline(initial=1)
        b = compute_cpu_breakdown(cpu, disk, cores=1, until=10.0,
                                  io_requests=100, syscall_cost=0.01)
        assert b.system == pytest.approx(0.1)
        assert b.iowait == pytest.approx(0.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_cpu_breakdown(StepTimeline(), StepTimeline(), cores=0, until=1.0)
        with pytest.raises(ValueError):
            compute_cpu_breakdown(StepTimeline(), StepTimeline(), cores=1, until=0.0)

    def test_as_dict(self):
        b = compute_cpu_breakdown(StepTimeline(), StepTimeline(), cores=1, until=1.0)
        assert set(b.as_dict()) == {"user", "system", "idle", "iowait"}


def _merged_changes_by_lookup(a, b, until):
    """The segment merge as it was: one ``level_at`` scan per segment."""
    points_a = list(a.change_points())
    points_b = list(b.change_points())
    times = sorted({t for t, _ in points_a} | {t for t, _ in points_b} | {0.0, until})
    segments = []
    for i in range(len(times) - 1):
        start, end = times[i], times[i + 1]
        if start >= until:
            break
        end = min(end, until)
        if end <= start:
            continue
        segments.append((start, end, a.level_at(start), b.level_at(start)))
    return segments


def _breakdown_by_lookup(cpu_busy, disk_outstanding, cores, until,
                         io_requests, syscall_cost):
    """``compute_cpu_breakdown`` over the old merge, same summation order."""
    capacity = cores * until
    user_time = 0.0
    iowait_time = 0.0
    for start, end, busy, outstanding in _merged_changes_by_lookup(
        cpu_busy, disk_outstanding, until
    ):
        duration = end - start
        user_time += min(busy, cores) * duration
        if outstanding > 0:
            iowait_time += max(0.0, cores - busy) * duration
    system_time = min(io_requests * syscall_cost, max(0.0, capacity - user_time))
    iowait_time = max(0.0, iowait_time - system_time)
    idle_time = max(0.0, capacity - user_time - system_time - iowait_time)
    return (user_time / capacity, system_time / capacity,
            idle_time / capacity, iowait_time / capacity)


class TestCpuBreakdownMerge:
    """The one-pass merge is bit-identical to a ``level_at`` per segment."""

    # A coarse grid of steps so change points tie across the two
    # timelines, collapse at one instant, and sit on ``until``.
    steps = st.lists(
        st.tuples(st.sampled_from(["record", "pulse"]),
                  st.sampled_from([0.0, 0.0, 1e-13, 0.1, 0.25, 0.5, 1.0]),
                  st.sampled_from([0.0, 0.1, 0.3, 1.0]),
                  st.integers(0, 4)),
        max_size=25,
    )

    @staticmethod
    def build(start_time, initial, steps):
        timeline = StepTimeline(initial=initial, start_time=start_time)
        now = start_time
        for kind, gap, length, level in steps:
            now += gap
            if kind == "record":
                timeline.record(now, level)
            else:
                timeline.pulse(now, now + length, level)
                now += length
        return timeline

    @given(
        start_a=st.sampled_from([0.0, 0.3]), start_b=st.sampled_from([0.0, 0.3]),
        initial_a=st.integers(0, 2), initial_b=st.integers(0, 2),
        steps_a=steps, steps_b=steps,
        until=st.sampled_from([0.05, 0.5, 1.0, 2.0, 3.7, 50.0]),
        cores=st.integers(1, 4),
        io_requests=st.integers(0, 50),
        syscall_cost=st.sampled_from([0.0, 1e-3, 0.05]),
    )
    @settings(max_examples=300, deadline=None)
    def test_segments_and_breakdown_bit_identical(
        self, start_a, start_b, initial_a, initial_b, steps_a, steps_b, until,
        cores, io_requests, syscall_cost,
    ):
        cpu = self.build(start_a, initial_a, steps_a)
        disk = self.build(start_b, initial_b, steps_b)
        assert _merged_changes(cpu, disk, until) == _merged_changes_by_lookup(
            cpu, disk, until
        )
        new = compute_cpu_breakdown(cpu, disk, cores, until,
                                    io_requests, syscall_cost)
        old = _breakdown_by_lookup(cpu, disk, cores, until,
                                   io_requests, syscall_cost)
        assert [x.hex() for x in (new.user, new.system, new.idle, new.iowait)] \
            == [x.hex() for x in old]


class TestReport:
    def test_percent_gain_positive_for_improvement(self):
        assert percent_gain(100.0, 79.0) == pytest.approx(21.0)

    def test_percent_gain_negative_for_regression(self):
        assert percent_gain(100.0, 110.0) == pytest.approx(-10.0)

    def test_percent_gain_zero_base(self):
        assert percent_gain(0.0, 5.0) == 0.0

    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bbb", 2.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0]
        assert "1.500" in lines[2]

    def test_format_table_row_width_validated(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["x", "extra"]])

    def test_format_series(self):
        text = format_series("reads", [1.0, 2.0, 4.0])
        assert "reads" in text
        assert text.count("\n") == 3


class TestPercentile:
    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], -1)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_single_value_is_every_percentile(self):
        for q in (0, 50, 95, 100):
            assert percentile([7.0], q) == 7.0

    def test_endpoints_are_min_and_max(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 5.0

    def test_interpolates_between_order_statistics(self):
        # Nearest-rank would give 2.0 for p50 of [1, 2]; interpolation
        # lands between the bracketing order statistics.
        assert percentile([1.0, 2.0], 50) == pytest.approx(1.5)
        assert percentile([0.0, 10.0], 25) == pytest.approx(2.5)

    def test_small_sample_tail_percentiles_distinct(self):
        # The regression this fixes: with nearest-rank only, p95 and p99
        # collapse to the max on small samples.
        values = [1.0, 2.0, 3.0, 4.0, 100.0]
        assert percentile(values, 95) < percentile(values, 99) < 100.0

    def test_matches_numpy_linear_method(self):
        import numpy as np

        values = [3.1, 0.2, 9.7, 4.4, 5.0, 1.8, 2.2]
        for q in (10, 25, 50, 75, 90, 95, 99):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q))
            )

    def test_input_order_irrelevant(self):
        assert percentile([3.0, 1.0, 2.0], 50) == percentile([1.0, 2.0, 3.0], 50)


class TestFormatServiceTable:
    ROW = {
        "class": "interactive",
        "n_arrived": 10,
        "n_completed": 9,
        "n_abandoned": 1,
        "wait_p50": 0.01,
        "wait_p99": 0.05,
        "latency_p50": 0.2,
        "latency_p95": 0.4,
        "latency_p99": 0.5,
        "throughput": 3.2,
        "slo_attainment": 0.925,
    }

    def test_headers_and_values_rendered(self):
        text = format_service_table([self.ROW])
        lines = text.splitlines()
        assert lines[0].split() == [
            "class", "arrived", "done", "abandoned", "wait_p50", "wait_p99",
            "lat_p50", "lat_p95", "lat_p99", "qps", "slo%",
        ]
        assert "interactive" in lines[2]
        assert "92.5" in lines[2]  # slo_attainment scaled to percent

    def test_missing_and_none_render_as_dash(self):
        row = dict(self.ROW, slo_attainment=None)
        del row["wait_p99"]
        text = format_service_table([row]).splitlines()[2]
        assert text.rstrip().endswith("-")
        assert text.count("-") >= 2

    def test_class_metrics_dict_is_accepted(self):
        from repro.service.metrics import ClassMetrics

        metrics = ClassMetrics(name="batch", n_arrived=3, n_completed=3)
        text = format_service_table([metrics.as_dict()])
        assert "batch" in text

    def test_zero_completions_dash_latency_columns(self):
        """A starved class must not print zero latency/qps/SLO as if it
        had measured them."""
        row = dict(self.ROW, n_completed=0, n_abandoned=10,
                   latency_p50=0.0, latency_p95=0.0, latency_p99=0.0,
                   throughput=0.0, slo_attainment=0.0)
        body = format_service_table([row]).splitlines()[2]
        cells = body.split()
        # class arrived done abandoned wait50 wait99 then 5 dashes
        assert cells[2] == "0"
        assert cells[6:] == ["-", "-", "-", "-", "-"]
        # Wait columns still render: the class did arrive and queue.
        assert cells[4] != "-" and cells[5] != "-"

    def test_zero_arrivals_dash_wait_columns_too(self):
        row = dict(self.ROW, n_arrived=0, n_completed=0, n_abandoned=0,
                   wait_p50=0.0, wait_p99=0.0)
        body = format_service_table([row]).splitlines()[2]
        assert body.split()[4:] == ["-"] * 7

    def test_fleet_row_is_set_off_by_a_rule(self):
        fleet = dict(self.ROW, **{"class": "FLEET"})
        lines = format_service_table(
            [self.ROW, self.ROW, fleet], fleet_row=True
        ).splitlines()
        assert lines[-2] == lines[1]  # repeated header rule
        assert lines[-1].startswith("FLEET")


class TestFleetAggregateRow:
    ROWS = [
        {"class": "c", "n_arrived": 10, "n_completed": 8, "n_abandoned": 2,
         "wait_p50": 0.1, "wait_p99": 0.3, "latency_p50": 1.0,
         "latency_p95": 2.0, "latency_p99": 3.0, "throughput": 4.0,
         "slo_attainment": 1.0},
        {"class": "c", "n_arrived": 30, "n_completed": 24, "n_abandoned": 6,
         "wait_p50": 0.3, "wait_p99": 0.5, "latency_p50": 2.0,
         "latency_p95": 3.0, "latency_p99": 4.0, "throughput": 6.0,
         "slo_attainment": 0.5},
    ]

    def test_counts_sum_and_throughput_sums(self):
        row = fleet_aggregate_row(self.ROWS)
        assert row["class"] == "FLEET"
        assert row["n_arrived"] == 40
        assert row["n_completed"] == 32
        assert row["n_abandoned"] == 8
        assert row["throughput"] == pytest.approx(10.0)

    def test_percentiles_completion_weighted(self):
        row = fleet_aggregate_row(self.ROWS)
        # latency weighted by completions: (1*8 + 2*24) / 32
        assert row["latency_p50"] == pytest.approx(1.75)
        # waits weighted by arrivals: (0.1*10 + 0.3*30) / 40
        assert row["wait_p50"] == pytest.approx(0.25)

    def test_slo_completion_weighted(self):
        row = fleet_aggregate_row(self.ROWS)
        assert row["slo_attainment"] == pytest.approx((1.0 * 8 + 0.5 * 24) / 32)

    def test_slo_none_when_no_row_carries_one(self):
        rows = [dict(r, slo_attainment=None) for r in self.ROWS]
        assert fleet_aggregate_row(rows)["slo_attainment"] is None

    def test_custom_label_and_empty_sample_safety(self):
        row = fleet_aggregate_row(
            [{"class": "c", "n_arrived": 0, "n_completed": 0}],
            label="TOTAL",
        )
        assert row["class"] == "TOTAL"
        assert row["latency_p50"] == 0.0
        assert row["slo_attainment"] is None
