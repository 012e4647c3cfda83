"""Micro-scale smoke + structure tests for every experiment function.

The benchmarks run these at measurement scale; these tests protect the
harness itself — each experiment must build, run, and return a
structurally valid, renderable result even at tiny scale.
"""

import pytest

from repro.experiments.experiments import (
    ablation_bufferpool_sweep,
    ablation_disk_array,
    ablation_disk_scheduler,
    ablation_fairness_cap,
    ablation_opt_gap,
    ablation_priority,
    ablation_threshold,
    ablation_throttling,
    e1_overhead,
    e2_staggered_q6,
    e3_staggered_q1,
    e4_throughput,
    e5_reads_timeline,
    e6_seeks_timeline,
    e7_per_stream,
    e8_per_query,
    e9_stream_scaling,
)
from repro.experiments.harness import ExperimentSettings

TINY = ExperimentSettings(scale=0.05, n_streams=2, query_names=("Q6", "Q14"))


class TestCoreExperiments:
    def test_e1(self):
        result = e1_overhead(TINY)
        assert "overhead" in result.render()
        assert isinstance(result.overhead_percent, float)

    def test_e2(self):
        result = e2_staggered_q6(TINY, n_runs=2)
        assert len(result.per_run_base) == 2
        assert len(result.per_run_gains()) == 2
        assert "Q6" in result.render()

    def test_e3(self):
        result = e3_staggered_q1(TINY, n_runs=2)
        assert len(result.per_run_shared) == 2
        assert "Q1" in result.render()

    def test_e4(self):
        result = e4_throughput(TINY)
        assert "%" in result.render()
        assert result.base.pages_read > 0

    def test_e5_e6_share_comparison(self):
        from repro.experiments.harness import compare_modes

        comparison = compare_modes(TINY)
        reads = e5_reads_timeline(comparison=comparison)
        seeks = e6_seeks_timeline(comparison=comparison)
        assert len(reads.base_series) > 0
        assert len(seeks.base_series) > 0
        assert "bucket" in reads.render()

    def test_e7(self):
        result = e7_per_stream(TINY)
        assert set(result.gains()) == {0, 1}

    def test_e8(self):
        result = e8_per_query(TINY)
        assert set(result.gains()) == {"Q6", "Q14"}

    def test_e9(self):
        result = e9_stream_scaling(TINY, stream_counts=(1, 2))
        assert set(result.points) == {1, 2}
        assert result.throughput(2, shared=True) > 0
        assert "streams" in result.render()


class TestAblations:
    def test_a1(self):
        result = ablation_throttling(TINY)
        assert set(result.makespans()) == {"base", "no-throttle", "full"}

    def test_a2(self):
        result = ablation_priority(TINY)
        assert "no-priority" in result.makespans()

    def test_a3(self):
        result = ablation_threshold(TINY, thresholds=(1.0, 4.0))
        assert len(result.rows) == 2

    def test_a4(self):
        result = ablation_bufferpool_sweep(TINY, fractions=(0.3, 1.5))
        assert set(result.points) == {0.3, 1.5}

    def test_a5(self):
        result = ablation_opt_gap(TINY)
        assert set(result.metrics()) == {
            "base_pages_read", "shared_pages_read", "opt_base_pages_read",
            "opt_shared_pages_read", "gap_share_percent",
        }
        assert 0 < result.opt_base <= result.base.pages_read
        assert 0 < result.opt_shared <= result.shared.pages_read
        assert "OPT" in result.render()

    def test_a6(self):
        result = ablation_fairness_cap(TINY, caps=(0.0, 0.8))
        assert "cap 80%" in result.makespans()

    def test_a7(self):
        result = ablation_disk_scheduler(TINY)
        assert set(result.makespans()) == {
            "fifo", "fifo + sharing", "elevator", "elevator + sharing"
        }

    def test_a9(self):
        result = ablation_disk_array(TINY, disk_counts=(1, 2))
        assert set(result.points) == {1, 2}
        for comparison in result.points.values():
            assert comparison.base.pages_read > 0
