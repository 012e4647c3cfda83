"""Tests for the perf microbenchmark harness and its regression gate.

The benchmark *bodies* are exercised (cheaply, with tiny iteration
counts) so a broken hot path fails here before it fails in CI's bench
lane; the report/compare/CLI plumbing is tested without timing anything.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.perf.bench import (
    BenchReport,
    SCHEMA_VERSION,
    bench_dispatch,
    bench_fix_hit,
    bench_fix_hit_generator,
    bench_fix_miss,
    bench_push_many,
    calibrate,
    compare_reports,
    load_report,
    render_report,
    run_benchmarks,
    write_report,
)


def make_report(calib=1_000_000.0, fix_hit=500_000.0, wall=0.5,
                mode="full") -> BenchReport:
    report = BenchReport(mode=mode, calibration_ops_per_sec=calib)
    report.add_throughput("fix_hit", fix_hit)
    report.add_wall("staggered_q6", wall)
    report.derived["fix_hit_speedup_vs_generator"] = 4.0
    report.meta["python"] = "3.x"
    return report


class TestBenchBodies:
    def test_calibration_positive(self):
        assert calibrate(repeats=1) > 0

    def test_fix_hit_bodies_run(self):
        assert bench_fix_hit(200) > 0
        assert bench_fix_hit_generator(200) > 0

    def test_fix_miss_body_runs(self):
        assert bench_fix_miss(64) > 0

    def test_dispatch_body_runs(self):
        assert bench_dispatch(500) > 0

    def test_batch_bodies_run(self):
        assert bench_push_many(500) > 0

    def test_only_restricts_battery(self):
        report = run_benchmarks(quick=True, only=["dispatch"])
        assert set(report.benchmarks) == {"dispatch"}
        # The speedup ratio needs both fix benches; neither ran.
        assert "fix_hit_speedup_vs_generator" not in report.derived

    def test_only_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            run_benchmarks(quick=True, only=["no_such_bench"])


class TestReport:
    def test_normalization_math(self):
        report = make_report(calib=2_000_000.0, fix_hit=500_000.0, wall=0.5)
        assert report.benchmarks["fix_hit"]["normalized"] == pytest.approx(0.25)
        # Wall costs scale the other way: spin-op equivalents of work.
        assert report.benchmarks["staggered_q6"]["normalized"] == pytest.approx(
            1_000_000.0)

    def test_json_round_trip(self, tmp_path):
        report = make_report()
        path = str(tmp_path / "bench.json")
        write_report(report, path)
        loaded = load_report(path)
        assert loaded.to_dict() == report.to_dict()

    def test_unsupported_schema_rejected(self):
        payload = make_report().to_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            BenchReport.from_dict(payload)

    def test_render_mentions_every_benchmark(self):
        text = render_report(make_report())
        assert "fix_hit" in text and "staggered_q6" in text
        assert "fix_hit_speedup_vs_generator" in text


class TestCompareReports:
    def test_identical_reports_pass(self):
        report = make_report()
        assert compare_reports(report, report) == []

    def test_faster_machine_same_code_passes(self):
        """A 3x faster machine with identical code must not trip the gate:
        raw throughput and the calibration rate scale together."""
        base = make_report(calib=1e6, fix_hit=5e5, wall=0.6)
        current = make_report(calib=3e6, fix_hit=1.5e6, wall=0.2)
        assert compare_reports(base, current) == []

    def test_throughput_regression_detected(self):
        base = make_report(fix_hit=500_000.0)
        slow = make_report(fix_hit=300_000.0)  # -40% on the same machine
        problems = compare_reports(base, slow, tolerance=0.20)
        assert len(problems) == 1 and "fix_hit" in problems[0]

    def test_wall_regression_detected(self):
        base = make_report(wall=0.5)
        slow = make_report(wall=0.9)
        problems = compare_reports(base, slow, tolerance=0.20)
        assert len(problems) == 1 and "staggered_q6" in problems[0]

    def test_within_tolerance_passes(self):
        base = make_report(fix_hit=500_000.0, wall=0.5)
        wobbly = make_report(fix_hit=450_000.0, wall=0.55)  # -10% / +10%
        assert compare_reports(base, wobbly, tolerance=0.20) == []

    def test_missing_benchmark_is_a_regression(self):
        base = make_report()
        current = make_report()
        del current.benchmarks["staggered_q6"]
        problems = compare_reports(base, current)
        assert problems == ["staggered_q6: missing from current run"]

    def test_extra_benchmark_in_current_ignored(self):
        base = make_report()
        current = make_report()
        current.add_throughput("brand_new", 1.0)
        assert compare_reports(base, current) == []

    def test_per_benchmark_tolerance_overrides_global(self):
        """A baseline entry's own tolerance key wins over --tolerance."""
        base = make_report(wall=0.5)
        base.benchmarks["staggered_q6"]["tolerance"] = 0.50
        slow = make_report(wall=0.65)  # +30%: over 20%, under 50%
        assert compare_reports(base, slow, tolerance=0.20) == []
        slower = make_report(wall=0.80)  # +60%: over the per-bench 50%
        problems = compare_reports(base, slower, tolerance=0.20)
        assert len(problems) == 1 and "50%" in problems[0]

    def test_tolerance_key_survives_round_trip(self, tmp_path):
        report = make_report()
        report.add_wall("soak_multi_device", 2.0, tolerance=0.35)
        path = str(tmp_path / "bench.json")
        write_report(report, path)
        loaded = load_report(path)
        assert loaded.benchmarks["soak_multi_device"]["tolerance"] == 0.35


class TestCliBench:
    def test_parser_accepts_bench_options(self):
        args = build_parser().parse_args(
            ["bench", "--quick", "--out", "b.json",
             "--check", "BENCH_kernel.json", "--tolerance", "0.1"]
        )
        assert args.command == "bench"
        assert args.quick and args.out == "b.json"
        assert args.check == "BENCH_kernel.json"
        assert args.tolerance == 0.1

    @pytest.fixture
    def fake_run(self, monkeypatch):
        """Replace the expensive battery with a canned report."""
        import repro.perf.bench as bench_mod

        canned = make_report()
        monkeypatch.setattr(bench_mod, "run_benchmarks",
                            lambda quick=False, only=None: canned)
        return canned

    def test_bench_writes_report_and_exits_zero(self, fake_run, tmp_path,
                                                capsys):
        out = str(tmp_path / "bench.json")
        assert main(["bench", "--quick", "--out", out]) == 0
        payload = json.load(open(out))
        assert payload["schema_version"] == SCHEMA_VERSION
        assert "fix_hit" in payload["benchmarks"]
        assert "fix_hit" in capsys.readouterr().out

    def test_bench_check_passes_against_itself(self, fake_run, tmp_path,
                                               capsys):
        baseline = str(tmp_path / "baseline.json")
        write_report(fake_run, baseline)
        assert main(["bench", "--check", baseline]) == 0
        assert "no regression" in capsys.readouterr().out

    def test_bench_check_fails_on_regression(self, fake_run, tmp_path,
                                             capsys):
        baseline = str(tmp_path / "baseline.json")
        write_report(make_report(fix_hit=5_000_000.0), baseline)
        assert main(["bench", "--check", baseline]) == 3
        assert "PERF REGRESSION" in capsys.readouterr().err

    def test_bench_check_missing_baseline_errors(self, fake_run, tmp_path):
        with pytest.raises(SystemExit):
            main(["bench", "--check", str(tmp_path / "nope.json")])

    def test_bench_rejects_silly_tolerance(self, fake_run):
        with pytest.raises(SystemExit):
            main(["bench", "--tolerance", "1.5"])
        with pytest.raises(SystemExit):
            main(["bench", "--tolerance", "0"])

    def test_bench_only_conflicts_with_check(self, fake_run, tmp_path):
        baseline = str(tmp_path / "baseline.json")
        write_report(fake_run, baseline)
        with pytest.raises(SystemExit, match="--only cannot be combined"):
            main(["bench", "--only", "dispatch", "--check", baseline])
