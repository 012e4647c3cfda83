"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.registry import REGISTRY, all_experiments
from repro.trace import get_tracer


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_parses_with_options(self):
        args = build_parser().parse_args(
            ["run", "e4", "--scale", "0.5", "--streams", "3", "--seed", "7"]
        )
        assert args.experiment == "e4"
        assert args.scale == 0.5
        assert args.streams == 3
        assert args.seed == 7

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_all_parses_runner_options(self):
        args = build_parser().parse_args(
            ["run-all", "--jobs", "4", "--no-cache", "--out", "r.json",
             "--only", "e1,e4"]
        )
        assert args.command == "run-all"
        assert args.jobs == 4
        assert args.no_cache
        assert args.out == "r.json"
        assert args.only == "e1,e4"

    def test_sweep_requires_param_and_values(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "e4"])
        args = build_parser().parse_args(
            ["sweep", "e4", "--param", "n_streams", "--values", "2,4"]
        )
        assert args.param == "n_streams"
        assert args.values == "2,4"


class TestRegistry:
    def test_all_core_experiments_registered(self):
        for exp_id in [f"e{i}" for i in range(1, 9)]:
            assert exp_id in REGISTRY
        for exp_id in [f"a{i}" for i in range(1, 8)]:
            assert exp_id in REGISTRY

    def test_descriptions_non_empty(self):
        for spec in all_experiments():
            assert spec.description
            assert callable(spec.run)


class TestExecution:
    def test_list_prints_all_ids(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in REGISTRY:
            assert exp_id in out

    def test_run_e1_tiny(self, capsys):
        assert main(["run", "e1", "--scale", "0.05", "--streams", "1"]) == 0
        out = capsys.readouterr().out
        assert "overhead" in out
        assert "Base" in out

    def test_trace_e1_tiny(self, capsys, tmp_path):
        out_file = tmp_path / "trace.jsonl"
        assert main(["trace", "e1", "--scale", "0.05", "--streams", "1",
                     "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "traced" in out
        assert "events over simulated" in out
        lines = out_file.read_text().splitlines()
        assert lines
        categories = {json.loads(line)["category"] for line in lines}
        assert {"disk", "buffer", "manager"} <= categories
        # The CLI must uninstall its tracer when the run is over.
        assert not get_tracer().enabled

    def test_trace_parses_ring_option(self):
        args = build_parser().parse_args(["trace", "e2", "--ring", "500"])
        assert args.command == "trace"
        assert args.ring == 500
        assert args.out is None

    def test_trace_bad_ring_is_clean_error(self):
        with pytest.raises(SystemExit, match="--ring must be >= 1"):
            main(["trace", "e1", "--ring", "0"])

    def test_trace_unwritable_out_is_clean_error(self, tmp_path):
        missing_dir = tmp_path / "missing" / "trace.jsonl"
        with pytest.raises(SystemExit, match="cannot open --out"):
            main(["trace", "e1", "--out", str(missing_dir)])

    def test_quickstart_tiny(self, capsys):
        assert main(["quickstart", "--scale", "0.05", "--streams", "2"]) == 0
        out = capsys.readouterr().out
        assert "end-to-end (s)" in out
        assert "pages read" in out


class TestUnknownExperiment:
    """`repro run <bad id>` must fail with one clean line, no traceback."""

    def test_run_unknown_exits_nonzero_with_one_line(self, capsys):
        assert main(["run", "e99"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = [line for line in captured.err.splitlines() if line]
        assert len(lines) == 1
        assert "unknown experiment 'e99'" in lines[0]
        assert "Traceback" not in captured.err

    def test_trace_unknown_exits_nonzero(self, capsys):
        assert main(["trace", "e99"]) == 2
        assert "unknown experiment 'e99'" in capsys.readouterr().err

    def test_run_all_unknown_only_exits_nonzero(self, capsys):
        assert main(["run-all", "--only", "e1,bogus", "--no-cache"]) == 2
        assert "unknown experiment 'bogus'" in capsys.readouterr().err

    def test_sweep_unknown_experiment_exits_nonzero(self, capsys):
        assert main(["sweep", "e99", "--param", "scale",
                     "--values", "0.1"]) == 2
        assert "unknown experiment 'e99'" in capsys.readouterr().err


class TestRunAll:
    def test_run_all_subset_writes_artifact(self, capsys, tmp_path):
        out_file = tmp_path / "results.json"
        assert main([
            "run-all", "--only", "e1", "--scale", "0.05", "--streams", "1",
            "--cache-dir", str(tmp_path / "cache"), "--out", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "RUN-ALL" in out
        assert "miss" in out
        artifact = json.loads(out_file.read_text())
        assert artifact["schema"] == "repro-suite-v1"
        assert [entry["experiment"] for entry in artifact["experiments"]] == ["e1"]
        assert artifact["experiments"][0]["cache"] == "miss"
        assert artifact["experiments"][0]["metrics"]["base_makespan"] > 0

    def test_run_all_second_run_hits_cache(self, capsys, tmp_path):
        argv = ["run-all", "--only", "e1", "--scale", "0.05",
                "--streams", "1", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 cache hits" in out


class TestSweep:
    def test_sweep_tiny_grid(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.json"
        assert main([
            "sweep", "e1", "--param", "scale", "--values", "0.05",
            "--streams", "1", "--no-cache", "--out", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "SWEEP E1" in out
        assert "e1[scale=0.05]" in out
        artifact = json.loads(out_file.read_text())
        assert artifact["experiments"][0]["sweep_point"] == "scale=0.05"

    def test_sweep_unknown_param_is_clean_error(self):
        with pytest.raises(SystemExit, match="unknown sweep parameter"):
            main(["sweep", "e1", "--param", "bogus", "--values", "1",
                  "--no-cache"])

    def test_sweep_empty_values_is_clean_error(self):
        with pytest.raises(SystemExit, match="at least one grid point"):
            main(["sweep", "e1", "--param", "scale", "--values", ",",
                  "--no-cache"])


class TestChaosCommand:
    def test_chaos_parses_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.command == "chaos"
        assert args.experiment == "e2"
        assert not args.quick

    def test_chaos_quick_battery_passes(self, capsys):
        assert main(["chaos", "e2", "--quick",
                     "--scale", "0.05", "--streams", "2"]) == 0
        out = capsys.readouterr().out
        assert "invariants OK" in out
        assert "faults injected" in out

    def test_chaos_explicit_fault_spec(self, capsys):
        assert main(["chaos", "e1", "--faults", "scan-kill:target=any,at=0.5",
                     "--scale", "0.05", "--streams", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "scan_kill" in out
        assert "metrics digest" in out

    def test_chaos_bad_spec_exits_early(self):
        with pytest.raises(SystemExit):
            main(["chaos", "e1", "--faults", "warp-core-breach"])

    def test_chaos_unknown_experiment(self):
        assert main(["chaos", "e99", "--faults", "leader-abort"]) == 2

    def test_sharing_overrides_parse(self):
        args = build_parser().parse_args(
            ["run", "e1", "--sharing", "update_interval_pages=8,regroup_interval=0.1"]
        )
        assert args.sharing == "update_interval_pages=8,regroup_interval=0.1"

    def test_sharing_overrides_bad_key_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "e1", "--scale", "0.05", "--streams", "1",
                  "--sharing", "warp_factor=9"])

    def test_sharing_overrides_bad_value_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "e1", "--scale", "0.05", "--streams", "1",
                  "--sharing", "update_interval_pages=soon"])

    def test_run_with_sharing_override_works(self):
        assert main(["run", "e1", "--scale", "0.05", "--streams", "1",
                     "--sharing", "update_interval_pages=8"]) == 0


class TestServeSimCommand:
    def test_parses_defaults(self):
        args = build_parser().parse_args(["serve-sim"])
        assert args.command == "serve-sim"
        assert args.scenario == "steady"
        assert not args.quick
        assert not args.assert_bounded
        assert args.horizon is None

    def test_parses_options(self):
        args = build_parser().parse_args(
            ["serve-sim", "overload", "--quick", "--assert-bounded",
             "--horizon", "2.5", "--jobs", "2", "--no-cache"]
        )
        assert args.scenario == "overload"
        assert args.quick and args.assert_bounded
        assert args.horizon == 2.5
        assert args.jobs == 2

    def test_list_prints_scenarios(self, capsys):
        assert main(["serve-sim", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("steady", "overload", "burst", "soak"):
            assert name in out

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["serve-sim", "laundromat"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_horizon_exits_2(self, capsys):
        assert main(["serve-sim", "steady", "--horizon", "0"]) == 2
        assert "--horizon" in capsys.readouterr().err

    def test_steady_quick_runs_and_passes_bounds(self, capsys):
        assert main(["serve-sim", "steady", "--quick", "--no-cache",
                     "--assert-bounded"]) == 0
        out = capsys.readouterr().out
        assert "sv-steady" in out
        assert "scenario steady" in out
        assert "boundedness assertions passed" in out

    def test_bounds_failure_exits_5(self, capsys, monkeypatch):
        import repro.service.metrics as service_metrics

        monkeypatch.setattr(
            service_metrics, "bounded_problems",
            lambda label, metrics: [f"{label}: synthetic violation"],
        )
        assert main(["serve-sim", "steady", "--quick", "--no-cache",
                     "--assert-bounded"]) == 5
        err = capsys.readouterr().err
        assert "UNBOUNDED SERVICE BEHAVIOUR" in err
        assert "synthetic violation" in err

    def test_comma_separated_scenarios(self, capsys, tmp_path):
        out_file = tmp_path / "serve.json"
        assert main(["serve-sim", "steady,burst", "--quick", "--no-cache",
                     "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        labels = {entry["label"] for entry in payload["experiments"]}
        assert labels == {"sv-steady", "sv-burst"}


class TestClusterSimCommand:
    def test_parses_defaults(self):
        args = build_parser().parse_args(["cluster-sim"])
        assert args.command == "cluster-sim"
        assert args.scenario == "steady"
        assert not args.quick
        assert args.replicas is None and args.users is None
        assert args.horizon is None

    def test_parses_options(self):
        args = build_parser().parse_args(
            ["cluster-sim", "scale", "--quick", "--replicas", "4",
             "--users", "50000", "--horizon", "1.5", "--jobs", "2"]
        )
        assert args.scenario == "scale"
        assert args.quick
        assert args.replicas == 4 and args.users == 50000
        assert args.horizon == 1.5 and args.jobs == 2

    def test_list_prints_scenarios(self, capsys):
        assert main(["cluster-sim", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("steady", "skew", "scale"):
            assert name in out

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["cluster-sim", "mainframe"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_replicas_exits_2(self, capsys):
        assert main(["cluster-sim", "steady", "--replicas", "0"]) == 2
        assert "--replicas" in capsys.readouterr().err

    def test_bad_users_exits_2(self, capsys):
        assert main(["cluster-sim", "steady", "--users", "0"]) == 2
        assert "--users" in capsys.readouterr().err

    def test_bad_horizon_exits_2(self, capsys):
        assert main(["cluster-sim", "steady", "--horizon", "-1"]) == 2
        assert "--horizon" in capsys.readouterr().err

    def test_steady_quick_runs(self, capsys, tmp_path):
        out_file = tmp_path / "cluster.json"
        assert main(["cluster-sim", "steady", "--quick", "--no-cache",
                     "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "sv-cluster-steady" in out
        assert "FLEET" in out
        payload = json.loads(out_file.read_text())
        labels = {entry["label"] for entry in payload["experiments"]}
        assert labels == {"sv-cluster-steady"}
