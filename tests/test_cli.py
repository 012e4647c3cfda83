"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _settings_from_args, build_parser, main
from repro.experiments.harness import ExperimentSettings
from repro.experiments.registry import REGISTRY, all_experiments
from repro.fields import FieldError
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

    def test_trace_bad_ring_is_clean_error(self, capsys):
        assert main(["trace", "e1", "--ring", "0"]) == 2
        assert "--ring must be >= 1" in capsys.readouterr().err

    def test_trace_unwritable_out_is_clean_error(self, tmp_path, capsys):
        missing_dir = tmp_path / "missing" / "trace.jsonl"
        assert main(["trace", "e1", "--out", str(missing_dir)]) == 2
        assert "cannot open --out" in capsys.readouterr().err



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


@pytest.mark.parametrize("argv", [
    ["run", "e1", "--scale", "0"],
    ["run", "e1", "--scale", "-1"],
    ["run", "e1", "--streams", "0"],
    ["run", "e1", "--sharing-policy", "bogus"],
    ["run", "e1", "--device-count", "0"],
    ["run", "e1", "--stripe-extents", "0"],
    ["run", "e1", "--faults", "bogus"],
    ["run", "e1", "--sharing", "foo=1"],
    ["run-all", "--scale", "0", "--no-cache"],
    ["sweep", "e1", "--param", "scale", "--values", "", "--no-cache"],
    ["trace", "e1", "--ring", "0"],
    ["chaos", "e2", "--scale", "0"],
    ["chaos", "e1", "--faults", "bogus"],
    ["serve-sim", "steady", "--streams", "0", "--no-cache"],
    ["cluster-sim", "steady", "--scale", "0", "--no-cache"],
    ["run-all", "--only", "e1", "--jobs", "0", "--no-cache"],
    ["sweep", "e1", "--param", "scale", "--values", "0.05", "--jobs", "0",
     "--no-cache"],
    ["serve-sim", "steady", "--jobs", "0", "--no-cache"],
    ["cluster-sim", "steady", "--jobs", "0", "--no-cache"],
], ids=" ".join)
def test_bad_value_is_one_line_exit_2(argv, capsys):
    """Every bad CLI value exits 2 with one stderr line, before any work."""
    assert_usage_error(argv, capsys)


def assert_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = [line for line in captured.err.splitlines() if line]
    assert len(lines) == 1, captured.err
    assert lines[0].startswith(f"repro {argv[0]}: error: ")
    assert "Traceback" not in captured.err


#: One bad value per row, driven through every surface that takes it: the
#: ExperimentSettings field and value (None: no typed value is bad), the
#: argv whose flag sets it (None: no flag takes a bad value), and the
#: ``sweep --values`` token (None: the field cannot be swept).
BAD_SETTINGS = [
    ("scale", 0.0, ["run", "e1", "--scale", "0"], "0"),
    ("scale", -1.0, ["run", "e1", "--scale", "-1"], "-1"),
    ("n_streams", 0, ["run", "e1", "--streams", "0"], "0"),
    ("sharing_policy", "bogus",
     ["run", "e1", "--sharing-policy", "bogus"], "bogus"),
    ("device_count", 0, ["run", "e1", "--device-count", "0"], "0"),
    ("stripe_extents", 0, ["run", "e1", "--stripe-extents", "0"], "0"),
    ("push_prefetch", None, None, "maybe"),
    ("agg_strategy", "bogus", None, "bogus"),
    ("fault_spec", "bogus", ["run", "e1", "--faults", "bogus"], "bogus"),
    ("fault_spec", "disk-delay:factor=0.5",
     ["chaos", "e1", "--faults", "disk-delay:factor=0.5"],
     "disk-delay:factor=0.5"),
    ("sharing_overrides", {"distance_threshold_extents": -1},
     ["run", "e1", "--sharing", "distance_threshold_extents=-1"], None),
    ("sharing_overrides", "enabled=maybe",
     ["run", "e1", "--sharing", "enabled=maybe"], None),
    ("sharing_overrides", {"warp_factor": 9},
     ["run", "e1", "--sharing", "warp_factor=9"], None),
    ("service_horizon", 0.0,
     ["serve-sim", "steady", "--horizon", "0", "--no-cache"], "0"),
    ("cluster_replicas", 0,
     ["cluster-sim", "steady", "--replicas", "0", "--no-cache"], "0"),
    ("cluster_users", -5,
     ["cluster-sim", "steady", "--users", "-5", "--no-cache"], "-5"),
]


def _rows(column):
    params = []
    for row in BAD_SETTINGS:
        value = row[column]
        if value is not None:
            shown = " ".join(value) if column == 2 else f"{row[0]}={value}"
            params.append(pytest.param(row[0], value, id=shown))
    return params


@pytest.fixture
def no_simulation(monkeypatch):
    """Fail the test if any experiment starts to simulate."""
    def refuse(*args, **kwargs):
        raise AssertionError("a simulation started before the bad value "
                             "was rejected")

    monkeypatch.setattr("repro.experiments.harness.run_workload", refuse)
    monkeypatch.setattr("repro.experiments.runner.execute_task", refuse)


@pytest.mark.parametrize("field,value", _rows(1))
def test_bad_setting_raises_field_error(field, value):
    with pytest.raises(FieldError) as info:
        ExperimentSettings(**{field: value})
    assert info.value.field == field
    with pytest.raises(FieldError):
        ExperimentSettings().with_(**{field: value})


@pytest.mark.parametrize("field,argv", _rows(2))
def test_bad_setting_flag_is_one_line_exit_2(field, argv, capsys,
                                             no_simulation):
    assert_usage_error(argv, capsys)


@pytest.mark.parametrize("field,token", _rows(3))
def test_bad_setting_sweep_is_one_line_exit_2(field, token, capsys,
                                              no_simulation):
    assert_usage_error(["sweep", "e1", "--param", field, "--values", token,
                        "--no-cache"], capsys)


def test_sweep_checks_every_point_before_any_task_runs(capsys,
                                                       no_simulation):
    assert_usage_error(["sweep", "e1", "--param", "device_count",
                        "--values", "1,0", "--no-cache"], capsys)


@pytest.mark.parametrize("argv", [
    ["run", "e1"], ["trace", "e1"], ["run-all"], ["sweep", "e1", "--param",
    "scale", "--values", "1"], ["chaos"], ["serve-sim"], ["cluster-sim"],
], ids=" ".join)
def test_flag_defaults_are_the_settings_defaults(argv):
    """Every command's unset flags build ExperimentSettings' defaults:
    each default, scale's included, has the dataclass as its one source."""
    args = build_parser().parse_args(argv)
    assert _settings_from_args(args) == ExperimentSettings()


@pytest.mark.parametrize("argv", [
    ["run", "e1", "--scale", "0.05", "--streams", "1"],
    ["run-all", "--only", "e1", "--scale", "0.05", "--streams", "1",
     "--no-cache"],
], ids=" ".join)
def test_invariant_violation_is_exit_4(argv, capsys, monkeypatch):
    from repro.faults.invariants import InvariantViolation

    def violate(*args, **kwargs):
        raise InvariantViolation("synthetic violation")

    monkeypatch.setattr("repro.experiments.harness.run_workload", violate)
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err == "INVARIANT VIOLATION: synthetic violation\n"


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
        assert "\n--- e1 ---\n" in out
        assert out.endswith(f"results written to {out_file}\n")
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

    def test_sweep_unknown_param_is_clean_error(self, capsys):
        assert main(["sweep", "e1", "--param", "bogus", "--values", "1",
                     "--no-cache"]) == 2
        assert "unknown sweep parameter" in capsys.readouterr().err

    def test_sweep_of_a_sequence_field_is_one_line_exit_2(self, capsys):
        assert main(["sweep", "e4", "--param", "query_names", "--values",
                     "Q6", "--scale", "0.1", "--streams", "2",
                     "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert err == ("repro sweep: error: 'query_names' cannot be set "
                       "from a single value\n")

    def test_sweep_of_an_optional_float_field(self, capsys):
        assert main(["sweep", "sv-steady", "--param", "service_horizon",
                     "--values", "2.5", "--scale", "0.1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "sv-steady[service_horizon=2.5]" in out
        assert "(horizon 2.500s)" in out

    def test_sweep_empty_values_is_clean_error(self, capsys):
        assert main(["sweep", "e1", "--param", "scale", "--values", ",",
                     "--no-cache"]) == 2
        assert "at least one grid point" in capsys.readouterr().err


class TestChaosCommand:
    def test_chaos_parses_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.command == "chaos"
        assert args.experiment == "e2"
        assert args.faults is None

    def test_chaos_quick_battery_passes(self, capsys):
        """Without --faults, chaos runs the three builtin plans."""
        assert main(["chaos", "e2", "--scale", "0.05", "--streams", "2"]) == 0
        out = capsys.readouterr().out
        for plan in ("leader-abort", "disk-degrade", "pool-pressure"):
            assert f"plan {plan}" in out
        assert "invariants OK" in out
        assert "faults injected" in out

    def test_chaos_explicit_fault_spec(self, capsys):
        assert main(["chaos", "e1", "--faults", "scan-kill:target=any,at=0.5",
                     "--scale", "0.05", "--streams", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "scan_kill" in out
        assert "metrics digest" in out

    def test_chaos_bad_spec_exits_early(self, capsys):
        assert main(["chaos", "e1", "--faults", "warp-core-breach"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad --faults spec" in captured.err

    def test_chaos_unknown_experiment(self):
        assert main(["chaos", "e99", "--faults", "leader-abort"]) == 2

    def test_sharing_overrides_parse(self):
        args = build_parser().parse_args(
            ["run", "e1", "--sharing",
             "distance_threshold_extents=4,throttling_enabled=0"]
        )
        assert args.sharing == "distance_threshold_extents=4,throttling_enabled=0"

    def test_sharing_overrides_bad_key_rejected(self, capsys):
        assert main(["run", "e1", "--scale", "0.05", "--streams", "1",
                     "--sharing", "warp_factor=9"]) == 2
        assert "unknown SharingConfig field" in capsys.readouterr().err

    def test_sharing_overrides_bad_value_rejected(self, capsys):
        assert main(["run", "e1", "--scale", "0.05", "--streams", "1",
                     "--sharing", "distance_threshold_extents=soon"]) == 2
        assert "--sharing field" in capsys.readouterr().err

    def test_run_with_sharing_override_works(self):
        assert main(["run", "e1", "--scale", "0.05", "--streams", "1",
                     "--sharing", "distance_threshold_extents=4"]) == 0


class TestServeSimCommand:
    def test_parses_defaults(self):
        args = build_parser().parse_args(["serve-sim"])
        assert args.command == "serve-sim"
        assert args.scenario == "steady"
        assert args.scale == 0.25
        assert not args.assert_bounded
        assert args.horizon is None

    def test_parses_options(self):
        args = build_parser().parse_args(
            ["serve-sim", "overload", "--scale", "0.1", "--assert-bounded",
             "--horizon", "2.5", "--jobs", "2", "--no-cache"]
        )
        assert args.scenario == "overload"
        assert args.scale == 0.1 and args.assert_bounded
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
        assert main(["serve-sim", "steady", "--scale", "0.1", "--no-cache",
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
        assert main(["serve-sim", "steady", "--scale", "0.1", "--no-cache",
                     "--assert-bounded"]) == 5
        err = capsys.readouterr().err
        assert "UNBOUNDED SERVICE BEHAVIOUR" in err
        assert "synthetic violation" in err

    def test_comma_separated_scenarios(self, capsys, tmp_path):
        out_file = tmp_path / "serve.json"
        assert main(["serve-sim", "steady,burst", "--scale", "0.1", "--no-cache",
                     "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        labels = {entry["label"] for entry in payload["experiments"]}
        assert labels == {"sv-steady", "sv-burst"}


class TestClusterSimCommand:
    def test_parses_defaults(self):
        args = build_parser().parse_args(["cluster-sim"])
        assert args.command == "cluster-sim"
        assert args.scenario == "steady"
        assert args.scale == 0.25
        assert args.replicas is None and args.users is None
        assert args.horizon is None

    def test_parses_options(self):
        args = build_parser().parse_args(
            ["cluster-sim", "scale", "--scale", "0.1", "--replicas", "4",
             "--users", "50000", "--horizon", "1.5", "--jobs", "2"]
        )
        assert args.scenario == "scale"
        assert args.scale == 0.1
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
        assert main(["cluster-sim", "steady", "--scale", "0.1", "--no-cache",
                     "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "sv-cluster-steady" in out
        assert "FLEET" in out
        payload = json.loads(out_file.read_text())
        labels = {entry["label"] for entry in payload["experiments"]}
        assert labels == {"sv-cluster-steady"}
