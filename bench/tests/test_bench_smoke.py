"""Smoke test of the benchmark at a tenth of its size.

Not part of tier-1 (``testpaths = tests``); run it with
``PYTHONPATH=src python -m pytest bench/tests``.
"""

import json
import re

import pytest

from bench import harness, layers
from bench.compare import compare, verdict

CONTRACT = harness.load_contract()
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
END_TO_END = {m["name"]: m for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m for m in CONTRACT["per_layer"]}
SMOKE = dict(seconds=0.3, size=0.1)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    return {
        (workload, trace): harness.measure(
            workload, 11, trace=trace, out_dir=out, **SMOKE)
        for workload in WORKLOADS
        for trace in (False, True)
    }


def test_contract_shape():
    assert CONTRACT["paths"] == ["bench"]
    assert 2 <= len(WORKLOADS) <= 8
    assert END_TO_END["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in END_TO_END.values())
    assert len(PER_LAYER) <= 128
    for name in list(END_TO_END) + list(PER_LAYER) + WORKLOADS:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for name in PER_LAYER:
        assert layers.moves(name)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(records, workload):
    for trace, wanted in ((False, END_TO_END), (True, PER_LAYER)):
        record = records[workload, trace]
        assert record["correct"], record["problems"]
        assert record["failed"] == 0 and record["attempted"] >= 1
        assert set(record["metrics"]) == set(wanted)
        for name, metric in record["metrics"].items():
            assert metric["unit"] == wanted[name]["unit"]
            assert metric["value"] is not None, name
        line = json.loads(harness.contract_line(record))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert all(records[workload, False]["metrics"][name]["value"] != 0
               for name in END_TO_END)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_shares_sum_to_one(records, workload):
    metrics = records[workload, True]["metrics"]
    shares = [metrics[f"host.{layer}.share"]["value"] for layer in layers.LAYERS]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_changes_inputs_but_no_names(records, workload, tmp_path):
    other = harness.measure(workload, 12, trace=False, out_dir=tmp_path, **SMOKE)
    ours = records[workload, False]
    assert set(other["metrics"]) == set(ours["metrics"])
    assert other["seeded_input"] != ours["seeded_input"]


def test_compare_of_a_report_with_itself_is_all_ok(records, tmp_path, capsys):
    report = {"workloads": {
        workload: {"end_to_end": records[workload, False]["metrics"]}
        for workload in WORKLOADS
    }}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert compare(str(path), str(path)) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == len(WORKLOADS) * len(END_TO_END)
    assert all(row.endswith(" ok") for row in rows)


def test_verdicts():
    a = {"value": 1.0, "q1": 0.99, "q3": 1.01}
    for b, expected in (
        ({"value": 1.2, "q1": 1.19, "q3": 1.21}, "worse"),
        ({"value": 1.05, "q1": 1.04, "q3": 1.06}, "ok"),
        ({"value": 1.05, "q1": 0.9, "q3": 1.2}, "unresolved"),
    ):
        assert verdict(a, b, "lower", 0.1) == expected
