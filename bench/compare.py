"""Set two reports of ``python3 -m bench run`` side by side."""

from __future__ import annotations

import json
from typing import Any, Dict, List

from bench.harness import load_contract


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str,
            bound: float) -> str:
    """``ok``, ``worse`` or ``unresolved`` for one metric of one workload.

    ``worse``: B's value is worse than A's by more than ``bound`` (a
    share of A's value).  ``unresolved``: the values differ by less, but
    either side's own quartile spread is wider than the bound, so the
    runs cannot tell.
    """
    base = abs(a["value"])
    change = (b["value"] - a["value"]) * (1 if better == "lower" else -1)
    if change > bound * base:
        return "worse"
    if change != 0 and max(a["q3"] - a["q1"], b["q3"] - b["q1"]) > bound * base:
        return "unresolved"
    return "ok"


def compare(path_a: str, path_b: str) -> int:
    """Print one row per (workload, end-to-end metric); 1 on any ``worse``."""
    with open(path_a) as handle:
        report_a = json.load(handle)
    with open(path_b) as handle:
        report_b = json.load(handle)
    contract = load_contract()
    rows: List[str] = []
    worst = 0
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            name = metric["name"]
            try:
                a = report_a["workloads"][workload]["end_to_end"][name]
                b = report_b["workloads"][workload]["end_to_end"][name]
            except KeyError:
                rows.append(f"{workload:<18} {name:<24} missing from a report"
                            f"{'':>40} worse")
                worst = 1
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            worst = max(worst, result == "worse")
            rows.append(
                f"{workload:<18} {name:<24} "
                f"{a['value']:>12.6g} [{a['q1']:.6g}, {a['q3']:.6g}]  "
                f"{b['value']:>12.6g} [{b['q1']:.6g}, {b['q3']:.6g}]  "
                f"{metric['unit']:<8} bound {metric['bound']:.0%}  {result}")
    print(f"{'workload':<18} {'metric':<24} {'A value [q1, q3]':<40} "
          f"{'B value [q1, q3]':<40}")
    print("\n".join(rows))
    return int(worst)
