"""The multibuffer join templates against a numpy oracle, and the join
sides' speed estimates against a plain scan's.

A join's answer is ``matches``: the sum, over the probe rows in range,
of how many build rows carry the probe row's key.  It must not depend
on how many chunks the build table was split into, nor on whether the
scans shared the pool.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.engine.executor as executor
from repro.core.config import SharingConfig
from repro.engine.costs import CostModel
from repro.engine.database import SystemConfig
from repro.engine.executor import run_workload
from repro.engine.query import HashJoin, QuerySpec, ScanStep
from repro.workloads import make_tpch_database
from repro.workloads.tpch_queries import make_query

SCALE = 0.1


def column(db, step, name):
    """Every value of ``name`` in ``step``'s page range, in page order."""
    table = db.catalog.table(step.table)
    first, last = step.page_range(table)
    return np.concatenate([
        table.page_data(page)[name] for page in range(first, last + 1)
    ])


def oracle_matches(db, join):
    keys, counts = np.unique(column(db, join.build, join.build_key),
                             return_counts=True)
    probe = column(db, join.probe, join.probe_key)
    at = np.clip(np.searchsorted(keys, probe), 0, len(keys) - 1)
    return int(counts[at][keys[at] == probe].sum())


def with_budget(spec, budget):
    return replace(spec, steps=(replace(spec.steps[0], budget_pages=budget),))


@pytest.mark.parametrize("enabled", [False, True], ids=["base", "shared"])
@pytest.mark.parametrize("budget", ["template", 2, None])
def test_matches_equal_the_oracle(enabled, budget):
    specs = [make_query(name, np.random.default_rng(5))
             for name in ("MJ1", "MJ18")]
    if budget != "template":
        specs = [with_budget(spec, budget) for spec in specs]
    db = make_tpch_database(
        SystemConfig(sharing=SharingConfig(enabled=enabled)), scale=SCALE)
    result = run_workload(db, [[spec] for spec in specs])
    for spec, stream in zip(specs, result.streams):
        (query,) = stream.queries
        join = spec.steps[0]
        probe = query.values[join.probe.label]
        assert probe["matches"] == oracle_matches(db, join) > 0, spec.name
        chunks = query.operator_stats()["join_chunks"]
        if budget is None:
            assert chunks == 1
        else:
            assert chunks >= 2, spec.name
    assert db.pool.reserved_frames == 0


def test_a_join_side_is_estimated_apart_from_a_plain_scan(monkeypatch):
    """The same range scanned plainly and as a join build feeds
    different sinks, so the executor must estimate their speeds apart
    (here CPU-bound, where the build's hashing shows)."""
    estimates = []

    class Recording(executor.TableScan):
        def __init__(self, db, table, *args, **kwargs):
            estimates.append((table, kwargs["estimated_speed"]))
            super().__init__(db, table, *args, **kwargs)

    monkeypatch.setattr(executor, "TableScan", Recording)
    db = make_tpch_database(SystemConfig(
        cost=CostModel(unit_seconds=1e-5),
        sharing=SharingConfig(enabled=True)), scale=SCALE)
    plain = QuerySpec(name="plain", steps=(ScanStep(table="part"),))
    join = QuerySpec(name="join", steps=(HashJoin(
        build=ScanStep(table="part", label="build"),
        probe=ScanStep(table="nation", label="probe"),
        build_key="p_partkey", probe_key="n_nationkey",
    ),))
    run_workload(db, [[plain, join]])
    part = [speed for table, speed in estimates if table == "part"]
    assert len(part) == 2
    plain_speed, build_speed = part
    assert build_speed < plain_speed
