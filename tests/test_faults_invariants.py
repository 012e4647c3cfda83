"""Tests for the invariant checker — and chaos-mode determinism.

The checker unit tests corrupt manager state by hand (bypassing the
public API, which never produces these states) and assert each
violation class is detectable.  The property tests then run real
workloads under randomized fault schedules and assert the *real* code
never trips the checker.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SharingConfig
from repro.core.manager import ScanSharingManager
from repro.core.scan_state import ScanDescriptor
from repro.faults.invariants import InvariantChecker, InvariantViolation
from repro.faults.plan import FaultPlan
from repro.scans.shared_scan import SharedTableScan
from repro.sim.kernel import Simulator
from repro.storage.catalog import Catalog
from repro.storage.schema import ColumnSpec, make_schema
from repro.storage.table import Table
from repro.storage.tablespace import Tablespace

from tests.conftest import flat_cost, make_database


cheap = flat_cost(1e-6)


def make_manager(config=None, table_pages=1000, pool=200, extent=16):
    sim = Simulator()
    catalog = Catalog(Tablespace(10_000))
    schema = make_schema("t", [ColumnSpec("id", "sequence")])
    catalog.create_table(Table(schema, n_pages=table_pages, extent_size=extent))
    manager = ScanSharingManager(
        sim, catalog, pool_capacity=pool, config=config or SharingConfig()
    )
    return sim, manager


def grouped_manager(n_scans=3):
    """A manager with one multi-member group spread along the arc."""
    _, manager = make_manager()
    states = [
        manager.start_scan(ScanDescriptor("t", 0, 999, estimated_speed=100.0))
        for _ in range(n_scans)
    ]
    for progress, state in zip((16, 48, 96), states):
        manager.update_location(state.scan_id, progress)
    return manager, states


class TestCheckerDetectsCorruption:
    def test_clean_state_passes_strict(self):
        manager, _ = grouped_manager()
        checker = InvariantChecker(manager)
        checker.run_checks(strict_order=True)
        assert checker.checks_run == 1

    def test_dead_member_left_in_group(self):
        manager, states = grouped_manager()
        del manager._states[states[1].scan_id]  # vanish without abort_scan
        with pytest.raises(InvariantViolation, match="not a registered scan"):
            InvariantChecker(manager).run_checks()

    def test_finished_member_left_in_group(self):
        manager, states = grouped_manager()
        states[1].finished = True
        with pytest.raises(InvariantViolation, match="finished"):
            InvariantChecker(manager).run_checks()

    def test_group_id_stamp_mismatch(self):
        manager, states = grouped_manager()
        grouped = next(s for s in states if s.group_id is not None)
        grouped.group_id = (grouped.group_id or 0) + 71
        with pytest.raises(InvariantViolation):
            InvariantChecker(manager).run_checks()

    def test_leader_flag_position_mismatch(self):
        manager, states = grouped_manager()
        group = manager.group_of(states[0].scan_id)
        assert group is not None and group.size > 1
        group.trailer.is_leader = True
        with pytest.raises(InvariantViolation, match="is_leader"):
            InvariantChecker(manager).run_checks()

    def test_ungrouped_scan_with_stale_flags(self):
        _, manager = make_manager(config=SharingConfig(grouping_enabled=False))
        state = manager.start_scan(ScanDescriptor("t", 0, 999, estimated_speed=100.0))
        state.is_leader = True
        with pytest.raises(InvariantViolation, match="ungrouped"):
            InvariantChecker(manager).run_checks()

    def test_dead_anchor_detected(self):
        manager, states = grouped_manager()
        group = manager.group_of(states[0].scan_id)
        anchor = group.trailer
        # The group keeps the old state object while the registry no
        # longer knows it: the ghost anchor a leader would wait on.  The
        # group check also objects; the anchor check must stand on its
        # own (it is what names the deadlock).
        del manager._states[anchor.scan_id]
        with pytest.raises(InvariantViolation, match="wait forever"):
            InvariantChecker(manager)._check_anchors()

    def test_priority_flag_drift_detected(self):
        manager, states = grouped_manager()
        group = manager.group_of(states[0].scan_id)
        trailer = group.trailer
        trailer.is_trailer = False
        trailer.is_leader = True  # stale flags: releases HIGH, role says LOW
        with pytest.raises(InvariantViolation, match="priority"):
            InvariantChecker(manager)._check_priorities()

    def test_arc_order_violation_detected_in_strict_mode(self):
        manager, states = grouped_manager()
        group = manager.group_of(states[0].scan_id)
        # Drift members out of arc order without regrouping: consecutive
        # forward hops now wrap the circle more than the trailer→leader
        # span does.
        group.members[0].pages_scanned = 200
        group.members[1].pages_scanned = 100
        checker = InvariantChecker(manager)
        checker.run_checks(strict_order=False)  # lax mode tolerates drift
        with pytest.raises(InvariantViolation, match="arc-ordered"):
            checker.run_checks(strict_order=True)

    def test_accounting_identity_breakage_detected(self):
        db = make_database(n_pages=64)
        scan = SharedTableScan(db, "t", 0, 63, on_run=cheap)
        proc = db.sim.spawn(scan.run())
        db.sim.run()
        assert not proc.completion.failed
        checker = InvariantChecker(db.sharing, db.pool)
        checker.run_checks()
        db.pool.stats.logical_reads += 1
        with pytest.raises(InvariantViolation, match="accounting identity"):
            checker.run_checks()

    def test_violation_is_assertion_error(self):
        manager, states = grouped_manager()
        states[0].finished = True
        with pytest.raises(AssertionError):
            InvariantChecker(manager).run_checks()


def run_chaos_workload(fault_spec, seed, n_scans, n_pages=128):
    """Run ``n_scans`` shared scans under a fault plan; the injector's
    invariant hook fires on every regroup, so any structural corruption
    raises out of the scan processes."""
    db = make_database(
        n_pages=n_pages,
        fault_plan=FaultPlan.from_spec(fault_spec, seed=seed),
    )
    scans = [
        SharedTableScan(db, "t", 0, n_pages - 1, on_run=cheap)
        for _ in range(n_scans)
    ]
    procs = [db.sim.spawn(scan.run()) for scan in scans]
    db.sim.run()
    for proc in procs:
        if proc.completion.failed:
            raise proc.completion.value
    db.faults.check_invariants()  # one final full pass
    assert db.faults.checker.checks_run > 0
    return db


@pytest.mark.slow
class TestChaosProperties:
    """Random fault schedules over random workloads: invariants hold."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        at=st.floats(min_value=0.0, max_value=1.0),
        count=st.integers(min_value=1, max_value=4),
        target=st.sampled_from(["any", "leader", "trailer", "anchor"]),
        n_scans=st.integers(min_value=1, max_value=4),
    )
    def test_random_kill_schedules_keep_invariants(
        self, seed, at, count, target, n_scans
    ):
        db = run_chaos_workload(
            f"scan-kill:target={target},at={at},count={count}",
            seed=seed, n_scans=n_scans,
        )
        assert db.sharing.active_scan_count == 0

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.floats(min_value=0.0, max_value=0.5),
        factor=st.floats(min_value=1.0, max_value=8.0),
        fraction=st.floats(min_value=0.1, max_value=0.9),
        n_scans=st.integers(min_value=1, max_value=3),
    )
    def test_random_degradation_schedules_keep_invariants(
        self, seed, rate, factor, fraction, n_scans
    ):
        db = run_chaos_workload(
            f"disk-error:rate={rate},max_retries=3,backoff=0.001;"
            f"disk-delay:factor={factor};"
            f"pool-pressure:fraction={fraction}",
            seed=seed, n_scans=n_scans, n_pages=96,
        )
        # Nothing aborted here — every scan must have fully finished.
        assert db.sharing.stats.scans_finished == n_scans


@pytest.mark.slow
class TestChaosRunnerDeterminism:
    """Fixed seed + fault spec => identical digests, serial or fanned out."""

    def test_serial_vs_jobs_identical_digests(self):
        from repro.experiments.harness import ExperimentSettings
        from repro.experiments.runner import ExperimentTask, metrics_digest, run_tasks

        chaotic = ExperimentSettings(scale=0.05, n_streams=2, seed=7,
                                     fault_spec="leader-abort")
        tasks = [ExperimentTask("e1", chaotic), ExperimentTask("e2", chaotic)]
        serial = run_tasks(tasks, jobs=1, use_cache=False)
        fanned = run_tasks(tasks, jobs=2, use_cache=False)
        for left, right in zip(serial.tasks, fanned.tasks):
            assert metrics_digest(left.metrics) == metrics_digest(right.metrics)
        assert serial.suite_digest() == fanned.suite_digest()
