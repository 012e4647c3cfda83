"""Fault injection against striped arrays and the push pipeline.

The ``device=`` option pins a disk clause to one spindle; these tests
prove the pin is exact (other spindles stay clean), that the pipeline's
delivery invariants hold under kills and degradation, and that chaos
runs over a striped push database stay digest-deterministic under
``--jobs``.
"""

from __future__ import annotations

import pytest

from repro.core.config import SharingConfig
from repro.disk.array import DiskArray
from repro.disk.geometry import DiskGeometry
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpecError, parse_fault_spec
from repro.scans.table_scan import TableScan
from repro.sim.kernel import Simulator

from tests.conftest import flat_cost, make_database


cheap = flat_cost(1e-6)


class TestDeviceOption:
    def test_parse_device_option(self):
        (delay,) = parse_fault_spec("disk-delay:factor=2.0,device=1")
        assert delay.device == 1
        (error,) = parse_fault_spec("disk-error:rate=0.1,device=3")
        assert error.device == 3

    def test_default_hits_every_device(self):
        (delay,) = parse_fault_spec("disk-delay:factor=2.0")
        assert delay.device == -1
        for index in range(4):
            assert delay.matches_device(index)

    def test_pinned_clause_matches_one_device(self):
        (delay,) = parse_fault_spec("disk-delay:factor=2.0,device=2")
        assert delay.matches_device(2)
        assert not delay.matches_device(0)
        assert not delay.matches_device(3)

    @pytest.mark.parametrize("kind", ["disk-delay:factor=2.0",
                                      "disk-error:rate=0.1"])
    def test_negative_device_rejected(self, kind):
        with pytest.raises(FaultSpecError, match="device"):
            parse_fault_spec(f"{kind},device=-2")


def timed_array_read(plan, n_disks=2, start=0, n_pages=64):
    """One striped read under a plan; returns (elapsed, array)."""
    sim = Simulator()
    array = DiskArray(sim, n_disks=n_disks,
                      geometry=DiskGeometry(total_pages=4096),
                      stripe_pages=8)
    if plan is not None:
        FaultInjector(sim, plan).attach(disk=array)
    array.read(start, n_pages)
    sim.run()
    return sim.now, array


class TestDeviceScopedInjection:
    def test_delay_on_one_device_spares_the_others(self):
        # A 64-page read over a 2-way, 8-page stripe issues 4 requests
        # per device; a pinned clause stretches exactly device 1's half.
        plan = FaultPlan.from_spec("disk-delay:factor=8.0,device=1", seed=0)
        elapsed, array = timed_array_read(plan)
        injector = array.disks[0]._faults
        assert injector.stats.disk_delayed_requests == 4
        clean_elapsed, _ = timed_array_read(None)
        assert elapsed > clean_elapsed

    def test_global_delay_stretches_every_request(self):
        _, pinned_array = timed_array_read(
            FaultPlan.from_spec("disk-delay:factor=8.0,device=0", seed=0)
        )
        _, global_array = timed_array_read(
            FaultPlan.from_spec("disk-delay:factor=8.0", seed=0)
        )
        pinned = pinned_array.disks[0]._faults.stats.disk_delayed_requests
        unpinned = global_array.disks[0]._faults.stats.disk_delayed_requests
        assert unpinned == 2 * pinned

    def test_errors_strike_only_the_pinned_device(self):
        plan = FaultPlan.from_spec(
            "disk-error:rate=1.0,max_retries=2,backoff=0.001,device=1",
            seed=0,
        )
        _, array = timed_array_read(plan, n_pages=128)
        injector = array.disks[0]._faults
        assert injector.stats.disk_errors_injected > 0
        # Every request on device 1 retried; device 0 never did.
        assert array.disks[1].stats.io_retries > 0
        assert array.disks[0].stats.io_retries == 0

    def test_out_of_range_device_never_fires(self):
        plan = FaultPlan.from_spec("disk-delay:factor=8.0,device=7", seed=0)
        elapsed, array = timed_array_read(plan)
        clean_elapsed, _ = timed_array_read(None)
        assert elapsed == pytest.approx(clean_elapsed)
        assert array.disks[0]._faults.stats.disk_delayed_requests == 0


def run_push_chaos(fault_spec, seed=11, n_scans=3, n_pages=256):
    db = make_database(
        n_pages=n_pages, pool_pages=96,
        sharing=SharingConfig(enabled=True),
        n_disks=2, stripe_extents=1, push_enabled=True,
        fault_plan=FaultPlan.from_spec(fault_spec, seed=seed),
    )
    scans = [
        TableScan(db, "t", 0, n_pages - 1, on_run=cheap, sharing=db.sharing)
        for _ in range(n_scans)
    ]
    procs = [db.sim.spawn(scan.run()) for scan in scans]
    db.sim.run()
    for proc in procs:
        if proc.completion.failed:
            raise proc.completion.value
    db.faults.check_invariants()
    assert db.faults.checker.checks_run > 0
    return db


class TestPushInvariantsUnderFaults:
    def test_device_degradation_keeps_delivery_invariants(self):
        db = run_push_chaos(
            "disk-delay:factor=6.0,device=0;"
            "disk-error:rate=0.3,max_retries=3,backoff=0.001,device=1"
        )
        assert db.push.stats.extents_pushed > 0
        assert db.push.stats.duplicate_deliveries == 0

    def test_kills_leave_no_consumer_sets_behind(self):
        db = run_push_chaos(
            "scan-kill:target=any,at=0.3,count=2;disk-delay:factor=2.0"
        )
        assert db.sharing.stats.scans_aborted >= 1
        for consumers in db.push.consumer_sets().values():
            assert not consumers
        assert db.push.stats.duplicate_deliveries == 0


@pytest.mark.slow
class TestStripedChaosDeterminism:
    """Chaos over a striped push database: serial digest == --jobs digest."""

    def test_serial_vs_jobs_identical_digests(self):
        from repro.experiments.harness import ExperimentSettings
        from repro.experiments.runner import (
            ExperimentTask,
            metrics_digest,
            run_tasks,
        )

        chaotic = ExperimentSettings(
            scale=0.05, n_streams=2, seed=7,
            device_count=2, stripe_extents=1, push_prefetch=True,
            fault_spec="disk-delay:factor=3.0,device=1;leader-abort",
        )
        tasks = [ExperimentTask("e1", chaotic),
                 ExperimentTask("st-push", chaotic)]
        serial = run_tasks(tasks, jobs=1, use_cache=False)
        fanned = run_tasks(tasks, jobs=2, use_cache=False)
        for left, right in zip(serial.tasks, fanned.tasks):
            assert metrics_digest(left.metrics) == metrics_digest(right.metrics)
        assert serial.suite_digest() == fanned.suite_digest()
