"""Unit tests for the push prefetch pipeline and its pool entry point.

Covers the three push contracts in isolation and end-to-end:

* ``BufferPool.push_read`` makes pages resident without touching the
  hit/miss classification (the accounting identity is about *demand*
  reads only);
* the pipeline delivers each pushed extent at most once per registered
  consumer, merges concurrent registrations, and purges departing scans;
* ``ArrayStats`` is an exact aggregate of its per-device split.
"""

from __future__ import annotations

from repro.buffer.page import PageKey
from repro.core.config import SharingConfig
from repro.disk.array import DiskArray
from repro.disk.geometry import DiskGeometry
from repro.faults.plan import FaultPlan
from repro.scans.table_scan import TableScan
from repro.sim.kernel import Simulator

from tests.conftest import flat_cost, make_database, make_pool


cheap = flat_cost(1e-6)


def keys(*page_nos):
    return [PageKey(0, page_no) for page_no in page_nos]


def push_db(n_pages=256, pool_pages=96, n_disks=2, **kwargs):
    return make_database(
        n_pages=n_pages, pool_pages=pool_pages,
        sharing=SharingConfig(enabled=True),
        n_disks=n_disks, stripe_extents=1, push_enabled=True,
        **kwargs,
    )


def run_scans(db, n_scans, n_pages=256, allow_abort=False):
    scans = [
        TableScan(db, "t", 0, n_pages - 1, on_run=cheap, sharing=db.sharing)
        for _ in range(n_scans)
    ]
    procs = [db.sim.spawn(scan.run()) for scan in scans]
    db.sim.run()
    for proc in procs:
        if proc.completion.failed and not allow_abort:
            raise proc.completion.value
    return [proc.completion.value for proc in procs]


class TestPushRead:
    def test_absent_pages_become_resident(self, sim, disk):
        pool = make_pool(sim, disk, capacity=32)
        completion, outcome = pool.push_read(keys(0, 1, 2, 3))
        assert outcome == "issued"
        landed = []
        completion.add_callback(lambda ev: landed.append(sim.now))
        sim.run()
        assert landed
        for key in keys(0, 1, 2, 3):
            assert pool.try_fix(key) is not None
            pool.unfix(key)

    def test_resident_pages_cost_nothing(self, sim, disk):
        pool = make_pool(sim, disk, capacity=32)
        pool.push_read(keys(0, 1))
        sim.run()
        before = pool.stats.physical_requests
        completion, outcome = pool.push_read(keys(0, 1))
        assert outcome == "resident"
        assert completion is None
        assert pool.stats.physical_requests == before

    def test_push_does_not_touch_demand_accounting(self, sim, disk):
        pool = make_pool(sim, disk, capacity=32)
        pool.push_read(keys(0, 1, 2, 3))
        sim.run()
        stats = pool.stats
        assert stats.logical_reads == 0
        assert stats.hits == 0
        assert stats.misses == 0
        assert stats.pushed_requests == 1
        assert stats.pushed_pages == 4

    def test_pushed_pages_are_counted_as_physical(self, sim, disk):
        pool = make_pool(sim, disk, capacity=32)
        pool.push_read(keys(0, 1, 2, 3))
        sim.run()
        assert pool.stats.physical_pages_read == 4
        assert pool.stats.pushed_pages == 4

    def test_full_pool_of_pinned_pages_reports_no_room(self, sim, disk):
        pool = make_pool(sim, disk, capacity=4)

        def pin_all():
            for key in keys(0, 1, 2, 3):
                yield from pool.fix(key)

        sim.spawn(pin_all())
        sim.run()
        completion, outcome = pool.push_read(keys(10, 11, 12, 13))
        assert outcome == "no_room"
        assert completion is None

    def test_push_evicts_clean_unpinned_pages_for_room(self, sim, disk):
        pool = make_pool(sim, disk, capacity=4)

        def fill_then_release():
            for key in keys(0, 1, 2, 3):
                yield from pool.fix(key)
                pool.unfix(key)

        sim.spawn(fill_then_release())
        sim.run()
        completion, outcome = pool.push_read(keys(10, 11, 12, 13))
        assert outcome == "issued"
        sim.run()
        for key in keys(10, 11, 12, 13):
            assert pool.try_fix(key) is not None
            pool.unfix(key)


class TestPipelineDelivery:
    def test_group_members_all_receive_each_extent_once(self):
        db = push_db()
        run_scans(db, 3)
        stats = db.push.stats
        assert stats.extents_pushed > 0
        assert stats.deliveries > 0
        assert stats.duplicate_deliveries == 0
        for counts in db.push.delivery_counts().values():
            assert all(count == 1 for count in counts.values())

    def test_only_the_driver_pushes(self):
        db = push_db()
        run_scans(db, 3)
        stats = db.push.stats
        # Trailing members cross extent boundaries too; none may push.
        assert stats.non_driver_calls > 0

    def test_push_converts_trailer_misses_into_hits(self):
        pull = make_database(
            n_pages=256, pool_pages=96,
            sharing=SharingConfig(enabled=True), n_disks=2, stripe_extents=1,
        )
        run_scans(pull, 3)
        push = push_db()
        run_scans(push, 3)
        assert push.pool.stats.misses < pull.pool.stats.misses
        assert (
            push.pool.stats.physical_pages_read
            <= pull.pool.stats.physical_pages_read
        )

    def test_accounting_identity_holds_with_push(self):
        db = push_db()
        run_scans(db, 3)
        stats = db.pool.stats
        assert stats.logical_reads == (
            stats.hits + stats.misses + stats.inflight_waits
        )

    def test_single_scan_prefetches_for_itself(self):
        db = push_db()
        run_scans(db, 1)
        stats = db.push.stats
        assert stats.extents_pushed > 0
        assert stats.duplicate_deliveries == 0

    def test_push_disabled_means_no_pipeline(self):
        db = make_database(sharing=SharingConfig(enabled=True))
        assert db.push is None
        assert db.pool.stats.pushed_pages == 0


class TestConsumerLifecycle:
    def test_aborted_scan_leaves_every_consumer_set(self):
        db = push_db(
            fault_plan=FaultPlan.from_spec(
                "scan-kill:target=any,at=0.5", seed=3
            ),
        )
        results = run_scans(db, 3, allow_abort=True)
        assert any(result.aborted for result in results)
        for consumers in db.push.consumer_sets().values():
            assert not consumers
        for counts in db.push.delivery_counts().values():
            assert not counts
        assert db.faults.checker.checks_run > 0

    def test_killed_leader_purges_and_successor_drives(self):
        db = push_db(
            fault_plan=FaultPlan.from_spec(
                "scan-kill:target=leader,at=0.4", seed=5
            ),
        )
        results = run_scans(db, 3, allow_abort=True)
        assert any(result.aborted for result in results)
        assert db.push.stats.duplicate_deliveries == 0
        assert db.sharing.active_scan_count == 0

    def test_policy_hooks_report_group_roles(self):
        db = push_db()
        manager = db.sharing
        assert manager._push is db.push
        descriptors = []

        def probe():
            yield db.sim.timeout(0.0)

        # Drive two overlapping scans far enough to group, then inspect.
        scans = [
            TableScan(db, "t", 0, 255, on_run=cheap, sharing=db.sharing)
            for _ in range(2)
        ]
        procs = [db.sim.spawn(scan.run()) for scan in scans]

        def snapshot():
            yield db.sim.timeout(0.05)
            for scan_id in list(manager._states):
                descriptors.append((
                    scan_id,
                    manager.is_push_driver(scan_id),
                    sorted(manager.push_consumer_set(scan_id)),
                ))

        db.sim.spawn(snapshot())
        db.sim.run()
        for proc in procs:
            assert not proc.completion.failed
        grouped = [entry for entry in descriptors if len(entry[2]) > 1]
        if grouped:  # the two scans overlapped into one group
            drivers = [entry for entry in grouped if entry[1]]
            assert len(drivers) == 1
            assert drivers[0][2] == sorted(
                scan_id for scan_id, _, _ in descriptors
            )


class TestPerDeviceStats:
    def test_aggregate_equals_sum_of_per_device(self):
        sim = Simulator()
        array = DiskArray(sim, n_disks=4,
                          geometry=DiskGeometry(total_pages=4096),
                          stripe_pages=8)
        for start in (0, 40, 256, 512, 1000):
            array.read(start, 32)
        sim.run()
        per_device = array.stats.per_device
        assert len(per_device) == 4
        assert array.stats.reads == sum(stats.reads for stats in per_device)
        assert array.stats.pages_read == sum(
            stats.pages_read for stats in per_device
        )
        assert array.stats.seeks == sum(stats.seeks for stats in per_device)

    def test_every_device_carries_load_on_a_striped_scan(self):
        sim = Simulator()
        array = DiskArray(sim, n_disks=4,
                          geometry=DiskGeometry(total_pages=4096),
                          stripe_pages=8)
        array.read(0, 256)
        sim.run()
        assert all(stats.pages_read > 0 for stats in array.stats.per_device)

    def test_device_indices_match_positions(self):
        sim = Simulator()
        array = DiskArray(sim, n_disks=3,
                          geometry=DiskGeometry(total_pages=4096),
                          stripe_pages=8)
        assert [disk.device_index for disk in array.disks] == [0, 1, 2]
