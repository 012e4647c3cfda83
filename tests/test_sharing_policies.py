"""Unit tests for the pluggable sharing-policy axis.

Covers the :class:`~repro.core.policy.SharingPolicy` factory, the
``cooperative`` attach/elevator manager, the ``pbm`` scan registry with
its reuse-time-predictive replacement policy, the database wiring of the
axis, and the policy-specific invariant sets — including the scan
abort/end lifecycle edges the rival policies introduce (ghost attach
targets, lingering reuse-time entries).
"""

import math

import pytest

from repro.buffer.page import PageKey, Priority
from repro.buffer.replacement import make_policy
from repro.buffer.replacement.pbm import PbmPolicy
from repro.core.config import SharingConfig
from repro.core.cooperative import CooperativeScanManager
from repro.core.manager import ScanSharingManager
from repro.core.pbm import PbmScanManager
from repro.core.policy import (
    SHARING_POLICY_NAMES,
    SharingPolicy,
    make_sharing_policy,
)
from repro.core.scan_state import ScanDescriptor
from repro.faults.invariants import InvariantChecker, InvariantViolation
from repro.sim.kernel import Simulator
from repro.storage.catalog import Catalog
from repro.storage.schema import ColumnSpec
from repro.storage.table import Table
from repro.storage.tablespace import Tablespace

from tests.conftest import flat_cost, make_database, make_schema


def make_catalog(table_pages=1000, extent=16):
    sim = Simulator()
    catalog = Catalog(Tablespace(10_000))
    schema = make_schema("t", [ColumnSpec("id", "sequence")])
    catalog.create_table(Table(schema, n_pages=table_pages, extent_size=extent))
    return sim, catalog


def make_manager(name, config=None, table_pages=1000, pool=200, extent=16):
    sim, catalog = make_catalog(table_pages, extent)
    manager = make_sharing_policy(
        name, sim, catalog, pool_capacity=pool, config=config or SharingConfig()
    )
    return sim, manager


def full_scan(speed=100.0, table_pages=1000):
    return ScanDescriptor("t", 0, table_pages - 1, estimated_speed=speed)


class TestFactory:
    def test_every_registered_name_constructs(self):
        for name in SHARING_POLICY_NAMES:
            _, manager = make_manager(name)
            assert isinstance(manager, SharingPolicy)
            assert manager.policy_name == name

    def test_unknown_name_rejected(self):
        sim, catalog = make_catalog()
        with pytest.raises(ValueError, match="unknown sharing policy"):
            make_sharing_policy("elevator", sim, catalog, 200)

    def test_factory_types(self):
        assert isinstance(make_manager("grouping-throttling")[1],
                          ScanSharingManager)
        assert isinstance(make_manager("cooperative")[1],
                          CooperativeScanManager)
        assert isinstance(make_manager("pbm")[1], PbmScanManager)


class TestCooperative:
    def test_first_scan_starts_at_range_start(self):
        _, manager = make_manager("cooperative")
        state = manager.start_scan(full_scan())
        assert state.start_page == 0
        assert manager.attach_target(state.scan_id) is None

    def test_attaches_at_ongoing_scan_position(self):
        _, manager = make_manager("cooperative")
        first = manager.start_scan(full_scan())
        manager.update_location(first.scan_id, 200)
        second = manager.start_scan(full_scan())
        assert second.start_page == 192  # extent-aligned at first's position
        assert manager.attach_target(second.scan_id) == first.scan_id
        assert manager.stats.scans_joined_ongoing == 1

    def test_attaches_even_below_sharing_threshold(self):
        """No MIN_SHARE_PAGES gate: cooperative always attaches."""
        _, manager = make_manager("cooperative")
        first = manager.start_scan(full_scan(speed=100.0))
        manager.update_location(first.scan_id, 992)  # 8 pages left
        second = manager.start_scan(full_scan(speed=100.0))
        assert manager.attach_target(second.scan_id) == first.scan_id

    def test_attaches_to_hottest_convoy(self):
        """The attach target is in the densest cluster of scans."""
        _, manager = make_manager("cooperative")
        s0 = manager.start_scan(full_scan())
        manager.update_location(s0.scan_id, 400)      # s0 at 400
        s1 = manager.start_scan(full_scan())          # attaches at 400
        manager.update_location(s1.scan_id, 400)      # s1 moves to 800
        s2 = manager.start_scan(full_scan())          # rejoins s0 at 400
        assert s2.start_page == 400
        # Positions now: s0 and s2 at 400 (density 2), s1 alone at 800.
        s3 = manager.start_scan(full_scan())
        assert manager.attach_target(s3.scan_id) == s0.scan_id
        assert s3.start_page == 400

    def test_never_throttles(self):
        sim, manager = make_manager("cooperative")
        first = manager.start_scan(full_scan(speed=1000.0))
        manager.start_scan(full_scan(speed=1.0))
        sim._now = 0.5
        assert manager.update_location(first.scan_id, 500) == 0.0
        assert manager.stats.throttle_waits == 0

    def test_priority_always_normal(self):
        _, manager = make_manager("cooperative")
        scans = [manager.start_scan(full_scan()) for _ in range(3)]
        for state in scans:
            assert manager.page_priority(state.scan_id) is Priority.NORMAL

    def test_end_scan_drops_attach_edges(self):
        _, manager = make_manager("cooperative")
        first = manager.start_scan(full_scan())
        manager.update_location(first.scan_id, 100)
        second = manager.start_scan(full_scan())
        assert manager.attach_target(second.scan_id) == first.scan_id
        manager.end_scan(first.scan_id)
        assert manager.attach_target(second.scan_id) is None
        assert manager.attach_edges() == {}

    def test_abort_leaves_no_ghost_attach_target(self):
        """After abort_scan nobody may attach to — or stay attached to —
        the dead scan (satellite: ghost attach targets)."""
        _, manager = make_manager("cooperative")
        victim = manager.start_scan(full_scan())
        manager.update_location(victim.scan_id, 320)
        follower = manager.start_scan(full_scan())
        assert manager.attach_target(follower.scan_id) == victim.scan_id
        manager.abort_scan(victim.scan_id)
        assert manager.attach_target(follower.scan_id) is None
        assert manager.stats.scans_aborted == 1
        # A newcomer must not be placed at the ghost's id...
        newcomer = manager.start_scan(full_scan())
        assert manager.attach_target(newcomer.scan_id) != victim.scan_id
        # ...and every surviving edge references live scans only.
        live = {s.scan_id for s in manager.active_scans()}
        for follower_id, target_id in manager.attach_edges().items():
            assert follower_id in live and target_id in live

    def test_group_of_is_none(self):
        _, manager = make_manager("cooperative")
        state = manager.start_scan(full_scan())
        assert manager.group_of(state.scan_id) is None


class TestPbmManager:
    def test_never_moves_start_position(self):
        _, manager = make_manager("pbm")
        first = manager.start_scan(full_scan())
        manager.update_location(first.scan_id, 300)
        second = manager.start_scan(full_scan())
        assert second.start_page == 0
        assert manager.stats.scans_joined_ongoing == 0

    def test_never_throttles_and_priority_normal(self):
        _, manager = make_manager("pbm")
        state = manager.start_scan(full_scan())
        assert manager.update_location(state.scan_id, 100) == 0.0
        assert manager.page_priority(state.scan_id) is Priority.NORMAL

    def test_reuse_time_tracks_scan_position(self):
        sim, manager = make_manager("pbm")
        state = manager.start_scan(full_scan(speed=100.0))
        space = manager.catalog.table("t").space_id
        # Ahead of the scan: distance / speed.
        assert manager.next_consumption_time(PageKey(space, 50)) == pytest.approx(0.5)
        sim._now = 1.0
        manager.update_location(state.scan_id, 100)
        assert manager.next_consumption_time(PageKey(space, 50)) == math.inf

    def test_reuse_time_is_min_over_scans(self):
        sim, manager = make_manager("pbm")
        slow = manager.start_scan(full_scan(speed=10.0))
        fast = manager.start_scan(full_scan(speed=100.0))
        sim._now = 1.0
        manager.update_location(slow.scan_id, 10)
        manager.update_location(fast.scan_id, 100)
        space = manager.catalog.table("t").space_id
        # Page 200: fast scan arrives in (200-100)/100 = 1s; slow in 19s.
        assert manager.next_consumption_time(PageKey(space, 200)) == pytest.approx(
            1.0, rel=0.2
        )

    def test_page_behind_scan_never_reused_before_finish(self):
        """A page already passed predicts reuse only via the wrap that
        will not happen (distance >= remaining)."""
        sim, manager = make_manager("pbm")
        state = manager.start_scan(full_scan())
        sim._now = 1.0
        manager.update_location(state.scan_id, 500)
        space = manager.catalog.table("t").space_id
        assert manager.next_consumption_time(PageKey(space, 100)) == math.inf

    def test_end_scan_drops_reuse_entries(self):
        """PBM reuse-time map drops entries on end_scan (satellite)."""
        _, manager = make_manager("pbm")
        state = manager.start_scan(full_scan())
        space = manager.catalog.table("t").space_id
        assert state.scan_id in manager.reuse_sources()[space]
        manager.end_scan(state.scan_id)
        assert manager.reuse_sources() == {}
        assert manager.next_consumption_time(PageKey(space, 10)) == math.inf

    def test_abort_scan_drops_reuse_entries(self):
        _, manager = make_manager("pbm")
        keep = manager.start_scan(full_scan())
        victim = manager.start_scan(full_scan())
        manager.abort_scan(victim.scan_id)
        space = manager.catalog.table("t").space_id
        assert set(manager.reuse_sources()[space]) == {keep.scan_id}


class TestPbmPolicy:
    def test_registry_rejects_pbm(self):
        """PBM needs its scan registry, which only Database.open has; a
        bare name would be LRU under a second name."""
        with pytest.raises(ValueError, match="unknown replacement policy"):
            make_policy("pbm", 64)

    def test_unbound_degrades_to_lru(self):
        """A page no registered scan will reach again has an infinite
        time to reuse; with no scans at all every page ties, and the
        order is plain LRU."""
        _, manager = make_manager("pbm")
        policy = PbmPolicy(manager)
        keys = [PageKey(0, n) for n in range(4)]
        for key in keys:
            policy.on_admit(key)
        policy.on_hit(keys[0])
        assert policy.choose_victim(lambda k: True) == keys[1]

    def test_bound_evicts_longest_time_to_reuse(self):
        _, manager = make_manager("pbm")
        state = manager.start_scan(full_scan(speed=100.0))
        manager.update_location(state.scan_id, 100)
        space = manager.catalog.table("t").space_id
        policy = PbmPolicy(manager)
        near = PageKey(space, 110)    # 10 pages ahead: reused soon
        far = PageKey(space, 900)     # 800 pages ahead: reused late
        passed = PageKey(space, 50)   # behind the scan: never reused
        for key in (near, far, passed):
            policy.on_admit(key)
        assert policy.choose_victim(lambda k: True) == passed
        policy.on_evict(passed)
        assert policy.choose_victim(lambda k: True) == far
        policy.on_evict(far)
        assert policy.choose_victim(lambda k: True) == near

    def test_bound_respects_evictable_predicate(self):
        _, manager = make_manager("pbm")
        manager.start_scan(full_scan())
        space = manager.catalog.table("t").space_id
        policy = PbmPolicy(manager)
        pinned = PageKey(space, 999)
        free = PageKey(space, 5)
        policy.on_admit(pinned)
        policy.on_admit(free)
        assert policy.choose_victim(lambda k: k != pinned) == free
        assert policy.choose_victim(lambda k: False) is None

    def test_inf_ties_break_lru(self):
        _, manager = make_manager("pbm")  # no scans: everything is inf
        policy = PbmPolicy(manager)
        old = PageKey(0, 1)
        new = PageKey(0, 2)
        policy.on_admit(old)
        policy.on_admit(new)
        policy.on_hit(old)  # old becomes most recent
        assert policy.choose_victim(lambda k: True) == new


class TestDatabaseWiring:
    def test_default_policy_is_grouping_throttling(self):
        db = make_database()
        assert isinstance(db.sharing, ScanSharingManager)
        assert db.sharing.policy_name == "grouping-throttling"

    def test_cooperative_wiring(self):
        db = make_database(sharing_policy="cooperative")
        assert isinstance(db.sharing, CooperativeScanManager)
        assert not isinstance(db.pool.policy, PbmPolicy)

    def test_pbm_wiring_binds_pool_policy(self):
        db = make_database(sharing_policy="pbm")
        assert isinstance(db.sharing, PbmScanManager)
        assert isinstance(db.pool.policy, PbmPolicy)
        assert db.pool.policy._oracle is db.sharing

    def test_pbm_base_mode_keeps_configured_policy(self):
        """With sharing disabled, PBM must not touch the pool policy —
        Base runs stay identical across the sharing_policy axis."""
        db = make_database(
            sharing_policy="pbm", sharing=SharingConfig(enabled=False)
        )
        assert not isinstance(db.pool.policy, PbmPolicy)

    def test_unknown_sharing_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown sharing policy"):
            make_database(sharing_policy="elevator")


class TestPolicyInvariants:
    def test_cooperative_clean_state_passes(self):
        _, manager = make_manager("cooperative")
        first = manager.start_scan(full_scan())
        manager.update_location(first.scan_id, 64)
        manager.start_scan(full_scan())
        checker = InvariantChecker(manager)
        checker.run_checks()
        assert checker.checks_run == 1

    def test_cooperative_ghost_edge_detected(self):
        _, manager = make_manager("cooperative")
        first = manager.start_scan(full_scan())
        manager.update_location(first.scan_id, 64)
        second = manager.start_scan(full_scan())
        # Corrupt by hand: point the edge at a scan id that never existed.
        manager._attached_to[second.scan_id] = 999
        with pytest.raises(InvariantViolation, match="ghost attach target"):
            InvariantChecker(manager).run_checks()

    def test_pbm_clean_state_passes(self):
        _, manager = make_manager("pbm")
        manager.start_scan(full_scan())
        checker = InvariantChecker(manager)
        checker.run_checks()
        assert checker.checks_run == 1

    def test_pbm_stale_source_detected(self):
        _, manager = make_manager("pbm")
        state = manager.start_scan(full_scan())
        space = manager.catalog.table("t").space_id
        # Corrupt by hand: keep the entry after deregistration.
        del manager._states[state.scan_id]
        assert state.scan_id in manager._sources[space]
        with pytest.raises(InvariantViolation, match="stale prediction"):
            InvariantChecker(manager).run_checks()

    def test_pbm_missing_source_detected(self):
        _, manager = make_manager("pbm")
        state = manager.start_scan(full_scan())
        manager._sources.clear()
        with pytest.raises(InvariantViolation, match="missing from the"):
            InvariantChecker(manager).run_checks()
        del state

    def test_flat_priority_violation_detected(self):
        _, manager = make_manager("cooperative")
        state = manager.start_scan(full_scan())
        state.is_leader = True
        manager.page_priority = lambda scan_id: Priority.HIGH
        with pytest.raises(InvariantViolation, match="never steers"):
            InvariantChecker(manager).run_checks()


class TestSharedScanUnderRivalPolicies:
    """The scan operator runs unchanged under every policy."""

    @pytest.mark.parametrize("name", SHARING_POLICY_NAMES)
    def test_two_overlapping_scans_complete(self, name):
        from repro.scans.table_scan import TableScan

        db = make_database(sharing_policy=name)
        results = []

        def spawn(delay):
            def process():
                yield db.sim.timeout(delay)
                scan = TableScan(
                    db, "t", 0, 127, on_run=flat_cost(1e-6), sharing=db.sharing
                )
                result = yield from scan.run()
                results.append(result)
            db.sim.spawn(process())

        spawn(0.0)
        spawn(0.05)
        db.sim.run()
        assert len(results) == 2
        assert all(r.pages_scanned == 128 for r in results)
        assert db.sharing.active_scan_count == 0
