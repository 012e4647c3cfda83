"""Unit tests for leader/trailer page prioritization."""

from collections import Counter

from repro.buffer.page import Priority
from repro.core.config import SharingConfig
from repro.core.priority import release_priority
from repro.core.scan_state import ScanDescriptor, ScanState
from repro.engine.executor import run_workload

from tests.conftest import make_database, uniform_scan_query


def state(is_leader=False, is_trailer=False):
    s = ScanState(
        scan_id=0,
        descriptor=ScanDescriptor("t", 0, 99, estimated_speed=10.0),
        start_page=0,
        start_time=0.0,
        speed=10.0,
    )
    s.is_leader = is_leader
    s.is_trailer = is_trailer
    return s


class TestReleasePriority:
    def test_leader_releases_high(self):
        assert release_priority(state(is_leader=True), 3, SharingConfig()) is Priority.HIGH

    def test_trailer_releases_low(self):
        assert release_priority(state(is_trailer=True), 3, SharingConfig()) is Priority.LOW

    def test_middle_releases_normal(self):
        assert release_priority(state(), 3, SharingConfig()) is Priority.NORMAL

    def test_singleton_group_always_normal(self):
        assert (
            release_priority(state(is_leader=True, is_trailer=True), 1, SharingConfig())
            is Priority.NORMAL
        )

    def test_prioritization_disabled(self):
        config = SharingConfig(prioritization_enabled=False)
        assert release_priority(state(is_leader=True), 3, config) is Priority.NORMAL

    def test_sharing_disabled(self):
        """A Base run's scans have no manager, so the executor is what
        keeps their pages at NORMAL: every unfix carries it, where the
        same workload shared releases leader and trailer pages."""

        def release_counts(enabled):
            db = make_database(n_pages=1000, pool_pages=64,
                               sharing=SharingConfig(enabled=enabled))
            counts = Counter()
            unfix = db.pool.unfix

            def counting_unfix(key, priority=Priority.NORMAL):
                counts[priority] += 1
                unfix(key, priority)

            db.pool.unfix = counting_unfix
            slow = uniform_scan_query("t", cpu_units_per_row=50.0)
            run_workload(db, [[slow], [uniform_scan_query("t")]],
                         stagger=0.05)
            return counts

        assert release_counts(True)[Priority.HIGH] > 0
        assert release_counts(False) == Counter({Priority.NORMAL: 2000})
