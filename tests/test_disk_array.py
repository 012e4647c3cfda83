"""Unit and integration tests for the striped disk array."""

import pytest

from repro.core.config import SharingConfig
from repro.disk.array import DiskArray
from repro.disk.geometry import DiskGeometry
from repro.engine.database import Database, SystemConfig
from repro.engine.executor import run_workload
from repro.sim.events import SimulationError

from tests.conftest import simple_table_schema, uniform_scan_query


@pytest.fixture
def geo():
    return DiskGeometry(total_pages=4096)


def make_array(sim, geo, n_disks=4, stripe=8):
    return DiskArray(sim, n_disks=n_disks, geometry=geo, stripe_pages=stripe)


class TestStriping:
    def test_validation(self, sim, geo):
        with pytest.raises(SimulationError):
            DiskArray(sim, n_disks=0, geometry=geo)
        with pytest.raises(SimulationError):
            DiskArray(sim, n_disks=2, geometry=geo, stripe_pages=0)

    def test_locate_round_robin(self, sim, geo):
        array = make_array(sim, geo, n_disks=4, stripe=8)
        # Pages 0..7 on disk 0, 8..15 on disk 1, ..., 32..39 back on 0.
        assert array.stripe_map.locate(0) == (0, 0)
        assert array.stripe_map.locate(7) == (0, 7)
        assert array.stripe_map.locate(8) == (1, 0)
        assert array.stripe_map.locate(31) == (3, 7)
        assert array.stripe_map.locate(32) == (0, 8)

    def test_locate_is_injective_per_disk(self, sim, geo):
        array = make_array(sim, geo, n_disks=3, stripe=8)
        seen = set()
        for page in range(400):
            location = array.stripe_map.locate(page)
            assert location not in seen
            seen.add(location)

    def test_read_within_one_stripe(self, sim, geo):
        array = make_array(sim, geo)

        def reader(sim):
            yield array.read(0, 8)

        sim.spawn(reader(sim))
        sim.run()
        assert array.stats.reads == 1
        assert array.stats.pages_read == 8

    def test_read_spanning_stripes_splits(self, sim, geo):
        array = make_array(sim, geo, n_disks=4, stripe=8)

        def reader(sim):
            yield array.read(4, 16)  # crosses two stripe boundaries

        sim.spawn(reader(sim))
        sim.run()
        assert array.stats.reads == 3  # 4..7, 8..15, 16..19
        assert array.stats.pages_read == 16

    def test_parallel_stripes_faster_than_single_disk(self, geo):
        """One large request spread over 4 spindles completes faster
        than on one spindle."""
        from repro.disk.device import Disk
        from repro.sim.kernel import Simulator

        def span(n_disks):
            sim = Simulator()
            device = (
                make_array(sim, geo, n_disks=n_disks, stripe=8)
                if n_disks > 1
                else Disk(sim, geo)
            )

            def reader(sim):
                yield device.read(0, 64)

            sim.spawn(reader(sim))
            return sim.run()

        assert span(4) < span(1)

    def test_outstanding_timeline_returns_to_zero(self, sim, geo):
        array = make_array(sim, geo)

        def reader(sim):
            yield array.read(0, 32)
            yield array.read(100, 16)

        sim.spawn(reader(sim))
        sim.run()
        assert array.outstanding_timeline.level_at(sim.now) == 0


class TestDatabaseIntegration:
    def test_default_stripe_unit_is_64_pages(self):
        """With no stripe setting a 2-disk database stripes in 64-page
        units: 4 extents of the 16-page extent every database uses."""
        db = Database(SystemConfig(n_disks=2))
        assert db.disk.stripe_pages == 64
        assert db.disk.stripe_map.locate(63) == (0, 63)
        assert db.disk.stripe_map.locate(64) == (1, 0)
        assert db.disk.stripe_map.locate(128) == (0, 64)

    def run_db(self, n_disks, enabled=True):
        db = Database(SystemConfig(
            pool_pages=48,
            n_disks=n_disks,
            stripe_extents=1,
            sharing=SharingConfig(enabled=enabled),
        ))
        db.create_table(simple_table_schema("t"), n_pages=256, extent_size=16)
        db.open()
        query = uniform_scan_query("t", name="full")
        result = run_workload(db, [[query] for _ in range(3)], stagger=0.02)
        return db, result

    def test_workload_runs_on_array(self):
        db, result = self.run_db(n_disks=4)
        assert result.pages_read >= 256
        assert result.makespan > 0

    def test_more_spindles_reduce_makespan(self):
        _, one = self.run_db(n_disks=1, enabled=False)
        _, four = self.run_db(n_disks=4, enabled=False)
        assert four.makespan < one.makespan

    def test_sharing_still_helps_on_array(self):
        _, base = self.run_db(n_disks=4, enabled=False)
        _, shared = self.run_db(n_disks=4, enabled=True)
        assert shared.pages_read < base.pages_read

    def test_cpu_breakdown_works_with_array(self):
        db, _ = self.run_db(n_disks=2)
        breakdown = db.cpu_breakdown()
        assert sum(breakdown.as_dict().values()) == pytest.approx(1.0)
