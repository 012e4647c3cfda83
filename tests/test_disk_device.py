"""Unit tests for the simulated disk device."""

import pytest

from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.sim.events import SimulationError
from repro.sim.kernel import Simulator


@pytest.fixture
def fast_geo():
    return DiskGeometry(total_pages=1000)


def read_pages(sim, disk, requests, log):
    for start, n in requests:
        done = yield disk.read(start, n)
        log.append((sim.now, start, n, done.start_page))


class TestValidation:
    def test_zero_pages_rejected(self, sim, fast_geo):
        disk = Disk(sim, fast_geo)
        with pytest.raises(SimulationError):
            disk.read(0, 0)

    def test_out_of_range_rejected(self, sim, fast_geo):
        disk = Disk(sim, fast_geo)
        with pytest.raises(SimulationError):
            disk.read(999, 2)
        with pytest.raises(SimulationError):
            disk.read(-1, 1)


class TestServiceModel:
    def test_single_read_takes_seek_plus_transfer(self, sim, fast_geo):
        disk = Disk(sim, fast_geo)
        log = []
        sim.spawn(read_pages(sim, disk, [(100, 4)], log))
        sim.run()
        expected = (
            fast_geo.seek_time(0, 100)
            + fast_geo.settle_time
            + fast_geo.transfer_time(4)
        )
        assert sim.now == pytest.approx(expected)

    def test_sequential_read_skips_seek(self, sim, fast_geo):
        disk = Disk(sim, fast_geo)
        log = []
        # Head parks at page 0, so a read starting at 0 is sequential too.
        sim.spawn(read_pages(sim, disk, [(0, 4), (4, 4)], log))
        sim.run()
        assert disk.stats.seeks == 0
        assert disk.stats.reads == 2

    def test_non_sequential_reads_each_seek(self, sim, fast_geo):
        disk = Disk(sim, fast_geo)
        log = []
        sim.spawn(read_pages(sim, disk, [(100, 4), (500, 4), (10, 4)], log))
        sim.run()
        assert disk.stats.seeks == 3

    def test_fifo_service_order(self, sim, fast_geo):
        disk = Disk(sim, fast_geo)
        completions = []

        def submit_all(sim):
            events = [disk.read(500, 1), disk.read(0, 1), disk.read(900, 1)]
            for ev in events:
                ev.add_callback(
                    lambda e: completions.append(e.value.start_page)
                )
            yield sim.timeout(0)

        sim.spawn(submit_all(sim))
        sim.run()
        assert completions == [500, 0, 900]

    def test_head_position_tracks_last_transfer(self, sim, fast_geo):
        disk = Disk(sim, fast_geo)
        log = []
        sim.spawn(read_pages(sim, disk, [(100, 8)], log))
        sim.run()
        assert disk.head_position == 108


class TestStatsAndTraces:
    def test_pages_read_accumulates(self, sim, fast_geo):
        disk = Disk(sim, fast_geo)
        log = []
        sim.spawn(read_pages(sim, disk, [(0, 4), (100, 8)], log))
        sim.run()
        assert disk.stats.pages_read == 12
        assert disk.stats.reads == 2

    def test_write_stats_separate(self, sim, fast_geo):
        disk = Disk(sim, fast_geo)

        def writer(sim):
            yield disk.write(50, 2)

        sim.spawn(writer(sim))
        sim.run()
        assert disk.stats.writes == 1
        assert disk.stats.pages_written == 2
        assert disk.stats.pages_read == 0

    def test_read_trace_bucketing(self, sim, fast_geo):
        disk = Disk(sim, fast_geo)
        log = []
        sim.spawn(read_pages(sim, disk, [(0, 4), (200, 4), (400, 4)], log))
        sim.run()
        buckets = disk.stats.pages_read_per_bucket(until=sim.now, bucket=sim.now)
        assert sum(buckets) == 12

    def test_outstanding_timeline_returns_to_zero(self, sim, fast_geo):
        disk = Disk(sim, fast_geo)
        log = []
        sim.spawn(read_pages(sim, disk, [(0, 2), (600, 2)], log))
        sim.run()
        # Busy from the first request until the last one completes.
        points = list(disk.outstanding_timeline.change_points())
        assert points[-1] == (sim.now, 0.0)
        assert all(level >= 1 for _time, level in points[:-1])

    def test_queue_length_while_busy(self, sim, fast_geo):
        disk = Disk(sim, fast_geo)

        def submit(sim):
            disk.read(0, 100)
            disk.read(500, 1)
            disk.read(700, 1)
            yield sim.timeout(0)
            assert disk.busy
            assert disk.queue_length == 2

        sim.spawn(submit(sim))
        sim.run()
        assert not disk.busy
        assert disk.queue_length == 0
