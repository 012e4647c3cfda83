"""Unit tests for the sharing-potential analyzer."""

import pytest

from repro.core.config import SharingConfig
from repro.engine.database import Database, SystemConfig
from repro.engine.executor import run_workload
from repro.metrics.access_log import analyze_sharing_potential, collect_scans

from tests.conftest import simple_table_schema, uniform_scan_query


def run_recorded(record=True, n_streams=3):
    db = Database(SystemConfig(
        pool_pages=32,
        sharing=SharingConfig(enabled=False),
        record_page_visits=record,
    ))
    db.create_table(simple_table_schema("t"), n_pages=64, extent_size=8)
    db.open()
    query = uniform_scan_query("t", 0.0, 0.5, name="half")
    return run_workload(db, [[query] for _ in range(n_streams)])


class TestCollect:
    def test_collect_scans_counts_steps(self):
        workload = run_recorded()
        scans = collect_scans(workload)
        assert len(scans) == 3
        assert all(scan.table_name == "t" for scan in scans)


class TestAnalyze:
    def test_requires_recorded_visits(self):
        workload = run_recorded(record=False)
        with pytest.raises(ValueError, match="record_page_visits"):
            analyze_sharing_potential(workload)

    def test_re_read_accounting(self):
        workload = run_recorded(n_streams=3)
        report = analyze_sharing_potential(workload)
        potential = report.tables["t"]
        assert potential.n_scans == 3
        assert potential.pages_requested == 3 * 32
        assert potential.distinct_pages == 32
        assert potential.re_read_pages == 2 * 32
        assert potential.potential_fraction == pytest.approx(2 / 3)

    def test_overlapping_pairs_counted(self):
        workload = run_recorded(n_streams=3)
        report = analyze_sharing_potential(workload)
        # All three scans run concurrently over the same pages.
        assert report.tables["t"].overlapping_pairs == 3
        assert report.tables["t"].overlapping_shared_pages == 3 * 32

    def test_hot_tables_threshold(self):
        workload = run_recorded(n_streams=3)
        report = analyze_sharing_potential(workload)
        assert report.hot_tables(min_scans=3)[0].table == "t"
        assert report.hot_tables(min_scans=4) == []

    def test_render_contains_table(self):
        workload = run_recorded()
        text = analyze_sharing_potential(workload).render()
        assert "t" in text
        assert "re-read share" in text

    def test_total_scans(self):
        workload = run_recorded(n_streams=2)
        assert analyze_sharing_potential(workload).total_scans == 2
