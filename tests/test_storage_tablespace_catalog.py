"""Unit tests for tablespace allocation and the catalog."""

import pytest

from repro.buffer.page import PageKey
from repro.storage.catalog import Catalog
from repro.storage.schema import ColumnSpec
from repro.storage.table import Table
from repro.storage.tablespace import Tablespace

from tests.conftest import make_schema


def make_table(name, n_pages=10):
    return Table(
        make_schema(name, [ColumnSpec("id", "sequence")]), n_pages=n_pages
    )


class TestTablespace:
    def test_allocations_are_disjoint_and_ordered(self):
        ts = Tablespace(total_disk_pages=1000)
        a = ts.allocate(100)
        b = ts.allocate(50)
        assert ts.address_of(PageKey(a, 0)) == 0
        assert ts.address_of(PageKey(b, 0)) == 164  # 100 pages + 64 gap

    def test_addresses_contiguous_within_space(self):
        ts = Tablespace(total_disk_pages=1000)
        space = ts.allocate(20)
        addrs = [ts.address_of(PageKey(space, p)) for p in range(20)]
        assert addrs == list(range(addrs[0], addrs[0] + 20))

    def test_page_out_of_space_rejected(self):
        ts = Tablespace(total_disk_pages=1000)
        space = ts.allocate(10)
        with pytest.raises(IndexError):
            ts.address_of(PageKey(space, 10))

    def test_unknown_space_rejected(self):
        ts = Tablespace(total_disk_pages=1000)
        with pytest.raises(KeyError):
            ts.address_of(PageKey(99, 0))

    def test_disk_full_rejected(self):
        ts = Tablespace(total_disk_pages=100)
        ts.allocate(90)
        with pytest.raises(ValueError):
            ts.allocate(50)


class TestCatalog:
    def test_create_and_lookup(self):
        catalog = Catalog(Tablespace(1000))
        table = catalog.create_table(make_table("orders"))
        assert catalog.table("orders") is table
        assert table.space_id >= 0

    def test_duplicate_name_rejected(self):
        catalog = Catalog(Tablespace(1000))
        catalog.create_table(make_table("t"))
        with pytest.raises(ValueError):
            catalog.create_table(make_table("t"))

    def test_unknown_table_error_lists_known(self):
        catalog = Catalog(Tablespace(1000))
        catalog.create_table(make_table("a"))
        with pytest.raises(KeyError, match="'a'"):
            catalog.table("missing")

    def test_total_pages_and_iteration(self):
        catalog = Catalog(Tablespace(1000))
        catalog.create_table(make_table("a", 10))
        catalog.create_table(make_table("b", 20))
        assert catalog.total_pages == 30
        assert len(catalog) == 2

    def test_address_of_distinct_tables_never_collides(self):
        catalog = Catalog(Tablespace(10_000))
        a = catalog.create_table(make_table("a", 50))
        b = catalog.create_table(make_table("b", 50))
        addrs_a = {catalog.address_of(PageKey(a.space_id, p)) for p in range(50)}
        addrs_b = {catalog.address_of(PageKey(b.space_id, p)) for p in range(50)}
        assert not (addrs_a & addrs_b)
