"""Catalog: the named collection of tables behind one tablespace."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.buffer.page import PageKey
from repro.storage.table import Table
from repro.storage.tablespace import Tablespace


class Catalog:
    """Registry of tables with their tablespace placement.

    Page keys are **interned**: every table gets one lazily-built tuple
    holding all its :class:`PageKey` objects (index == page number), and
    extent key lists are cached slices of it.  Scan inner loops and the
    push pipeline therefore never allocate a key tuple per page — an
    extent's keys are a dictionary hit, not ``extent_size`` NamedTuple
    constructions.  Tables never change size after :meth:`create_table`,
    so the caches need no invalidation.
    """

    def __init__(self, tablespace: Tablespace):
        self.tablespace = tablespace
        self._tables: Dict[str, Table] = {}
        self._by_space: Dict[int, Table] = {}
        self._page_keys: Dict[str, Tuple[PageKey, ...]] = {}
        self._extent_keys: Dict[Tuple[str, int], List[PageKey]] = {}

    def create_table(self, table: Table) -> Table:
        """Register a table and allocate its disk range."""
        if table.name in self._tables:
            raise ValueError(f"table {table.name!r} already exists")
        space_id = self.tablespace.allocate(table.n_pages)
        table.space_id = space_id
        self._tables[table.name] = table
        self._by_space[space_id] = table
        return table

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(
                f"no table named {name!r}; known tables: {sorted(self._tables)}"
            ) from None

    def page_keys(self, table_name: str) -> Tuple[PageKey, ...]:
        """Every page key of a table, indexed by page number."""
        keys = self._page_keys.get(table_name)
        if keys is None:
            table = self.table(table_name)
            space_id = table.space_id
            keys = tuple(
                PageKey(space_id, page) for page in range(table.n_pages)
            )
            self._page_keys[table_name] = keys
        return keys

    def extent_keys(self, table_name: str, extent_no: int) -> List[PageKey]:
        """Interned page keys of one extent (the prefetch unit).

        The returned list is cached and shared — callers must treat it as
        read-only.
        """
        cached = self._extent_keys.get((table_name, extent_no))
        if cached is None:
            table = self.table(table_name)
            if not 0 <= extent_no < table.n_extents:
                raise IndexError(
                    f"extent {extent_no} out of range for table "
                    f"{table_name!r} of {table.n_extents} extents"
                )
            start = extent_no * table.extent_size
            end = min(start + table.extent_size, table.n_pages)
            cached = list(self.page_keys(table_name)[start:end])
            self._extent_keys[(table_name, extent_no)] = cached
        return cached

    def address_of(self, key: PageKey) -> int:
        """Disk address of a page key (pool adapter)."""
        return self.tablespace.address_of(key)

    @property
    def total_pages(self) -> int:
        """Sum of page counts over all tables (the 'database size')."""
        return sum(table.n_pages for table in self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)
