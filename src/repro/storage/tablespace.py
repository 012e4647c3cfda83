"""Tablespace: contiguous disk-address allocation for tables."""

from __future__ import annotations

from typing import Dict

from repro.buffer.page import PageKey


class Tablespace:
    """Maps (space_id, page_no) keys to absolute disk page addresses.

    Each table receives its own space id and a contiguous address range —
    tables laid out one after another with an optional inter-table gap so
    cross-table transitions always cost a seek (as they would on a real
    layout).
    """

    def __init__(self, total_disk_pages: int, inter_table_gap: int = 64):
        if total_disk_pages < 1:
            raise ValueError(f"need at least one disk page, got {total_disk_pages}")
        if inter_table_gap < 0:
            raise ValueError(f"inter_table_gap must be >= 0, got {inter_table_gap}")
        self.total_disk_pages = total_disk_pages
        self.inter_table_gap = inter_table_gap
        self._base_of: Dict[int, int] = {}
        self._size_of: Dict[int, int] = {}
        self._next_free = 0
        self._next_space_id = 0

    def allocate(self, n_pages: int) -> int:
        """Allocate a contiguous range; returns the new space id."""
        if n_pages < 1:
            raise ValueError(f"allocation needs n_pages >= 1, got {n_pages}")
        if self._next_free + n_pages > self.total_disk_pages:
            raise ValueError(
                f"disk full: need {n_pages} pages at offset {self._next_free} "
                f"but device has only {self.total_disk_pages}"
            )
        space_id = self._next_space_id
        self._next_space_id += 1
        self._base_of[space_id] = self._next_free
        self._size_of[space_id] = n_pages
        self._next_free += n_pages + self.inter_table_gap
        return space_id

    def address_of(self, key: PageKey) -> int:
        """Absolute disk page address for a page key."""
        base = self._base_of.get(key.space_id)
        if base is None:
            raise KeyError(f"unknown space id {key.space_id}")
        if not 0 <= key.page_no < self._size_of[key.space_id]:
            raise IndexError(
                f"page {key.page_no} outside space {key.space_id} of "
                f"{self._size_of[key.space_id]} pages"
            )
        return base + key.page_no

    @property
    def allocated_pages(self) -> int:
        """Total pages handed out (excluding gaps)."""
        return sum(self._size_of.values())
