"""Tables: extent-organized page collections with clustered-range lookup."""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.storage.datagen import Batch, PageGenerator
from repro.storage.schema import TableSchema


class Table:
    """A stored table occupying ``n_pages`` pages in extents.

    The table knows how to translate a predicate range on its clustering
    column into the contiguous page range a clustered (MDC-style) scan
    would touch — the physical property the paper's overlapping range
    scans rely on.
    """

    def __init__(
        self,
        schema: TableSchema,
        n_pages: int,
        extent_size: int = 16,
        seed: int = 0,
        space_id: int = -1,
    ):
        if n_pages < 1:
            raise ValueError(f"table {schema.name!r} needs n_pages >= 1, got {n_pages}")
        if extent_size < 1:
            raise ValueError(f"extent_size must be >= 1, got {extent_size}")
        self.schema = schema
        self.n_pages = n_pages
        self.extent_size = extent_size
        self.seed = seed
        self.space_id = space_id  # assigned by the catalog
        self._generator = PageGenerator(
            schema, n_pages, seed, extent_size=extent_size
        )

    @property
    def name(self) -> str:
        """The table's name."""
        return self.schema.name

    @property
    def n_rows(self) -> int:
        """Total number of rows."""
        return self.n_pages * self.schema.rows_per_page

    @property
    def n_extents(self) -> int:
        """Number of (possibly partial) extents."""
        return math.ceil(self.n_pages / self.extent_size)

    def page_data(self, page_no: int) -> Batch:
        """Deterministic contents of one page (views into its extent)."""
        return self._generator.page(page_no)

    def run_data(self, first_page: int, n_pages: int) -> Batch:
        """Contents of ``n_pages`` consecutive pages of one extent, back
        to back in one batch — what a scan hands its operators per run."""
        return self._generator.run(first_page, n_pages)

    def extent_of(self, page_no: int) -> int:
        """Extent index containing ``page_no``."""
        self._check_page(page_no)
        return page_no // self.extent_size

    def extent_pages(self, extent_no: int) -> List[int]:
        """Page numbers of one extent (the prefetch unit)."""
        if not 0 <= extent_no < self.n_extents:
            raise IndexError(
                f"extent {extent_no} out of range for table {self.name!r} "
                f"of {self.n_extents} extents"
            )
        start = extent_no * self.extent_size
        end = min(start + self.extent_size, self.n_pages)
        return list(range(start, end))

    def pages_for_cluster_range(self, low: float, high: float) -> Tuple[int, int]:
        """Page range ``[first, last]`` (inclusive) a clustered range scan
        over ``[low, high]`` on the clustering column touches.

        Raises if the table has no clustering column.
        """
        cluster = self.schema.clustering_column
        if cluster is None:
            raise ValueError(f"table {self.name!r} has no clustering column")
        if high < low:
            raise ValueError(f"cluster range reversed: [{low}, {high}]")
        span = cluster.high - cluster.low
        if span <= 0:
            return (0, self.n_pages - 1)
        lo_frac = min(max((low - cluster.low) / span, 0.0), 1.0)
        hi_frac = min(max((high - cluster.low) / span, 0.0), 1.0)
        first = min(int(lo_frac * self.n_pages), self.n_pages - 1)
        last = min(int(math.ceil(hi_frac * self.n_pages)) - 1, self.n_pages - 1)
        last = max(last, first)
        return (first, last)

    def pages_for_fraction(self, lo_frac: float, hi_frac: float) -> Tuple[int, int]:
        """Page range covering the fractional slice [lo_frac, hi_frac]."""
        if not (0.0 <= lo_frac <= hi_frac <= 1.0):
            raise ValueError(f"bad fractional range [{lo_frac}, {hi_frac}]")
        first = min(int(lo_frac * self.n_pages), self.n_pages - 1)
        last = min(max(int(math.ceil(hi_frac * self.n_pages)) - 1, first), self.n_pages - 1)
        return (first, last)

    def _check_page(self, page_no: int) -> None:
        if not 0 <= page_no < self.n_pages:
            raise IndexError(
                f"page {page_no} out of range for table {self.name!r} "
                f"of {self.n_pages} pages"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Table {self.name} pages={self.n_pages} extent={self.extent_size}>"
