"""Deterministic column data generation, stored extent by extent.

Every page's contents are a pure function of ``(seed, table_name,
page_no)`` so the dataset never needs to be materialized: a page is
regenerated identically whether it is read once or a thousand times, on
any run, under any sharing mode.  That property turns query results into
an end-to-end correctness oracle for the whole engine.

The unit of storage is the *extent*: a :class:`PageGenerator` draws each
page from that page's own RNG stream but keeps the pages of one extent
back to back in one array per column.  A page, or any run of consecutive
pages inside an extent, is a set of views into those arrays, so a scan
can hand its operators a whole extent run as one batch without copying.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.storage.schema import ColumnSpec, TableSchema

PageData = Dict[str, np.ndarray]


class Batch(dict):
    """Column arrays of a run of rows, plus dictionary codes.

    A plain ``{column: array}`` dict as far as expressions are
    concerned.  ``codes[name]`` additionally holds, for a ``choice``
    column, each row's category index as a small integer — the draw the
    generator makes anyway — so grouping on such a column never has to
    compare Python objects.
    """

    __slots__ = ("codes",)

    def __init__(self, columns=(), codes: Optional[PageData] = None):
        super().__init__(columns)
        self.codes: PageData = {} if codes is None else codes


def take_rows(batch: PageData, selector, names: Optional[Iterable[str]] = None) -> Batch:
    """The rows of ``batch`` that ``selector`` (a slice or a boolean
    mask) picks, restricted to the columns in ``names`` when given.
    Dictionary codes ride along with their columns."""
    return Batch(
        {name: values[selector] for name, values in batch.items()
         if names is None or name in names},
        {name: values[selector]
         for name, values in getattr(batch, "codes", {}).items()
         if names is None or name in names},
    )


#: Process-wide extent cache shared by every :class:`PageGenerator`.
#: Contents are a pure function of (seed, schema, total pages, extent
#: size, extent number), so the cache is keyed on exactly that tuple and
#: a hit is indistinguishable from regeneration.  The share matters
#: because a base-vs-sharing comparison builds a fresh database (and
#: generator) per mode: without it, every mode regenerates every page
#: from cold.
_SHARED_CACHE: "OrderedDict[Tuple, _Extent]" = OrderedDict()
_SHARED_CACHE_PAGES = 8192


class _Extent:
    """One generated extent: its batch and the page views handed out."""

    __slots__ = ("batch", "pages")

    def __init__(self, batch: Batch, n_pages: int):
        self.batch = batch
        #: Views of single pages, made on first request so that
        #: ``page(n) is page(n)``; they live and die with the extent.
        self.pages: List[Optional[Batch]] = [None] * n_pages


def _page_rng(seed: int, table_name: str, page_no: int) -> np.random.Generator:
    """A generator whose stream is unique per (seed, table, page)."""
    tag = f"{seed}:{table_name}:{page_no}".encode()
    return np.random.default_rng(zlib.crc32(tag))


def generate_column(
    column: ColumnSpec,
    rng: np.random.Generator,
    page_no: int,
    rows_per_page: int,
    total_pages: int,
) -> np.ndarray:
    """Generate one page's worth of values for ``column``.

    A ``choice`` column yields category *indexes*; the generator decodes
    them once per extent and keeps them as the column's dictionary codes.
    """
    n = rows_per_page
    if column.kind == "int_uniform":
        return rng.integers(int(column.low), int(column.high) + 1, size=n)
    if column.kind == "float_uniform":
        return rng.uniform(column.low, column.high, size=n)
    if column.kind == "choice":
        return rng.integers(0, len(column.categories), size=n)
    if column.kind == "sequence":
        start = page_no * rows_per_page
        return np.arange(start, start + n, dtype=np.int64)
    if column.kind == "clustered":
        # Monotone across the table: page p covers an equal slice of
        # [low, high]; within the page, values are sorted uniforms in the
        # slice, so the whole column is globally non-decreasing.
        span = column.high - column.low
        slice_lo = column.low + span * (page_no / total_pages)
        slice_hi = column.low + span * ((page_no + 1) / total_pages)
        values = rng.uniform(slice_lo, slice_hi, size=n)
        values.sort()
        return values
    raise AssertionError(f"unreachable column kind {column.kind!r}")


class PageGenerator:
    """Caching generator of page contents for one table."""

    #: Default cache capacity in pages.  Contents are a pure function of
    #: ``(seed, table, page)``, so caching only trades memory for the
    #: regeneration cost; 4096 pages (~tens of MB at headline scale) keeps
    #: every table of a scale-1.0 run resident, where the old 128-page
    #: default thrashed whenever several streams walked a table larger
    #: than the cache and regenerated every page once per scan pass.
    DEFAULT_CACHE_PAGES = 4096

    def __init__(self, schema: TableSchema, total_pages: int, seed: int,
                 cache_pages: int = DEFAULT_CACHE_PAGES, extent_size: int = 16):
        if total_pages < 1:
            raise ValueError(f"table needs at least one page, got {total_pages}")
        if extent_size < 1:
            raise ValueError(f"extent_size must be >= 1, got {extent_size}")
        self.schema = schema
        self.total_pages = total_pages
        self.seed = seed
        self.extent_size = extent_size
        self._cache: Dict[int, _Extent] = {}
        self._cache_extents = max(1, cache_pages // extent_size)
        # Everything extent contents depend on besides the extent number;
        # repr(columns) captures full column specs so two tables that
        # merely share a name and seed can never alias.
        self._shared_tag = (
            seed, schema.name, total_pages, extent_size, schema.rows_per_page,
            repr(schema.columns),
        )
        self._categories = {
            column.name: np.asarray(column.categories, dtype=object)
            for column in schema.columns if column.kind == "choice"
        }

    def page(self, page_no: int) -> Batch:
        """Column arrays for one page: views into its extent (cached)."""
        if not 0 <= page_no < self.total_pages:
            raise IndexError(
                f"page {page_no} out of range for table {self.schema.name!r} "
                f"of {self.total_pages} pages"
            )
        extent = self._extent(page_no // self.extent_size)
        slot = page_no % self.extent_size
        data = extent.pages[slot]
        if data is None:
            rows = self.schema.rows_per_page
            data = extent.pages[slot] = take_rows(
                extent.batch, slice(slot * rows, (slot + 1) * rows)
            )
        return data

    def run(self, first_page: int, n_pages: int) -> Batch:
        """``n_pages`` consecutive pages of one extent as a single batch.

        The batch is the extent's own arrays when the run covers it and
        fresh views otherwise; either way nothing is copied.
        """
        extent_no, slot = divmod(first_page, self.extent_size)
        if n_pages < 1 or slot + n_pages > self.extent_size or not (
            0 <= first_page and first_page + n_pages <= self.total_pages
        ):
            raise IndexError(
                f"run of {n_pages} pages at {first_page} leaves its extent or "
                f"table {self.schema.name!r} of {self.total_pages} pages"
            )
        extent = self._extent(extent_no)
        if n_pages == len(extent.pages):
            return extent.batch
        rows = self.schema.rows_per_page
        return take_rows(extent.batch, slice(slot * rows, (slot + n_pages) * rows))

    def _extent(self, extent_no: int) -> _Extent:
        extent = self._cache.get(extent_no)
        if extent is not None:
            return extent
        shared_key = (self._shared_tag, extent_no)
        extent = _SHARED_CACHE.get(shared_key)
        if extent is None:
            extent = self._generate(extent_no)
            _SHARED_CACHE[shared_key] = extent
            if len(_SHARED_CACHE) > _SHARED_CACHE_PAGES // self.extent_size:
                _SHARED_CACHE.popitem(last=False)
        else:
            _SHARED_CACHE.move_to_end(shared_key)
        self._cache[extent_no] = extent
        if len(self._cache) > self._cache_extents:
            del self._cache[next(iter(self._cache))]
        return extent

    def _generate(self, extent_no: int) -> _Extent:
        """Draw every page of the extent from its own RNG stream and lay
        the pages out back to back, one array per column."""
        schema = self.schema
        first = extent_no * self.extent_size
        pages = range(first, min(first + self.extent_size, self.total_pages))
        parts: Dict[str, List[np.ndarray]] = {
            column.name: [] for column in schema.columns
        }
        for page_no in pages:
            rng = _page_rng(self.seed, schema.name, page_no)
            for column in schema.columns:
                parts[column.name].append(generate_column(
                    column, rng, page_no, schema.rows_per_page, self.total_pages
                ))
        batch = Batch()
        for name, pieces in parts.items():
            values = np.concatenate(pieces)
            categories = self._categories.get(name)
            if categories is not None:
                codes = values.astype(np.min_scalar_type(len(categories)))
                batch.codes[name] = codes
                values = categories[codes]
            batch[name] = values
        return _Extent(batch, len(pages))
