"""Column and table schemas with declarative data distributions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


_KINDS = (
    "int_uniform",
    "float_uniform",
    "choice",
    "sequence",
    "clustered",
)


@dataclass(frozen=True)
class ColumnSpec:
    """Declarative description of one column's synthetic distribution.

    Kinds:
        ``int_uniform``     integers uniform in [low, high].
        ``float_uniform``   floats uniform in [low, high).
        ``choice``          categorical over ``categories`` (uniform).
        ``sequence``        globally increasing row id.
        ``clustered``       monotone non-decreasing values spread across
                            the table's page range — the physical
                            clustering column (e.g. a date the table is
                            organized by); value v maps back to a unique
                            page, so key-range predicates become page
                            ranges.
    """

    name: str
    kind: str
    low: float = 0.0
    high: float = 1.0
    categories: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown column kind {self.kind!r}; known: {_KINDS}")
        if self.kind == "choice" and not self.categories:
            raise ValueError(f"choice column {self.name!r} needs categories")
        if self.kind in ("int_uniform", "float_uniform", "clustered") and not (
            self.high >= self.low
        ):
            raise ValueError(
                f"column {self.name!r}: high ({self.high}) < low ({self.low})"
            )


@dataclass(frozen=True)
class TableSchema:
    """A table's name, columns, and physical occupancy."""

    name: str
    columns: Tuple[ColumnSpec, ...]
    rows_per_page: int = 100

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError(f"table {self.name!r} needs at least one column")
        if self.rows_per_page < 1:
            raise ValueError(
                f"table {self.name!r}: rows_per_page must be >= 1, "
                f"got {self.rows_per_page}"
            )
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise ValueError(f"table {self.name!r} has duplicate column names: {names}")

    @property
    def clustering_column(self) -> Optional[ColumnSpec]:
        """The column the table is physically clustered on, if any."""
        for column in self.columns:
            if column.kind == "clustered":
                return column
        return None
