"""Unit tests for column and table schemas."""

import pytest

from repro.storage.schema import ColumnSpec, TableSchema

from tests.conftest import make_schema


class TestColumnSpec:
    def test_valid_kinds(self):
        ColumnSpec("a", "int_uniform", 0, 10)
        ColumnSpec("b", "float_uniform", 0.0, 1.0)
        ColumnSpec("c", "choice", categories=("x", "y"))
        ColumnSpec("d", "sequence")
        ColumnSpec("e", "clustered", 0.0, 100.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ColumnSpec("a", "zipf")

    def test_choice_needs_categories(self):
        with pytest.raises(ValueError):
            ColumnSpec("a", "choice")

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            ColumnSpec("a", "int_uniform", 10, 0)


class TestTableSchema:
    def test_needs_columns(self):
        with pytest.raises(ValueError):
            TableSchema("t", columns=())

    def test_rows_per_page_positive(self):
        with pytest.raises(ValueError):
            TableSchema(
                "t", columns=(ColumnSpec("a", "sequence"),), rows_per_page=0
            )

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(ValueError):
            TableSchema(
                "t",
                columns=(ColumnSpec("a", "sequence"), ColumnSpec("a", "sequence")),
            )

    def test_clustering_column_found(self):
        schema = make_schema(
            "t",
            [ColumnSpec("a", "sequence"), ColumnSpec("d", "clustered", 0, 10)],
        )
        assert schema.clustering_column.name == "d"

    def test_clustering_column_absent(self):
        schema = make_schema("t", [ColumnSpec("a", "sequence")])
        assert schema.clustering_column is None
