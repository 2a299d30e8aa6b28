"""Tests for the column store and type coercion."""

import pytest

from repro.common.errors import StorageError
from repro.storage.colstore import ColumnChunk, ColumnStore
from repro.storage.table import Column, TableSchema
from repro.storage.types import DataType, coerce, type_of_literal


def store_with_rows(n=100, chunk_rows=32):
    schema = TableSchema(
        "metrics",
        [Column("id", DataType.INT), Column("region", DataType.TEXT),
         Column("value", DataType.DOUBLE)],
        "id",
    )
    store = ColumnStore(schema, chunk_rows=chunk_rows)
    store.append_rows([
        {"id": i, "region": f"r{i % 3}", "value": float(i)} for i in range(n)
    ])
    return store


class TestColumnStore:
    def test_row_count_and_chunking(self):
        store = store_with_rows(100, chunk_rows=32)
        assert store.row_count == 100
        assert store.chunk_count == 4   # 3 sealed + 1 open

    def test_scan_rows_round_trip(self):
        store = store_with_rows(50)
        rows = list(store.scan_rows())
        assert len(rows) == 50
        assert rows[7] == {"id": 7, "region": "r1", "value": 7.0}

    def test_flush_seals_tail(self):
        store = store_with_rows(10, chunk_rows=32)
        store.flush()
        assert store.chunk_count == 1
        assert len(list(store.scan_rows())) == 10

    def test_scan_chunks_projection(self):
        store = store_with_rows(64, chunk_rows=32)
        chunks = list(store.scan_chunks(["value"]))
        assert all(set(c.keys()) == {"value"} for c in chunks)
        total = sum(len(c["value"]) for c in chunks)
        assert total == 64

    def test_nulls_round_trip(self):
        schema = TableSchema("t", [Column("id", DataType.INT),
                                   Column("v", DataType.TEXT)], "id")
        store = ColumnStore(schema, chunk_rows=2)
        store.append_rows([{"id": 1, "v": None}, {"id": 2, "v": "x"},
                           {"id": 3, "v": None}])
        rows = list(store.scan_rows())
        assert [r["v"] for r in rows] == [None, "x", None]

    def test_compression_reduces_footprint(self):
        compressed = store_with_rows(4096 * 2)
        compressed.flush()
        plain = ColumnStore(compressed.schema, compress=False)
        plain.append_rows(list(compressed.scan_rows()))
        plain.flush()
        assert compressed.compressed_footprint() < plain.compressed_footprint()

    def test_unknown_column_rejected(self):
        store = store_with_rows(4)
        with pytest.raises(Exception):
            list(store.scan_chunks(["zz"]))

    @pytest.mark.parametrize("data_type, payload", [
        (DataType.INT, [1, None, 3]), (DataType.TEXT, ["a", None, "a"])])
    def test_decode_checks_the_row_count(self, data_type, payload):
        chunk = ColumnChunk("x", data_type, "plain", payload, row_count=4)
        with pytest.raises(StorageError, match="decoded 3 rows, expected 4"):
            chunk.decode_with_nulls()
        assert chunk._decoded is None


class TestTypes:
    def test_coerce_valid(self):
        assert coerce("12", DataType.INT) == 12
        assert coerce(3, DataType.DOUBLE) == 3.0
        assert coerce(1, DataType.BOOL) is True
        assert coerce(None, DataType.TEXT) is None

    def test_coerce_invalid(self):
        with pytest.raises(StorageError):
            coerce("abc", DataType.INT)
        with pytest.raises(StorageError):
            coerce(3.5, DataType.INT)
        with pytest.raises(StorageError):
            coerce(True, DataType.BIGINT)
        with pytest.raises(StorageError):
            coerce(12, DataType.TEXT)

    def test_type_of_literal(self):
        assert type_of_literal(True) is DataType.BOOL
        assert type_of_literal(1) is DataType.BIGINT
        assert type_of_literal(1.5) is DataType.DOUBLE
        assert type_of_literal("x") is DataType.TEXT
        with pytest.raises(StorageError):
            type_of_literal(object())
