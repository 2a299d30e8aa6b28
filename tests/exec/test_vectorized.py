"""Tests for the vectorized execution kernels."""

import numpy as np
import pytest

from repro.common.errors import ExecutionError
from repro.exec.vectorized import (
    aggregate,
    row_aggregate,
    scan_filter_vectors,
    selection_mask,
)
from repro.storage.colstore import ColumnStore
from repro.storage.table import Column, TableSchema
from repro.storage.types import DataType


@pytest.fixture
def store():
    schema = TableSchema(
        "m",
        [Column("id", DataType.INT), Column("g", DataType.TEXT),
         Column("v", DataType.DOUBLE)],
        "id",
    )
    cs = ColumnStore(schema, chunk_rows=64)
    cs.append_rows([
        {"id": i, "g": f"g{i % 4}", "v": float(i)} for i in range(300)
    ])
    return cs


class TestScanFilter:
    def test_filtering(self, store):
        total = sum(len(b["id"]) for b in scan_filter_vectors(
            store, ["id"], [("v", ">", 249.0)]))
        assert total == 50

    def test_multiple_predicates_anded(self, store):
        batches = list(scan_filter_vectors(
            store, ["id"],
            [("v", ">=", 100.0), ("v", "<", 110.0), ("g", "=", "g0")]))
        ids = np.concatenate([b["id"].data for b in batches])
        assert sorted(ids.tolist()) == [100, 104, 108]

    def test_unknown_predicate_column(self, store):
        with pytest.raises(Exception):
            list(scan_filter_vectors(store, ["id"], [("zz", "=", 1)]))

    def test_bad_operator(self, store):
        with pytest.raises(ExecutionError):
            list(scan_filter_vectors(store, ["id"], [("v", "~", 1)]))


class TestAggregates:
    def test_whole_table(self, store):
        assert aggregate(store, "v", "sum") == sum(range(300))
        assert aggregate(store, "v", "min") == 0.0
        assert aggregate(store, "v", "max") == 299.0
        assert aggregate(store, "v", "count") == 300.0
        assert aggregate(store, "v", "avg") == pytest.approx(149.5)

    def test_filtered(self, store):
        assert aggregate(store, "v", "count", [("g", "=", "g1")]) == 75.0

    def test_empty_result(self, store):
        assert aggregate(store, "v", "sum", [("v", ">", 10_000.0)]) is None


class TestRowFallbackEquivalence:
    @pytest.mark.parametrize("func", ["sum", "min", "max", "count", "avg"])
    def test_same_answers(self, store, func):
        predicates = [("v", ">=", 50.0), ("v", "<", 250.0)]
        vector = aggregate(store, "v", func, predicates)
        rows = row_aggregate(store.scan_rows(), "v", func, predicates)
        assert vector == pytest.approx(rows)

    def test_selection_mask_respects_validity(self):
        schema = TableSchema("t", [Column("id", DataType.INT),
                                   Column("v", DataType.DOUBLE)], "id")
        cs = ColumnStore(schema, chunk_rows=8)
        cs.append_rows([{"id": 1, "v": None}, {"id": 2, "v": 5.0}])
        chunk = next(cs.scan_chunks(["v"]))
        mask = selection_mask(chunk, [("v", ">=", 0.0)])
        assert mask.tolist() == [False, True]   # NULL never matches
