"""Tests for table schemas, distribution and routing."""

import pytest

from repro.common.errors import CatalogError, StorageError
from repro.storage.table import (
    Column,
    Distribution,
    TableSchema,
    rows_to_columns,
    shard_of_value,
)
from repro.storage.types import DataType, coerce


def make_schema(**kwargs):
    return TableSchema(
        "t",
        [Column("id", DataType.INT), Column("v", DataType.TEXT),
         Column("w", DataType.INT)],
        primary_key="id",
        **kwargs,
    )


class TestSchemaValidation:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [Column("a", DataType.INT),
                              Column("a", DataType.INT)], "a")

    def test_unknown_primary_key_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [Column("a", DataType.INT)], "b")

    def test_unknown_distribution_column_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [Column("a", DataType.INT)], "a",
                        distribution_column="zz")

    def test_distribution_defaults_to_primary_key(self):
        schema = make_schema()
        assert schema.distribution_column == "id"

    def test_bad_column_name_rejected(self):
        with pytest.raises(CatalogError):
            Column("not a name", DataType.INT)


class TestCoerceRow:
    def test_types_coerced(self):
        schema = make_schema()
        row = schema.coerce_row({"id": 1.0, "v": "x", "w": 3})
        assert row == {"id": 1, "v": "x", "w": 3}
        assert isinstance(row["id"], int)

    def test_missing_nullable_becomes_none(self):
        schema = make_schema()
        assert schema.coerce_row({"id": 1})["v"] is None

    def test_null_primary_key_rejected(self):
        with pytest.raises(StorageError):
            make_schema().coerce_row({"v": "x"})

    def test_not_null_enforced(self):
        schema = TableSchema(
            "t", [Column("id", DataType.INT),
                  Column("v", DataType.TEXT, nullable=False)], "id")
        with pytest.raises(StorageError):
            schema.coerce_row({"id": 1})

    def test_unknown_columns_rejected(self):
        with pytest.raises(StorageError):
            make_schema().coerce_row({"id": 1, "zz": 2})

    @pytest.mark.parametrize("data_type", [DataType.INT, DataType.BIGINT,
                                           DataType.TIMESTAMP])
    @pytest.mark.parametrize("value", [2 ** 63, -2 ** 63 - 1, 2 ** 70, 1e20,
                                       -1e19, "9223372036854775808"])
    def test_integers_outside_int64_rejected(self, data_type, value):
        with pytest.raises(StorageError, match="out of range"):
            coerce(value, data_type)
        schema = TableSchema("t", [Column("id", DataType.INT),
                                   Column("v", data_type)], "id")
        with pytest.raises(StorageError, match="out of range"):
            schema.coerce_row({"id": 1, "v": value})
        with pytest.raises(StorageError, match="out of range"):
            schema.coerce_values({"v": value})

    @pytest.mark.parametrize("data_type", [DataType.INT, DataType.BIGINT,
                                           DataType.TIMESTAMP])
    def test_int64_edges_accepted(self, data_type):
        for value in (2 ** 63 - 1, -2 ** 63, 2.0 ** 62, "-9223372036854775808"):
            assert coerce(value, data_type) == int(value)


class TestRouting:
    def test_int_sharding_is_modulo(self):
        assert [shard_of_value(i, 4) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_string_sharding_is_stable(self):
        assert shard_of_value("abc", 8) == shard_of_value("abc", 8)

    def test_shard_of_row(self):
        schema = make_schema(distribution_column="w")
        row = schema.coerce_row({"id": 1, "w": 5})
        assert schema.shard_of(row, 4) == 5 % 4

    def test_replicated_has_no_shard(self):
        schema = make_schema(distribution=Distribution.REPLICATION,
                             distribution_column=None)
        with pytest.raises(StorageError):
            schema.shard_of({"id": 1}, 4)

    def test_key_router(self):
        schema = TableSchema(
            "d", [Column("d_key", DataType.INT), Column("w", DataType.INT)],
            "d_key", distribution_column="w", key_router=lambda k: k // 10)
        assert schema.shard_of_key(57, 4) == 5 % 4

    def test_key_routing_without_router_requires_pk_distribution(self):
        schema = make_schema(distribution_column="w")
        with pytest.raises(StorageError):
            schema.shard_of_key(1, 4)


class TestRowsToColumns:
    def test_pivot(self):
        cols = rows_to_columns([{"a": 1, "b": 2}, {"a": 3}], ["a", "b"])
        assert cols == {"a": [1, 3], "b": [2, None]}
