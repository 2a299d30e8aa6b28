"""Column data types shared by the row store, column store and SQL layer."""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from repro.common.errors import StorageError


class DataType(enum.Enum):
    INT = "int"
    BIGINT = "bigint"
    DOUBLE = "double"
    TEXT = "text"
    BOOL = "bool"
    TIMESTAMP = "timestamp"   # stored as integer microseconds

    @property
    def numpy_dtype(self) -> np.dtype:
        return _NUMPY_DTYPES[self]


_NUMPY_DTYPES = {
    DataType.INT: np.dtype(np.int64),
    DataType.BIGINT: np.dtype(np.int64),
    DataType.DOUBLE: np.dtype(np.float64),
    DataType.TEXT: np.dtype(object),
    DataType.BOOL: np.dtype(np.bool_),
    DataType.TIMESTAMP: np.dtype(np.int64),
}

_PY_TYPES = {
    DataType.INT: int,
    DataType.BIGINT: int,
    DataType.DOUBLE: float,
    DataType.TEXT: str,
    DataType.BOOL: bool,
    DataType.TIMESTAMP: int,
}


def coerce(value: object, data_type: DataType) -> Optional[object]:
    """Coerce ``value`` to the Python representation of ``data_type``.

    ``None`` passes through (SQL NULL).  Raises :class:`StorageError` on an
    impossible coercion, e.g. a non-numeric string into INT.
    """
    if value is None:
        return None
    py = _PY_TYPES[data_type]
    if data_type is DataType.BOOL:
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float)):
            return bool(value)
        raise StorageError(f"cannot coerce {value!r} to BOOL")
    if py is int and isinstance(value, bool):
        raise StorageError(f"cannot coerce bool {value!r} to {data_type.value}")
    try:
        if py is float and isinstance(value, (int, float)):
            return float(value)
        if py is int:
            if isinstance(value, int):
                return value
            if isinstance(value, float) and value.is_integer():
                return int(value)
            if isinstance(value, str):
                return int(value)
            raise StorageError(f"cannot coerce {value!r} to {data_type.value}")
        if py is str:
            if isinstance(value, str):
                return value
            raise StorageError(f"cannot coerce {value!r} to TEXT")
        return py(value)
    except (TypeError, ValueError) as exc:
        raise StorageError(f"cannot coerce {value!r} to {data_type.value}: {exc}") from None


def type_of_literal(value: object) -> DataType:
    """Infer the natural column type of a Python literal."""
    if isinstance(value, bool):
        return DataType.BOOL
    if isinstance(value, int):
        return DataType.BIGINT
    if isinstance(value, float):
        return DataType.DOUBLE
    if isinstance(value, str):
        return DataType.TEXT
    raise StorageError(f"no SQL type for literal {value!r}")
