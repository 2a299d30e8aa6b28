"""Column data types shared by the row store, column store and SQL layer."""

from __future__ import annotations

import enum
from typing import Callable, Dict, Optional

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

#: The integer types are int64 lanes (``DataType.numpy_dtype``).
INT64_MIN = -2 ** 63
INT64_MAX = 2 ** 63 - 1


def _coerce_any(value: object, data_type: DataType) -> object:
    """The general coercion of a non-NULL value, which every per-type
    coercer falls back to."""
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


# Per-type coercers of a non-NULL value: an exact-class fast path, and
# everything else through ``_coerce_any``.


def _integer_coercer(data_type: DataType) -> Callable[[object], object]:
    def coerce_integer(value: object) -> object:
        out = value if value.__class__ is int else _coerce_any(value, data_type)
        if INT64_MIN <= out <= INT64_MAX:
            return out
        raise StorageError(
            f"value {value!r} out of range for {data_type.value}")
    return coerce_integer


def _coerce_double(value: object) -> object:
    if value.__class__ is float:
        return value
    if value.__class__ is int:
        return float(value)
    return _coerce_any(value, DataType.DOUBLE)


def _coerce_text(value: object) -> object:
    if value.__class__ is str:
        return value
    return _coerce_any(value, DataType.TEXT)


def _coerce_bool(value: object) -> object:
    if value.__class__ is bool:
        return value
    return _coerce_any(value, DataType.BOOL)


COERCERS: Dict[DataType, Callable[[object], object]] = {
    DataType.INT: _integer_coercer(DataType.INT),
    DataType.BIGINT: _integer_coercer(DataType.BIGINT),
    DataType.DOUBLE: _coerce_double,
    DataType.TEXT: _coerce_text,
    DataType.BOOL: _coerce_bool,
    DataType.TIMESTAMP: _integer_coercer(DataType.TIMESTAMP),
}


def coerce(value: object, data_type: DataType) -> Optional[object]:
    """Coerce ``value`` to the Python representation of ``data_type``.

    ``None`` passes through (SQL NULL).  Raises :class:`StorageError` on an
    impossible coercion, e.g. a non-numeric string into INT, or an integer
    outside int64 into INT, BIGINT or TIMESTAMP.
    """
    if value is None:
        return None
    return COERCERS[data_type](value)


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
