"""Property tests: the per-column coercers equal the reference coercion.

``TableSchema`` types a row through a tuple of per-column coercers, each
with an exact-class fast path; an update types only the columns it
assigns (``coerce_values``).  Both must return what the general
coercion below returns — the same values with the same ``type()`` — or
raise the same exception class with the same message.  The one intended
difference: an integer column refuses a value outside int64.
"""

import math

from hypothesis import example, given, settings, strategies as st

from repro.common.errors import StorageError
from repro.storage.table import Column, TableSchema
from repro.storage.types import DataType, coerce

INT64 = (-2 ** 63, 2 ** 63 - 1)
PY_TYPES = {DataType.INT: int, DataType.BIGINT: int, DataType.DOUBLE: float,
            DataType.TEXT: str, DataType.BOOL: bool, DataType.TIMESTAMP: int}


def reference_coerce(value, data_type):
    """The general coercion, kept here as written before the per-column
    coercers, plus the int64 range check of the integer types."""
    if value is None:
        return None
    py = PY_TYPES[data_type]
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
                out = value
            elif isinstance(value, float) and value.is_integer():
                out = int(value)
            elif isinstance(value, str):
                out = int(value)
            else:
                raise StorageError(
                    f"cannot coerce {value!r} to {data_type.value}")
            if not INT64[0] <= out <= INT64[1]:
                raise StorageError(
                    f"value {value!r} out of range for {data_type.value}")
            return out
        if py is str:
            if isinstance(value, str):
                return value
            raise StorageError(f"cannot coerce {value!r} to TEXT")
        return py(value)
    except (TypeError, ValueError) as exc:
        raise StorageError(
            f"cannot coerce {value!r} to {data_type.value}: {exc}") from None


def reference_row(schema, row):
    """``coerce_row`` as written before: column order, then unknowns."""
    out = {}
    for col in schema.columns:
        value = row.get(col.name)
        if value is None:
            if not col.nullable and col.name != schema.primary_key:
                raise StorageError(
                    f"table {schema.name}: column {col.name} is NOT NULL")
            if col.name == schema.primary_key:
                raise StorageError(f"table {schema.name}: NULL primary key")
            out[col.name] = None
        else:
            out[col.name] = reference_coerce(value, col.data_type)
    extra = set(row) - {col.name for col in schema.columns}
    if extra:
        raise StorageError(f"table {schema.name}: unknown columns {sorted(extra)}")
    return out


def outcome(fn, *args):
    """``("ok", value)`` or ``("raise", class, message)``."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the class is the point
        return ("raise", type(exc), str(exc))


def same_value(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def same_outcome(got, want):
    if got[0] != want[0]:
        return False
    if got[0] == "raise":
        return got[1:] == want[1:]
    if isinstance(want[1], dict):
        return (list(got[1]) == list(want[1])
                and all(same_value(got[1][k], want[1][k]) for k in want[1]))
    return same_value(got[1], want[1])


EDGES = [
    None, True, False, 0, 1, -1, 7, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1,
    2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1, 2 ** 70, -2 ** 70,
    0.0, -0.0, 1.5, -2.0, 3.0, float("nan"), float("inf"), float("-inf"),
    9.223372036854776e18, -9.223372036854776e18, 1e20, 1e300,
    float(2 ** 53), float(2 ** 53 + 2),
    "", "x", "12", "-12", " 42 ", "1_000", "1.5", "nan", "inf", "-inf",
    "9223372036854775807", "9223372036854775808", "-9223372036854775809",
    "1e3", "0x10", "true", "١٢",
    b"1", [1], (), 1j,
]

values = st.one_of(
    st.sampled_from(EDGES),
    st.integers(),
    st.integers(min_value=-2 ** 64, max_value=2 ** 64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70).map(str),
    st.floats(allow_nan=True).map(repr),
    st.text(max_size=6),
    st.booleans(),
    st.none(),
)
types = st.sampled_from(list(DataType))

SCHEMA = TableSchema("t", [
    Column("k", DataType.INT),
    Column("b", DataType.BIGINT),
    Column("d", DataType.DOUBLE, nullable=False),
    Column("s", DataType.TEXT),
    Column("f", DataType.BOOL),
    Column("ts", DataType.TIMESTAMP),
], "k")
NAMES = [c.name for c in SCHEMA.columns]
#: A stored row (typed, every column) that updates assign into.
STORED = {"k": 1, "b": 2, "d": 3.0, "s": "s", "f": False, "ts": 4}

rows = st.dictionaries(st.sampled_from(NAMES + ["zz", "k2"]), values,
                       max_size=8)


@settings(max_examples=600, deadline=None)
@given(values, types)
@example(True, DataType.INT)
@example(2 ** 63, DataType.BIGINT)
@example(1e20, DataType.TIMESTAMP)
@example("9223372036854775808", DataType.INT)
@example(-0.0, DataType.DOUBLE)
@example(2 ** 1100, DataType.DOUBLE)
def test_coerce_equals_reference(value, data_type):
    got = outcome(coerce, value, data_type)
    want = outcome(reference_coerce, value, data_type)
    assert same_outcome(got, want), (value, data_type, got, want)


@settings(max_examples=400, deadline=None)
@given(rows)
@example({"k": 1, "d": 2, "zz": "bad"})
@example({"k": 1, "d": True})
@example({"k": 2 ** 63, "d": 1.0})
@example({"d": 1.0})
@example({"k": 1})
def test_coerce_row_equals_reference(row):
    got = outcome(SCHEMA.coerce_row, row)
    want = outcome(reference_row, SCHEMA, row)
    assert same_outcome(got, want), (row, got, want)


def _assign(values):
    current = dict(STORED)
    current.update(SCHEMA.coerce_values(values))
    return current


@settings(max_examples=400, deadline=None)
@given(rows)
@example({"d": 5})
@example({"d": None, "zz": 1})
@example({"k": None})
@example({"b": 2 ** 64, "s": 7})
@example({"ts": 1.0, "f": 0})
@example({"zz": 1})
def test_update_assigns_what_a_whole_row_check_gives(values):
    """An update checks only its assigned columns; the merged row equals
    the whole merged row checked, or the same error is raised."""
    merged = dict(STORED)
    merged.update(values)
    got = outcome(_assign, values)
    want = outcome(reference_row, SCHEMA, merged)
    assert same_outcome(got, want), (values, got, want)


def test_coerce_values_types_only_what_it_is_given():
    assert SCHEMA.coerce_values({}) == {}
    out = SCHEMA.coerce_values({"ts": 5.0, "d": 1})
    assert list(out) == ["d", "ts"]
    assert type(out["d"]) is float and type(out["ts"]) is int
