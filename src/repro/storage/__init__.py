"""Storage engines: MVCC row heap, columnar store, compression."""

from repro.storage.colstore import ColumnStore, ColumnVector
from repro.storage.heap import MvccHeap, TupleVersion
from repro.storage.table import Column, Distribution, Orientation, TableSchema
from repro.storage.types import DataType, coerce

__all__ = [
    "MvccHeap", "TupleVersion", "ColumnStore", "ColumnVector",
    "TableSchema", "Column", "Distribution", "Orientation",
    "DataType", "coerce",
]
