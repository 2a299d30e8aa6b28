"""Columnar store with numpy-backed chunks.

The analytic side of FI-MPPDB: column chunks whose decoded vectors the
lane kernels of :mod:`repro.exec.batch` read as they are.  Chunks are
optionally compressed at seal time and decoded once, on first access.

A store holds no versions: a column table's rows live in the MVCC heap
like a row table's, and the HTAP frozen set (:mod:`repro.htap.store`)
serves a snapshot's view of them as a store over immutable chunks that
merges and composed reads share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import StorageError
from repro.storage import compression
from repro.storage.table import TableSchema, rows_to_columns
from repro.storage.types import DataType

DEFAULT_CHUNK_ROWS = 4096


@dataclass
class ColumnChunk:
    """One column's values for one horizontal chunk of rows."""

    column: str
    data_type: DataType
    codec: str
    payload: object
    row_count: int
    #: Decode-once cache.  Sealed chunks are immutable, so the decoded
    #: vector can be reused across scans; consumers must treat it as
    #: read-only (the arrays are marked non-writeable to enforce that).
    _decoded: Optional["ColumnVector"] = field(
        default=None, repr=False, compare=False)

    def decode_with_nulls(self) -> "ColumnVector":
        """The decoded vector, cached.  A TEXT chunk carries its dictionary
        codes: a ``dict`` chunk's own payload, any other codec's built
        here, once."""
        if self._decoded is not None:
            return self._decoded
        if self.data_type is DataType.TEXT:
            if self.codec == "dict":
                dictionary, codes = self.payload  # type: ignore[misc]
            else:
                dictionary, codes = compression.DictionaryCodec.encode(
                    compression.decode(self.codec, self.payload))
            vec = text_vector(dictionary, codes)
        else:
            vec = ColumnVector(*lanes_of(
                compression.decode(self.codec, self.payload),
                self.data_type))
        if len(vec) != self.row_count:
            raise StorageError(
                f"chunk {self.column}: decoded {len(vec)} rows, expected {self.row_count}"
            )
        self._decoded = vec.read_only()
        return vec

    def derive_decoded(self, source: "ColumnChunk", start: int,
                       offsets: Sequence[int]) -> None:
        """Set the decoded vector of this chunk, whose values are
        ``source``'s with ``offsets`` replaced and rows appended from
        ``start`` on, from ``source``'s decoded vector: a copy with the
        appended and replaced lanes typed, never a buffer shared with it.

        Only a ``plain`` numeric chunk derives, and only from a decoded
        source.  Anything else decodes lazily."""
        parent = source._decoded
        if (parent is None or self.codec != "plain"
                or self.data_type is DataType.TEXT):
            return
        values = self.payload
        data, validity = lanes_of(values[start:], self.data_type)
        data = np.concatenate((parent.data, data))
        validity = np.concatenate((parent.validity, validity))
        if offsets:
            data[offsets], validity[offsets] = lanes_of(
                [values[at] for at in offsets], self.data_type)
        self._decoded = ColumnVector(data, validity).read_only()


class ColumnVector:
    """A decoded column slice: dense data plus a validity (non-NULL) mask.

    A TEXT lane may also carry its dictionary encoding: ``data`` is then
    ``dictionary[codes]`` lane for lane (a NULL entry reads ``""``),
    gathered only when first read, so masks and gathers move the narrow
    codes alone and a kernel can decide a predicate or a group once per
    dictionary entry.

    :meth:`take` makes a *view*: its source vector and the lanes it
    selects.  ``validity``, ``codes`` and ``data`` are each gathered from
    the source on first read and kept (a TEXT view gathers codes and
    decodes ``data`` from them), so a column that no consumer reads is
    never gathered.  An array gathered from a read-only one is read-only.
    """

    __slots__ = ("_data", "_validity", "_codes", "dictionary", "_source",
                 "_lanes")

    def __init__(self, data: Optional[np.ndarray],
                 validity: Optional[np.ndarray],
                 codes: Optional[np.ndarray] = None,
                 dictionary: Optional[np.ndarray] = None):
        self._data = data
        self._validity = validity
        self._codes = codes
        self.dictionary = dictionary
        self._source: Optional[ColumnVector] = None
        self._lanes: Optional[np.ndarray] = None

    @property
    def validity(self) -> np.ndarray:
        if self._validity is None:
            self._validity = self._gather(self._source.validity)
        return self._validity

    @property
    def codes(self) -> Optional[np.ndarray]:
        if self._codes is None and self.dictionary is not None:
            self._codes = self._gather(self._source.codes)
        return self._codes

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            if self.dictionary is None:
                self._data = self._gather(self._source.data)
            else:
                codes = self.codes
                data = self.dictionary[codes]
                # a decoded chunk's vector is shared by every scan: read-only
                data.flags.writeable = codes.flags.writeable
                self._data = data
        return self._data

    def _gather(self, array: np.ndarray) -> np.ndarray:
        out = array[self._lanes]
        if not array.flags.writeable:
            out.flags.writeable = False
        return out

    def __len__(self) -> int:
        if self._validity is not None:
            return len(self._validity)
        lanes = self._lanes
        if lanes.dtype == np.bool_:
            return int(np.count_nonzero(lanes))
        return len(lanes)

    def read_only(self) -> "ColumnVector":
        """This vector with its arrays marked non-writeable, for one shared
        by every scan (a decoded chunk, a row table's column image)."""
        data = self._data if self.dictionary is not None else self.data
        for array in (data, self.validity, self.codes, self.dictionary):
            if array is not None:
                array.flags.writeable = False
        return self

    def take(self, lanes) -> "ColumnVector":
        """The lanes at ``lanes`` (indices, a boolean mask or a slice),
        codes kept.

        A slice of a gathered vector slices its arrays at once (numpy
        views, no copy).  Anything else is a view that gathers on first
        read; a take of a view composes the lanes and reads the view's
        source, so no intermediate is gathered.  An index or mask array
        is marked read-only: a view keeps it.
        """
        source = self._source
        if source is None and isinstance(lanes, slice):
            return ColumnVector(
                None if self._data is None else self._data[lanes],
                self._validity[lanes],
                None if self._codes is None else self._codes[lanes],
                self.dictionary)
        if isinstance(lanes, np.ndarray):
            lanes.flags.writeable = False
        if source is None:
            source = self
        else:
            lanes = _compose(self._lanes, lanes)
        view = ColumnVector(None, None, None, self.dictionary)
        view._source = source
        view._lanes = lanes
        return view


#: The last composition :func:`_compose` made.  The columns of a batch of
#: views share their lanes and are taken with the same lanes, so a take of
#: the batch composes once rather than once per column.
_last_composed: tuple = (None, None, None)


def _compose(outer: np.ndarray, inner) -> np.ndarray:
    """The source lanes of the ``inner`` lanes of a view on ``outer``."""
    global _last_composed
    last_outer, last_inner, composed = _last_composed
    if outer is last_outer and inner is last_inner:
        return composed
    indices = np.flatnonzero(outer) if outer.dtype == np.bool_ else outer
    composed = indices[inner]
    composed.flags.writeable = False
    _last_composed = (outer, inner, composed)
    return composed


def lanes_of(values: Sequence[object], data_type: DataType
             ) -> Tuple[np.ndarray, np.ndarray]:
    """``(data, validity)`` of coerced non-TEXT values; a NULL is a 0 lane."""
    return (np.array([v if v is not None else 0 for v in values],
                     dtype=data_type.numpy_dtype),
            np.array([v is not None for v in values], dtype=bool))


def text_vector(dictionary: Sequence[Optional[str]],
                codes: Sequence[int]) -> ColumnVector:
    """A TEXT vector from its dictionary encoding, codes in the narrowest
    unsigned dtype that holds them."""
    entries = np.array([v if v is not None else "" for v in dictionary],
                       dtype=object)
    valid = np.array([v is not None for v in dictionary], dtype=bool)
    codes = np.array(codes, dtype=np.min_scalar_type(max(len(entries) - 1, 0)))
    return ColumnVector(None, valid[codes], codes, entries)


class ColumnStore:
    """Append-only columnar table storage."""

    def __init__(self, schema: TableSchema, chunk_rows: Optional[int] = None,
                 compress: bool = True):
        if chunk_rows is None:
            chunk_rows = DEFAULT_CHUNK_ROWS
        if chunk_rows <= 0:
            raise StorageError("chunk_rows must be positive")
        self.schema = schema
        self.chunk_rows = chunk_rows
        self.compress = compress
        self._sealed: List[Dict[str, ColumnChunk]] = []
        self._open: List[Dict[str, object]] = []
        self._row_count = 0

    @classmethod
    def from_chunks(cls, schema: TableSchema,
                    chunks: List[Dict[str, ColumnChunk]]) -> "ColumnStore":
        """A store over already sealed chunks, shared rather than copied:
        a chunk served by several stores (the HTAP frozen set's, across
        merges and composed reads) decodes once for all of them."""
        store = cls(schema, compress=False)
        store._sealed = chunks
        store._row_count = sum(next(iter(chunk.values())).row_count
                               for chunk in chunks)
        return store

    # -- ingest ---------------------------------------------------------

    def append_rows(self, rows: Sequence[Dict[str, object]]) -> None:
        for row in rows:
            self._open.append(self.schema.coerce_row(row))
            self._row_count += 1
            if len(self._open) >= self.chunk_rows:
                self._seal()

    def flush(self) -> None:
        """Seal any buffered rows into a (possibly short) chunk."""
        if self._open:
            self._seal()

    def _seal(self) -> None:
        cols = rows_to_columns(self._open, self.schema.column_names)
        self._sealed.append(seal_columns(self.schema, cols, self.compress))
        self._open = []

    # -- scan -------------------------------------------------------------

    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def chunk_count(self) -> int:
        return len(self._sealed) + (1 if self._open else 0)

    def scan_chunks(self, columns: Optional[Sequence[str]] = None
                    ) -> Iterator[Dict[str, ColumnVector]]:
        """Yield decoded chunk dicts restricted to ``columns``."""
        wanted = list(columns) if columns is not None else self.schema.column_names
        for name in wanted:
            self.schema.column(name)  # validates
        for sealed in self._sealed:
            yield {name: sealed[name].decode_with_nulls() for name in wanted}
        if self._open:
            cols = rows_to_columns(self._open, wanted)
            chunk = {}
            for name in wanted:
                col = self.schema.column(name)
                values = cols[name]
                if col.data_type is DataType.TEXT:
                    chunk[name] = text_vector(
                        *compression.DictionaryCodec.encode(values))
                    continue
                chunk[name] = ColumnVector(*lanes_of(values, col.data_type))
            yield chunk

    def scan_rows(self) -> Iterator[Dict[str, object]]:
        """Row-wise view of the whole store (used by tests and row fallback)."""
        names = self.schema.column_names
        for chunk in self.scan_chunks(names):
            length = len(chunk[names[0]]) if names else 0
            for i in range(length):
                row = {}
                for name in names:
                    vec = chunk[name]
                    row[name] = vec.data[i] if vec.validity[i] else None
                yield {k: _unbox(v) for k, v in row.items()}

    def compressed_footprint(self) -> int:
        """Abstract size units of all sealed chunks (for the ablation bench)."""
        total = 0
        for sealed in self._sealed:
            for chunk in sealed.values():
                if chunk.codec == "plain":
                    total += chunk.row_count
                elif chunk.codec == "rle":
                    total += compression.RunLengthCodec.encoded_size(chunk.payload)
                elif chunk.codec == "dict":
                    dictionary, codes = chunk.payload  # type: ignore[misc]
                    total += compression.DictionaryCodec.encoded_size(dictionary, codes)
                elif chunk.codec == "delta":
                    base, deltas = chunk.payload  # type: ignore[misc]
                    total += compression.DeltaCodec.encoded_size(base, deltas)
        return total


def seal_columns(schema: TableSchema, columns: Dict[str, list],
                 compress: bool) -> Dict[str, ColumnChunk]:
    """One sealed chunk from per-column value lists of equal length.

    The lists must already hold coerced values; an uncompressed chunk
    keeps them as its payload, so the caller must not mutate them after.
    """
    sealed: Dict[str, ColumnChunk] = {}
    for col in schema.columns:
        values = columns[col.name]
        if compress:
            codec, payload = compression.best_codec(values)
        else:
            codec, payload = "plain", values
        sealed[col.name] = ColumnChunk(
            column=col.name,
            data_type=col.data_type,
            codec=codec,
            payload=payload,
            row_count=len(values),
        )
    return sealed


def _unbox(value: object) -> object:
    """Convert numpy scalars back to plain Python values."""
    if isinstance(value, np.generic):
        return value.item()
    return value
