"""Whole-store kernels over the column store, and the numeric helpers
the batch executor shares with them.

FI-MPPDB's "vectorized execution engine is equipped with latest SIMD
instructions for fine-grained parallelism"; numpy plays the role of the
SIMD unit here.  The kernels operate on
:class:`~repro.storage.colstore.ColumnVector` chunks of a
:class:`~repro.storage.colstore.ColumnStore`:

* predicate evaluation of ANDed ``(column, op, literal)`` specs producing
  boolean selection masks — on a TEXT lane that carries its chunk's
  dictionary codes, ``=`` and ``<>`` are decided once per dictionary
  entry and gathered by code,
* filtered materialization of a store's chunks, codes kept,
* chunked whole-table aggregation (sum/min/max/count/avg) beside its
  row-at-a-time reference, so the storage ablation benchmark can compare
  the two — the classic row-store vs column-store gap on scan-heavy OLAP
  work.

The executor's scans do not use these kernels: they read lanes through
``DataNode.scan_lanes`` and filter them with the predicate's compiled
batch expression (:mod:`repro.exec.batch`), which shares
:func:`comparable` with :func:`selection_mask`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ExecutionError
from repro.storage.colstore import ColumnStore, ColumnVector

#: predicate spec: (column, op, literal); ANDed together.
PredicateSpec = Tuple[str, str, object]

_OPS: Dict[str, Callable[[np.ndarray, object], np.ndarray]] = {
    "=": lambda a, v: a == v,
    "<>": lambda a, v: a != v,
    "<": lambda a, v: a < v,
    "<=": lambda a, v: a <= v,
    ">": lambda a, v: a > v,
    ">=": lambda a, v: a >= v,
}

def beyond_float(data: np.ndarray) -> bool:
    """Whether an integer lane holds a value float64 would round."""
    return data.dtype.kind in "iu" and bool(
        ((data > 2 ** 53) | (data < -2 ** 53)).any())


def comparable(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``a`` and ``b`` as numpy compares them the way Python does.  numpy
    compares an integer lane with a float lane as floats, rounding integers
    past 2**53; Python compares them exactly — so such a pair compares as
    Python objects."""
    kinds = {a.dtype.kind, b.dtype.kind}
    if "f" in kinds and kinds & {"i", "u"} and (beyond_float(a)
                                                or beyond_float(b)):
        return a.astype(object), b.astype(object)
    return a, b


def selection_mask(chunk: Dict[str, ColumnVector],
                   predicates: Sequence[PredicateSpec]) -> np.ndarray:
    """Boolean mask for the rows of ``chunk`` satisfying all predicates."""
    n = len(next(iter(chunk.values()))) if chunk else 0
    mask = np.ones(n, dtype=bool)
    for column, op, literal in predicates:
        if column not in chunk:
            raise ExecutionError(f"predicate column {column!r} not scanned")
        if op not in _OPS:
            raise ExecutionError(f"unsupported vector op {op!r}")
        vec = chunk[column]
        if vec.codes is not None and op in ("=", "<>"):
            mask &= vec.validity & _OPS[op](vec.dictionary, literal)[vec.codes]
            continue
        data = vec.data
        if data.dtype != object and isinstance(literal, (int, float)):
            data = comparable(data, np.asarray(literal))[0]
        mask &= vec.validity & _OPS[op](data, literal)
    return mask


def scan_filter_vectors(store: ColumnStore, columns: Sequence[str],
                        predicates: Sequence[PredicateSpec] = (),
                        obs=None) -> Iterable[Dict[str, ColumnVector]]:
    """Yield filtered column batches with their validity masks intact.

    Predicates follow SQL three-valued logic: a NULL operand makes the
    comparison unknown, and unknown rows are filtered (``selection_mask``
    ANDs the validity mask in) — the same semantics as the row path in
    :func:`row_aggregate`.

    When an :class:`repro.obs.Observability` is passed, every produced batch
    bumps ``exec.batches`` and its surviving rows bump ``exec.rows``.
    """
    needed = list(dict.fromkeys(list(columns) + [p[0] for p in predicates]))
    for chunk in store.scan_chunks(needed):
        mask = selection_mask(chunk, predicates)
        if not mask.any():
            continue
        if obs is not None:
            obs.metrics.counter("exec.batches").inc()
            obs.metrics.counter("exec.rows").inc(int(mask.sum()))
        if mask.all():
            # the decoded vectors are read-only: handed out as they are
            yield {name: chunk[name] for name in columns}
        else:
            yield {name: chunk[name].take(mask) for name in columns}


@dataclass
class VectorAggState:
    """Running state for one aggregate over chunked input."""

    func: str
    count: int = 0
    total: float = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def update(self, values: np.ndarray) -> None:
        if len(values) == 0:
            return
        self.count += int(len(values))
        if self.func in ("sum", "avg"):
            self.total += float(np.sum(values))
        elif self.func == "min":
            low = float(np.min(values))
            self.minimum = low if self.minimum is None else min(self.minimum, low)
        elif self.func == "max":
            high = float(np.max(values))
            self.maximum = high if self.maximum is None else max(self.maximum, high)
        elif self.func != "count":
            raise ExecutionError(f"unknown aggregate {self.func!r}")

    def result(self) -> Optional[float]:
        if self.func == "count":
            return float(self.count)
        if self.func == "sum":
            return self.total if self.count else None
        if self.func == "avg":
            return self.total / self.count if self.count else None
        if self.func == "min":
            return self.minimum
        if self.func == "max":
            return self.maximum
        raise ExecutionError(f"unknown aggregate {self.func!r}")


def aggregate(store: ColumnStore, column: str, func: str,
              predicates: Sequence[PredicateSpec] = (),
              obs=None) -> Optional[float]:
    """One whole-table aggregate via chunked vector kernels."""
    state = VectorAggState(func)
    if obs is not None:
        with obs.tracer.span("vector.aggregate", column=column, func=func):
            for batch in scan_filter_vectors(store, [column], predicates,
                                             obs=obs):
                vec = batch[column]
                state.update(vec.data[vec.validity])
        return state.result()
    for batch in scan_filter_vectors(store, [column], predicates):
        vec = batch[column]
        state.update(vec.data[vec.validity])
    return state.result()


def row_aggregate(rows: Iterable[dict], column: str, func: str,
                  predicates: Sequence[PredicateSpec] = ()) -> Optional[float]:
    """Row-at-a-time reference implementation (the ablation baseline).

    Shares the vectorized kernels' NULL semantics: a NULL predicate operand
    makes the comparison unknown and the row is filtered (for every
    operator, ``<>`` included), and NULL aggregation inputs are skipped.
    """
    state = VectorAggState(func)
    buffer: List[float] = []
    for row in rows:
        keep = True
        for pred_col, op, literal in predicates:
            value = row.get(pred_col)
            if value is None:
                keep = False
                break
            if op == "=":
                keep = value == literal
            elif op == "<>":
                keep = value != literal
            elif op == "<":
                keep = value < literal
            elif op == "<=":
                keep = value <= literal
            elif op == ">":
                keep = value > literal
            elif op == ">=":
                keep = value >= literal
            else:
                raise ExecutionError(f"unsupported op {op!r}")
            if not keep:
                break
        if keep and row.get(column) is not None:
            buffer.append(row[column])
    if buffer:
        state.update(np.asarray(buffer, dtype=np.float64))
    return state.result()
