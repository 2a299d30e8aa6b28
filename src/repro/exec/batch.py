"""Columnar batch execution: numpy column batches as the executor currency.

The row executor in :mod:`repro.exec.operators` is a classic volcano
pipeline — every operator yields Python tuples.  Here column batches
(positionally schema-aligned :class:`~repro.storage.colstore.ColumnVector`
lists) are the unit of exchange instead: scans emit filtered chunks (a row
table's rows as schema-typed lanes; a TEXT lane keeps its chunk's
dictionary codes), filters and projections run compiled numpy
expressions, hash joins build and probe on key lanes, the aggregates fold
lanes into per-group arrays in one pass per batch, partial states cross
exchanges as state lanes that the final aggregate merges the same way,
and sorts run stable ``np.lexsort`` passes.  Rows materialize only where a
row-only operator (or the client) sits above.

Three invariants keep batch execution *replay-identical* to the row path:

* **Row counts** — ``PhysicalOp._count_batches`` adds ``batch.n`` per batch,
  so ``actual_rows`` (and every simulated time derived from it) matches.
  A ``LIMIT`` stops pulling mid-stream, so below one batching resumes only
  beneath the first operator that drains its input, itself a row body.
* **Values** — kernels reuse the row path's math (aggregate cells,
  left-to-right sums) or compute what the row interpreter computes on
  Python values (a batch on which int64 would wrap, or float64 round,
  runs on Python objects), and the bridge unboxes to the row path's values.
* **Memory** — a batch charges its entries with
  ``OperatorMemory.grow_entries``: one ``grow`` per entry, spill for spill.

``enable_batches`` is the activation pass: it walks a physical plan, marks
operators whose subtree can batch, and pre-compiles their expressions.
"""

from __future__ import annotations

import math
import operator
from itertools import islice, repeat
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ExecutionError
from repro.optimizer.expr import (
    BoundBinary,
    BoundColumn,
    BoundConst,
    BoundExpr,
    BoundInList,
    BoundIsNull,
    BoundUnary,
)
from repro.storage.colstore import ColumnVector, text_vector
from repro.storage.compression import DictionaryCodec
from repro.storage.types import DataType

#: Rows per materialized batch for operators that re-chunk their output
#: (sorts, aggregates, the row->batch boundary); read at call time.
DEFAULT_BATCH_SIZE = 1024


class Batch:
    """One column batch: vectors positionally aligned with the op schema."""

    __slots__ = ("columns", "n")

    def __init__(self, columns: List[ColumnVector], n: int):
        self.columns = columns
        self.n = n

    def take(self, idx: np.ndarray) -> "Batch":
        return Batch([c.take(idx) for c in self.columns], int(len(idx)))

    def select(self, mask: np.ndarray) -> "Batch":
        return Batch([c.take(mask) for c in self.columns], int(mask.sum()))

    def slice(self, start: int, count: int) -> "Batch":
        """Up to ``count`` lanes from ``start``, as views."""
        if not start and count >= self.n:
            return self
        lanes = slice(start, start + count)
        return Batch([c.take(lanes) for c in self.columns],
                     min(count, self.n - start))

    def read_only(self) -> "Batch":
        """This batch with every lane's arrays non-writeable."""
        for column in self.columns:
            column.read_only()
        return self


class StateVector:
    """One aggregate's partial states as lanes, a group per lane: what the
    row body ships as ``(count, total, minimum, maximum)`` tuples.  The
    extremes are value lanes whose validity says a value was seen, or
    ``None`` for an aggregate that keeps none.  A batch holds one per
    aggregate, so its width is still the schema's."""

    __slots__ = ("count", "total", "low", "high")

    def __init__(self, count: np.ndarray, total: np.ndarray,
                 low: Optional[ColumnVector], high: Optional[ColumnVector]):
        self.count = count
        self.total = total
        self.low = low
        self.high = high

    @classmethod
    def of_tuples(cls, states: np.ndarray) -> "StateVector":
        """The states of an object lane of state tuples (a row fold's)."""
        count, total, low, high = zip(*states.tolist())
        return cls(np.array(count, dtype=np.int64),
                   np.fromiter(total, dtype=object, count=len(total)),
                   _lane(low, None), _lane(high, None))

    def take(self, lanes) -> "StateVector":
        return StateVector(
            self.count[lanes], self.total[lanes],
            None if self.low is None else self.low.take(lanes),
            None if self.high is None else self.high.take(lanes))

    def tuples(self) -> list:
        n = len(self.count)
        return list(zip(self.count.tolist(), self.total.tolist(),
                        repeat(None, n) if self.low is None
                        else _unboxed(self.low),
                        repeat(None, n) if self.high is None
                        else _unboxed(self.high)))


def _unboxed(vec) -> list:
    if isinstance(vec, StateVector):
        return vec.tuples()
    values = vec.data.tolist()
    if not vec.validity.all():
        values = [v if ok else None
                  for v, ok in zip(values, vec.validity.tolist())]
    return values


def rows_from_batches(batches: Iterable[Batch]) -> Iterator[tuple]:
    """The batch->row bridge: the only place values unbox.

    NULL lanes materialize as ``None``, numpy scalars unbox to Python
    values and partial states to their tuples — the bridge output is
    byte-identical to what the row path yields.  Columns unbox in bulk
    (``ndarray.tolist`` converts at C speed and yields the same Python
    values per element as ``.item()``).
    """
    for batch in batches:
        cols = [_unboxed(c) for c in batch.columns]
        if len(cols) == 1:
            for v in cols[0]:
                yield (v,)
        else:
            yield from zip(*cols)


def batches_from_rows(rows: Iterable[tuple], width: int,
                      batch_size: Optional[int] = None,
                      types: Optional[Sequence[Optional[DataType]]] = None
                      ) -> Iterator[Batch]:
    """The row->batch boundary: ``batch_size`` (by default
    ``DEFAULT_BATCH_SIZE``, read at call time) rows per batch.

    Lanes are object dtype holding the rows' exact Python objects, or —
    with ``types``, for values a table stored coerced to its schema — the
    type's numpy dtype (an unknown type or an unfit value: object; TEXT:
    dictionary codes, as a column chunk carries them).
    """
    types = types if types is not None else (None,) * width
    batch_size = batch_size or DEFAULT_BATCH_SIZE
    rows = iter(rows)
    while True:
        buf = list(islice(rows, batch_size))
        if not buf:
            return
        yield batch_of_rows(buf, types)


def batch_of_rows(rows: List[tuple],
                  types: Sequence[Optional[DataType]]) -> Batch:
    """One batch of ``rows`` (at least one), a lane per column typed as
    :func:`batches_from_rows` types them."""
    return Batch([_lane(column, data_type)
                  for column, data_type in zip(zip(*rows), types)], len(rows))


def patched_batch(batch: Batch, rows: List[tuple], take: np.ndarray,
                  types: Sequence[DataType]) -> Optional[Batch]:
    """The lanes of ``batch``, typed by :func:`batch_of_rows` from
    ``types``, followed by ``rows``, gathered at ``take``: the batch
    :func:`batch_of_rows` types from the gathered rows, lane for lane and
    dtype for dtype, in new arrays.

    ``None`` when a numeric lane of either part is an object lane (it holds
    an unfit value): the result's dtype then depends on every row.  A TEXT
    lane is coded as a fresh encoding codes it (:func:`_patched_text`)."""
    columns = []
    fresh = list(zip(*rows)) if rows else [()] * len(types)
    for vec, values, data_type in zip(batch.columns, fresh, types):
        if data_type is DataType.TEXT:
            columns.append(_patched_text(vec, values, take))
            continue
        dtype = data_type.numpy_dtype
        data, validity = vec.data, vec.validity
        if data.dtype != dtype:
            return None
        if values:
            lane = _lane(values, data_type)
            if lane.data.dtype != dtype:
                return None
            data = np.concatenate((data, lane.data))
            validity = np.concatenate((validity, lane.validity))
        columns.append(ColumnVector(data[take], validity[take]))
    return Batch(columns, len(take))


def _patched_text(vec: ColumnVector, values: tuple,
                  take: np.ndarray) -> ColumnVector:
    """A TEXT lane patched as :func:`patched_batch` patches lanes.  Its
    dictionary is what ``DictionaryCodec.encode`` of the result's values
    makes (entries in first-seen order, none unused, NULL an entry), so
    the codes and their dtype are a fresh encoding's too."""
    dictionary = vec.dictionary.tolist()
    codes = vec.codes
    nulls = codes[~vec.validity]
    if len(nulls):
        dictionary[nulls[0]] = None     # text_vector's NULL entry reads ""
    if values:
        index = {value: code for code, value in enumerate(dictionary)}
        added = []
        for value in values:
            code = index.get(value)
            if code is None:
                code = index[value] = len(dictionary)
                dictionary.append(value)
            added.append(code)
        codes = np.concatenate((codes, np.array(added, dtype=np.intp)))
    codes = codes[take]
    # coded as a fresh encoding codes when each code is at most one past
    # every code before it, and the last new one is the last entry
    reach = np.maximum.accumulate(codes)
    if reach[-1] + 1 != len(dictionary) or codes[0] or (
            np.diff(reach) > 1).any():
        used, first = np.unique(codes, return_index=True)
        order = used[np.argsort(first)]
        recode = np.empty(len(dictionary), dtype=np.intp)
        recode[order] = np.arange(len(order))
        dictionary = [dictionary[code] for code in order.tolist()]
        codes = recode[codes]
    return text_vector(dictionary, codes)


def _lane(values: tuple, data_type: Optional[DataType]) -> ColumnVector:
    n = len(values)
    if data_type is DataType.TEXT:
        return text_vector(*DictionaryCodec.encode(values))
    if data_type is not None:
        try:
            if None not in values:
                return ColumnVector(np.array(values, data_type.numpy_dtype),
                                    np.ones(n, dtype=bool))
            return ColumnVector(
                np.array([0 if v is None else v for v in values],
                         data_type.numpy_dtype),
                _not_none(values, n))
        except (OverflowError, TypeError, ValueError):
            pass
    return ColumnVector(np.fromiter(values, dtype=object, count=n),
                        _not_none(values, n))


def _not_none(values: tuple, n: int) -> np.ndarray:
    return np.fromiter(map(operator.is_not, values, repeat(None)),
                       dtype=bool, count=n)


def concat_batches(batches: List[Batch], width: int) -> Batch:
    """One batch of ``batches`` back to back (see :func:`_concat`)."""
    if len(batches) == 1:
        return batches[0]
    return Batch([_concat([b.columns[j] for b in batches])
                  for j in range(width)], sum(b.n for b in batches))


def _concat(vectors: List[ColumnVector]) -> ColumnVector:
    """Lanes back to back.  Lanes that differ in dtype (union inputs)
    concatenate as objects, so no value is cast; codes survive only where
    every part shares one dictionary."""
    if len(vectors) == 1:
        return vectors[0]
    validity = np.concatenate([vec.validity for vec in vectors])
    dictionary = vectors[0].dictionary
    if dictionary is not None and all(vec.dictionary is dictionary
                                      for vec in vectors):
        return ColumnVector(None, validity,
                            np.concatenate([vec.codes for vec in vectors]),
                            dictionary)
    datas = [vec.data for vec in vectors]
    if len({data.dtype for data in datas}) > 1:
        datas = [data.astype(object) for data in datas]
    return ColumnVector(np.concatenate(datas), validity)


# -- compiled batch expressions -------------------------------------------
#
# ``compile_expr`` turns a bound expression into a ``Batch -> ColumnVector``
# function, or returns None when the expression uses something the batch
# interpreter cannot reproduce exactly (LIKE, CASE, scalar calls, string
# concat, ``/`` or ``%`` by a non-constant) — the operator then stays on the
# row path.  NULL handling mirrors the row interpreter's semantics operator
# for operator (including its short-circuit AND, where a NULL left side
# yields NULL regardless of the right side).  A batch whose int64 lanes
# would wrap, or round past 2**53 as floats, runs on Python objects.

BatchFn = Callable[[Batch], ColumnVector]

_CMP = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "%": operator.mod, "/": operator.truediv}


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


def _compare(op: str):
    cmp = _CMP[op]
    return lambda a, b: cmp(*comparable(a, b))


def _ints(data: np.ndarray) -> np.ndarray:
    # Python's bools add as ints; numpy's would OR
    return data.astype(np.int64) if data.dtype == np.bool_ else data


def _arithmetic(op: str):
    fn = _ARITH[op]

    def kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = _ints(a), _ints(b)
        if (a.dtype.kind == "i" and b.dtype.kind == "i"
                and _int64_differs(op, fn, a, b)):
            a, b = a.astype(object), b.astype(object)
        # inf - inf and the like are NaN, as the row interpreter's floats
        # give them: no warning (a zero divisor is never compiled)
        with np.errstate(invalid="ignore"):
            return fn(a, b)

    return kernel


def _int64_differs(op: str, fn, a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a op b`` on int64 lanes can differ from Python's ints:
    ``/`` divides as floats, ``+ - *`` wrap past int64 (a float estimate
    below 2**62 cannot hide a wrap), ``%`` by a non-zero constant never."""
    if op in "/%":
        return op == "/" and (beyond_float(a) or beyond_float(b))
    estimate = fn(a.astype(np.float64), b.astype(np.float64))
    return bool((np.abs(estimate) >= 2.0 ** 62).any())


def truth_mask(vec: ColumnVector) -> np.ndarray:
    """Lanes that are valid and truthy: the filter mask of a predicate
    result (NULL and false lanes drop)."""
    data = vec.data
    if data.dtype != np.bool_:
        data = data.astype(bool)
    return data & vec.validity


def _const_vector(value: object, n: int) -> ColumnVector:
    if value is None:
        return ColumnVector(np.zeros(n, dtype=np.int64),
                            np.zeros(n, dtype=bool))
    if isinstance(value, bool):
        dtype = np.bool_
    elif isinstance(value, int):
        dtype = np.int64 if -2 ** 63 <= value < 2 ** 63 else object
    elif isinstance(value, float):
        dtype = np.float64
    else:
        dtype = object
    return ColumnVector(np.full(n, value, dtype=dtype),
                        np.ones(n, dtype=bool))


def _lanewise(fn, left: ColumnVector, right: ColumnVector, n: int,
              out_dtype=None) -> ColumnVector:
    """Apply ``fn`` on lanes where both sides are valid.

    Invalid lanes are never handed to ``fn`` (object columns may carry
    ``None`` there, which would blow up ``<`` or ``+``); their output lanes
    hold a dtype sentinel and validity False — NULL in, NULL out.
    """
    both = left.validity & right.validity
    whole = both.all()
    if not whole and not both.any():
        return ColumnVector(np.zeros(n, dtype=out_dtype or np.int64), both)
    try:
        sub = np.asarray(fn(left.data, right.data) if whole
                         else fn(left.data[both], right.data[both]))
    except TypeError:
        raise ExecutionError("cannot compare incompatible batch lanes"
                             ) from None
    if whole:
        return ColumnVector(sub, both)
    data = np.zeros(n, dtype=sub.dtype if out_dtype is None else out_dtype)
    data[both] = sub
    return ColumnVector(data, both)


def compile_expr(expr: BoundExpr) -> Optional[BatchFn]:
    if isinstance(expr, BoundColumn):
        index = expr.index

        return lambda batch: batch.columns[index]
    if isinstance(expr, BoundConst):
        value = expr.value

        return lambda batch: _const_vector(value, batch.n)
    if isinstance(expr, BoundIsNull):
        fn = compile_expr(expr.operand)
        if fn is None:
            return None
        negated = expr.negated

        def is_null(batch: Batch) -> ColumnVector:
            vec = fn(batch)
            data = vec.validity.copy() if negated else ~vec.validity
            return ColumnVector(data, np.ones(batch.n, dtype=bool))

        return is_null
    if isinstance(expr, BoundUnary):
        fn = compile_expr(expr.operand)
        if fn is None:
            return None
        if expr.op == "not":
            def negate(batch: Batch) -> ColumnVector:
                vec = fn(batch)
                return ColumnVector(~truth_mask(vec), vec.validity)

            return negate
        if expr.op == "-":
            def minus(batch: Batch) -> ColumnVector:
                vec = fn(batch)
                data = _ints(vec.data)
                if data.dtype == object or (data == -2 ** 63).any():
                    # NULL lanes of an object lane may hold None; and
                    # -(-2**63) wraps in int64
                    data = np.array([-v if valid else 0 for v, valid in zip(
                        data.tolist(), vec.validity.tolist())], dtype=object)
                else:
                    data = -data
                return ColumnVector(data, vec.validity)

            return minus
        return None
    if isinstance(expr, BoundInList):
        return _compile_in_list(expr)
    if isinstance(expr, BoundBinary):
        return _compile_binary(expr)
    return None


def _compile_in_list(expr: BoundInList) -> Optional[BatchFn]:
    needle_fn = compile_expr(expr.needle)
    item_fns = [compile_expr(item) for item in expr.items]
    if needle_fn is None or any(fn is None for fn in item_fns):
        return None
    negated = expr.negated
    equal = _compare("=")
    # constant items: a coded needle is decided once per dictionary entry
    constants = ([item.value for item in expr.items if item.value is not None]
                 if all(isinstance(item, BoundConst) for item in expr.items)
                 else None)

    def in_list(batch: Batch) -> ColumnVector:
        needle = needle_fn(batch)
        if needle.codes is not None and constants is not None:
            hit = np.zeros(len(needle.dictionary), dtype=bool)
            for value in constants:
                hit |= needle.dictionary == value
            found = hit[needle.codes]
            return ColumnVector(~found if negated else found, needle.validity)
        found = np.zeros(batch.n, dtype=bool)
        for fn in item_fns:
            item = fn(batch)
            # Row semantics: a NULL item simply never matches (== is False).
            eq = _lanewise(equal, needle, item, batch.n)
            found |= eq.data.astype(bool) & eq.validity
        return ColumnVector(~found if negated else found, needle.validity)

    return in_list


def _compile_binary(expr: BoundBinary) -> Optional[BatchFn]:
    op = expr.op
    left_fn = compile_expr(expr.left)
    right_fn = compile_expr(expr.right)
    if left_fn is None or right_fn is None:
        return None
    if op == "and":
        def and_(batch: Batch) -> ColumnVector:
            left, right = left_fn(batch), right_fn(batch)
            lt, rt = truth_mask(left), truth_mask(right)
            # Row interpreter: NULL left short-circuits to NULL; a false
            # left yields False; otherwise the right side decides.
            validity = left.validity & (~lt | right.validity)
            return ColumnVector(lt & rt, validity)

        return and_
    if op == "or":
        def or_(batch: Batch) -> ColumnVector:
            left, right = left_fn(batch), right_fn(batch)
            lt, rt = truth_mask(left), truth_mask(right)
            data = lt | rt
            validity = data | (left.validity & right.validity)
            return ColumnVector(data, validity)

        return or_
    if op in _CMP:
        cmp = _compare(op)
        if op in ("=", "<>"):
            for const, fn in ((expr.right, left_fn), (expr.left, right_fn)):
                if isinstance(const, BoundConst) and const.value is not None:
                    return _by_entry(op, fn, const.value)

        def compare(batch: Batch) -> ColumnVector:
            return _compared(cmp, left_fn(batch), right_fn(batch), batch.n)

        return compare
    if op in _ARITH:
        # Only a non-zero constant divisor is compiled: the row interpreter
        # raises per offending row, a semantics a whole-batch kernel cannot
        # reproduce for arbitrary divisors.
        if op in ("/", "%") and (not isinstance(expr.right, BoundConst)
                                 or expr.right.value in (None, 0)):
            return None
        arith = _arithmetic(op)
        out_dtype = np.float64 if op == "/" else None

        def arithmetic(batch: Batch) -> ColumnVector:
            return _lanewise(arith, left_fn(batch), right_fn(batch), batch.n,
                             out_dtype=out_dtype)

        return arithmetic
    return None


def _compared(cmp, left: ColumnVector, right: ColumnVector,
              n: int) -> ColumnVector:
    vec = _lanewise(cmp, left, right, n, out_dtype=np.bool_)
    if vec.data.dtype != np.bool_:
        vec = ColumnVector(vec.data.astype(bool), vec.validity)
    return vec


def _by_entry(op: str, fn: BatchFn, value: object) -> BatchFn:
    """``fn(batch) op value`` for the symmetric ``=`` / ``<>``: a lane
    carrying dictionary codes is compared once per dictionary entry and
    the answers gathered by code, any other lane by lane."""
    cmp, entry_cmp = _compare(op), _CMP[op]

    def compare(batch: Batch) -> ColumnVector:
        vec = fn(batch)
        if vec.codes is None:
            return _compared(cmp, vec, _const_vector(value, batch.n), batch.n)
        return ColumnVector(entry_cmp(vec.dictionary, value)[vec.codes],
                            vec.validity)

    return compare


# -- the lane fold --------------------------------------------------------
#
# ``PHashAggregate`` and ``PPartialAgg`` fold their child's lanes, and
# ``PFinalAgg`` merges partial states, in one pass per batch: every lane
# gets its group's id (groups numbered in first-seen order), then each
# aggregate scatters the whole batch into per-group arrays with a fixed
# number of numpy calls.  The arrays hold exactly the row fold's cells.

_LANE_FUNCS = ("count", "sum", "avg", "min", "max")


def compile_fold(agg, ops) -> Optional[Tuple[List[BatchFn], list]]:
    """``(group fns, argument fns)`` (``None`` for ``COUNT(*)``) when the
    lane fold covers ``agg``; ``None`` — the row fold — for DISTINCT, an
    expression without a batch form, or a child that ships partial-state
    tuples."""
    if _ships_states(agg.child, ops) or any(
            spec.distinct or spec.func not in _LANE_FUNCS
            for spec in agg.aggs):
        return None
    group_fns = [compile_expr(g) for g in agg.group_exprs]
    arg_fns = [None if spec.arg is None else compile_expr(spec.arg)
               for spec in agg.aggs]
    if None in group_fns or any(fn is None and spec.arg is not None
                                for fn, spec in zip(arg_fns, agg.aggs)):
        return None
    return group_fns, arg_fns


def _ships_states(op, ops) -> bool:
    return isinstance(op, ops.PPartialAgg) or (
        isinstance(op, (ops.PExchange, ops.PFragment, ops.PUnionAll))
        and any(_ships_states(child, ops) for child in op.children()))


#: Longest direct-address table (integer keys, pairs of key codes); keys
#: spread wider take the dict pass.
_TABLE_LIMIT = 1 << 16


def fold_batches(agg) -> Iterator[Batch]:
    """The lane fold of ``PHashAggregate`` (final values) or
    ``PPartialAgg`` (partial states) over its child's batches."""
    group_fns, arg_fns = agg._lane_fns
    fold = _Fold(agg, len(group_fns))
    for batch in agg.child.batches():
        if batch.n:
            args = [None if fn is None else fn(batch) for fn in arg_fns]
            gids = fold.group([fn(batch) for fn in group_fns], batch.n)
            fold.add(gids, args)
    yield from fold.batches(agg._final)


def merge_batches(final) -> Iterator[Batch]:
    """``PFinalAgg`` on lanes: the data nodes' partial states merged per
    group, then finalized.  A row-fold partial's state tuples become
    lanes first."""
    n = final.n_group_cols
    fold = _Fold(final, n)
    for batch in final.child.batches():
        if batch.n:
            gids = fold.group(batch.columns[:n], batch.n)
            fold.merge(gids, [c if isinstance(c, StateVector)
                              else StateVector.of_tuples(c.data)
                              for c in batch.columns[n:]])
    yield from fold.batches(final=True)


class _Fold:
    """Groups and their cells while folding: each lane's group id, every
    group's key lanes (gathered from its first lane, so a key is its first
    row's value) and, per aggregate, the row fold's cells as arrays.  New
    groups are charged to memory batch by batch, one entry each, in the
    order the row body creates them; the release is the operator's."""

    def __init__(self, op, width: int):
        from repro.exec.operators import _op_memory

        self.mem, self.entry_bytes = _op_memory(op)
        self.ids = _GroupIds(width)
        self.keys: List[List[ColumnVector]] = [[] for _ in range(width)]
        self.cells = [_Cells(spec.func) for spec in op.aggs]
        self.n = 0

    def group(self, vecs: List[ColumnVector], n: int) -> np.ndarray:
        gids, firsts = self.ids(vecs, n)
        if len(firsts):
            if self.mem is not None:
                self.mem.grow_entries(self.entry_bytes, len(firsts))
            for part, vec in zip(self.keys, vecs):
                part.append(vec.take(firsts))
            self._grow(len(firsts))
        return gids

    def _grow(self, new: int) -> None:
        self.n += new
        for cells in self.cells:
            cells.grow(new)

    def add(self, gids: np.ndarray, args: List[Optional[ColumnVector]]):
        """Fold one batch's argument lanes (``None`` for ``COUNT(*)``)."""
        n = self.n
        every = None            # lanes per group, for lanes without NULLs
        for cells, vec in zip(self.cells, args):
            if vec is not None and not vec.validity.all():
                g = gids[vec.validity]
                if len(g):
                    cells.add(g, vec.data[vec.validity],
                              np.bincount(g, minlength=n))
                continue
            if every is None:
                every = np.bincount(gids, minlength=n)
            if vec is None:
                cells.count += every
            else:
                cells.add(gids, vec.data, every)

    def merge(self, gids: np.ndarray, states: List["StateVector"]) -> None:
        for cells, state in zip(self.cells, states):
            cells.merge(gids, state, self.n)

    def batches(self, final: bool) -> Iterator[Batch]:
        """Every group's keys and final values (or partial states), in
        group order, ``DEFAULT_BATCH_SIZE`` groups per batch."""
        if not self.n and not self.keys:
            self._grow(1)   # a global aggregate of no rows: nothing charged
        n, size = self.n, DEFAULT_BATCH_SIZE
        if not n:
            return
        columns = ([_concat(part) for part in self.keys]
                   + [cells.final() if final else cells.state()
                      for cells in self.cells])
        for start in range(0, n, size):
            lanes = slice(start, start + size)
            yield Batch([c.take(lanes) for c in columns],
                        min(size, n - start))


class _GroupIds:
    """Each lane's group id for a tuple of key lanes, groups numbered in
    first-seen order: the first column's codes, each further column's
    paired with the codes of the tuple so far."""

    def __init__(self, width: int):
        self.coders = [_Coder() for _ in range(width)]
        self.pairs = [_Pairs() for _ in range(width - 1)]
        self.started = False

    def __call__(self, vecs: List[ColumnVector], n: int):
        """``(ids, firsts)``: each lane's group id, and the lanes where the
        groups this batch created first appear, in id order."""
        if not vecs:            # a global aggregate: one group
            firsts = np.zeros(0 if self.started else 1, dtype=np.intp)
            self.started = True
            return np.zeros(n, dtype=np.intp), firsts
        ids, firsts = self.coders[0](vecs[0])
        for coder, pairs, vec in zip(self.coders[1:], self.pairs, vecs[1:]):
            ids, firsts = pairs(ids, coder(vec)[0])
        return ids, firsts


def _first_lanes(index: np.ndarray, lanes: np.ndarray,
                 size: int) -> np.ndarray:
    """The lanes of ``lanes`` (ascending) that hold the first occurrence of
    their ``index`` value (each below ``size``), ascending."""
    at = index[lanes]
    first = np.full(size, len(index), dtype=np.intp)
    np.minimum.at(first, at, lanes)
    return lanes[first[at] == lanes]


class _Coder:
    """Codes for one group-key column: dense ints handed out in first-seen
    order across batches.  Values equal as Python values share one
    (``1 = 1.0``, ``-0.0 = 0.0``), NULL is one more value, and a NaN never
    meets an earlier one: the row fold's dict, decided per lane.

    An integer lane looks its codes up in a direct-address table, a TEXT
    lane carrying dictionary codes in one per dictionary; a table entry is
    filled once per new value.  Any other lane (doubles, objects, integers
    spread too wide) runs the dict pass over its values."""

    def __init__(self) -> None:
        self.n = 0
        #: integer lanes: slot 0 is NULL's code, slot 1 + v - low value v's
        self.low = 0
        self.table: Optional[np.ndarray] = None
        #: otherwise: value (``None`` for NULL) -> code
        self.values: Optional[dict] = None
        #: id(dictionary) -> (dictionary, its table: slot 0 NULL, 1 + code);
        #: holding the dictionary keeps its id from being reused
        self.remaps: dict = {}

    def __call__(self, vec: ColumnVector) -> Tuple[np.ndarray, np.ndarray]:
        """``(codes, firsts)``: each lane's code, and the lanes where this
        batch's new codes first appear, in code order."""
        if vec.codes is not None:
            return self._text(vec)
        if vec.data.dtype.kind in "ib" and self.values is None:
            slots = self._slots(vec)
            if slots is not None:
                return self._lookup(self.table, slots)
        return self._objects(vec)

    def _lookup(self, table: np.ndarray, slots: np.ndarray):
        """The codes in ``table`` at the lanes' ``slots``; an empty slot gets
        the next code, in the order the lanes first reach it."""
        codes = table[slots]
        new = np.flatnonzero(codes < 0)
        if not len(new):
            return codes, new
        firsts = _first_lanes(slots, new, len(table))
        table[slots[firsts]] = np.arange(self.n, self.n + len(firsts))
        self.n += len(firsts)
        return table[slots], firsts

    def _slots(self, vec: ColumnVector) -> Optional[np.ndarray]:
        """Each lane's slot in the integer table, grown to cover the batch;
        ``None`` once the values spread too wide (the column then takes
        the dict pass for good)."""
        data, valid = vec.data, vec.validity
        whole = valid.all()
        live = data if whole else data[valid]
        table, low = self.table, self.low
        if len(live):
            lo, hi = int(live.min()), int(live.max())
            if table is None or lo < low or hi > low + len(table) - 2:
                if table is not None and len(table) > 1:
                    lo, hi = min(lo, low), max(hi, low + len(table) - 2)
                if hi - lo + 2 > _TABLE_LIMIT:
                    self._to_dict()
                    return None
                grown = np.full(hi - lo + 2, -1, dtype=np.int64)
                if table is not None:
                    grown[0] = table[0]
                    grown[1 + low - lo:low - lo + len(table)] = table[1:]
                table, low = self.table, self.low = grown, lo
        elif table is None:
            table = self.table = np.full(1, -1, dtype=np.int64)
        slots = data.astype(np.intp)
        slots -= low
        slots += 1
        if not whole:
            slots[~valid] = 0
        return slots

    def _to_dict(self) -> None:
        """Leave the integer table for the dict, codes kept."""
        self.values = {}
        if self.table is not None:
            slots = np.flatnonzero(self.table >= 0)
            self.values = dict(zip(
                [slot - 1 + self.low if slot else None
                 for slot in slots.tolist()],
                self.table[slots].tolist()))
            self.table = None

    def _objects(self, vec: ColumnVector):
        if self.values is None:
            self._to_dict()
        items = _unboxed(vec)
        codes = np.fromiter(map(self.values.get, items, repeat(-1)),
                            dtype=np.int64, count=len(items))
        fresh: List[int] = []
        for lane in np.flatnonzero(codes < 0).tolist():
            codes[lane] = self._code(items[lane], lane, fresh)
        return codes, np.array(fresh, dtype=np.intp)

    def _code(self, value, lane: int, fresh: List[int]) -> int:
        """``value``'s code; a new one, its lane added to ``fresh``, if it
        has none yet."""
        code = self.values.get(value)
        if code is None:
            code = self.values[value] = self.n
            self.n += 1
            fresh.append(lane)
        return code

    def _text(self, vec: ColumnVector):
        if self.values is None:
            self._to_dict()
        entries = vec.dictionary
        known = self.remaps.get(id(entries))
        if known is None:
            known = self.remaps[id(entries)] = (
                entries, np.full(len(entries) + 1, -1, dtype=np.int64))
        table = known[1]
        slots = vec.codes.astype(np.intp)
        slots += 1
        if not vec.validity.all():
            slots[~vec.validity] = 0
        codes = table[slots]
        new = np.flatnonzero(codes < 0)
        if not len(new):
            return codes, new
        # entries this dictionary has not met yet: each was either coded
        # off another dictionary already, or is new
        fresh: List[int] = []
        firsts = _first_lanes(slots, new, len(table))
        for lane, slot in zip(firsts.tolist(), slots[firsts].tolist()):
            table[slot] = self._code(entries[slot - 1] if slot else None,
                                     lane, fresh)
        return table[slots], np.array(fresh, dtype=np.intp)


class _Pairs:
    """Codes for pairs of codes, in first-seen order: a 2-D direct-address
    table while it stays small, then the dict pass over ``a << 32 | b``."""

    def __init__(self) -> None:
        self.coder = _Coder()
        self.table: Optional[np.ndarray] = np.full((1, 1), -1, dtype=np.int64)

    def __call__(self, a: np.ndarray, b: np.ndarray):
        table = self.table
        if table is not None:
            rows, cols = table.shape
            need_rows, need_cols = int(a.max()) + 1, int(b.max()) + 1
            if need_rows > rows or need_cols > cols:
                rows = max(rows, 1 << (need_rows - 1).bit_length())
                cols = max(cols, 1 << (need_cols - 1).bit_length())
                if rows * cols > _TABLE_LIMIT:
                    self._to_dict()
                    table = None
                else:
                    grown = np.full((rows, cols), -1, dtype=np.int64)
                    grown[:table.shape[0], :table.shape[1]] = table
                    table = self.table = grown
        if table is not None:
            return self.coder._lookup(table.reshape(-1),
                                      a * table.shape[1] + b)
        keys = a << 32 | b
        return self.coder._objects(
            ColumnVector(keys, np.ones(len(keys), dtype=bool)))

    def _to_dict(self) -> None:
        flat, cols = self.table.reshape(-1), self.table.shape[1]
        slots = np.flatnonzero(flat >= 0)
        self.coder.values = dict(zip(
            (slots // cols << 32 | slots % cols).tolist(),
            flat[slots].tolist()))
        self.table = None


class _Cells:
    """One aggregate's cells for every group, as arrays: the row fold's
    ``[count, total, minimum, maximum]``."""

    __slots__ = ("func", "count", "total", "low", "high")

    def __init__(self, func: str):
        self.func = func
        self.count = np.zeros(0, dtype=np.int64)
        self.total = np.zeros(0)
        self.low = _Extreme(True) if func == "min" else None
        self.high = _Extreme(False) if func == "max" else None

    def grow(self, new: int) -> None:
        self.count = np.concatenate([self.count,
                                     np.zeros(new, dtype=np.int64)])
        # 0.0, as the row fold starts a total (an object zero would be 0)
        self.total = np.concatenate(
            [self.total, np.full(new, 0.0, dtype=self.total.dtype)])
        for extreme in (self.low, self.high):
            if extreme is not None:
                extreme.grow(new)

    def add(self, g: np.ndarray, values: np.ndarray,
            counts: np.ndarray) -> None:
        """Fold valid lanes, in row order, of groups ``g`` (``counts`` per
        group)."""
        self.count += counts
        if self.func in ("sum", "avg"):
            self.total = _add_at(self.total, g, values)
        elif self.low is not None:
            self.low.fold(g, values, counts > 0)
        elif self.high is not None:
            self.high.fold(g, values, counts > 0)

    def merge(self, g: np.ndarray, state: "StateVector", n: int) -> None:
        """Merge partial states lane by lane, as ``_merge_state`` does
        (another aggregate's total is 0.0 on both sides)."""
        np.add.at(self.count, g, state.count)
        if self.func in ("sum", "avg"):
            self.total = _add_at(self.total, g, state.total)
        for mine, theirs in ((self.low, state.low), (self.high, state.high)):
            if mine is not None and theirs is not None:
                lanes = g[theirs.validity]
                if len(lanes):
                    mine.fold(lanes, theirs.data[theirs.validity],
                              np.bincount(lanes, minlength=n) > 0)

    def final(self) -> ColumnVector:
        """``_finalize_state`` for every group, as a lane."""
        count, func = self.count, self.func
        if func == "count":
            return ColumnVector(count, np.ones(len(count), dtype=bool))
        seen = count > 0
        if func == "sum":
            return ColumnVector(self.total, seen)
        if func == "avg":
            if self.total.dtype == object:
                data = np.fromiter(
                    (t / c if c else 0.0
                     for t, c in zip(self.total.tolist(), count.tolist())),
                    dtype=object, count=len(count))
            else:
                data = np.zeros(len(count))
                np.divide(self.total, count, out=data, where=seen)
            return ColumnVector(data, seen)
        if func in ("min", "max"):
            return (self.low or self.high).lane()
        raise ExecutionError(f"unknown aggregate {func!r}")

    def state(self) -> "StateVector":
        return StateVector(self.count, self.total,
                           self.low and self.low.lane(),
                           self.high and self.high.lane())


def _add_at(total: np.ndarray, g: np.ndarray, values: np.ndarray):
    """``total[g] += values`` lane by lane in row order, the row fold's
    ``cell += value``: ``np.add.at`` is unbuffered and sequential, so a
    float sum rounds as the row fold's does (an integer lane adds as
    ``float(int)``); object lanes add as Python objects."""
    if values.dtype == object and total.dtype != object:
        total = total.astype(object)
    np.add.at(total, g, values)
    return total


class _Extreme:
    """Per-group running minimum (or maximum), as the row fold's sequential
    ``value < cell`` (``>``) leaves it: the first of equal values stays
    (``-0.0`` against ``0.0``), and a NaN stays only where it came first,
    since nothing compares below it.  Lanes of a dtype other than the
    first's turn the values into objects, compared as the row fold does."""

    __slots__ = ("lowest", "data", "validity")

    def __init__(self, lowest: bool):
        self.lowest = lowest
        self.data: Optional[np.ndarray] = None
        self.validity = np.zeros(0, dtype=bool)

    def grow(self, new: int) -> None:
        self.validity = np.concatenate([self.validity,
                                        np.zeros(new, dtype=bool)])
        if self.data is not None:
            self.data = np.concatenate([self.data,
                                        np.zeros(new, dtype=self.data.dtype)])

    def lane(self) -> ColumnVector:
        data = self.data
        if data is None:
            data = np.zeros(len(self.validity), dtype=np.int64)
        return ColumnVector(data, self.validity)

    def fold(self, g: np.ndarray, values: np.ndarray,
             present: np.ndarray) -> None:
        """Fold valid lanes, in row order, of groups ``g``; ``present``
        marks the groups that have lanes."""
        data = self.data
        if data is None:
            data = self.data = np.zeros(len(self.validity), dtype=values.dtype)
        elif data.dtype != values.dtype and data.dtype != object:
            data = self.data = data.astype(object)
        if data.dtype == object:
            self._fold_objects(g, values)
            return
        n, seen = len(data), self.validity
        fresh = present & ~seen
        if data.dtype.kind == "f":
            extreme = np.full(n, np.nan)
            (np.fmin if self.lowest else np.fmax).at(extreme, g, values)
            if not values.all():
                # -0.0 ties 0.0: the group's first lane at its extreme wins
                lanes = np.flatnonzero(values == extreme[g])
                first = np.full(n, len(values), dtype=np.intp)
                np.minimum.at(first, g[lanes], lanes)
                hit = first < len(values)
                extreme[hit] = values[first[hit]]
            nan = np.isnan(values)
            if nan.any():
                first = np.full(n, len(values), dtype=np.intp)
                np.minimum.at(first, g, np.arange(len(values)))
                fresh_groups = np.flatnonzero(fresh)
                extreme[fresh_groups[nan[first[fresh_groups]]]] = np.nan
        else:                   # integers and bools: equal values are equal
            if data.dtype.kind == "b":
                fill = self.lowest
            else:
                info = np.iinfo(data.dtype)
                fill = info.max if self.lowest else info.min
            extreme = np.full(n, fill, dtype=data.dtype)
            (np.minimum if self.lowest else np.maximum).at(extreme, g, values)
        better = (np.less if self.lowest else np.greater)(extreme, data)
        take = fresh | (present & seen & better)
        data[take] = extreme[take]
        self.validity = seen | present

    def _fold_objects(self, g: np.ndarray, values: np.ndarray) -> None:
        better = operator.lt if self.lowest else operator.gt
        data, seen = self.data.tolist(), self.validity.tolist()
        for group, value in zip(g.tolist(), values.tolist()):
            if not seen[group] or better(value, data[group]):
                data[group] = value
                seen[group] = True
        self.data = np.fromiter(data, dtype=object, count=len(data))
        self.validity = np.array(seen, dtype=bool)


# -- sort kernel ----------------------------------------------------------

def _sort_codes(data: np.ndarray, validity: np.ndarray) -> np.ndarray:
    """Dense ordinal codes for one sort key (NULL lanes neutralized).

    Invalid lanes get the first valid lane's value before coding so object
    columns never compare ``None`` against real values; the null flag pass
    separates them anyway, exactly like the row path's ``(is_null, value)``
    composite key.
    """
    if validity.all():
        return np.unique(data, return_inverse=True)[1].astype(np.int64)
    if not validity.any():
        return np.zeros(len(data), dtype=np.int64)
    filled = data.copy()
    filled[~validity] = data[np.flatnonzero(validity)[0]]
    return np.unique(filled, return_inverse=True)[1].astype(np.int64)


def sort_indices(keys: List[Tuple[ColumnVector, bool]], n: int) -> np.ndarray:
    """Row order for a stable multi-key sort, matching the row path.

    Applies keys last-to-first with one stable ``lexsort`` per key —
    ascending sorts NULLs last, descending first, ties keep input order —
    which is exactly the successive stable ``list.sort`` passes the row
    executor runs.
    """
    order = np.arange(n)
    for vec, descending in reversed(keys):
        data = vec.data[order]
        validity = vec.validity[order]
        codes = _sort_codes(data, validity)
        null_flag = (~validity).astype(np.int64)
        if descending:
            perm = np.lexsort((-codes, 1 - null_flag))
        else:
            perm = np.lexsort((codes, null_flag))
        order = order[perm]
    return order


def sorted_batches(sort_op, collected: List[Batch]) -> Iterator[Batch]:
    """Sort buffered batches; re-emit in ``DEFAULT_BATCH_SIZE`` slices."""
    if not collected:
        return
    width = len(sort_op.schema)
    big = concat_batches(collected, width)
    keys = [(fn(big), descending)
            for fn, descending in sort_op._batch_keys]
    order = sort_indices(keys, big.n)
    for start in range(0, big.n, DEFAULT_BATCH_SIZE):
        yield big.take(order[start:start + DEFAULT_BATCH_SIZE])


# -- hash join ------------------------------------------------------------

def hash_join_batches(join) -> Iterator[Batch]:
    """Inner equi-join on lanes: build, then probe, the row body's output.

    Build rows with a valid (non-NULL) key are charged to memory as the
    row body charges them: per batch with ``grow_entries``, or — from a
    row-body build side — row by row as they are pulled, then collected
    into one object batch.  Valid build lanes are stably sorted by key
    (:class:`_SortedKeys`), so each key's lanes keep build-insertion order;
    a probe lane finds its match range with ``searchsorted`` and
    ``np.repeat`` expands the ranges, lane-major: the row probe's exact
    output order.  Right columns are gathered with ``take``.  Keys compare
    as Python values do (``1 = 1.0``, exactly past 2**53); a NULL or NaN
    key never matches.
    """
    from repro.exec.operators import _op_memory

    left_fns, right_fns = join._batch_keys
    right = join.right
    width = len(right.schema)
    mem, entry_bytes = _op_memory(join, right)
    try:
        kept = []
        if right.batch_mode:
            for batch in right.batches():
                valid = _all_valid([fn(batch) for fn in right_fns])
                entries = int(valid.sum())
                if mem is not None:
                    mem.grow_entries(entry_bytes, entries)
                if entries:
                    kept.append(batch if entries == batch.n
                                else batch.select(valid))
        else:
            rows = [row for _, row in join._build_rows(mem, entry_bytes)]
            kept = list(batches_from_rows(rows, width, len(rows) or 1))
        if not kept:
            for _ in join.left.batches():      # the probe side still runs
                pass
            return
        build = concat_batches(kept, width)
        keys = (_SortedKeys if len(right_fns) == 1 else _CodedKeys)(
            [fn(build).data for fn in right_fns])
        for batch in join.left.batches():
            vecs = [fn(batch) for fn in left_fns]
            lanes = np.flatnonzero(_all_valid(vecs))
            low, counts = keys.ranges([vec.data[lanes] for vec in vecs])
            total = int(counts.sum())
            if not total:
                continue
            starts = np.repeat(low - np.cumsum(counts) + counts, counts)
            picked = keys.order[starts + np.arange(total)]
            yield Batch(batch.take(np.repeat(lanes, counts)).columns
                        + build.take(picked).columns, total)
    finally:
        if mem is not None:
            mem.finish()


def _all_valid(vecs: List[ColumnVector]) -> np.ndarray:
    return np.logical_and.reduce([vec.validity for vec in vecs])


class _SortedKeys:
    """A one-column build side: its lanes stably sorted by their own key
    values (``order``), NaN lanes left out."""

    def __init__(self, datas: List[np.ndarray]):
        key = datas[0]
        if key.dtype.kind in "fO":
            lanes = np.flatnonzero(key == key)
            self.order = lanes[np.argsort(key[lanes], kind="stable")]
        else:
            self.order = np.argsort(key, kind="stable")
        self.keys = key[self.order]

    def ranges(self, datas: List[np.ndarray]):
        """``(low, counts)``: where each probe key's equal build keys start
        in ``order``, and how many there are."""
        keys, probe = comparable(self.keys, datas[0])
        if not len(keys):
            return np.zeros(len(probe), dtype=np.intp), np.zeros(
                len(probe), dtype=np.intp)
        low = np.searchsorted(keys, probe)
        hit = keys[np.minimum(low, len(keys) - 1)] == probe
        return low, np.where(hit, np.searchsorted(keys, probe, "right")
                             - low, 0)


class _CodedKeys:
    """A composite-key build side: each lane's key tuple as one code
    (:func:`_key_codes`), lanes stably sorted by it (``order``)."""

    def __init__(self, datas: List[np.ndarray]):
        self.uniqs = [np.unique(data) for data in datas]
        codes, _ = _key_codes(self.uniqs, datas)
        self.order = np.argsort(codes, kind="stable")
        self.codes = codes[self.order]

    def ranges(self, datas: List[np.ndarray]):
        probe, hit = _key_codes(self.uniqs, datas)
        low = np.searchsorted(self.codes, probe)
        return low, np.where(hit, np.searchsorted(self.codes, probe, "right")
                             - low, 0)


def _key_codes(uniqs: List[np.ndarray], datas: List[np.ndarray]):
    """``(codes, hit)``: each lane's key tuple as one mixed-radix code of
    its components' positions in the build side's sorted distinct values
    (``uniqs``), and whether every component is one of them."""
    radix = math.prod(len(u) for u in uniqs)
    codes = np.zeros(len(datas[0]),
                     dtype=np.int64 if radix < 2 ** 62 else object)
    hit = np.ones(len(datas[0]), dtype=bool)
    for uniq, data in zip(uniqs, datas):
        uniq, data = comparable(uniq, data)
        pos = np.searchsorted(uniq, data)
        hit &= uniq[np.minimum(pos, len(uniq) - 1)] == data
        codes = codes * len(uniq) + pos
    return codes, hit


# -- activation pass ------------------------------------------------------

def enable_batches(root) -> None:
    """Mark every operator whose subtree can run in batch mode.

    A ``LIMIT`` stops pulling mid-stream, so a batched descendant would
    count rows the row path never produced.  Below it, batching resumes
    beneath the first operator that drains its input before emitting a
    row — a sort, an aggregate, a hash join's build side — which itself
    stays a row body, counted per row as the ``LIMIT`` pulls it.  Compiled
    expressions are cached on the operators (and so in the plan cache).
    """
    _activate(root, allow=True)


def _activate(op, allow: bool) -> None:
    from repro.exec import operators as ops

    if isinstance(op, ops.PLimit):
        allow = False
    for child in op.children():
        _activate(child, allow or _drains(op, child, ops))
    # compiled even where not allowed: a row-body aggregate still folds
    # the lanes of a batched child
    op.batch_mode = _can_batch(op, ops) and allow


def _drains(op, child, ops) -> bool:
    """Whether ``op`` pulls all of ``child`` before it emits a row."""
    if isinstance(op, ops.PHashJoin):
        return child is op.right
    return isinstance(op, (ops.PSort, ops.PHashAggregate, ops.PPartialAgg,
                           ops.PFinalAgg))


def _can_batch(op, ops) -> bool:
    if isinstance(op, ops.PScan):
        if isinstance(op, ops.PKeyLookup):
            return False
        # the row interpreter filters where the predicate has no batch form
        op._batch_pred = (None if op.predicate is None
                          else compile_expr(op.predicate))
        return True
    if (isinstance(op, (ops.PFilter, ops.PProject, ops.PSort))
            and not op.child.batch_mode):
        return False
    if isinstance(op, ops.PFilter):
        op._batch_pred = compile_expr(op.predicate)
        return op._batch_pred is not None
    if isinstance(op, ops.PProject):
        op._batch_exprs = [compile_expr(e) for e in op.exprs]
        return None not in op._batch_exprs
    if isinstance(op, ops.PSort):
        op._batch_keys = [(compile_expr(e), d) for e, d in op.keys]
        return all(fn is not None for fn, _ in op._batch_keys)
    if isinstance(op, ops.PHashJoin):
        # Outer joins and residuals interleave pad rows mid-stream; a text
        # key beside a numeric one (or an unknown type) never equals it in
        # the row body's dict, and numpy cannot order the two.
        if op.kind != "inner" or op.residual is not None:
            return False
        text = DataType.TEXT
        if not op.left.batch_mode or any(
                None in (l.data_type, r.data_type)
                or (l.data_type is text) != (r.data_type is text)
                for l, r in zip(op.left_keys, op.right_keys)):
            return False
        left = [compile_expr(k) for k in op.left_keys]
        right = [compile_expr(k) for k in op.right_keys]
        if None in left or None in right:
            return False
        op._batch_keys = (left, right)
        return True
    if isinstance(op, (ops.PHashAggregate, ops.PPartialAgg)):
        # lanes fold into lanes; bridged rows into cells, left as objects
        op._lane_fns = compile_fold(op, ops)
        return True
    if isinstance(op, ops.PFinalAgg):
        return op.child.batch_mode
    if isinstance(op, (ops.PFragment,)):
        return op.child.batch_mode
    if isinstance(op, (ops.PExchange, ops.PUnionAll)):
        return all(child.batch_mode for child in op.children())
    return False
