"""Columnar batch execution: numpy column batches as the executor currency.

The row executor in :mod:`repro.exec.operators` is a classic volcano
pipeline — every operator yields Python tuples.  Here column batches
(positionally schema-aligned :class:`~repro.storage.colstore.ColumnVector`
lists) are the unit of exchange instead: scans emit filtered chunks (a row
table's rows as schema-typed lanes), filters and projections run compiled
numpy expressions, hash joins build and probe on key lanes, both
aggregates fold lanes into their cells, sorts run stable ``np.lexsort``
passes, and partial-aggregate states cross exchanges as object batches.
Rows materialize only where a row-only operator (or the client) sits above.

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
from functools import reduce
from itertools import count, islice, repeat
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ExecutionError
from repro.exec.vectorized import beyond_float, comparable, group_bounds
from repro.optimizer.expr import (
    BoundBinary,
    BoundColumn,
    BoundConst,
    BoundExpr,
    BoundInList,
    BoundIsNull,
    BoundUnary,
)
from repro.storage.colstore import ColumnVector
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
        return Batch([ColumnVector(c.data[idx], c.validity[idx])
                      for c in self.columns], int(len(idx)))

    def select(self, mask: np.ndarray) -> "Batch":
        return Batch([ColumnVector(c.data[mask], c.validity[mask])
                      for c in self.columns], int(mask.sum()))


def rows_from_batches(batches: Iterable[Batch]) -> Iterator[tuple]:
    """The batch->row bridge: the only place values unbox.

    NULL lanes materialize as ``None`` and numpy scalars unbox to Python
    values — the bridge output is byte-identical to what the row path
    yields.  Columns unbox in bulk (``ndarray.tolist`` converts at C speed
    and yields the same Python values per element as ``.item()``).
    """
    for batch in batches:
        cols = []
        for c in batch.columns:
            values = c.data.tolist()
            if not c.validity.all():
                values = [v if ok else None
                          for v, ok in zip(values, c.validity.tolist())]
            cols.append(values)
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
    type's numpy dtype (TEXT, an unknown type or an unfit value: object).
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


def _lane(values: tuple, data_type: Optional[DataType]) -> ColumnVector:
    n = len(values)
    if data_type is not None and data_type is not DataType.TEXT:
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
    """One batch of ``batches`` back to back.  A column whose lanes differ
    in dtype (union inputs) concatenates as object, so no value is cast."""
    if len(batches) == 1:
        return batches[0]
    columns = []
    for j in range(width):
        datas = [b.columns[j].data for b in batches]
        if len({data.dtype for data in datas}) > 1:
            datas = [data.astype(object) for data in datas]
        columns.append(ColumnVector(
            np.concatenate(datas),
            np.concatenate([b.columns[j].validity for b in batches])))
    return Batch(columns, sum(b.n for b in batches))


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

    def in_list(batch: Batch) -> ColumnVector:
        needle = needle_fn(batch)
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

        def compare(batch: Batch) -> ColumnVector:
            vec = _lanewise(cmp, left_fn(batch), right_fn(batch), batch.n,
                            out_dtype=np.bool_)
            if vec.data.dtype != np.bool_:
                vec = ColumnVector(vec.data.astype(bool), vec.validity)
            return vec

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


# -- partial aggregation --------------------------------------------------

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


def partial_states_from_batches(agg) -> Iterator[Tuple[tuple, List[list]]]:
    """The lane fold: ``(group key, cells)`` of ``PHashAggregate`` or
    ``PPartialAgg`` over its child's batches.

    Fills the row fold's (``operators._fold_rows``) ``[count, total, min,
    max]`` cells exactly: groups are the distinct tuples of the group lanes
    (NULL a value of its own per column), created and charged to memory in
    first-seen order, keyed by their first row's Python values; sums add
    left to right in row order (the row fold's ``cell[1] += value``);
    counts skip NULLs; min/max keep the first of equal values.  The
    release is left to the caller.
    """
    from repro.exec.operators import _new_cells, _op_memory

    group_fns, arg_fns = agg._lane_fns
    specs = agg.aggs
    mem, entry_bytes = _op_memory(agg)
    states: dict = {}
    for batch in agg.child.batches():
        if not batch.n:
            continue
        args = [None if fn is None else fn(batch) for fn in arg_fns]
        groups = (_groups([fn(batch) for fn in group_fns], batch.n)
                  if group_fns else [((), np.arange(batch.n))])
        for key, member in groups:
            cells = states.get(key)
            if cells is None:
                cells = states[key] = _new_cells(specs)
                if mem is not None:
                    mem.grow(entry_bytes)
            _feed(specs, cells, member, args)
    if not states and not group_fns:
        states[()] = _new_cells(specs)     # empty state, nothing charged
    yield from states.items()


def _groups(vecs: List[ColumnVector], n: int):
    """``(key, lanes)`` per distinct key tuple, in first-seen order; the
    lanes of a group ascend."""
    _, order, bounds = group_bounds(_pack(vecs, n))
    firsts = order[bounds[:-1]]
    keys = list(zip(*[
        [v if ok else None
         for v, ok in zip(vec.data[firsts].tolist(),
                          vec.validity[firsts].tolist())]
        for vec in vecs]))
    for g in np.argsort(firsts).tolist():
        yield keys[g], order[bounds[g]:bounds[g + 1]]


def _pack(vecs: List[ColumnVector], n: int) -> np.ndarray:
    """One code (at most ``n``) per lane for its tuple of values: equal
    tuples, equal codes; NULL is one more value in each column."""
    code = None
    for vec in vecs:
        data = vec.data[vec.validity]
        if data.dtype == object:
            # a dict, like the row fold's (and no sort of Python objects):
            # each value's code is the position it was first seen at
            seen: dict = {}
            inverse = np.fromiter(map(seen.setdefault, data.tolist(), count()),
                                  dtype=np.int64, count=len(data))
            null_code = len(data)
        else:
            uniq, inverse = np.unique(data, return_inverse=True)
            null_code = len(uniq)
        column = np.full(n, null_code, dtype=np.int64)
        column[vec.validity] = inverse
        # codes stay at most n (re-densified once combined), so the
        # product stays below n * (n + 1)
        code = column if code is None else np.unique(
            code * (null_code + 1) + column, return_inverse=True)[1]
    return code


def _feed(specs, cells: List[list], member: np.ndarray,
          args: List[Optional[ColumnVector]]) -> None:
    for spec, cell, vec in zip(specs, cells, args):
        if vec is None:                        # COUNT(*)
            cell[0] += len(member)
            continue
        valid = vec.validity[member]
        values = vec.data[member if valid.all() else member[valid]].tolist()
        if not values:
            continue
        cell[0] += len(values)
        func = spec.func
        if func in ("sum", "avg"):
            # not sum(): from Python 3.12 it compensates float rounding
            cell[1] = reduce(operator.add, values, cell[1])
        elif func == "min":
            low = min(values)
            if cell[2] is None or low < cell[2]:
                cell[2] = low
        elif func == "max":
            high = max(values)
            if cell[3] is None or high > cell[3]:
                cell[3] = high


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
    code, so each key's lanes keep build-insertion order; a probe lane
    finds its match range with ``searchsorted`` and ``np.repeat`` expands
    the ranges, lane-major: the row probe's exact output order.  Right
    columns are gathered with ``take``.  Keys compare as Python values do
    (``1 = 1.0``, exactly past 2**53); a NULL key never matches.
    """
    from repro.exec.operators import _op_memory

    left_fns, right_fns = join._batch_keys
    right = join.right
    width = len(right.schema)
    mem, entry_bytes = _op_memory(join, right.schema)
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
        keys = [fn(build).data for fn in right_fns]
        uniqs = [np.unique(key) for key in keys]
        codes, _ = _key_codes(uniqs, keys)
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        for batch in join.left.batches():
            vecs = [fn(batch) for fn in left_fns]
            lanes = np.flatnonzero(_all_valid(vecs))
            probe, hit = _key_codes(uniqs, [vec.data[lanes] for vec in vecs])
            low = np.searchsorted(codes, probe)
            counts = np.where(hit, np.searchsorted(codes, probe, "right")
                              - low, 0)
            total = int(counts.sum())
            if not total:
                continue
            starts = np.repeat(low - np.cumsum(counts) + counts, counts)
            picked = order[starts + np.arange(total)]
            yield Batch(batch.take(np.repeat(lanes, counts)).columns
                        + build.take(picked).columns, total)
    finally:
        if mem is not None:
            mem.finish()


def _all_valid(vecs: List[ColumnVector]) -> np.ndarray:
    return np.logical_and.reduce([vec.validity for vec in vecs])


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
        op._batch_pred = None
        if op.vector_preds is not None or op.predicate is None:
            return True
        op._batch_pred = compile_expr(op.predicate)
        # a row source filters with the interpreter when the predicate
        # has no batch form; a column store has no rows to filter
        return op._batch_pred is not None or op.vector_store is None
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
        # lanes (or bridged rows) fold into cells; results leave as objects
        op._lane_fns = compile_fold(op, ops)
        return True
    if isinstance(op, (ops.PFragment,)):
        return op.child.batch_mode
    if isinstance(op, (ops.PExchange, ops.PUnionAll)):
        return all(child.batch_mode for child in op.children())
    return False
