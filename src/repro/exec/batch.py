"""Columnar batch execution: numpy column batches as the executor currency.

The row executor in :mod:`repro.exec.operators` is a classic volcano
pipeline — every operator yields Python tuples.  This module makes column
batches (positionally schema-aligned :class:`~repro.storage.colstore.
ColumnVector` lists) the unit of exchange instead: scans emit whole filtered
chunks, filters and projections evaluate compiled numpy expressions over
them, joins probe with vectorized key extraction, sorts run stable
``np.lexsort`` passes, and the per-DN fragment path ships partial-aggregate
states as object batches across exchanges.  Rows materialize only at the
client boundary (or wherever a row-only operator sits above a batched one).

Two invariants keep batch execution *replay-identical* to the row path:

* **Row counts** — ``PhysicalOp._count_batches`` adds ``batch.n`` per batch,
  so ``actual_rows`` (and with it every simulated profile time, which is a
  pure function of row counts) matches the row path exactly.  Because a
  ``LIMIT`` stops pulling mid-stream, batching is disabled in any subtree
  under one — a batched descendant would count rows the row path never
  produced.
* **Values** — kernels either reuse the row path's own math (partial
  aggregation states) or perform the same elementwise operation the row
  expression interpreter would (comparisons, arithmetic on the same
  operands), and the row bridge unboxes numpy scalars back to the Python
  values the row path yields.

``enable_batches`` is the activation pass: it walks a physical plan, marks
operators whose subtree can batch, and pre-compiles their expressions.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.common.errors import ExecutionError
from repro.exec.vectorized import group_bounds
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

#: Rows per materialized batch for operators that re-chunk their output
#: (sorts, partial-aggregate state shipping, the row->batch boundary).
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
                      batch_size: int) -> Iterator[Batch]:
    """Wrap a row stream into object-dtype batches.

    Values are stored as the exact Python objects the row produced (state
    tuples included), so bridging back to rows reproduces them bit for bit.
    """
    buf: List[tuple] = []
    for row in rows:
        buf.append(row)
        if len(buf) >= batch_size:
            yield Batch(_object_columns(buf, width), len(buf))
            buf = []
    if buf:
        yield Batch(_object_columns(buf, width), len(buf))


def _object_columns(rows: List[tuple], width: int) -> List[ColumnVector]:
    cols = []
    for j in range(width):
        data = np.empty(len(rows), dtype=object)
        validity = np.empty(len(rows), dtype=bool)
        for i, row in enumerate(rows):
            value = row[j]
            data[i] = value
            validity[i] = value is not None
        cols.append(ColumnVector(data, validity))
    return cols


def concat_batches(batches: List[Batch], width: int) -> Batch:
    if len(batches) == 1:
        return batches[0]
    columns = [
        ColumnVector(np.concatenate([b.columns[j].data for b in batches]),
                     np.concatenate([b.columns[j].validity for b in batches]))
        for j in range(width)
    ]
    return Batch(columns, sum(b.n for b in batches))


# -- compiled batch expressions -------------------------------------------
#
# ``compile_expr`` turns a bound expression into a ``Batch -> ColumnVector``
# function, or returns None when the expression uses something the batch
# interpreter cannot reproduce exactly (LIKE, CASE, scalar calls, string
# concat, division by a non-constant) — the operator then stays on the row
# path.  NULL handling mirrors the row interpreter's semantics operator for
# operator (including its short-circuit AND, where a NULL left side yields
# NULL regardless of the right side).

BatchFn = Callable[[Batch], ColumnVector]

_CMP = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "%": lambda a, b: a % b,
}


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
        dtype = np.int64
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
    if both.all():
        try:
            data = fn(left.data, right.data)
        except TypeError:
            raise ExecutionError("cannot compare incompatible batch lanes"
                                 ) from None
        data = np.asarray(data)
        return ColumnVector(data, both)
    if not both.any():
        dtype = out_dtype if out_dtype is not None else np.int64
        return ColumnVector(np.zeros(n, dtype=dtype), both)
    try:
        sub = np.asarray(fn(left.data[both], right.data[both]))
    except TypeError:
        raise ExecutionError("cannot compare incompatible batch lanes"
                             ) from None
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
                if vec.data.dtype == object:
                    data = np.array(
                        [-v if valid else 0 for v, valid
                         in zip(vec.data, vec.validity)], dtype=object)
                else:
                    data = -vec.data
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

    def in_list(batch: Batch) -> ColumnVector:
        needle = needle_fn(batch)
        found = np.zeros(batch.n, dtype=bool)
        for fn in item_fns:
            item = fn(batch)
            # Row semantics: a NULL item simply never matches (== is False).
            eq = _lanewise(lambda a, b: a == b, needle, item, batch.n)
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
        cmp = _CMP[op]

        def compare(batch: Batch) -> ColumnVector:
            vec = _lanewise(cmp, left_fn(batch), right_fn(batch), batch.n,
                            out_dtype=np.bool_)
            if vec.data.dtype != np.bool_:
                vec = ColumnVector(vec.data.astype(bool), vec.validity)
            return vec

        return compare
    if op == "/":
        # Only a non-zero constant divisor is compiled: the row interpreter
        # raises per offending row, a semantics a whole-batch kernel cannot
        # reproduce for arbitrary divisors.
        if not isinstance(expr.right, BoundConst) or expr.right.value in (None, 0):
            return None

        def divide(batch: Batch) -> ColumnVector:
            return _lanewise(lambda a, b: a / b, left_fn(batch),
                             right_fn(batch), batch.n, out_dtype=np.float64)

        return divide
    if op in _ARITH:
        arith = _ARITH[op]

        def arithmetic(batch: Batch) -> ColumnVector:
            return _lanewise(arith, left_fn(batch), right_fn(batch), batch.n)

        return arithmetic
    return None


# -- partial aggregation --------------------------------------------------

def partial_states_from_batches(agg) -> Optional[Iterator[tuple]]:
    """The lane fold: ``PPartialAgg`` over column batches.

    Fills the same ``[count, total, min, max]`` cells as the row fold
    (``operators._fold_rows``) and reproduces its math bit for bit:

    * sums accumulate with ``sum(values, start)`` — the same left-to-right
      float additions, in the same row order, as ``cell[1] += value``;
    * groups are created in first-seen row order (the NULL group
      included), so state rows emit in exactly the row fold's order;
    * counts skip NULL arguments, min/max compare the same values.

    Returns ``None`` when the shape is out of scope (multi-column group
    keys, uncompilable arguments, children that can carry object-typed
    state columns) — the caller runs the row fold over bridged rows.
    """
    child = agg.child
    if not child.batch_mode:
        return None
    from repro.exec import operators as ops
    if not isinstance(child, (ops.PScan, ops.PFilter)):
        # joins and state-shipping children can carry object-dtype columns
        # whose lanes np.unique cannot order; stay on the row fold there
        return None
    if len(agg.group_exprs) > 1:
        return None
    group_fn = None
    if agg.group_exprs:
        group_fn = compile_expr(agg.group_exprs[0])
        if group_fn is None:
            return None
    arg_fns: List[Optional[BatchFn]] = []          # None = COUNT(*)
    for spec in agg.aggs:
        if spec.distinct or spec.func not in ("count", "sum", "avg",
                                              "min", "max"):
            return None
        fn = None
        if spec.arg is not None:
            fn = compile_expr(spec.arg)
            if fn is None:
                return None
        arg_fns.append(fn)
    return _partial_states_iter(agg, group_fn, arg_fns)


def _partial_states_iter(agg, group_fn, arg_fns) -> Iterator[tuple]:
    from repro.exec.operators import _new_cells, _op_memory

    mem, entry_bytes = _op_memory(agg)
    specs = agg.aggs
    states: dict = {}

    def cells_for(key: tuple) -> List[list]:
        cells = states.get(key)
        if cells is None:
            cells = states[key] = _new_cells(specs)
            if mem is not None:
                mem.grow(entry_bytes)
        return cells

    def feed(cells: List[list], member: np.ndarray,
             arg_vecs: List[Optional[ColumnVector]]) -> None:
        for spec, cell, vec in zip(specs, cells, arg_vecs):
            if vec is None:                        # COUNT(*)
                cell[0] += len(member)
                continue
            mvalid = vec.validity[member]
            sub = member if mvalid.all() else member[mvalid]
            k = int(len(sub))
            if not k:
                continue
            cell[0] += k
            func = spec.func
            if func in ("sum", "avg"):
                # left-to-right adds from the running total: identical
                # float rounding to the row fold's per-row `+=`
                cell[1] = sum(vec.data[sub].tolist(), cell[1])
            elif func == "min":
                low = min(vec.data[sub].tolist())
                if cell[2] is None or low < cell[2]:
                    cell[2] = low
            elif func == "max":
                high = max(vec.data[sub].tolist())
                if cell[3] is None or high > cell[3]:
                    cell[3] = high

    try:
        for batch in agg.child.batches():
            arg_vecs = [None if fn is None else fn(batch) for fn in arg_fns]
            if group_fn is None:
                feed(cells_for(()), np.arange(batch.n), arg_vecs)
                continue
            gvec = group_fn(batch)
            valid_idx = np.flatnonzero(gvec.validity)
            uniq, order, bounds = group_bounds(gvec.data[valid_idx])
            keys = [(value,) for value in uniq.tolist()]
            members = [valid_idx[order[bounds[i]:bounds[i + 1]]]
                       for i in range(len(keys))]
            if len(valid_idx) < batch.n:           # the NULL group
                keys.append((None,))
                members.append(np.flatnonzero(~gvec.validity))
            # each member list ascends, so its head is the group's first
            # row: feeding by that creates groups in first-seen row order,
            # exactly like the row fold's dict
            for i in np.argsort([m[0] for m in members]).tolist():
                feed(cells_for(keys[i]), members[i], arg_vecs)
        if not states and group_fn is None:
            states[()] = _new_cells(specs)     # empty state, nothing charged
        for key, cells in states.items():
            yield key + tuple(tuple(cell) for cell in cells)
    finally:
        if mem is not None:
            mem.finish()


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


# -- join probe -----------------------------------------------------------

def probe_batches(join, table) -> Iterator[Batch]:
    """Vectorized-probe inner equi-join: batched left, row-built right.

    Keys are extracted with compiled batch expressions; the per-lane dict
    probe emits (left lane, build row) pairs in lane-major, build-insertion
    order — the exact output order of the row path's probe loop.  Right-side
    columns materialize as object vectors holding the build rows' original
    Python values.
    """
    key_fns = join._batch_keys
    right_width = len(join.right.schema)
    for batch in join.left.batches():
        key_vecs = [fn(batch) for fn in key_fns]
        left_idx: List[int] = []
        right_rows: List[tuple] = []
        for i in range(batch.n):
            if not all(vec.validity[i] for vec in key_vecs):
                continue
            matches = table.get(tuple(vec.data[i] for vec in key_vecs))
            if not matches:
                continue
            for row in matches:
                left_idx.append(i)
                right_rows.append(row)
        if not left_idx:
            continue
        idx = np.asarray(left_idx, dtype=np.int64)
        left_cols = [ColumnVector(c.data[idx], c.validity[idx])
                     for c in batch.columns]
        yield Batch(left_cols + _object_columns(right_rows, right_width),
                    len(idx))


# -- activation pass ------------------------------------------------------

def enable_batches(root) -> None:
    """Mark every operator whose subtree can run in batch mode.

    Top-down: a ``LIMIT`` forbids batching in its whole subtree (it stops
    pulling mid-stream, so a batched descendant would over-count rows
    relative to the row path); every other operator fully drains its
    children, which makes batch->row bridges count-exact.  Compiled batch
    expressions are cached on the operators, so a plan activated once (and
    then held in the plan cache) never recompiles.
    """
    _activate(root, allow=True)


def _activate(op, allow: bool) -> None:
    from repro.exec import operators as ops

    if isinstance(op, ops.PLimit):
        allow = False
    for child in op.children():
        _activate(child, allow)
    op.batch_mode = allow and _can_batch(op, ops)


def _can_batch(op, ops) -> bool:
    if isinstance(op, ops.PScan):
        if op.vector_store is None:
            return False
        if op.vector_preds is not None:
            return True
        if op.predicate is None:
            return False
        pred_fn = compile_expr(op.predicate)
        if pred_fn is None:
            return False
        op._batch_pred = pred_fn
        return True
    if isinstance(op, ops.PFilter):
        if not op.child.batch_mode:
            return False
        pred_fn = compile_expr(op.predicate)
        if pred_fn is None:
            return False
        op._batch_pred = pred_fn
        return True
    if isinstance(op, ops.PProject):
        if not op.child.batch_mode:
            return False
        fns = [compile_expr(e) for e in op.exprs]
        if any(fn is None for fn in fns):
            return False
        op._batch_exprs = fns
        return True
    if isinstance(op, ops.PSort):
        if not op.child.batch_mode:
            return False
        keys = [(compile_expr(e), d) for e, d in op.keys]
        if any(fn is None for fn, _ in keys):
            return False
        op._batch_keys = keys
        return True
    if isinstance(op, ops.PHashJoin):
        # Inner equi-joins without residuals: the probe's output order is
        # lane-major/build-order either way.  Outer joins and residuals
        # interleave pad rows mid-stream and stay on the row path.
        if op.kind != "inner" or op.residual is not None:
            return False
        if not op.left.batch_mode:
            return False
        keys = [compile_expr(k) for k in op.left_keys]
        if any(fn is None for fn in keys):
            return False
        op._batch_keys = keys
        return True
    if isinstance(op, ops.PPartialAgg):
        # Folds lanes or bridged rows into the same cells and ships the
        # state rows as object batches, so exchange serialization is batched.
        return True
    if isinstance(op, (ops.PFragment,)):
        return op.child.batch_mode
    if isinstance(op, (ops.PExchange, ops.PUnionAll)):
        return all(child.batch_mode for child in op.children())
    return False
