"""Physical (volcano-style) operators.

Every operator yields row tuples and counts the rows it produces.  The
counters are the learning optimizer's *producer* input: after a query runs,
the engine walks the physical tree and compares each cardinality-bearing
operator's ``actual_rows`` with its ``estimated_rows`` (Fig. 5's capture
path).  Operators carry the canonical ``step_text`` of the logical node they
implement, because the plan store is keyed on *logical* steps — "only the
logical operator (join instead of hash join ...) is needed" (Sec. II-C).
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import ExecutionError
from repro.optimizer.expr import BoundExpr
from repro.optimizer.logical import AggSpec, Schema


class PhysicalOp:
    """Base class for physical operators."""

    #: Fragmented plans clone partitioned operators once per data node; the
    #: clones share a capture group so the learning producer sums their
    #: ``actual_rows`` back into one observation per *logical* step (the
    #: plan store is keyed on logical steps, not per-DN instances).
    capture_group: Optional[int] = None
    #: Set by :func:`repro.wlm.attach_to_plan` when workload management
    #: governs the query: ``wlm_ctx`` enables per-row cancellation
    #: checkpoints and memory accounting, ``_wlm_dn`` is the data node this
    #: operator's fragment runs on (spill is charged there).  An operator
    #: run outside ``SqlEngine.execute`` (built directly, as unit tests
    #: do) keeps these class-level defaults and is not governed.
    wlm_ctx = None
    _wlm_dn: Optional[int] = None
    #: Spill accounting (``repro.wlm.memory``): bytes this operator spilled
    #: and the simulated I/O time charged for them.
    spilled_bytes: int = 0
    spill_time_us: float = 0.0
    #: Set by :func:`repro.exec.batch.enable_batches`.  When on,
    #: ``execute()`` bridges the operator's counted batch stream back to
    #: rows; batch-capable parents call :meth:`batches` directly so column
    #: batches flow between operators without materializing tuples.
    batch_mode: bool = False

    def __init__(self, schema: Schema, estimated_rows: float = 0.0,
                 step_text: Optional[str] = None):
        self.schema = schema
        self.estimated_rows = estimated_rows
        self.step_text = step_text
        self.actual_rows = 0
        #: Set by :class:`repro.obs.profiler.QueryProfiler.attach`; when
        #: present, ``_count`` routes the row stream through the profiler's
        #: open/next/close instrumentation.
        self.profiler = None

    def children(self) -> Sequence["PhysicalOp"]:
        return ()

    def execute(self) -> Iterator[tuple]:
        raise NotImplementedError

    def reset_own_counters(self) -> None:
        """Zero this operator's counters (:meth:`PlanOutline.reset_counters`
        zeroes a whole plan's)."""
        self.actual_rows = 0
        self.spilled_bytes = 0
        self.spill_time_us = 0.0

    def _count(self, rows: Iterator[tuple]) -> Iterator[tuple]:
        if self.profiler is not None:
            rows = self.profiler.wrap(self, rows)
        ctx = self.wlm_ctx
        if ctx is not None:
            for row in rows:
                ctx.tick(self)
                self.actual_rows += 1
                yield row
            return
        for row in rows:
            self.actual_rows += 1
            yield row

    # -- batch protocol ----------------------------------------------------

    def execute_batches(self):
        """Produce :class:`repro.exec.batch.Batch` column batches.

        Implemented by batch-capable operators; only called when the
        activation pass set ``batch_mode``.
        """
        raise ExecutionError(
            f"{type(self).__name__} has no batch implementation")

    def batches(self):
        """Counted batch stream — the batch-mode analogue of ``execute``."""
        return self._count_batches(self.execute_batches())

    def _count_batches(self, stream):
        """Mirror of :meth:`_count` at batch grain.

        ``actual_rows`` advances by ``batch.n`` per batch, so row counts
        (and every profile time derived from them) match the row path; the
        WLM checkpoint accrues the same per-row progress but checks for
        cancellation once per batch.
        """
        if self.profiler is not None:
            stream = self.profiler.wrap(self, stream)
        ctx = self.wlm_ctx
        if ctx is not None:
            for batch in stream:
                ctx.tick_batch(self, batch.n)
                self.actual_rows += batch.n
                yield batch
            return
        for batch in stream:
            self.actual_rows += batch.n
            yield batch

    def _bridge_rows(self) -> Iterator[tuple]:
        """Row view of this operator's counted batch stream (no recount)."""
        from repro.exec.batch import rows_from_batches

        return rows_from_batches(self.batches())

    def name(self) -> str:
        return type(self).__name__[1:]  # strip the single 'P' prefix

    def pretty(self) -> str:
        return PlanOutline(self).pretty()

    def describe(self) -> str:
        return self.name()

    @cached_property
    def description(self) -> str:
        """:meth:`describe`, rendered once: nothing it reads changes after
        planning, and a cached plan re-runs as it is."""
        return self.describe()

    @cached_property
    def row_width(self) -> int:
        """Estimated serialized width of one output row (from the schema,
        so computed once)."""
        from repro.net.costing import row_width_bytes

        return row_width_bytes(getattr(c, "data_type", None)
                               for c in self.schema)


def _op_memory(op: PhysicalOp, resident: Optional[PhysicalOp] = None):
    """(tracker, per-entry bytes) when the query is governed, else (None, 0).

    Entries are sized by the operator's output rows unless ``resident``
    names the operator whose rows reside in memory (a hash join's build
    side).
    """
    if op.wlm_ctx is None:
        return None, 0
    from repro.wlm.memory import ENTRY_OVERHEAD_BYTES

    return (op.wlm_ctx.memory_for(op),
            (resident or op).row_width + ENTRY_OVERHEAD_BYTES)


class PScan(PhysicalOp):
    """Table scan over a row source supplied by the engine.

    Either orientation batches: :meth:`execute_batches` yields the rows
    its row body would, in the same order, as lanes of the schema's types
    — read from ``lanes`` (the data nodes' lane scan) when the engine binds
    it, else typed from the row source.

    A coordinator-side scan of a distributed table is not free: every raw
    tuple crosses the network from ``remote_sources`` shards before the
    predicate even runs.  When ``remote_sources > 0`` the scan charges that
    movement through the same :func:`repro.net.costing.exchange_cost_us`
    model the exchanges use — this is what makes the gather-all baseline
    honest next to fragmented plans, whose per-DN scans are local reads.
    """

    #: The predicate's compiled batch expression, set by the activation
    #: pass; ``None`` where the row interpreter filters.
    _batch_pred = None

    def __init__(self, table: str, source: Callable[[], Iterable[tuple]],
                 schema: Schema, predicate: Optional[BoundExpr] = None,
                 estimated_rows: float = 0.0, step_text: Optional[str] = None,
                 remote_sources: int = 0, cost_model=None,
                 lanes: Optional[Callable[[], Iterable[object]]] = None):
        super().__init__(schema, estimated_rows, step_text)
        self.table = table
        self.source = source
        self.predicate = predicate
        self.lanes = lanes
        #: Shards drained over the wire (0 = the scan is node-local).
        self.remote_sources = remote_sources
        self.cost_model = cost_model
        #: One-way hop latency the drained streams cross.  ``None`` means
        #: LAN (single-region topology); a multi-region planner resolves
        #: this through :meth:`repro.net.fabric.Fabric.hop_us` instead of
        #: hand-picking a WAN/LAN ratio.
        self.hop_us: Optional[float] = None
        #: Raw tuples pulled from the source, pre-predicate; this is the
        #: volume that crossed the network for a remote scan.
        self.scanned_rows = 0

    def reset_own_counters(self) -> None:
        super().reset_own_counters()
        self.scanned_rows = 0

    def _drain(self) -> Iterator[tuple]:
        for row in self.source():
            self.scanned_rows += 1
            yield row

    def _filtered(self) -> Iterator[tuple]:
        """The source's rows the predicate keeps, by the row interpreter."""
        predicate = self.predicate
        if predicate is None:
            return self._drain()
        return (row for row in self._drain() if predicate.eval(row))

    def execute(self) -> Iterator[tuple]:
        if self.batch_mode:
            return self._bridge_rows()
        return self._count(self._filtered())

    def execute_batches(self):
        """The scan's lanes, filtered by the predicate's compiled batch
        expression over whole batches (``_batch_pred``, set by the
        activation pass) — or, where it has no batch form, by the row
        interpreter before the rows become lanes."""
        from repro.exec.batch import truth_mask

        pred = self._batch_pred
        for batch in self._row_batches(
                self.predicate if pred is None else None):
            if pred is not None:
                mask = truth_mask(pred(batch))
                if not mask.any():
                    continue
                if not mask.all():
                    batch = batch.select(mask)
            yield batch

    def _row_batches(self, predicate: Optional[BoundExpr]):
        """The row source as typed lanes: ``DEFAULT_BATCH_SIZE`` source
        rows at a time, each chunk counted whole into ``scanned_rows`` (a
        batch consumer drains the source, so the total is exact), minus
        the rows ``predicate`` (the row interpreter) rejects.  Without
        one, the batches are ``lanes``' instead, counted the same way."""
        from repro.exec import batch as batch_mod

        if predicate is None and self.lanes is not None:
            for batch in self.lanes():
                self.scanned_rows += batch.n
                yield batch
            return
        types = [c.data_type for c in self.schema]
        rows = iter(self.source())
        while True:
            chunk = list(islice(rows, batch_mod.DEFAULT_BATCH_SIZE))
            if not chunk:
                return
            self.scanned_rows += len(chunk)
            if predicate is not None:
                chunk = list(filter(predicate.eval, chunk))
            if chunk:
                yield batch_mod.batch_of_rows(chunk, types)

    def sim_self_time_us(self, rows_in: int, rows_out: int,
                         batches: int) -> Optional[float]:
        """Add shard-draining network cost for coordinator-side scans.

        Returns ``None`` for local scans so the profiler falls back to the
        generic CPU formula.
        """
        if not self.remote_sources:
            return None
        from repro.net.costing import exchange_cost_us
        from repro.net.latency import DEFAULT_PROFILE
        from repro.obs.profiler import (BATCH_COST_US, DEFAULT_ROW_COST_US,
                                        OPEN_COST_US)

        model = self.cost_model if self.cost_model is not None else DEFAULT_PROFILE.mpp
        cpu = (OPEN_COST_US + BATCH_COST_US * batches
               + DEFAULT_ROW_COST_US[self.name()]
               * (self.scanned_rows + rows_out))
        return cpu + exchange_cost_us(model, self.scanned_rows, self.row_width,
                                      edges=self.remote_sources,
                                      hop_us=self.hop_us)

    @property
    def network_rows(self) -> int:
        """Rows this scan pulled across the network (0 for local scans)."""
        return self.scanned_rows if self.remote_sources else 0

    def describe(self) -> str:
        pred = f" [{self.predicate.text()}]" if self.predicate is not None else ""
        return f"SeqScan {self.table}{pred}"


class PKeyLookup(PScan):
    """Primary-key probes in place of the scan they replace.

    ``sites`` is the planner's answer to *where the keys live* —
    ``(dn_index, keys)`` pairs in the order a scan would visit the nodes
    (:func:`repro.optimizer.access.key_sites`) — and ``source(sites)``
    fetches the visible rows, each node's hits in heap arrival order, so
    the leaf emits the rows ``SeqScan`` would have, in the same order.
    The whole pushed-down predicate still runs on every fetched row.

    Costed like the scan: per-row CPU at the ``Scan`` rate, and a
    coordinator-side lookup (``remote_sources > 0``) pays for the fetched
    rows crossing the wire.
    """

    def __init__(self, table: str, sites, source, schema: Schema,
                 predicate: BoundExpr,
                 estimated_rows: float = 0.0, step_text: Optional[str] = None,
                 remote_sources: int = 0, cost_model=None):
        super().__init__(table, lambda: source(sites), schema,
                         predicate=predicate, estimated_rows=estimated_rows,
                         step_text=step_text, remote_sources=remote_sources,
                         cost_model=cost_model)
        self.sites = sites

    @property
    def dn_index(self) -> Optional[int]:
        """The one data node this lookup touches, if it is only one."""
        return self.sites[0][0] if len(self.sites) == 1 else None

    def execute(self) -> Iterator[tuple]:
        predicate = self.predicate
        return self._count(
            row for row in self._drain() if predicate.eval(row))

    def describe(self) -> str:
        return f"KeyLookup {self.table} [{self.predicate.text()}]"


class PTableFunction(PhysicalOp):
    def __init__(self, fn_name: str, rows_provider: Callable[[], Iterable[tuple]],
                 schema: Schema, estimated_rows: float = 0.0,
                 step_text: Optional[str] = None):
        super().__init__(schema, estimated_rows, step_text)
        self.fn_name = fn_name
        self.rows_provider = rows_provider

    def execute(self) -> Iterator[tuple]:
        return self._count(iter(self.rows_provider()))

    def describe(self) -> str:
        return f"TableFunction {self.fn_name}"


class PValues(PhysicalOp):
    def __init__(self, rows: List[tuple], schema: Schema):
        super().__init__(schema, float(len(rows)))
        self.rows = rows

    def execute(self) -> Iterator[tuple]:
        return self._count(iter(self.rows))


class PFilter(PhysicalOp):
    def __init__(self, child: PhysicalOp, predicate: BoundExpr,
                 estimated_rows: float = 0.0, step_text: Optional[str] = None):
        super().__init__(child.schema, estimated_rows, step_text)
        self.child = child
        self.predicate = predicate

    def children(self) -> Sequence[PhysicalOp]:
        return (self.child,)

    def execute(self) -> Iterator[tuple]:
        if self.batch_mode:
            return self._bridge_rows()
        predicate = self.predicate
        return self._count(
            row for row in self.child.execute() if predicate.eval(row)
        )

    def execute_batches(self):
        from repro.exec.batch import truth_mask

        pred = self._batch_pred
        for batch in self.child.batches():
            mask = truth_mask(pred(batch))
            if not mask.any():
                continue
            yield batch if mask.all() else batch.select(mask)

    def describe(self) -> str:
        return f"Filter [{self.predicate.text()}]"


class PProject(PhysicalOp):
    def __init__(self, child: PhysicalOp, exprs: List[BoundExpr], schema: Schema,
                 estimated_rows: float = 0.0):
        super().__init__(schema, estimated_rows)
        self.child = child
        self.exprs = exprs

    def children(self) -> Sequence[PhysicalOp]:
        return (self.child,)

    def execute(self) -> Iterator[tuple]:
        if self.batch_mode:
            return self._bridge_rows()
        exprs = self.exprs
        return self._count(
            tuple(e.eval(row) for e in exprs) for row in self.child.execute()
        )

    def execute_batches(self):
        from repro.exec.batch import Batch

        fns = self._batch_exprs
        for batch in self.child.batches():
            yield Batch([fn(batch) for fn in fns], batch.n)


class PHashJoin(PhysicalOp):
    """Equi hash join (inner / left outer), build side = right."""

    def __init__(self, kind: str, left: PhysicalOp, right: PhysicalOp,
                 left_keys: List[BoundExpr], right_keys: List[BoundExpr],
                 residual: Optional[BoundExpr], schema: Schema,
                 estimated_rows: float = 0.0, step_text: Optional[str] = None):
        if kind not in ("inner", "left"):
            raise ExecutionError(f"hash join cannot run kind {kind!r}")
        super().__init__(schema, estimated_rows, step_text)
        self.kind = kind
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual

    def children(self) -> Sequence[PhysicalOp]:
        return (self.left, self.right)

    def execute(self) -> Iterator[tuple]:
        if self.batch_mode:
            return self._bridge_rows()
        return self._count(self._join())

    def _build_rows(self, mem, entry_bytes) -> Iterator[Tuple[tuple, tuple]]:
        """``(key, row)`` per build row with a non-NULL key, each charged
        to memory before the next row is pulled."""
        for row in self.right.execute():
            key = tuple(k.eval(row) for k in self.right_keys)
            if any(v is None for v in key):
                continue
            if mem is not None:
                mem.grow(entry_bytes)
            yield key, row

    def _join(self) -> Iterator[tuple]:
        mem, entry_bytes = _op_memory(self, self.right)
        try:
            table: Dict[tuple, List[tuple]] = {}
            for key, row in self._build_rows(mem, entry_bytes):
                table.setdefault(key, []).append(row)
            null_pad = (None,) * len(self.right.schema)
            residual = self.residual
            for lrow in self.left.execute():
                key = tuple(k.eval(lrow) for k in self.left_keys)
                matched = False
                if not any(v is None for v in key):
                    for rrow in table.get(key, ()):
                        combined = lrow + rrow
                        if residual is None or residual.eval(combined):
                            matched = True
                            yield combined
                if not matched and self.kind == "left":
                    yield lrow + null_pad
        finally:
            if mem is not None:
                mem.finish()

    def execute_batches(self):
        """Build and probe on key lanes, emitting combined batches in the
        row body's exact output order (``batch.hash_join_batches``)."""
        from repro.exec.batch import hash_join_batches

        return hash_join_batches(self)

    def describe(self) -> str:
        keys = ", ".join(
            f"{l.text()}={r.text()}"
            for l, r in zip(self.left_keys, self.right_keys)
        )
        return f"HashJoin {self.kind} [{keys}]"


class PNestedLoopJoin(PhysicalOp):
    """Fallback join for non-equi or cross joins."""

    def __init__(self, kind: str, left: PhysicalOp, right: PhysicalOp,
                 condition: Optional[BoundExpr], schema: Schema,
                 estimated_rows: float = 0.0, step_text: Optional[str] = None):
        super().__init__(schema, estimated_rows, step_text)
        self.kind = kind
        self.left = left
        self.right = right
        self.condition = condition

    def children(self) -> Sequence[PhysicalOp]:
        return (self.left, self.right)

    def execute(self) -> Iterator[tuple]:
        return self._count(self._join())

    def _join(self) -> Iterator[tuple]:
        right_rows = list(self.right.execute())
        null_pad = (None,) * len(self.right.schema)
        condition = self.condition
        for lrow in self.left.execute():
            matched = False
            for rrow in right_rows:
                combined = lrow + rrow
                if condition is None or condition.eval(combined):
                    matched = True
                    yield combined
            if not matched and self.kind == "left":
                yield lrow + null_pad

    def describe(self) -> str:
        cond = f" [{self.condition.text()}]" if self.condition is not None else ""
        return f"NestLoopJoin {self.kind}{cond}"


# -- aggregate state ------------------------------------------------------
#
# One cell ``[count, total, minimum, maximum]`` per aggregate per group is
# the only aggregate state in the plan executor: row input folds into it
# with ``_partial_add`` (below), partial states merge with ``_merge_state``,
# and ``_finalize_state`` reads the answer out.  The lane fold in
# :mod:`repro.exec.batch` keeps the same cells as arrays, one per aggregate.

_STAR = object()


def _new_cells(aggs: List[AggSpec]) -> List[List[object]]:
    return [[0, 0.0, None, None] for _ in aggs]


def _partial_add(cell: List[object], func: str, value: object) -> None:
    if value is _STAR:
        cell[0] += 1
        return
    if value is None:
        return
    cell[0] += 1
    if func in ("sum", "avg"):
        cell[1] += value
    elif func == "min":
        if cell[2] is None or value < cell[2]:
            cell[2] = value
    elif func == "max":
        if cell[3] is None or value > cell[3]:
            cell[3] = value


def _merge_state(cell: List[object], state: tuple) -> None:
    count, total, minimum, maximum = state
    cell[0] += count
    cell[1] += total
    if minimum is not None and (cell[2] is None or minimum < cell[2]):
        cell[2] = minimum
    if maximum is not None and (cell[3] is None or maximum > cell[3]):
        cell[3] = maximum


def _finalize_state(cell: List[object], func: str) -> object:
    count, total, minimum, maximum = cell
    if func == "count":
        return count
    if func == "sum":
        return total if count else None
    if func == "avg":
        return total / count if count else None
    if func == "min":
        return minimum
    if func == "max":
        return maximum
    raise ExecutionError(f"unknown aggregate {func!r}")


def _fold_rows(op) -> Iterator[Tuple[tuple, List[List[object]]]]:
    """The row fold: ``(group key, cells)`` in first-seen group order.

    Shared by :class:`PHashAggregate` and :class:`PPartialAgg`.  A
    ``DISTINCT`` aggregate also keeps, per cell, the set of values it has
    folded and skips repeats.  A global aggregate over zero rows still
    yields one (empty) group.  Each new group is charged to the
    aggregate's memory, which its caller releases.
    """
    mem, entry_bytes = _op_memory(op)
    aggs, group_exprs = op.aggs, op.group_exprs
    any_distinct = any(a.distinct for a in aggs)
    groups: Dict[tuple, List[List[object]]] = {}
    seen: Dict[int, set] = {}       # id(cell) -> values folded into it
    for row in op.child.execute():
        key = tuple(g.eval(row) for g in group_exprs)
        cells = groups.get(key)
        if cells is None:
            cells = groups[key] = _new_cells(aggs)
            if mem is not None:
                mem.grow(entry_bytes)
        for spec, cell in zip(aggs, cells):
            value = _STAR if spec.arg is None else spec.arg.eval(row)
            if any_distinct and spec.distinct:
                values = seen.setdefault(id(cell), set())
                if value in values:
                    continue
                values.add(value)
            _partial_add(cell, spec.func, value)
    if not groups and not group_exprs:
        yield (), _new_cells(aggs)
    yield from groups.items()


class _Aggregate(PhysicalOp):
    """What the three aggregates share.  Over a batched child they fold
    lanes into lanes (``_lanes``, the lane fold of :mod:`repro.exec.batch`),
    bridged to rows for a row-body parent; otherwise rows into cells
    (``_rows``).  Groups stay charged to memory until the parent pulls past
    the last of them."""

    def children(self) -> Sequence[PhysicalOp]:
        return (self.child,)

    def execute(self) -> Iterator[tuple]:
        if self.batch_mode:
            return self._bridge_rows()
        if self._folds_lanes():
            from repro.exec.batch import rows_from_batches

            return self._count(self._held(rows_from_batches(self._lanes())))
        return self._count(self._held(self._rows()))

    def execute_batches(self):
        if self._folds_lanes():
            return self._held(self._lanes())
        from repro.exec.batch import batches_from_rows

        return self._held(batches_from_rows(self._rows(), len(self.schema)))

    def _held(self, stream):
        # A batch of output rows is built before the parent sees it, so
        # the fold has ended by then; the memory is released only once
        # the parent pulls past the end, as the row body would release it.
        mem, _ = _op_memory(self)
        try:
            yield from stream
        finally:
            if mem is not None:
                mem.finish()


class _GroupAggregate(_Aggregate):
    """What :class:`PHashAggregate` and :class:`PPartialAgg` share: the
    lane fold over a batched child the activation pass compiled it for
    (``_lane_fns``), else the row fold, each reading its cells out in its
    own way (``_final``: values, or partial states)."""

    _lane_fns = None

    def __init__(self, child: PhysicalOp, group_exprs: List[BoundExpr],
                 aggs: List[AggSpec], schema: Schema,
                 estimated_rows: float = 0.0, step_text: Optional[str] = None):
        super().__init__(schema, estimated_rows, step_text)
        self.child = child
        self.group_exprs = group_exprs
        self.aggs = aggs

    def _folds_lanes(self) -> bool:
        return self.child.batch_mode and self._lane_fns is not None

    def _lanes(self):
        from repro.exec.batch import fold_batches

        return fold_batches(self)

    def _rows(self) -> Iterator[tuple]:
        for key, cells in _fold_rows(self):
            yield key + self._read(cells)

    def describe(self) -> str:
        return (f"{self._label} group=["
                + ", ".join(g.text() for g in self.group_exprs) + "] aggs=["
                + ", ".join(a.text() for a in self.aggs) + "]")


class PHashAggregate(_GroupAggregate):
    _label = "HashAggregate"
    _final = True

    def _read(self, cells: List[List[object]]) -> tuple:
        return tuple(_finalize_state(cell, spec.func)
                     for cell, spec in zip(cells, self.aggs))


class PSort(PhysicalOp):
    def __init__(self, child: PhysicalOp, keys: List[Tuple[BoundExpr, bool]],
                 estimated_rows: float = 0.0):
        super().__init__(child.schema, estimated_rows)
        self.child = child
        self.keys = keys

    def children(self) -> Sequence[PhysicalOp]:
        return (self.child,)

    def execute(self) -> Iterator[tuple]:
        if self.batch_mode:
            return self._bridge_rows()

        def gen() -> Iterator[tuple]:
            mem, entry_bytes = _op_memory(self)
            try:
                rows = []
                for row in self.child.execute():
                    rows.append(row)
                    if mem is not None:
                        mem.grow(entry_bytes)
                # Stable multi-key sort: apply keys last-to-first; NULLs
                # sort last ascending, first descending.
                for expr, descending in reversed(self.keys):
                    rows.sort(
                        key=lambda row: _sort_key(expr.eval(row)),
                        reverse=descending,
                    )
                yield from rows
            finally:
                if mem is not None:
                    mem.finish()

        return self._count(gen())

    def execute_batches(self):
        """Buffer child batches, sort once with stable lexsort passes.

        Memory is charged per buffered batch with ``grow_entries`` — the
        row body's per-row charge, spill for spill.
        """
        from repro.exec.batch import sorted_batches

        mem, entry_bytes = _op_memory(self)
        try:
            collected = []
            for batch in self.child.batches():
                collected.append(batch)
                if mem is not None:
                    mem.grow_entries(entry_bytes, batch.n)
            yield from sorted_batches(self, collected)
        finally:
            if mem is not None:
                mem.finish()

    def describe(self) -> str:
        keys = ", ".join(f"{e.text()}{' DESC' if d else ''}" for e, d in self.keys)
        return f"Sort [{keys}]"


def _sort_key(value: object):
    if value is None:
        # (1, ...) sorts after every (0, ...): NULLs last when ascending;
        # with reverse=True this puts them first, matching DESC NULLS FIRST.
        return (1, 0)
    return (0, value)


class PLimit(PhysicalOp):
    def __init__(self, child: PhysicalOp, limit: int,
                 estimated_rows: float = 0.0, step_text: Optional[str] = None):
        super().__init__(child.schema, estimated_rows, step_text)
        self.child = child
        self.limit = limit

    def children(self) -> Sequence[PhysicalOp]:
        return (self.child,)

    def execute(self) -> Iterator[tuple]:
        def gen():
            if self.limit <= 0:
                return
            produced = 0
            for row in self.child.execute():
                yield row
                produced += 1
                if produced >= self.limit:
                    break   # stop before pulling a row we would discard
        return self._count(gen())

    def describe(self) -> str:
        return f"Limit {self.limit}"


class PDistinct(PhysicalOp):
    def __init__(self, child: PhysicalOp, estimated_rows: float = 0.0,
                 step_text: Optional[str] = None):
        super().__init__(child.schema, estimated_rows, step_text)
        self.child = child

    def children(self) -> Sequence[PhysicalOp]:
        return (self.child,)

    def execute(self) -> Iterator[tuple]:
        def gen():
            seen = set()
            for row in self.child.execute():
                if row not in seen:
                    seen.add(row)
                    yield row
        return self._count(gen())


class PUnionAll(PhysicalOp):
    """Concatenate schema-compatible inputs (UNION ALL)."""

    def __init__(self, children: List[PhysicalOp], schema: Schema,
                 estimated_rows: float = 0.0, step_text: Optional[str] = None):
        super().__init__(schema, estimated_rows, step_text)
        if not children:
            raise ExecutionError("UNION ALL needs at least one input")
        self._children = children

    def children(self) -> Sequence[PhysicalOp]:
        return tuple(self._children)

    def execute(self) -> Iterator[tuple]:
        if self.batch_mode:
            return self._bridge_rows()

        def gen():
            for child in self._children:
                yield from child.execute()
        return self._count(gen())

    def execute_batches(self):
        for child in self._children:
            yield from child.batches()

    def describe(self) -> str:
        return f"UnionAll [{len(self._children)} inputs]"


class PExchange(PhysicalOp):
    """Data movement: gather / broadcast / redistribute.

    A real operator since the fragmented-execution refactor: its inputs are
    the per-DN fragments it collects (or a single subtree for broadcasts and
    legacy plans), and it charges simulated network cost — rows moved times
    estimated row width, per sender edge — through the
    :mod:`repro.net.costing` exchange model.  The rows that flow through it
    are exactly the rows that cross the CN/DN boundary, so a plan that
    pushes a partial aggregate below the gather moves groups, not tuples.
    """

    def __init__(self, kind: str, child,
                 estimated_rows: float = 0.0, cost_model=None):
        children = (list(child) if isinstance(child, (list, tuple))
                    else [child])
        if not children:
            raise ExecutionError("exchange needs at least one input")
        super().__init__(children[0].schema, estimated_rows)
        if kind not in ("gather", "broadcast", "redistribute"):
            raise ExecutionError(f"unknown exchange kind {kind!r}")
        self.kind = kind
        self._children: List[PhysicalOp] = children
        #: Backward-compatible alias (single-input exchanges predate
        #: fragment fan-in).
        self.child = children[0]
        self.cost_model = cost_model
        #: One-way hop latency this exchange's sender streams cross; see
        #: ``PScan.hop_us`` (``None`` = LAN, the single-region default).
        self.hop_us: Optional[float] = None

    def children(self) -> Sequence[PhysicalOp]:
        return tuple(self._children)

    def execute(self) -> Iterator[tuple]:
        if self.batch_mode:
            return self._bridge_rows()

        def gen() -> Iterator[tuple]:
            for child in self._children:
                yield from child.execute()

        return self._count(gen())

    def execute_batches(self):
        """Exchange serialization at batch grain: per-DN fragments ship
        column batches across the (simulated) wire, not row tuples."""
        for child in self._children:
            yield from child.batches()

    def sim_self_time_us(self, rows_in: int, rows_out: int,
                         batches: int) -> float:
        """Network cost hook for the profiler (replaces per-row CPU cost)."""
        from repro.net.costing import exchange_cost_us
        from repro.net.latency import DEFAULT_PROFILE

        model = self.cost_model if self.cost_model is not None else DEFAULT_PROFILE.mpp
        return exchange_cost_us(model, rows_out, self.row_width,
                                edges=len(self._children),
                                hop_us=self.hop_us)

    @property
    def network_rows(self) -> int:
        """Rows that crossed this exchange's wire."""
        return self.actual_rows

    def describe(self) -> str:
        if len(self._children) > 1:
            return f"Exchange {self.kind} [{len(self._children)} fragments]"
        return f"Exchange {self.kind}"


class PFragment(PhysicalOp):
    """One data node's slice of a fragmented plan.

    Everything beneath it executes "on" data node ``dn_index`` (scans read
    only that shard); fragments sharing a ``group_id`` are the parallel
    instances of the same plan slice, so the profiler charges the *max* of
    their simulated times — they run concurrently on different nodes.
    """

    is_fragment = True

    def __init__(self, child: PhysicalOp, dn_index: int, group_id: int):
        super().__init__(child.schema, child.estimated_rows)
        self.child = child
        self.dn_index = dn_index
        self.group_id = group_id

    @property
    def fragment_key(self) -> Tuple[int, int]:
        return (self.group_id, self.dn_index)

    def children(self) -> Sequence[PhysicalOp]:
        return (self.child,)

    def execute(self) -> Iterator[tuple]:
        if self.batch_mode:
            return self._bridge_rows()
        return self._count(self.child.execute())

    def execute_batches(self):
        yield from self.child.batches()

    def describe(self) -> str:
        return f"Fragment dn{self.dn_index}"


class PPartialAgg(_GroupAggregate):
    """DN-side half of two-phase aggregation.

    Emits one row per local group: the group key followed by one partial
    state tuple ``(count, total, minimum, maximum)`` per aggregate — a
    global aggregate one (empty) state row per node, so the final
    aggregate sees every node even over zero rows.  The coordinator's
    :class:`PFinalAgg` merges states across data nodes, so only
    group-grain rows cross the gather exchange.  Carries no ``step_text``
    — per-DN partials are a physical artifact, not a logical step the
    plan store should learn.
    """

    _label = "PartialAggregate"
    _final = False

    def _read(self, cells: List[List[object]]) -> tuple:
        return tuple(tuple(cell) for cell in cells)


class PFinalAgg(_Aggregate):
    """CN-side half of two-phase aggregation: merge partial states.

    Input rows are ``group key + state tuples`` from the data nodes'
    :class:`PPartialAgg` instances (concatenated through a gather exchange);
    over lanes, key lanes and state lanes (``batch.merge_batches``).
    Carries the logical aggregate's ``step_text``: its output *is* the
    logical step's output, so learning feedback captures global group
    counts here.
    """

    def __init__(self, child: PhysicalOp, n_group_cols: int,
                 aggs: List[AggSpec], schema: Schema,
                 estimated_rows: float = 0.0, step_text: Optional[str] = None):
        super().__init__(schema, estimated_rows, step_text)
        self.child = child
        self.n_group_cols = n_group_cols
        self.aggs = aggs

    def _folds_lanes(self) -> bool:
        return self.child.batch_mode

    def _lanes(self):
        from repro.exec.batch import merge_batches

        return merge_batches(self)

    def _rows(self) -> Iterator[tuple]:
        n = self.n_group_cols
        mem, entry_bytes = _op_memory(self)
        groups: Dict[tuple, List[List[object]]] = {}
        for row in self.child.execute():
            key = row[:n]
            cells = groups.get(key)
            if cells is None:
                cells = groups[key] = _new_cells(self.aggs)
                if mem is not None:
                    mem.grow(entry_bytes)
            for cell, state in zip(cells, row[n:]):
                _merge_state(cell, state)
        if not groups and n == 0:
            groups[()] = _new_cells(self.aggs)      # nothing charged
        for key, cells in groups.items():
            yield key + tuple(_finalize_state(c, s.func)
                              for c, s in zip(cells, self.aggs))

    def describe(self) -> str:
        names = ", ".join(c.name for c in self.schema[:self.n_group_cols])
        return (f"FinalAggregate group=[{names}] aggs=["
                + ", ".join(a.text() for a in self.aggs) + "]")


def walk_physical(op: PhysicalOp):
    yield op
    for child in op.children():
        yield from walk_physical(child)


class PlanOutline:
    """A physical plan flattened once, in :func:`walk_physical`'s pre-order.

    A plan does not change after planning, and a cached plan re-runs as it
    is, so what every statement would otherwise re-derive by walking the
    tree is kept here: each operator's parent, depth and fragment (the
    ``(group, dn)`` key of the plan fragment it runs in, None on the
    coordinator), and whether the plan runs on a single site.
    """

    __slots__ = ("root", "ops", "parents", "depths", "fragments",
                 "single_site")

    def __init__(self, root: PhysicalOp):
        self.root = root
        self.ops: List[PhysicalOp] = []
        self.parents: List[Optional[PhysicalOp]] = []
        self.depths: List[int] = []
        self.fragments: List[Optional[Tuple[int, int]]] = []
        stack = [(root, None, 0, None)]
        while stack:
            op, parent, depth, fragment = stack.pop()
            fragment = getattr(op, "fragment_key", None) or fragment
            self.ops.append(op)
            self.parents.append(parent)
            self.depths.append(depth)
            self.fragments.append(fragment)
            stack.extend((child, op, depth + 1, fragment)
                         for child in reversed(op.children()))
        self.single_site = self._single_site()

    def _single_site(self) -> bool:
        """True when every leaf is a key lookup on one and the same data
        node (constant ``VALUES`` leaves touch no node)."""
        sites = set()
        for op in self.ops:
            if op.children() or isinstance(op, PValues):
                continue
            if not isinstance(op, PKeyLookup) or op.dn_index is None:
                return False
            sites.add(op.dn_index)
        return len(sites) == 1

    def reset_counters(self) -> None:
        for op in self.ops:
            op.reset_own_counters()

    def pretty(self) -> str:
        """The indented plan with each operator's estimate and actual rows."""
        return "\n".join(
            f"{'  ' * depth}{op.description}  "
            f"(est={op.estimated_rows:.0f}, actual={op.actual_rows})"
            for op, depth in zip(self.ops, self.depths))
