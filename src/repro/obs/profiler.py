"""Per-query operator profiling: the engine behind ``EXPLAIN ANALYZE``.

A :class:`QueryProfiler` attaches to a physical operator tree before
execution.  Each operator's ``open`` (first ``execute()`` call) starts a
span whose parent is the operator's plan-tree parent, and its ``close``
(source exhaustion or profile assembly) finishes it, so the span tree
mirrors the plan tree exactly.

Execution is single-process, so there is no wall time worth reporting;
instead each operator is charged a *simulated* self time from a
deterministic cost model — an open cost, a per-batch cost, and a per-row
cost over rows consumed plus rows produced.  Identical plans over identical
data therefore profile identically, which is what lets regression tests
assert on ``EXPLAIN ANALYZE`` output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - avoids an exec -> optimizer cycle
    from repro.exec.operators import PhysicalOp, PlanOutline

#: Simulated per-row execution cost (microseconds) by operator name.
DEFAULT_ROW_COST_US: Dict[str, float] = {
    "Scan": 0.05,
    "KeyLookup": 0.05,       # the Scan rate: a probe costs what a row did
    "TableFunction": 0.05,
    "Values": 0.01,
    "Filter": 0.02,
    "Project": 0.02,
    "HashJoin": 0.10,
    "NestedLoopJoin": 0.20,
    "HashAggregate": 0.10,
    "Sort": 0.15,
    "Limit": 0.01,
    "Distinct": 0.05,
    "UnionAll": 0.01,
    "Exchange": 0.08,
    "Fragment": 0.0,
    "PartialAgg": 0.10,
    "FinalAgg": 0.10,
}
DEFAULT_ROW_COST_FALLBACK_US = 0.10
OPEN_COST_US = 5.0
BATCH_COST_US = 1.0
BATCH_ROWS = 1024


@dataclass
class OperatorProfile:
    """One operator's line in a query profile."""

    operator: str
    depth: int
    est_rows: float
    rows: int
    batches: int
    time_us: float
    #: ``(fragment_group, dn_index)`` for operators running inside a plan
    #: fragment on a data node; ``None`` for coordinator-side operators.
    fragment: Optional[Tuple[int, int]] = None
    #: Rows this operator moved across the simulated network (exchanges and
    #: coordinator-side scans of distributed tables); 0 for local operators.
    net_rows: int = 0
    #: Bytes of operator state spilled to disk when the query's resource
    #: group memory budget overflowed (see ``repro.wlm.memory``).
    spilled_bytes: int = 0

    def as_tuple(self) -> Tuple[str, float, int, int, float, int]:
        indented = ("  " * self.depth) + self.operator
        return (indented, self.est_rows, self.rows, self.batches,
                self.time_us, self.spilled_bytes)


@dataclass
class QueryProfile:
    """Assembled per-operator statistics for one executed query."""

    operators: List[OperatorProfile] = field(default_factory=list)
    #: Simulated time the statement waited in its resource group's admission
    #: queue before execution began (0 when workload management is off or
    #: the query was admitted immediately).  Excluded from elapsed time.
    queue_time_us: float = 0.0

    COLUMNS = ("operator", "est_rows", "rows", "batches", "time_us",
               "spilled_bytes")

    @property
    def total_time_us(self) -> float:
        """Total simulated work across every operator instance (CPU-seconds
        view: parallel fragments all count)."""
        return sum(op.time_us for op in self.operators)

    @property
    def elapsed_time_us(self) -> float:
        """Simulated wall-clock time of the query.

        Fragments in the same group run concurrently on different data
        nodes, so each group contributes the *max* across its per-DN
        instances; coordinator-side operators (no fragment) are serial and
        sum as before.  Without fragments this equals ``total_time_us``.
        """
        serial = 0.0
        per_instance: Dict[Tuple[int, int], float] = {}
        for op in self.operators:
            if op.fragment is None:
                serial += op.time_us
            else:
                per_instance[op.fragment] = (
                    per_instance.get(op.fragment, 0.0) + op.time_us)
        slowest: Dict[int, float] = {}
        for (group, _dn), time_us in per_instance.items():
            slowest[group] = max(slowest.get(group, 0.0), time_us)
        return serial + sum(slowest.values())

    @property
    def output_rows(self) -> int:
        return self.operators[0].rows if self.operators else 0

    @property
    def total_rows(self) -> int:
        return sum(op.rows for op in self.operators)

    @property
    def total_batches(self) -> int:
        return sum(op.batches for op in self.operators)

    @property
    def spilled_bytes(self) -> int:
        return sum(op.spilled_bytes for op in self.operators)

    def rows_table(self) -> List[Tuple[str, float, int, int, float, int]]:
        return [op.as_tuple() for op in self.operators]

    DIST_COLUMNS = ("fragment", "node", "operators", "rows", "net_rows",
                    "elapsed_us", "critical")

    def distributed_rows(self) -> List[Tuple[str, str, int, int, int, float,
                                             bool]]:
        """The per-fragment view behind ``EXPLAIN ANALYZE DISTRIBUTED``.

        One row per execution site: the coordinator first, then each
        fragment instance, grouped by fragment and ordered by data node.
        ``rows`` is what the site's topmost operator produced, ``net_rows``
        what it moved across the wire (exchange traffic lands on the
        coordinator row — the gather runs there).  ``critical`` marks the
        slowest instance of each fragment group: coordinator elapsed plus
        the critical instances is exactly :attr:`elapsed_time_us`.
        """
        cn_ops = [op for op in self.operators if op.fragment is None]
        cn_time = sum(op.time_us for op in cn_ops)
        cn_net = sum(op.net_rows for op in cn_ops)
        rows: List[Tuple[str, str, int, int, int, float, bool]] = [(
            "coordinator", "cn", len(cn_ops),
            self.output_rows, cn_net, cn_time, True,
        )]
        # One entry per (group, dn): summed self time, the instance's top
        # operator row count (first in pre-order), and its operator count.
        per_instance: Dict[Tuple[int, int], List[float]] = {}
        for op in self.operators:
            if op.fragment is None:
                continue
            cell = per_instance.get(op.fragment)
            if cell is None:
                per_instance[op.fragment] = [op.time_us, op.rows,
                                             op.net_rows, 1]
            else:
                cell[0] += op.time_us
                cell[2] += op.net_rows
                cell[3] += 1
        slowest: Dict[int, float] = {}
        for (group, _dn), cell in per_instance.items():
            slowest[group] = max(slowest.get(group, 0.0), cell[0])
        for (group, dn) in sorted(per_instance):
            time_us, top_rows, net, n_ops = per_instance[(group, dn)]
            rows.append((
                f"F{group}", f"dn{dn}", int(n_ops), int(top_rows), int(net),
                time_us, time_us >= slowest[group],
            ))
        return rows

    def distributed_pretty(self) -> str:
        """Human rendering of :meth:`distributed_rows` plus the critical
        path: CN serial time + the slowest instance of every fragment."""
        lines = []
        for frag, node, n_ops, out_rows, net, time_us, critical in \
                self.distributed_rows():
            mark = "  <-- critical" if critical and frag != "coordinator" \
                else ""
            lines.append(
                f"{frag:<12} {node:<5} ops={n_ops:<3} rows={out_rows:<8} "
                f"net_rows={net:<8} elapsed={time_us:.2f}us{mark}")
        lines.append(
            f"Critical path: {self.elapsed_time_us:.2f}us "
            f"(coordinator serial + max across data nodes per fragment); "
            f"total work {self.total_time_us:.2f}us")
        return "\n".join(lines)

    def pretty(self) -> str:
        lines = []
        for op in self.operators:
            pad = "  " * op.depth
            lines.append(
                f"{pad}{op.operator}  (est={op.est_rows:.0f}, rows={op.rows}, "
                f"batches={op.batches}, time={op.time_us:.2f}us)"
            )
        lines.append(f"Total: rows={self.output_rows}, "
                     f"time={self.total_time_us:.2f}us")
        return "\n".join(lines)


class _Entry:
    """Profiler state for one operator instance."""

    __slots__ = ("op", "parent", "depth", "span", "closed", "fragment")

    def __init__(self, op: "PhysicalOp", parent: Optional["PhysicalOp"],
                 depth: int, fragment: Optional[Tuple[int, int]] = None):
        self.op = op
        self.parent = parent
        self.depth = depth
        self.span: Optional[Span] = None
        self.closed = False
        self.fragment = fragment


class QueryProfiler:
    """Attach to a plan, run it, then assemble a :class:`QueryProfile`."""

    def __init__(self, tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 batch_rows: int = BATCH_ROWS,
                 row_costs: Optional[Dict[str, float]] = None,
                 root_span: Optional[Span] = None,
                 node: Optional[str] = None):
        self.tracer = tracer
        self.metrics = metrics
        self.batch_rows = max(1, int(batch_rows))
        self.row_costs = row_costs if row_costs is not None else DEFAULT_ROW_COST_US
        #: Stitching anchor: when set (the SQL engine's per-query span), the
        #: plan's root operator span becomes its child, so the whole operator
        #: tree joins the query's trace instead of rooting one of its own.
        self.root_span = root_span
        #: Where coordinator-side operators run (``"cn0"``); operators inside
        #: a plan fragment are attributed to their fragment's data node.
        self.node = node
        self._entries: Dict[int, _Entry] = {}
        self._order: List[_Entry] = []

    # -- wiring ------------------------------------------------------------

    def attach(self, outline: "PlanOutline") -> None:
        """Register every operator of the plan and hook its row stream."""
        for op, parent, depth, fragment in zip(
                outline.ops, outline.parents, outline.depths,
                outline.fragments):
            entry = _Entry(op, parent, depth, fragment)
            self._entries[id(op)] = entry
            self._order.append(entry)
            op.profiler = self

    # -- execution hooks (called from PhysicalOp._count) -------------------

    def wrap(self, op: "PhysicalOp", rows: Iterator[tuple]) -> Iterator[tuple]:
        """Open/next/close instrumentation around one operator's stream."""
        entry = self._entries.get(id(op))
        if entry is None:          # operator from a different query: pass through
            return rows
        self._open(entry)

        def stream() -> Iterator[tuple]:
            try:
                yield from rows
            finally:
                self._close(entry)

        return stream()

    def _open(self, entry: _Entry) -> None:
        if self.tracer is not None and entry.span is None:
            parent_entry = (self._entries.get(id(entry.parent))
                            if entry.parent is not None else None)
            parent_span = (parent_entry.span if parent_entry is not None
                           else self.root_span)
            fragment = entry.fragment
            if fragment is not None:
                node = f"dn{fragment[1]}"
                crossed = (parent_entry is None
                           or parent_entry.fragment != fragment)
            else:
                node = self.node
                crossed = False
            if crossed and parent_span is not None:
                # The CN→DN exchange boundary: only the parent's *wire
                # identity* (trace_id, span_id) crosses, never the span
                # object — the DN side stitches with parent_ctx, exactly
                # like trace propagation headers in a real RPC fabric.
                entry.span = self.tracer.start_span(
                    f"op.{entry.op.name()}",
                    parent_ctx=parent_span.context(), node=node,
                    operator=entry.op.description,
                )
            else:
                entry.span = self.tracer.start_span(
                    f"op.{entry.op.name()}", parent=parent_span, node=node,
                    operator=entry.op.description,
                )

    def _close(self, entry: _Entry) -> None:
        if entry.closed:
            return
        entry.closed = True
        if entry.span is not None and self.tracer is not None:
            time_us = self._self_time_us(entry)
            entry.span.set_attribute("rows", entry.op.actual_rows)
            entry.span.set_attribute("time_us", time_us)
            self.tracer.end_span(entry.span,
                                 end_us=entry.span.start_us + time_us)

    # -- cost model --------------------------------------------------------

    def _self_time_us(self, entry: _Entry) -> float:
        op = entry.op
        rows_out = op.actual_rows
        rows_in = 0
        for child in op.children():
            rows_in += child.actual_rows
        batches = self._batches(rows_out)
        # Spill I/O is real per-operator time regardless of the CPU formula.
        spill_us = float(op.spill_time_us)
        custom = getattr(op, "sim_self_time_us", None)
        if custom is not None:
            # Operators with a physical cost of their own (exchanges charge
            # the network model) override the generic CPU formula.
            time_us = custom(rows_in, rows_out, batches)
            if time_us is not None:
                return float(time_us) + spill_us
        per_row = self.row_costs.get(op.name(), DEFAULT_ROW_COST_FALLBACK_US)
        return (OPEN_COST_US + BATCH_COST_US * batches
                + per_row * (rows_in + rows_out) + spill_us)

    def _batches(self, rows: int) -> int:
        return -(-rows // self.batch_rows)

    # -- assembly ----------------------------------------------------------

    def profile(self) -> QueryProfile:
        """Build the profile; closes any spans a short-circuiting parent
        (e.g. ``Limit``) left open."""
        operators = []
        for entry in self._order:
            self._close(entry)
            op = entry.op
            operators.append(OperatorProfile(
                operator=op.description,
                depth=entry.depth,
                est_rows=op.estimated_rows,
                rows=op.actual_rows,
                batches=self._batches(op.actual_rows),
                time_us=self._self_time_us(entry),
                fragment=entry.fragment,
                net_rows=int(getattr(op, "network_rows", 0)),
                spilled_bytes=int(op.spilled_bytes),
            ))
        profile = QueryProfile(operators=operators)
        if self.metrics is not None:
            self.metrics.counter("exec.rows").inc(profile.output_rows)
            self.metrics.counter("exec.operator_rows").inc(profile.total_rows)
            self.metrics.counter("exec.batches").inc(profile.total_batches)
        return profile
