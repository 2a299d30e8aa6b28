"""Hierarchical tracing: spans with parent/child links and trace identity.

A :class:`Span` covers one unit of engine work (a transaction, a 2PC phase,
a snapshot merge, one operator of a query plan).  Timestamps come from the
tracer's :class:`~repro.common.clock.SimClock`; because nothing reads the OS
clock, traces are identical across identical runs.

Since the distributed-tracing refactor every span also carries:

* ``trace_id`` — the end-to-end unit it belongs to (one query, one
  transaction, one HTAP merge tick).  A span inherits its parent's trace;
  a parentless span roots a new one.
* ``node`` — where the work ran (``"cn0"``, ``"dn2"``), so a stitched tree
  attributes simulated time honestly per node.

:class:`TraceContext` is the *wire form* of a span identity — just
``(trace_id, span_id)``.  It is what crosses an exchange boundary from
coordinator to data node: the DN side starts children with
``parent_ctx=ctx`` without ever holding the CN's :class:`Span` object,
exactly like trace propagation headers in a real RPC fabric.

Two usage styles coexist:

* ``with tracer.span("2pc.prepare", gxid=7):`` — stack-scoped nesting for
  straight-line code (the profiler, the SQL engine).
* ``span = tracer.start_span("txn.global"); ... tracer.end_span(span)`` —
  explicit lifetimes for work that interleaves across clients (transactions
  held open across driver scheduling), with ``parent=`` passed by hand.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.common.clock import SimClock
from repro.common.errors import ConfigError
from repro.obs.ring import RingBuffer


class TraceContext(NamedTuple):
    """A span identity in transit: all that crosses a CN→DN boundary."""

    trace_id: int
    span_id: int


class Span:
    """One traced unit of work.

    Plain slots, not a dataclass: spans are the highest-volume telemetry
    object the engine allocates, and the attribute dict — rarely used on
    the hot path — is materialized lazily on first write.
    """

    __slots__ = ("span_id", "trace_id", "name", "parent_id", "start_us",
                 "end_us", "node", "_attrs")

    def __init__(self, span_id: int, name: str, parent_id: Optional[int],
                 start_us: float, trace_id: int = 0,
                 end_us: Optional[float] = None,
                 node: Optional[str] = None,
                 attributes: Optional[Dict[str, object]] = None):
        self.span_id = span_id
        self.trace_id = trace_id
        self.name = name
        self.parent_id = parent_id
        self.start_us = start_us
        self.end_us = end_us
        self.node = node
        self._attrs = attributes if attributes else None

    @property
    def attributes(self) -> Dict[str, object]:
        attrs = self._attrs
        if attrs is None:
            attrs = self._attrs = {}
        return attrs

    @property
    def finished(self) -> bool:
        return self.end_us is not None

    @property
    def duration_us(self) -> float:
        if self.end_us is None:
            return 0.0
        return self.end_us - self.start_us

    def set_attribute(self, key: str, value: object) -> "Span":
        attrs = self._attrs
        if attrs is None:
            attrs = self._attrs = {}
        attrs[key] = value
        return self

    def get_attribute(self, key: str, default: object = None) -> object:
        attrs = self._attrs
        if attrs is None:
            return default
        return attrs.get(key, default)

    def context(self) -> TraceContext:
        """This span's identity, ready to hand across a node boundary."""
        return TraceContext(self.trace_id, self.span_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"{self.duration_us:.1f}us" if self.finished else "open"
        return f"Span#{self.span_id}({self.name}, {state})"


class _SpanContext:
    """Context manager wrapper so ``with tracer.span(...)`` nests on a stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack.append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._span.set_attribute("error", exc_type.__name__)
        self._tracer._stack.pop()
        self._tracer.end_span(self._span)


class Tracer:
    """Produces spans and retains a preallocated ring of finished ones."""

    def __init__(self, clock: Optional[SimClock] = None, max_spans: int = 10_000):
        if max_spans <= 0:
            raise ConfigError("max_spans must be positive")
        self.clock = clock if clock is not None else SimClock()
        self._next_id = 1
        self._next_trace = 1
        self._stack: List[Span] = []
        self._finished: RingBuffer = RingBuffer(max_spans)
        self.spans_started = 0

    # -- span lifecycle ----------------------------------------------------

    def start_span(self, name: str, parent: Optional[Span] = None,
                   parent_ctx: Optional[TraceContext] = None,
                   node: Optional[str] = None,
                   **attributes: object) -> Span:
        """Open a span explicitly.  Defaults its parent to the stack top.

        Trace identity propagates parent-first: an explicit ``parent`` span
        (or stack top) passes its ``trace_id`` down; a ``parent_ctx``
        carries both ids across a node boundary without the parent object;
        a parentless span roots a brand-new trace.
        """
        if parent is None and parent_ctx is None and self._stack:
            parent = self._stack[-1]
        if parent is not None:
            parent_id = parent.span_id
            trace_id = parent.trace_id
        elif parent_ctx is not None:
            parent_id = parent_ctx.span_id
            trace_id = parent_ctx.trace_id
        else:
            parent_id = None
            trace_id = self._next_trace
            self._next_trace += 1
        # Spans are the highest-volume obs allocation; build one with
        # direct slot stores instead of the keyword constructor.
        span = Span.__new__(Span)
        span.span_id = self._next_id
        span.trace_id = trace_id
        span.name = name
        span.parent_id = parent_id
        span.start_us = self.clock.now_us
        span.end_us = None
        span.node = node
        span._attrs = attributes if attributes else None
        self._next_id += 1
        self.spans_started += 1
        return span

    def end_span(self, span: Span, end_us: Optional[float] = None) -> Span:
        """Finish a span (idempotent).  ``end_us`` overrides the clock read
        for callers that account simulated time themselves (the profiler)."""
        if span.end_us is None:
            t = end_us if end_us is not None else self.clock.now_us
            span.end_us = max(t, span.start_us)
            self._finished.append(span)
        return span

    def span(self, name: str, parent: Optional[Span] = None,
             **attributes: object) -> _SpanContext:
        """Stack-scoped span for ``with`` blocks."""
        return _SpanContext(self, self.start_span(name, parent, **attributes))

    def activate(self, span: Span) -> None:
        """Make ``span`` the default parent for spans started without one.

        The SQL engine activates its per-query span around execution so
        everything the statement causes — the read transaction, snapshot
        acquisition, operator profiling — stitches into the query's trace
        without threading the span through every layer.
        """
        self._stack.append(span)

    def deactivate(self, span: Span) -> None:
        """Undo :meth:`activate` (tolerates a stack already unwound)."""
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    # -- reading -----------------------------------------------------------

    def finished_spans(self, name: Optional[str] = None) -> List[Span]:
        if name is None:
            return self._finished.to_list()
        return [s for s in self._finished if s.name == name]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self._finished if s.parent_id == span.span_id]

    def roots(self) -> List[Span]:
        return [s for s in self._finished if s.parent_id is None]

    def walk(self, span: Span) -> Iterator[Span]:
        """Depth-first traversal of a finished span's retained subtree."""
        yield span
        for child in self.children_of(span):
            yield from self.walk(child)

    # -- trace stitching ---------------------------------------------------

    def spans_for_trace(self, trace_id: int) -> List[Span]:
        """Every retained finished span of one trace, in finish order."""
        return [s for s in self._finished if s.trace_id == trace_id]

    def trace_ids(self) -> List[int]:
        """Distinct trace ids in the retained buffer, ascending."""
        return sorted({s.trace_id for s in self._finished})

    def trace_tree(self, trace_id: int) -> List[Tuple[Span, int]]:
        """One trace stitched into ``(span, depth)`` rows, pre-order.

        Children sort by ``(start_us, span_id)`` under their parent.  Spans
        whose parent was evicted from the ring (or lives on another node's
        still-open stack) surface as additional roots rather than being
        dropped, so a truncated trace stays visible.
        """
        spans = self.spans_for_trace(trace_id)
        by_parent: Dict[Optional[int], List[Span]] = {}
        ids = {s.span_id for s in spans}
        for s in spans:
            parent = s.parent_id if s.parent_id in ids else None
            by_parent.setdefault(parent, []).append(s)
        for children in by_parent.values():
            children.sort(key=lambda s: (s.start_us, s.span_id))
        out: List[Tuple[Span, int]] = []

        def emit(span: Span, depth: int) -> None:
            out.append((span, depth))
            for child in by_parent.get(span.span_id, ()):  # noqa: B023
                emit(child, depth + 1)

        for root in by_parent.get(None, ()):
            emit(root, 0)
        return out

    def reset(self) -> None:
        self._finished.clear()
        self._stack.clear()
        # Span and trace ids restart so a reset cluster retraces identically.
        self._next_id = 1
        self._next_trace = 1
        self.spans_started = 0
