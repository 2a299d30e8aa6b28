"""The graph engine (Sec. II-B).

Per the paper's unified storage design, "graphs are represented through
tables for vertexes and edges": the property graph is backed by two
relational row stores plus adjacency indexes, and is queried with a
Gremlin-style traversal DSL — both a fluent Python API and a parser for
Gremlin strings, which is how ``ggraph('g.V()...')`` table expressions enter
SQL (Example 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.common.errors import ExecutionError, SqlSyntaxError


# -- predicates (Gremlin's P.*) ----------------------------------------------


@dataclass(frozen=True)
class P:
    """A comparison predicate usable inside ``has`` steps."""

    op: str
    value: object

    def test(self, other: object) -> bool:
        if other is None:
            return False
        if self.op == "eq":
            return other == self.value
        if self.op == "neq":
            return other != self.value
        try:
            if self.op == "gt":
                return other > self.value
            if self.op == "gte":
                return other >= self.value
            if self.op == "lt":
                return other < self.value
            if self.op == "lte":
                return other <= self.value
        except TypeError:
            return False
        if self.op == "within":
            return other in self.value  # type: ignore[operator]
        raise ExecutionError(f"unknown predicate {self.op!r}")

    @staticmethod
    def gt(value): return P("gt", value)          # noqa: E704
    @staticmethod
    def gte(value): return P("gte", value)        # noqa: E704
    @staticmethod
    def lt(value): return P("lt", value)          # noqa: E704
    @staticmethod
    def lte(value): return P("lte", value)        # noqa: E704
    @staticmethod
    def eq(value): return P("eq", value)          # noqa: E704
    @staticmethod
    def neq(value): return P("neq", value)        # noqa: E704
    @staticmethod
    def within(*values): return P("within", set(values))  # noqa: E704


def _matches(actual: object, expected: object) -> bool:
    if isinstance(expected, P):
        return expected.test(actual)
    return actual == expected


# -- storage -------------------------------------------------------------------


@dataclass
class Vertex:
    vid: object
    label: str
    props: Dict[str, object] = field(default_factory=dict)


@dataclass
class Edge:
    eid: object
    src: object
    dst: object
    label: str
    props: Dict[str, object] = field(default_factory=dict)


class PropertyGraph:
    """Vertex/edge tables with adjacency indexes."""

    def __init__(self, name: str = "graph"):
        self.name = name
        self._vertices: Dict[object, Vertex] = {}
        self._edges: Dict[object, Edge] = {}
        self._out: Dict[object, List[object]] = {}   # vid -> [eid]
        self._in: Dict[object, List[object]] = {}
        self._next_eid = 0

    # -- mutation ---------------------------------------------------------

    def add_vertex(self, vid: object, label: str = "vertex",
                   **props: object) -> Vertex:
        if vid in self._vertices:
            raise ExecutionError(f"vertex {vid!r} already exists")
        vertex = Vertex(vid, label, dict(props))
        self._vertices[vid] = vertex
        self._out.setdefault(vid, [])
        self._in.setdefault(vid, [])
        return vertex

    def add_edge(self, src: object, dst: object, label: str = "edge",
                 eid: Optional[object] = None, **props: object) -> Edge:
        if src not in self._vertices or dst not in self._vertices:
            raise ExecutionError(f"edge endpoints must exist ({src!r} -> {dst!r})")
        if eid is None:
            eid = f"e{self._next_eid}"
            self._next_eid += 1
        if eid in self._edges:
            raise ExecutionError(f"edge {eid!r} already exists")
        edge = Edge(eid, src, dst, label, dict(props))
        self._edges[eid] = edge
        self._out[src].append(eid)
        self._in[dst].append(eid)
        return edge

    def remove_vertex(self, vid: object) -> None:
        for eid in list(self._out.get(vid, ())) + list(self._in.get(vid, ())):
            self.remove_edge(eid)
        self._vertices.pop(vid, None)
        self._out.pop(vid, None)
        self._in.pop(vid, None)

    def remove_edge(self, eid: object) -> None:
        edge = self._edges.pop(eid, None)
        if edge is not None:
            self._out[edge.src].remove(eid)
            self._in[edge.dst].remove(eid)

    # -- access -----------------------------------------------------------------

    def vertex(self, vid: object) -> Vertex:
        try:
            return self._vertices[vid]
        except KeyError:
            raise ExecutionError(f"no vertex {vid!r}") from None

    def edge(self, eid: object) -> Edge:
        try:
            return self._edges[eid]
        except KeyError:
            raise ExecutionError(f"no edge {eid!r}") from None

    def vertices(self) -> Iterator[Vertex]:
        return iter(self._vertices.values())

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges.values())

    def out_edges(self, vid: object) -> List[Edge]:
        return [self._edges[e] for e in self._out.get(vid, ())]

    def in_edges(self, vid: object) -> List[Edge]:
        return [self._edges[e] for e in self._in.get(vid, ())]

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    # -- relational projection (the unified storage view) -----------------------

    def vertex_rows(self) -> List[dict]:
        """The graph's vertex table, as the unified storage engine sees it."""
        return [dict(vid=v.vid, label=v.label, **v.props)
                for v in self._vertices.values()]

    def edge_rows(self) -> List[dict]:
        return [dict(eid=e.eid, src=e.src, dst=e.dst, label=e.label, **e.props)
                for e in self._edges.values()]

    # -- traversal entry (Gremlin's ``g``) -------------------------------------

    def traversal(self) -> "Traversal":
        return Traversal(self)

    g = property(traversal)


# -- traversal ---------------------------------------------------------------------


class Traversal:
    """A lazy Gremlin-style traversal.

    Steps build a pipeline of generator transformations over *traverser*
    objects (the current element).  Terminal steps (``to_list``, ``count``,
    ``values`` iteration) run the pipeline.
    """

    def __init__(self, graph: Optional[PropertyGraph],
                 steps: Tuple[Callable, ...] = ()):
        self._graph = graph
        self._steps = steps

    def _with(self, step: Callable) -> "Traversal":
        return Traversal(self._graph, self._steps + (step,))

    def _run(self, source: Optional[Iterable] = None) -> Iterator:
        items: Iterable = source if source is not None else ()
        stream: Iterator = iter(items)
        graph = self._graph
        for step in self._steps:
            stream = step(stream, graph)
        return stream

    # -- start steps -------------------------------------------------------

    def V(self, *vids: object) -> "Traversal":
        def step(stream, graph):
            yield from stream
            if vids:
                for vid in vids:
                    if vid in graph._vertices:
                        yield graph._vertices[vid]
            else:
                yield from graph.vertices()
        return self._with(step)

    def E(self) -> "Traversal":
        def step(stream, graph):
            yield from stream
            yield from graph.edges()
        return self._with(step)

    # -- filter steps -----------------------------------------------------------

    def has(self, key: str, value: object) -> "Traversal":
        def step(stream, graph):
            for item in stream:
                actual = _prop(item, key)
                if _matches(actual, value):
                    yield item
        return self._with(step)

    def hasLabel(self, *labels: str) -> "Traversal":
        def step(stream, graph):
            for item in stream:
                if getattr(item, "label", None) in labels:
                    yield item
        return self._with(step)

    def where(self, sub: "Traversal") -> "Traversal":
        """Keep items for which the sub-traversal yields anything."""
        def step(stream, graph):
            for item in stream:
                inner = Traversal(graph, sub._steps)
                if next(inner._run([item]), None) is not None:
                    yield item
        return self._with(step)

    def dedup(self) -> "Traversal":
        def step(stream, graph):
            seen: Set = set()
            for item in stream:
                key = getattr(item, "vid", None) or getattr(item, "eid", None) or item
                if key not in seen:
                    seen.add(key)
                    yield item
        return self._with(step)

    def limit(self, n: int) -> "Traversal":
        def step(stream, graph):
            for i, item in enumerate(stream):
                if i >= n:
                    break
                yield item
        return self._with(step)

    def is_(self, value: object) -> "Traversal":
        """Filter a scalar stream (e.g. after count()) by value/predicate."""
        def step(stream, graph):
            for item in stream:
                if _matches(item, value):
                    yield item
        return self._with(step)

    # -- move steps -----------------------------------------------------------------

    def out(self, *labels: str) -> "Traversal":
        def step(stream, graph):
            for item in stream:
                for edge in graph.out_edges(_vid(item)):
                    if not labels or edge.label in labels:
                        yield graph.vertex(edge.dst)
        return self._with(step)

    def in_(self, *labels: str) -> "Traversal":
        def step(stream, graph):
            for item in stream:
                for edge in graph.in_edges(_vid(item)):
                    if not labels or edge.label in labels:
                        yield graph.vertex(edge.src)
        return self._with(step)

    def both(self, *labels: str) -> "Traversal":
        def step(stream, graph):
            for item in stream:
                vid = _vid(item)
                for edge in graph.out_edges(vid):
                    if not labels or edge.label in labels:
                        yield graph.vertex(edge.dst)
                for edge in graph.in_edges(vid):
                    if not labels or edge.label in labels:
                        yield graph.vertex(edge.src)
        return self._with(step)

    def outE(self, *labels: str) -> "Traversal":
        def step(stream, graph):
            for item in stream:
                for edge in graph.out_edges(_vid(item)):
                    if not labels or edge.label in labels:
                        yield edge
        return self._with(step)

    def inE(self, *labels: str) -> "Traversal":
        def step(stream, graph):
            for item in stream:
                for edge in graph.in_edges(_vid(item)):
                    if not labels or edge.label in labels:
                        yield edge
        return self._with(step)

    def outV(self) -> "Traversal":
        def step(stream, graph):
            for edge in stream:
                yield graph.vertex(edge.src)
        return self._with(step)

    def inV(self) -> "Traversal":
        def step(stream, graph):
            for edge in stream:
                yield graph.vertex(edge.dst)
        return self._with(step)

    # -- map steps -----------------------------------------------------------------

    def values(self, *keys: str) -> "Traversal":
        def step(stream, graph):
            for item in stream:
                for key in keys:
                    value = _prop(item, key)
                    if value is not None:
                        yield value
        return self._with(step)

    def id_(self) -> "Traversal":
        def step(stream, graph):
            for item in stream:
                yield _vid(item)
        return self._with(step)

    def count(self) -> "Traversal":
        def step(stream, graph):
            yield sum(1 for _ in stream)
        return self._with(step)

    # -- terminals -----------------------------------------------------------------

    def to_list(self) -> List:
        return list(self._run())

    def next(self, default=None):
        return next(self._run(), default)

    def __iter__(self):
        return self._run()


def _vid(item) -> object:
    vid = getattr(item, "vid", None)
    if vid is None:
        raise ExecutionError(f"step expected a vertex, got {type(item).__name__}")
    return vid


def _prop(item, key: str) -> object:
    if key == "id":
        return getattr(item, "vid", None) or getattr(item, "eid", None)
    if key == "label":
        return getattr(item, "label", None)
    props = getattr(item, "props", None)
    if props is None:
        return None
    return props.get(key)


#: Anonymous traversal source for where() sub-traversals (Gremlin's ``__``).
class _Anonymous:
    def __getattr__(self, name: str):
        def start(*args, **kwargs):
            return getattr(Traversal(None), name)(*args, **kwargs)
        return start


__ = _Anonymous()
