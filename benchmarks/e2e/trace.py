"""Per-layer tracing from outside the program.

The benchmark's traced pass wraps the public functions at each layer
boundary (the wrap table below), records one span per call, and turns the
spans into per-layer call counts and *self* times: a span's time minus the
time its child spans cover.  Nothing under ``src/`` is edited; the wrappers
are installed around one run and removed afterwards, so the untraced runs
that produce the end-to-end metrics execute the program exactly as shipped.

A span is ``(name, start_ns, end_ns, parent, op_id, busy_ns)``: ``parent``
is the index of the causing span (-1 for an op's root), ``op_id`` is shared
by every span of one benchmark op, and ``busy_ns`` is the time the span was
actually running.  ``busy_ns`` differs from ``end_ns - start_ns`` only for
generators: a wrapped generator accrues time inside ``next()`` and is off
the stack while its consumer runs.

Span times come from ``perf_counter_ns`` (~60 ns a read; ``process_time_ns``
costs ~370 ns, which would dominate 2 us storage calls).  The traced pass
reports shares, not absolute speed; ``trace.overhead_ratio`` says what the
wrappers cost.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import json
import sys
import time
from typing import Dict, Iterable, List, Optional, Tuple

#: layer -> [(module, class or None for a module-level function, names)].
#: Names missing on a class are skipped, so the table can list a method for
#: both transaction kinds when only one defines it.
WRAP_TABLE: Dict[str, List[Tuple[str, Optional[str], Tuple[str, ...]]]] = {
    "sql.engine": [("repro.sql.engine", "SqlEngine", ("execute",))],
    "sql.lexer": [("repro.sql.lexer", None, ("tokenize",))],
    "sql.parser": [("repro.sql.parser", None, ("parse",))],
    "sql.binder": [("repro.sql.binder", "Binder",
                    ("bind_select", "bind_standalone_expr"))],
    "sql.plancache": [("repro.sql.plancache", "PlanCache",
                       ("lookup", "put", "invalidate_steps"))],
    "optimizer": [("repro.optimizer.planner", "PhysicalPlanner", ("plan",))],
    "learnopt": [("repro.learnopt.feedback", "FeedbackLoop", ("capture",))],
    "exec": [("repro.exec.batch", None, ("enable_batches",))],
    "storage": [("repro.cluster.datanode", "DataNode",
                 ("read", "insert", "update", "delete", "scan",
                  "column_store_snapshot"))],
    "htap": [
        ("repro.htap.manager", "HtapManager", ("tick",)),
        ("repro.htap.store", "HtapTableStore", ("merge", "compose")),
        ("repro.htap.store", "HtapNodeState", ("capture_commit",)),
    ],
    "core.gtm": [("repro.core.gtm", "GlobalTransactionManager",
                  ("begin", "snapshot", "commit", "abort"))],
    "core.merge": [("repro.core.merge", None, ("merge_snapshots",))],
    "cluster.txn": [
        ("repro.cluster.mpp", "Session", ("begin",)),
        ("repro.cluster.txn", "LocalTransaction",
         ("read", "insert", "update", "delete", "scan_shard", "commit",
          "abort")),
        ("repro.cluster.txn", "GlobalTransaction",
         ("read", "insert", "update", "delete", "scan_shard", "commit",
          "abort")),
    ],
    "cluster.2pc": [("repro.cluster.txn", "CommitSteps",
                     ("prepare_all", "commit_at_gtm", "confirm_at",
                      "finish"))],
    "wlm": [("repro.wlm.governor", "WlmGovernor",
             ("submit", "release", "context"))],
    "obs": [
        ("repro.obs", "Observability", ("advance_to",)),
        ("repro.obs.profiler", "QueryProfiler", ("attach", "profile")),
        ("repro.obs.slowlog", "SlowQueryLog", ("note",)),
    ],
    "geo.session": [
        ("repro.geo.cluster", "GeoSession", ("run_transaction",)),
        ("repro.geo.cluster", "GeoTransaction", ("commit",)),
    ],
    "geo.epoch": [
        ("repro.geo.cluster", "GeoCluster", ("step_to", "drain")),
        ("repro.geo.epoch", "EpochManager", ("seal_through",)),
    ],
    "geo.certify": [("repro.geo.certify", None, ("certify_epoch",))],
    "geo.fabric": [("repro.geo.fabric", "RegionFabric",
                    ("ship", "try_ship", "drain_inbox"))],
}

#: Every layer a traced run reports: the wrap table, the root operator of a
#: physical plan (``exec``, wrapped per operator class below), the garbage
#: collector and the benchmark's own loop.
LAYERS: Tuple[str, ...] = tuple(WRAP_TABLE) + ("host.gc", "driver")


class Recorder:
    """In-memory span log with online self-time accounting."""

    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        self.spans: List[list] = []
        self.op_id = -1
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        # The open-span stack, as parallel lists: span index, the time the
        # span went on the stack, and the time its children covered since.
        self._idx: List[int] = []
        self._t0: List[int] = []
        self._child: List[int] = []
        #: True while a plan's root operator is being drained, so the
        #: operators below it are not given spans of their own.
        self.in_exec = False

    def enter(self, name: str) -> int:
        """Open a new span as a child of the innermost open one."""
        # The list first: allocating it can start a collection, whose
        # callback opens and closes a whole host.gc span right here.
        span = [name, 0, 0, -1, self.op_id, 0]
        index = len(self.spans)
        if self._idx:
            span[3] = self._idx[-1]
        now = span[1] = span[2] = self.clock()
        self.spans.append(span)
        self.calls[name] += 1
        self._idx.append(index)
        self._child.append(0)
        self._t0.append(now)
        return index

    def resume(self, index: int) -> None:
        """Put an existing span back on the stack (a generator's ``next``)."""
        self._idx.append(index)
        self._child.append(0)
        self._t0.append(self.clock())

    def leave(self) -> None:
        """Close (or pause) the innermost open span."""
        now = self.clock()
        span = self.spans[self._idx.pop()]
        busy = now - self._t0.pop()
        span[2] = now
        span[5] += busy
        self.self_ns[span[0]] += busy - self._child.pop()
        if self._child:
            self._child[-1] += busy

    def total_self_ns(self) -> int:
        return sum(self.self_ns.values())

    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span))
                out.write("\n")


def _traced_call(rec: Recorder, layer: str, fn):
    enter, leave = rec.enter, rec.leave

    def traced(*args, **kwargs):
        enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()

    return traced


def _drain(rec: Recorder, layer: str, make_iter):
    """Yield from ``make_iter()`` with one span that runs only in ``next``."""
    index = rec.enter(layer)
    try:
        stream = iter(make_iter())
    finally:
        rec.leave()
    while True:
        rec.resume(index)
        try:
            item = next(stream)
        except StopIteration:
            return
        finally:
            rec.leave()
        yield item


def _traced_generator(rec: Recorder, layer: str, fn):
    def traced(*args, **kwargs):
        return _drain(rec, layer, lambda: fn(*args, **kwargs))

    return traced


def _traced_root_execute(rec: Recorder, fn):
    """``PhysicalOp.execute`` of the plan root only.

    Every operator class is patched, but a span opens only for the call
    that starts a plan; the operators beneath it are pulled from inside
    that span and run unwrapped.
    """

    def root(op):
        rec.in_exec = True
        try:
            yield from _drain(rec, "exec", lambda: fn(op))
        finally:
            rec.in_exec = False

    def traced(op):
        if rec.in_exec:
            return fn(op)
        return root(op)

    return traced


def _all_subclasses(cls) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


class Tracer:
    """Installs the wrap table around a run and removes it afterwards."""

    def __init__(self) -> None:
        self.rec = Recorder()
        self._undo: List[Tuple[object, str, object]] = []
        self._gc_open = False

    def _patch(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def _wrap(self, layer: str, fn):
        if inspect.isgeneratorfunction(fn):
            return _traced_generator(self.rec, layer, fn)
        return _traced_call(self.rec, layer, fn)

    def install(self) -> None:
        for layer, targets in WRAP_TABLE.items():
            for module_name, class_name, names in targets:
                module = importlib.import_module(module_name)
                if class_name is None:
                    for name in names:
                        self._patch_function(layer, module, name)
                    continue
                cls = getattr(module, class_name)
                for name in names:
                    if name in cls.__dict__:
                        self._patch(cls, name,
                                    self._wrap(layer, cls.__dict__[name]))
        from repro.exec.operators import PhysicalOp

        for cls in _all_subclasses(PhysicalOp):
            if "execute" in cls.__dict__:
                self._patch(cls, "execute", _traced_root_execute(
                    self.rec, cls.__dict__["execute"]))
        gc.callbacks.append(self._on_gc)

    def _patch_function(self, layer: str, module, name: str) -> None:
        """Patch a module-level function where it is defined and in every
        ``repro`` module that imported it by name."""
        original = getattr(module, name)
        wrapped = self._wrap(layer, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            if mod.__dict__.get(name) is original:
                self._patch(mod, name, wrapped)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.rec.enter("host.gc")
            self._gc_open = True
        elif self._gc_open:
            self.rec.leave()
            self._gc_open = False

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
