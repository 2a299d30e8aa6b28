"""The SQL engine: one entry point over the MPP cluster.

``SqlEngine.execute(sql)`` handles DDL, DML and queries.  Queries flow
through the binder, the cost-based optimizer (with learning feedback) and
the physical executor, and feed the learning producer on the way out.

A statement is planned *before* its transaction begins, because the plan
decides the transaction's kind: when every row it touches lives on one
data node — a keyed SELECT/UPDATE/DELETE on a table distributed by its
key, a one-row ``INSERT ... VALUES`` — it runs as a single-shard
transaction (local XID and snapshot, no GTM, one-phase commit; the
paper's Sec. II-A fast path).  Everything else runs under a cluster-wide
snapshot (a multi-shard transaction), as does the re-run of a
single-shard attempt that raised ``TransactionPromotionRequired``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.mpp import MppCluster
from repro.cluster.txn import TransactionPromotionRequired
from repro.common.errors import (
    AdmissionRejected,
    CatalogError,
    QueryCancelled,
    QueryTimeout,
    SqlAnalysisError,
)
from repro.exec.batch import enable_batches, rows_from_batches
from repro.exec.fragments import ScanBinding
from repro.exec.operators import PhysicalOp, PlanOutline
from repro.learnopt.feedback import CaptureReport, CaptureSettings, FeedbackLoop
from repro.obs import Observability, QueryProfile, QueryProfiler
from repro.obs.syscat import SystemCatalog
from repro.optimizer import access
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.folding import fold_expr
from repro.optimizer.logical import LogicalScan
from repro.optimizer.planner import PhysicalPlanner
from repro.optimizer.stats import StatsManager, analyze_rows
from repro.sql import ast
from repro.sql.binder import Binder, TableFunctionImpl
from repro.sql.parser import parse
from repro.sql.plancache import CachedPlan, PlanCache
from repro.storage.table import Column, Distribution, Orientation, TableSchema
from repro.storage.types import DataType
from repro.wlm import attach_to_plan

_TYPE_NAMES = {
    "int": DataType.INT, "integer": DataType.INT,
    "bigint": DataType.BIGINT,
    "double": DataType.DOUBLE, "float": DataType.DOUBLE, "real": DataType.DOUBLE,
    "text": DataType.TEXT, "varchar": DataType.TEXT, "string": DataType.TEXT,
    "bool": DataType.BOOL, "boolean": DataType.BOOL,
    "timestamp": DataType.TIMESTAMP,
}


@dataclass
class Result:
    """Outcome of one statement."""

    columns: List[str] = field(default_factory=list)
    rows: List[tuple] = field(default_factory=list)
    rowcount: int = 0
    plan_text: Optional[str] = None
    capture: Optional[CaptureReport] = None
    profile: Optional[QueryProfile] = None

    def as_dicts(self) -> List[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def scalar(self) -> object:
        if not self.rows or not self.rows[0]:
            return None
        return self.rows[0][0]

    def column(self, name: str) -> List[object]:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]


class SqlEngine:
    def __init__(self, cluster: MppCluster,
                 learning_enabled: bool = True,
                 capture_settings: Optional[CaptureSettings] = None,
                 now_fn: Optional[Callable[[], int]] = None,
                 fragmented: bool = True,
                 plan_cache_size: int = 64):
        self.cluster = cluster
        #: Cut query plans at exchange boundaries into per-DN fragments
        #: (FI-MPPDB's execution shape).  Off: every scan gathers all shards
        #: to the coordinator and the whole plan runs there.
        self.fragmented = fragmented
        self.stats = StatsManager()
        self.feedback = FeedbackLoop(settings=capture_settings)
        self.learning_enabled = learning_enabled
        self.table_functions: Dict[str, TableFunctionImpl] = {}
        self._now_fn = now_fn if now_fn is not None else (lambda: 0)
        self.queries_executed = 0
        #: The cluster's observability spine (present on MppCluster unless
        #: built with obs_enabled=False; getattr keeps test doubles working).
        self.obs: Optional[Observability] = getattr(cluster, "obs", None)
        #: ``sys.*`` system views served from live observability state.
        self.syscat: Optional[SystemCatalog] = (
            SystemCatalog(self.obs) if self.obs is not None else None)
        #: The cluster's workload governor (``repro.wlm``): every statement
        #: passes through its admission control.
        self.wlm = cluster.wlm
        self._wlm_ticket = None
        self._wlm_ctx = None
        self._current_sql = ""
        #: Prepared-statement cache: repeated SELECT texts skip the lexer,
        #: parser, binder and planner and re-execute the cached physical
        #: plan.  ``plan_cache_size=0`` disables caching entirely.
        self.plan_cache = PlanCache(plan_cache_size)
        #: Set around plan execution so cached plans (whose scan closures
        #: were built during an earlier statement) read the *current*
        #: statement's snapshot.
        self._active_txn = None
        self._cached: Optional[CachedPlan] = None
        self._cache_key: Optional[str] = None

    # -- extension points ----------------------------------------------------

    def register_table_function(self, name: str, impl: TableFunctionImpl) -> None:
        """Hook a multi-model engine in as a table function (Sec. II-B)."""
        self.table_functions[name.lower()] = impl

    @property
    def plan_store(self):
        return self.feedback.store

    # -- entry point -------------------------------------------------------------

    def execute(self, sql: str, group: Optional[str] = None,
                priority=None, arrival_us: Optional[float] = None) -> Result:
        """Run one statement.

        The statement first passes admission control for ``group``
        (default group when ``None``): a concurrency slot and memory budget
        are reserved before execution and released on every exit path —
        success, error, timeout, cancellation, injected crash.
        ``arrival_us`` back/forward-dates the submission (burst
        simulation); ``priority`` overrides the group's queue priority.
        """
        self._current_sql = sql
        self._cached = None
        self._cache_key = None
        statement = None
        if self.plan_cache.capacity:
            key = PlanCache.key_for(sql)
            entry = self.plan_cache.lookup(
                key, self.cluster.catalog.version, self.stats.version,
                self.cluster.catalog.shard_map_version)
            self._cache_key = key
            if entry is not None:
                self._cached = entry
                self.plan_cache.note_hit()
                statement = entry.statement
        if statement is None:
            statement = parse(sql)
            if isinstance(statement, ast.Select):
                if self._cache_key is not None:
                    self.plan_cache.note_miss()
            else:
                self._cache_key = None
        ticket = self.wlm.submit(group=group, now_us=arrival_us,
                                 priority=priority,
                                 tag=" ".join(sql.split())[:80])
        if ticket.queued:
            # The engine runs statements synchronously; a ticket it cannot
            # wait on (every slot held by an external driver) is shed.
            self.wlm.cancel(ticket)
            raise AdmissionRejected(
                f"resource group {ticket.group!r} has no free slot for a "
                "synchronous statement", group=ticket.group)
        ctx = self.wlm.context(ticket)
        self._wlm_ticket = ticket
        self._wlm_ctx = ctx
        try:
            result = self._dispatch(statement)
        except QueryCancelled as exc:
            kind = "timeout" if isinstance(exc, QueryTimeout) else "cancelled"
            self.wlm.finish_cancelled(
                ticket, ticket.admitted_us + ctx.progress_us, kind)
            raise
        except Exception:
            self.wlm.release(ticket, ticket.admitted_us + ctx.progress_us,
                             event="failed")
            raise
        finally:
            self._wlm_ticket = None
            self._wlm_ctx = None
            ctx.close()
        elapsed = (result.profile.elapsed_time_us
                   if result.profile is not None else ctx.progress_us)
        self.wlm.release(ticket, ticket.admitted_us + elapsed)
        return result

    def _dispatch(self, statement) -> Result:
        if isinstance(statement, ast.CreateTable):
            return self._create_table(statement)
        if isinstance(statement, ast.DropTable):
            return self._drop_table(statement)
        if isinstance(statement, ast.Insert):
            return self._insert(statement)
        if isinstance(statement, ast.Update):
            return self._update(statement)
        if isinstance(statement, ast.Delete):
            return self._delete(statement)
        if isinstance(statement, ast.Analyze):
            return self._analyze(statement)
        if isinstance(statement, ast.Explain):
            return self._explain(statement)
        if isinstance(statement, ast.Select):
            return self._select(statement)
        raise SqlAnalysisError(f"unsupported statement {type(statement).__name__}")

    def query(self, sql: str) -> List[dict]:
        """Convenience: execute and return dict rows."""
        return self.execute(sql).as_dicts()

    # -- DDL ------------------------------------------------------------------

    def _create_table(self, stmt: ast.CreateTable) -> Result:
        columns = []
        for col in stmt.columns:
            dtype = _TYPE_NAMES.get(col.type_name.lower())
            if dtype is None:
                raise SqlAnalysisError(f"unknown type {col.type_name!r}")
            columns.append(Column(col.name, dtype, nullable=not col.not_null))
        primary_key = stmt.primary_key or (columns[0].name if columns else None)
        if primary_key is None:
            raise SqlAnalysisError("table needs at least one column")
        schema = TableSchema(
            stmt.name,
            columns,
            primary_key=primary_key,
            distribution=(Distribution.REPLICATION if stmt.replicated
                          else Distribution.HASH),
            distribution_column=None if stmt.replicated else
            (stmt.distribute_by or primary_key),
            orientation=(Orientation.COLUMN if stmt.orientation == "column"
                         else Orientation.ROW),
        )
        self.cluster.create_table(schema)
        return Result(rowcount=0)

    def _drop_table(self, stmt: ast.DropTable) -> Result:
        if not self.cluster.catalog.has(stmt.name):
            if stmt.if_exists:
                return Result(rowcount=0)
            raise CatalogError(f"no table {stmt.name!r}")
        self.cluster.drop_table(stmt.name)
        self.stats.drop(stmt.name)
        return Result(rowcount=0)

    # -- DML -----------------------------------------------------------------------

    def _insert(self, stmt: ast.Insert) -> Result:
        schema = self.cluster.catalog.schema(stmt.table)
        binder = self._binder()
        if stmt.query is not None:
            sub = self._run_select_plan(stmt.query)
            source_rows = sub.rows
            columns = stmt.columns or tuple(sub.columns)
        else:
            source_rows = []
            for row_exprs in stmt.rows:
                bound = [binder.bind_standalone_expr(e) for e in row_exprs]
                source_rows.append(tuple(b.eval(()) for b in bound))
            columns = stmt.columns or tuple(c.name for c in schema.columns)
        if any(len(row) != len(columns) for row in source_rows):
            raise SqlAnalysisError("INSERT row width does not match column list")

        def body(txn) -> int:
            for row in source_rows:
                txn.insert(stmt.table, dict(zip(columns, row)))
            return len(source_rows)

        # One row of a hash-distributed table lands on one node.
        single = (len(source_rows) == 1
                  and schema.distribution is Distribution.HASH)
        return Result(rowcount=self._in_transaction(
            self.cluster.session(), body, single))

    def _update(self, stmt: ast.Update) -> Result:
        plan_scan, predicate, binder = self._bind_table_predicate(
            stmt.table, stmt.where)
        assignments = [
            (name, binder._bind_expr(expr, plan_scan.schema))  # noqa: SLF001
            for name, expr in stmt.assignments
        ]
        schema = self.cluster.catalog.schema(stmt.table)
        # The columns that say where a row lives: its heap key and its node.
        placing = {schema.primary_key, schema.distribution_column}

        def apply(txn, key, values, row_tuple) -> Optional[Dict[str, object]]:
            new_values = {
                name: expr.eval(row_tuple) for name, expr in assignments
            }
            if any(name in placing and values.get(name) != value
                   for name, value in new_values.items()):
                # A new key or distribution value is a different heap entry,
                # possibly on another node: the row moves (delete + insert)
                # so that heap key, primary-key value and owner stay equal.
                txn.delete(stmt.table, key, row=values)
                return {**values, **new_values}
            txn.update(stmt.table, key, new_values, row=values)
            return None

        return self._write_matching(stmt, predicate, apply)

    def _delete(self, stmt: ast.Delete) -> Result:
        _, predicate, _ = self._bind_table_predicate(stmt.table, stmt.where)

        def apply(txn, key, values, row_tuple) -> None:
            txn.delete(stmt.table, key, row=values)

        return self._write_matching(stmt, predicate, apply)

    def _write_matching(self, stmt, predicate, apply) -> Result:
        """UPDATE/DELETE: locate the rows ``predicate`` keeps, then
        ``apply(txn, key, values, row_tuple)`` to each; a row ``apply``
        returns is inserted once every located row has been applied (an
        UPDATE moving rows: ``set id = id + 1`` must vacate before it
        re-occupies).

        Row location takes the SELECT planner's access path: a predicate
        that pins the primary key probes those keys where the shard map
        says they live; anything else walks the table.  Writes route by
        the located row, so a table distributed on a non-key column works.
        """
        schema = self.cluster.catalog.schema(stmt.table)
        sites = access.lookup_sites(predicate, schema,
                                    self.cluster.catalog.shard_map)

        def body(txn) -> int:
            if sites is None:
                located = list(txn.scan(stmt.table))
            else:
                located = [hit for dn_index, keys in sites
                           for hit in txn.read_many(schema.name, keys,
                                                    dn_index)]
            count = 0
            moved = []
            for (key, values), row_tuple in zip(located,
                                                schema.rows_of(located)):
                if predicate is not None and not predicate.eval(row_tuple):
                    continue
                row = apply(txn, key, values, row_tuple)
                if row is not None:
                    moved.append(row)
                count += 1
            for row in moved:
                txn.insert(stmt.table, row)
            return count

        # Every probe (hence every write) on one node: single-shard.
        single = (sites is not None and len(sites) == 1
                  and schema.distribution is Distribution.HASH)
        return Result(rowcount=self._in_transaction(
            self.cluster.session(), body, single))

    @staticmethod
    def _in_transaction(session, body: Callable[[object], object],
                        single: bool):
        """Run a DML ``body(txn)``, commit, and return its result.

        ``single`` starts the statement single-shard; if that attempt must
        be promoted (its slot is inside a rebalance double-write window, or
        an UPDATE moves its row to another node) it is rolled back and
        ``body`` re-runs in a multi-shard transaction.
        """
        for multi_shard in ((False, True) if single else (True,)):
            txn = session.begin(multi_shard=multi_shard)
            try:
                result = body(txn)
                txn.commit()
                return result
            except TransactionPromotionRequired:
                txn.abort()
                if multi_shard:
                    raise
            except Exception:
                txn.abort()
                raise

    def _bind_table_predicate(self, table: str, where: Optional[ast.Expr]):
        binder = self._binder()
        scan = binder._bind_from(  # noqa: SLF001 - engine is a friend
            ast.NamedTable(table), cte_map={})
        predicate = None
        if where is not None:
            # Folded like a SELECT's, so ``id = -5`` reaches the matcher
            # as a constant.
            predicate = fold_expr(
                binder._bind_expr(where, scan.schema))  # noqa: SLF001
        return scan, predicate, binder

    # -- statistics ----------------------------------------------------------------

    def _analyze(self, stmt: ast.Analyze) -> Result:
        tables = [stmt.table] if stmt.table else self.cluster.catalog.tables()
        session = self.cluster.session()
        for table in tables:
            schema = self.cluster.catalog.schema(table)
            txn = session.begin(multi_shard=True)
            rows = [values for _, values in txn.scan(schema.name)]
            txn.commit()
            self.stats.put(schema.name, analyze_rows(rows, schema.column_names))
        return Result(rowcount=len(tables))

    def analyze(self, table: Optional[str] = None) -> None:
        self._analyze(ast.Analyze(table))

    # -- queries -------------------------------------------------------------------

    def _planner(self, txn) -> PhysicalPlanner:
        estimator = CardinalityEstimator(
            self.stats,
            feedback=self.feedback if self.learning_enabled else None,
        )

        plan_txn = txn

        def current_txn():
            # Cached plans outlive the snapshot they were planned under;
            # their scan closures must read the statement that is executing
            # *now*.  Falls back to the planning snapshot for external
            # plan_select callers that execute outside the engine.
            active = self._active_txn
            return active if active is not None else plan_txn

        def scan_source(table: str, scan: LogicalScan,
                        dn_index: Optional[int] = None) -> ScanBinding:
            schema = self.cluster.catalog.schema(table)

            def lookup(sites: access.KeySites) -> Iterable[tuple]:
                # Node by node, as a scan visits them.
                for site, keys in sites:
                    yield from schema.rows_of(current_txn().read_many(
                        schema.name, keys, site))

            # Either orientation's lanes come from the data nodes' lane
            # scan (``DataNode.scan_lanes``); a plan fragment reads only
            # its own node's slice.
            if dn_index is None:
                def lanes():
                    return current_txn().scan_lanes(schema.name)

                def walk() -> Iterable[tuple]:
                    return schema.rows_of(current_txn().scan(schema.name))
            else:
                def lanes():
                    return current_txn().scan_shard_lanes(schema.name, dn_index)

                def walk() -> Iterable[tuple]:
                    return current_txn().scan_shard(schema.name, dn_index)

            if schema.orientation is Orientation.ROW:
                return ScanBinding(walk, lookup=lookup, lanes=lanes)

            # A column table's row body (under a LIMIT) bridges its lanes,
            # so it reads and counts what its batched scan would.
            def rows() -> Iterable[tuple]:
                return rows_from_batches(lanes())

            return ScanBinding(rows, lookup=lookup, lanes=lanes)

        def table_function_rows(name: str, args: Tuple[object, ...]):
            impl = self.table_functions.get(name)
            if impl is None and self.syscat is not None:
                impl = self.syscat.views[name]

            def rows() -> Iterable[tuple]:
                return impl.rows(args)

            return rows

        return PhysicalPlanner(
            estimator, scan_source, table_function_rows,
            num_dns=self.cluster.num_dns,
            shard_map=self.cluster.catalog.shard_map,
            table_schema=self.cluster.catalog.schema,
            cost_model=getattr(getattr(self.cluster, "profile", None),
                               "mpp", None),
            fragmented=self.fragmented,
        )

    def _binder(self) -> Binder:
        return Binder(self.cluster.catalog, self.table_functions,
                      now_fn=self._now_fn,
                      system_views=(self.syscat.views
                                    if self.syscat is not None else None))

    def plan_select(self, stmt: ast.Select, txn) -> PhysicalOp:
        logical = self._binder().bind_select(stmt)
        return self._planner(txn).plan(logical)

    def _run_select_plan(self, stmt: ast.Select,
                         cached: Optional[CachedPlan] = None,
                         cache_key: Optional[str] = None) -> Result:
        session = self.cluster.session()
        obs = self.obs
        tracer = obs.tracer if obs is not None else None
        cn_node = f"cn{session.cn_index}"
        query_span = None
        if tracer is not None:
            # The query span roots this statement's trace; everything the
            # statement causes stitches under it — the read transaction and
            # its snapshot work (via activate), the operator tree (via the
            # profiler's root_span), per-DN fragments (via parent_ctx).
            query_span = tracer.start_span("query", parent=None, node=cn_node)
            # Admission preceded execution; surface it as a child edge
            # covering the simulated queue wait (0-length when the
            # statement was admitted immediately).
            queue_span = tracer.start_span(
                "wlm.queue", parent=query_span, group=self._wlm_ticket.group)
            tracer.end_span(
                queue_span,
                end_us=queue_span.start_us + self._wlm_ticket.wait_us)
            tracer.activate(query_span)
        profiler = QueryProfiler(
            tracer=tracer,
            metrics=obs.metrics if obs is not None else None,
            root_span=query_span,
            node=cn_node,
        )
        txn = outline = None
        try:
            if cached is not None:
                outline = cached.outline
                columns = cached.columns
                outline.reset_counters()
            else:
                logical = self._binder().bind_select(stmt)
                physical = self._planner(None).plan(logical)
                columns = [c.name for c in logical.schema]
                # Batch or row body per operator: see enable_batches.
                enable_batches(physical)
                outline = PlanOutline(physical)
            profiler.attach(outline)
            attach_to_plan(self._wlm_ctx, outline)
            # The plan picks the transaction: one data node, one shard.  No
            # promotion re-run as for DML: reads pinned to one node never
            # leave it, and read no double-write window.
            txn = session.begin(multi_shard=not outline.single_site)
            self._active_txn = txn
            try:
                rows = list(outline.root.execute())
            finally:
                self._active_txn = None
            txn.commit()
        except Exception:
            if txn is not None:
                txn.abort()
            if query_span is not None:
                tracer.deactivate(query_span)
                query_span.set_attribute("error", True)
                tracer.end_span(query_span)
            raise
        finally:
            if outline is not None:
                _detach(outline)
            if query_span is not None:
                tracer.deactivate(query_span)
        profile = profiler.profile()
        profile.queue_time_us = self._wlm_ticket.wait_us
        if self.obs is not None:
            # Latency is the wall-clock view: concurrent fragments count
            # once (their max), unlike total_time_us which sums all work.
            elapsed_us = profile.elapsed_time_us
            self.obs.metrics.histogram("query.latency_us").observe(elapsed_us)
            self.obs.metrics.counter("query.executed").inc()
            query_span.set_attribute("rows", profile.output_rows)
            query_span.set_attribute("time_us", elapsed_us)
            self.obs.tracer.end_span(
                query_span, end_us=query_span.start_us + elapsed_us)
            self.obs.slowlog.note(self._current_sql, query_span.start_us,
                                  profile, queue_us=profile.queue_time_us,
                                  trace_id=query_span.trace_id)
        capture = None
        if self.learning_enabled:
            capture = self.feedback.capture(outline.root)
        if cache_key is not None and cached is None:
            self.plan_cache.put(cache_key, CachedPlan(
                stmt, outline, columns,
                self.cluster.catalog.version, self.stats.version,
                self.cluster.catalog.shard_map_version))
        if capture is not None and capture.captured:
            # The capture changed the feedback store: any cached plan built
            # from those estimates (including the one just stored) must
            # replan next time so corrected cardinalities take effect.
            self.plan_cache.invalidate_steps(capture.steps)
        self.queries_executed += 1
        return Result(
            columns=columns,
            rows=rows,
            rowcount=len(rows),
            plan_text=outline.pretty(),
            capture=capture,
            profile=profile,
        )

    def _select(self, stmt: ast.Select) -> Result:
        cached, cache_key = self._cached, self._cache_key
        self._cached = None
        self._cache_key = None
        return self._run_select_plan(stmt, cached=cached, cache_key=cache_key)

    def _explain(self, stmt: ast.Explain) -> Result:
        if stmt.analyze:
            return self._explain_analyze(stmt)
        physical = self.plan_select(stmt.query, None)
        text = physical.pretty()
        return Result(columns=["plan"], rows=[(line,) for line in text.split("\n")],
                      plan_text=text)

    def _explain_analyze(self, stmt: ast.Explain) -> Result:
        """Execute the query under the profiler; return per-operator stats.

        One row per plan operator (pre-order, indented by depth) with the
        rows it produced, batch count and simulated self time — the paper's
        "query response time and resource consumption" at operator grain.
        """
        executed = self._run_select_plan(stmt.query)
        profile = executed.profile
        if stmt.distributed:
            # Per-execution-site rendering: coordinator serial work, each
            # fragment instance's elapsed/rows/net traffic, and the
            # critical (slowest) instance per fragment group.
            return Result(
                columns=list(QueryProfile.DIST_COLUMNS),
                rows=profile.distributed_rows(),
                rowcount=executed.rowcount,
                plan_text=profile.distributed_pretty(),
                capture=executed.capture,
                profile=profile,
            )
        return Result(
            columns=list(QueryProfile.COLUMNS),
            rows=profile.rows_table(),
            rowcount=executed.rowcount,
            plan_text=profile.pretty(),
            capture=executed.capture,
            profile=profile,
        )


def _detach(outline: PlanOutline) -> None:
    """Unhook the statement's profiler and WLM context from the plan.

    Both refer back to the operators (profiler entries, per-operator
    memory trackers), so a plan still holding them is a reference cycle
    that outlives the statement until the cycle collector finds it."""
    for op in outline.ops:
        op.profiler = None
        op.wlm_ctx = None
