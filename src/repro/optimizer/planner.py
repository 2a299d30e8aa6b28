"""Physical planning: optimized logical plans -> executable operator trees.

Performs the classic lowering decisions:

* join implementation — hash join for equi-joins (keys extracted from the
  condition), nested loop otherwise;
* exchange placement — the MPP cost model decides whether the build side of
  a join is broadcast (small side) or both sides are redistributed on the
  join key, and a gather feeds the coordinator at the root;
* access path — a scan whose pushed-down predicate pins the primary key
  (``pk = const`` / ``pk IN (consts)``, :mod:`repro.optimizer.access`)
  becomes a ``KeyLookup`` probing only the data nodes the shard map says
  own those keys; everything else stays a ``SeqScan``;
* cardinality annotation — every operator carries the estimate that the
  learning optimizer later compares against ``actual_rows``.

With ``fragmented=True`` (the engine's default on a multi-DN cluster) the
planner additionally *cuts the plan at exchange boundaries* into per-DN
fragments, the shape of FI-MPPDB's (and Greenplum's slice/motion) execution:

* scans, filters, projections, per-DN limits and partial aggregates are
  pushed below the exchange and cloned once per data node, each clone
  reading only its shard;
* distribution is tracked as a :class:`~repro.exec.fragments.Locus`;
  co-located equi joins (both sides hash-partitioned on the join key) run
  inside the fragments with no data movement, small sides are broadcast
  into the probe side's fragments, and everything else is
  redistributed/gathered to the coordinator;
* aggregation over partitioned input splits into ``PPartialAgg`` (DN) and
  ``PFinalAgg`` (CN), so only group-grain rows cross the gather exchange;
* the top-level gather is elided for plans whose output is already on the
  coordinator or replicated (and entirely on single-DN clusters).

The cut is purely physical: logical ``step_text`` forms are untouched, so
learning-optimizer plan-store keys are identical with and without
fragmenting (per-DN clones share a ``capture_group`` and are summed back
into one observation per logical step).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.common.errors import PlanningError
from repro.exec.fragments import (
    REPLICATED,
    SINGLETON,
    FragmentBuilder,
    Locus,
    ScanBinding,
)
from repro.exec.operators import (
    PDistinct,
    PUnionAll,
    PExchange,
    PFilter,
    PFinalAgg,
    PFragment,
    PHashAggregate,
    PHashJoin,
    PKeyLookup,
    PLimit,
    PNestedLoopJoin,
    PPartialAgg,
    PProject,
    PScan,
    PSort,
    PTableFunction,
    PValues,
    PhysicalOp,
)
from repro.optimizer import access
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.expr import (
    BoundBinary,
    BoundColumn,
    BoundExpr,
    combine_conjuncts,
    conjuncts,
)
from repro.optimizer.folding import fold_plan
from repro.optimizer.joinorder import reorder_joins
from repro.optimizer.logical import (
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalPlan,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalTableFunction,
    LogicalUnion,
    LogicalValues,
)
from repro.optimizer.rules import push_down_filters, shift_columns
from repro.storage.table import Distribution

BROADCAST_THRESHOLD = 0.1

ScanSource = Callable[[], Iterable[tuple]]


class PhysicalPlanner:
    def __init__(
        self,
        estimator: CardinalityEstimator,
        scan_source: Callable[[str, LogicalScan], ScanSource],
        table_function_rows: Optional[
            Callable[[str, Tuple[object, ...]], ScanSource]] = None,
        insert_exchanges: bool = True,
        num_dns: int = 1,
        table_schema: Optional[Callable[[str], object]] = None,
        cost_model=None,
        fragmented: bool = False,
        shard_map=None,
    ):
        self.estimator = estimator
        self.scan_source = scan_source
        self.table_function_rows = table_function_rows
        self.insert_exchanges = insert_exchanges
        #: The catalog's :class:`~repro.cluster.shardmap.ShardMap`.  Its
        #: membership is the set of DN indices fragments are scheduled on
        #: (sparse after a scale-in, growing after a scale-out — not
        #: ``range(num_dns)``), and its slot owners prune key lookups.  The
        #: plan cache pins the map's version, so both stay current.
        self.shard_map = shard_map
        if shard_map is not None:
            self.dn_indices: Tuple[int, ...] = tuple(shard_map.members())
            self.num_dns = max(1, len(self.dn_indices))
        else:
            self.num_dns = max(1, int(num_dns))
            self.dn_indices = tuple(range(self.num_dns))
        #: ``table -> TableSchema`` resolver; required for fragmenting
        #: (distribution metadata drives the cut).
        self.table_schema = table_schema
        #: :class:`repro.net.latency.MppCostModel` the exchanges charge.
        self.cost_model = cost_model
        self.fragmented = fragmented
        self._capture_seq = 0
        self._fragment_seq = 0

    # -- pipeline ---------------------------------------------------------

    def optimize(self, plan: LogicalPlan) -> LogicalPlan:
        plan = fold_plan(plan)
        plan = push_down_filters(plan)
        plan = reorder_joins(plan, self.estimator)
        return plan

    def plan(self, logical: LogicalPlan) -> PhysicalOp:
        optimized = self.optimize(logical)
        if self._fragmenting:
            if self.num_dns == 1:
                # Single data node: everything is local, no exchange at all.
                return self._lower(optimized)
            build, locus = self._lower_dist(optimized)
            if locus.is_partitioned:
                est = self.estimator.estimate(optimized)
                return self._exchange("gather", build, est, locus.dns)()
            # Output is already coordinator-side (or replicated, served from
            # one node): the top-level gather would move nothing.
            return build(None)
        root = self._lower(optimized)
        if self.insert_exchanges:
            root = PExchange("gather", root, estimated_rows=root.estimated_rows)
        return root

    @property
    def _fragmenting(self) -> bool:
        return (self.fragmented and self.insert_exchanges
                and self.table_schema is not None)

    def _next_capture_group(self) -> int:
        self._capture_seq += 1
        return self._capture_seq

    def _next_fragment_group(self) -> int:
        self._fragment_seq += 1
        return self._fragment_seq

    # -- lowering ------------------------------------------------------------

    def _lower(self, plan: LogicalPlan) -> PhysicalOp:
        est = self.estimator.estimate(plan)
        if isinstance(plan, LogicalScan):
            return self._make_scan(plan, est, None, self._key_sites(plan))
        if isinstance(plan, LogicalTableFunction):
            if self.table_function_rows is None:
                raise PlanningError(
                    f"no table-function runtime for {plan.name!r}"
                )
            provider = self.table_function_rows(plan.name, plan.args)
            return PTableFunction(plan.name, provider, plan.schema,
                                  estimated_rows=est,
                                  step_text=plan.step_text())
        if isinstance(plan, LogicalValues):
            return PValues(plan.rows, plan.schema)
        if isinstance(plan, LogicalFilter):
            child = self._lower(plan.child)
            return PFilter(child, plan.predicate, estimated_rows=est,
                           step_text=plan.step_text())
        if isinstance(plan, LogicalProject):
            child = self._lower(plan.child)
            return PProject(child, plan.exprs, plan.schema, estimated_rows=est)
        if isinstance(plan, LogicalAggregate):
            child = self._lower(plan.child)
            return PHashAggregate(child, plan.group_exprs, plan.aggs,
                                  plan.schema, estimated_rows=est,
                                  step_text=plan.step_text())
        if isinstance(plan, LogicalDistinct):
            child = self._lower(plan.child)
            return PDistinct(child, estimated_rows=est,
                             step_text=plan.step_text())
        if isinstance(plan, LogicalSort):
            child = self._lower(plan.child)
            return PSort(child, plan.keys, estimated_rows=est)
        if isinstance(plan, LogicalLimit):
            child = self._lower(plan.child)
            return PLimit(child, plan.limit, estimated_rows=est,
                          step_text=plan.step_text())
        if isinstance(plan, LogicalUnion):
            children = [self._lower(b) for b in plan.branches]
            return PUnionAll(children, plan.schema, estimated_rows=est,
                             step_text=plan.step_text())
        if isinstance(plan, LogicalJoin):
            return self._lower_join(plan, est)
        raise PlanningError(f"cannot lower {type(plan).__name__}")

    def _lower_join(self, plan: LogicalJoin, est: float) -> PhysicalOp:
        left = self._lower(plan.left)
        right = self._lower(plan.right)
        n_left = len(plan.left.schema)
        equi, residual = _split_equi_keys(plan.condition, n_left)

        if self.insert_exchanges:
            left, right = self._place_exchanges(left, right, bool(equi))

        if equi and plan.kind in ("inner", "left"):
            left_keys = [pair[0] for pair in equi]
            right_keys = [shift_columns(pair[1], -n_left) for pair in equi]
            return PHashJoin(
                plan.kind, left, right, left_keys, right_keys,
                combine_conjuncts(residual), plan.schema,
                estimated_rows=est, step_text=plan.step_text(),
            )
        return PNestedLoopJoin(plan.kind, left, right, plan.condition,
                               plan.schema, estimated_rows=est,
                               step_text=plan.step_text())

    def _place_exchanges(self, left: PhysicalOp, right: PhysicalOp,
                         is_equi: bool) -> Tuple[PhysicalOp, PhysicalOp]:
        """MPP data movement: broadcast the small build side, else shuffle."""
        lrows = max(left.estimated_rows, 1.0)
        rrows = max(right.estimated_rows, 1.0)
        if rrows <= BROADCAST_THRESHOLD * lrows:
            return left, PExchange("broadcast", right, rrows)
        if lrows <= BROADCAST_THRESHOLD * rrows:
            return PExchange("broadcast", left, lrows), right
        if is_equi:
            return (PExchange("redistribute", left, lrows),
                    PExchange("redistribute", right, rrows))
        return left, PExchange("broadcast", right, rrows)

    # -- fragmented (distributed) lowering --------------------------------
    #
    # ``_lower_dist`` returns ``(build, locus)``: ``build(dn_index)``
    # freshly instantiates the subtree for one execution site (``None`` =
    # the gather-all/coordinator instantiation used by broadcasts), and
    # ``locus`` says where the output rows live.  Builders always construct
    # new operator instances, so a broadcast side re-instantiated inside
    # every fragment never shares row counters between sites.

    def _exchange(self, kind: str, builder: FragmentBuilder, est: float,
                  dns: Optional[Tuple[int, ...]] = None
                  ) -> Callable[[], PExchange]:
        """A maker for ``kind`` exchange collecting one fragment per DN —
        per DN in ``dns`` when the input's locus is pruned to those."""
        gid = self._next_fragment_group()
        if dns is None:
            dns = self.dn_indices

        def make() -> PExchange:
            frags = [PFragment(builder(i), dn_index=i, group_id=gid)
                     for i in dns]
            return PExchange(kind, frags, estimated_rows=est,
                             cost_model=self.cost_model)

        return make

    def _materialize(self, builder: FragmentBuilder, locus: Locus,
                     est: float) -> Callable[[], PhysicalOp]:
        """A maker for this subplan's rows on the coordinator."""
        if locus.is_partitioned:
            return self._exchange("gather", builder, est, locus.dns)
        return lambda: builder(None)

    def _per_dn(self, est: float, dns: Optional[Tuple[int, ...]]) -> float:
        """One fragment's share of ``est`` rows spread over a locus' nodes."""
        return est / (self.num_dns if dns is None else len(dns))

    def _remote_sources(self, table: str) -> int:
        """Shards a coordinator-side scan of ``table`` drains over the wire.

        Zero when the planner lacks distribution metadata or the cluster is
        a single node (the scan is effectively local); one for replicated
        tables (any single copy serves the read); ``num_dns`` for
        hash-distributed tables (the coordinator must pull every shard).
        """
        if self.table_schema is None or self.num_dns <= 1:
            return 0
        schema_t = self.table_schema(table)
        if schema_t is None:
            return 0
        if schema_t.distribution is Distribution.REPLICATION:
            return 1
        return self.num_dns

    def _key_sites(self, plan: LogicalScan) -> Optional[access.KeySites]:
        """Where ``plan``'s predicate pins its rows: ``(dn, keys)`` probes
        from the shard map, or ``None`` when only a scan will do."""
        if self.table_schema is None:
            return None
        return access.lookup_sites(plan.predicate,
                                   self.table_schema(plan.table),
                                   self.shard_map)

    def _make_scan(self, plan: LogicalScan, est: float,
                   dn_index: Optional[int],
                   sites: Optional[access.KeySites] = None) -> PScan:
        """The leaf for one execution site: ``KeyLookup`` over ``sites``
        (narrowed to ``dn_index`` inside a fragment), else ``SeqScan``."""
        source = self.scan_source(plan.table, plan, dn_index)
        lookup = getattr(source, "lookup", None)
        if sites is not None and lookup is not None:
            if dn_index is not None:
                if self.table_schema(plan.table).distribution \
                        is Distribution.REPLICATION:
                    # Any replica serves the read: this fragment's own.
                    sites = ((dn_index, sites[0][1]),)
                else:
                    sites = tuple(s for s in sites if s[0] == dn_index)
            return PKeyLookup(
                plan.table, sites, lookup, plan.schema,
                predicate=plan.predicate,
                estimated_rows=est,
                step_text=plan.step_text(),
                remote_sources=len(sites)
                if dn_index is None and self.num_dns > 1 else 0,
                cost_model=self.cost_model,
            )
        rows = source.rows if isinstance(source, ScanBinding) else source
        return PScan(
            plan.table, rows, plan.schema,
            predicate=plan.predicate,
            estimated_rows=est,
            step_text=plan.step_text(),
            remote_sources=0 if dn_index is not None
            else self._remote_sources(plan.table),
            cost_model=self.cost_model,
            lanes=getattr(source, "lanes", None),
        )

    def _lower_dist(self, plan: LogicalPlan) -> Tuple[FragmentBuilder, Locus]:
        est = self.estimator.estimate(plan)

        if isinstance(plan, LogicalScan):
            schema_t = self.table_schema(plan.table)
            sites = self._key_sites(plan)
            if schema_t.distribution is Distribution.REPLICATION:
                def build(dn: Optional[int], plan=plan, est=est,
                          sites=sites) -> PhysicalOp:
                    return self._make_scan(plan, est, dn, sites)

                return build, REPLICATED
            key = ktype = None
            for info in plan.schema:
                if info.name == schema_t.distribution_column:
                    key = info.qualified.upper()
                    ktype = info.data_type
                    break
            gid = self._next_capture_group()
            # A key lookup narrows the locus to the nodes that own its keys.
            dns = None if sites is None else tuple(dn for dn, _ in sites)
            per = self._per_dn(est, dns)

            def build(dn: Optional[int], plan=plan, est=est, per=per,
                      gid=gid, sites=sites) -> PhysicalOp:
                if dn is None:
                    return self._make_scan(plan, est, None, sites)
                scan = self._make_scan(plan, per, dn, sites)
                scan.capture_group = gid
                return scan

            return build, Locus("hash", key, ktype, dns)

        if isinstance(plan, LogicalTableFunction):
            if self.table_function_rows is None:
                raise PlanningError(
                    f"no table-function runtime for {plan.name!r}")

            def build(dn: Optional[int], plan=plan, est=est) -> PhysicalOp:
                provider = self.table_function_rows(plan.name, plan.args)
                return PTableFunction(plan.name, provider, plan.schema,
                                      estimated_rows=est,
                                      step_text=plan.step_text())

            return build, SINGLETON

        if isinstance(plan, LogicalValues):
            def build(dn: Optional[int], plan=plan) -> PhysicalOp:
                return PValues(plan.rows, plan.schema)

            return build, SINGLETON

        if isinstance(plan, LogicalFilter):
            cb, cl = self._lower_dist(plan.child)
            gid = self._next_capture_group()
            per = self._per_dn(est, cl.dns)

            def build(dn: Optional[int], plan=plan, est=est, per=per,
                      gid=gid, cb=cb, cl=cl) -> PhysicalOp:
                partitioned = dn is not None and cl.is_partitioned
                op = PFilter(cb(dn), plan.predicate,
                             estimated_rows=per if partitioned else est,
                             step_text=plan.step_text())
                if partitioned:
                    op.capture_group = gid
                return op

            return build, cl

        if isinstance(plan, LogicalProject):
            cb, cl = self._lower_dist(plan.child)
            locus = cl
            if cl.is_partitioned:
                key = self._project_key(plan, cl.key)
                locus = Locus("hash", key, cl.key_type if key else None,
                              cl.dns)
            per = self._per_dn(est, cl.dns)

            def build(dn: Optional[int], plan=plan, est=est, per=per,
                      cb=cb, cl=cl) -> PhysicalOp:
                partitioned = dn is not None and cl.is_partitioned
                return PProject(cb(dn), plan.exprs, plan.schema,
                                estimated_rows=per if partitioned else est)

            return build, locus

        if isinstance(plan, LogicalAggregate):
            return self._lower_aggregate_dist(plan, est)

        if isinstance(plan, LogicalDistinct):
            cb, cl = self._lower_dist(plan.child)
            inner = self._materialize(cb, cl,
                                      self.estimator.estimate(plan.child))

            def build(dn: Optional[int], plan=plan, est=est,
                      inner=inner) -> PhysicalOp:
                return PDistinct(inner(), estimated_rows=est,
                                 step_text=plan.step_text())

            return build, SINGLETON

        if isinstance(plan, LogicalSort):
            cb, cl = self._lower_dist(plan.child)
            inner = self._materialize(cb, cl,
                                      self.estimator.estimate(plan.child))

            def build(dn: Optional[int], plan=plan, est=est,
                      inner=inner) -> PhysicalOp:
                return PSort(inner(), plan.keys, estimated_rows=est)

            return build, SINGLETON

        if isinstance(plan, LogicalLimit):
            cb, cl = self._lower_dist(plan.child)
            if cl.is_partitioned:
                # Per-DN limits below the gather bound what each node ships;
                # the coordinator's limit enforces the real cutoff.  The
                # per-DN clones carry no step_text — they are a physical
                # bound, not the logical LIMIT step.
                def pbuild(dn: Optional[int], plan=plan,
                           est=est, cb=cb) -> PhysicalOp:
                    return PLimit(cb(dn), plan.limit, estimated_rows=est)

                inner = self._exchange("gather", pbuild, est, cl.dns)
            else:
                inner = (lambda cb=cb: cb(None))

            def build(dn: Optional[int], plan=plan, est=est,
                      inner=inner) -> PhysicalOp:
                return PLimit(inner(), plan.limit, estimated_rows=est,
                              step_text=plan.step_text())

            return build, SINGLETON

        if isinstance(plan, LogicalUnion):
            makers = []
            for branch in plan.branches:
                bb, bl = self._lower_dist(branch)
                makers.append(self._materialize(
                    bb, bl, self.estimator.estimate(branch)))

            def build(dn: Optional[int], plan=plan, est=est,
                      makers=makers) -> PhysicalOp:
                return PUnionAll([m() for m in makers], plan.schema,
                                 estimated_rows=est,
                                 step_text=plan.step_text())

            return build, SINGLETON

        if isinstance(plan, LogicalJoin):
            return self._lower_join_dist(plan, est)

        raise PlanningError(f"cannot lower {type(plan).__name__}")

    @staticmethod
    def _project_key(plan: LogicalProject, key: Optional[str]) -> Optional[str]:
        """The partitioning key's name after projection, if it survives."""
        if key is None:
            return None
        for expr, info in zip(plan.exprs, plan.schema):
            if isinstance(expr, BoundColumn) and expr.text() == key:
                return info.qualified.upper()
        return None

    def _lower_aggregate_dist(self, plan: LogicalAggregate,
                              est: float) -> Tuple[FragmentBuilder, Locus]:
        cb, cl = self._lower_dist(plan.child)
        child_est = self.estimator.estimate(plan.child)
        if cl.is_partitioned and not any(a.distinct for a in plan.aggs):
            # Two-phase aggregation: partials on the data nodes, merge on
            # the coordinator.  Only group-grain rows cross the gather.
            per_est = min(est, max(child_est / self.num_dns, 1.0))
            exch_est = min(child_est, est * self.num_dns)

            def pbuild(dn: Optional[int], plan=plan,
                       per_est=per_est, cb=cb) -> PhysicalOp:
                return PPartialAgg(cb(dn), plan.group_exprs, plan.aggs,
                                   plan.schema, estimated_rows=per_est)

            exch = self._exchange("gather", pbuild, exch_est, cl.dns)

            def build(dn: Optional[int], plan=plan, est=est,
                      exch=exch) -> PhysicalOp:
                return PFinalAgg(exch(), len(plan.group_exprs), plan.aggs,
                                 plan.schema, estimated_rows=est,
                                 step_text=plan.step_text())

            return build, SINGLETON
        # DISTINCT aggregates (or non-partitioned input): single-phase on
        # the coordinator over whatever gather the child needs.
        inner = self._materialize(cb, cl, child_est)

        def build(dn: Optional[int], plan=plan, est=est,
                  inner=inner) -> PhysicalOp:
            return PHashAggregate(inner(), plan.group_exprs, plan.aggs,
                                  plan.schema, estimated_rows=est,
                                  step_text=plan.step_text())

        return build, SINGLETON

    @staticmethod
    def _colocated(ll: Locus, rl: Locus, left_keys, right_keys) -> bool:
        """Both sides hash-partitioned on a matching equi-key pair.

        Co-location means *same slot assignment*: every hash-distributed
        table routes value -> slot -> owning DN through the cluster's one
        ShardMap, so two sides keyed on equal values always share a node
        regardless of how slots are spread across members.  The type check
        guards the slot hash's type sensitivity: ints route by modulo,
        everything else by repr-hash, so a cross-type equi-join of
        identical values could still land in different slots.
        """
        if ll.kind != "hash" or rl.kind != "hash":
            return False
        if ll.key is None or rl.key is None or ll.key_type != rl.key_type:
            return False
        for lk, rk in zip(left_keys, right_keys):
            if (isinstance(lk, BoundColumn) and isinstance(rk, BoundColumn)
                    and lk.text() == ll.key and rk.text() == rl.key):
                return True
        return False

    def _lower_join_dist(self, plan: LogicalJoin,
                         est: float) -> Tuple[FragmentBuilder, Locus]:
        num = self.num_dns
        lb, ll = self._lower_dist(plan.left)
        rb, rl = self._lower_dist(plan.right)
        n_left = len(plan.left.schema)
        equi, residual = _split_equi_keys(plan.condition, n_left)
        lrows = max(self.estimator.estimate(plan.left), 1.0)
        rrows = max(self.estimator.estimate(plan.right), 1.0)
        hashable = bool(equi) and plan.kind in ("inner", "left")
        left_keys = [pair[0] for pair in equi]
        right_keys = [shift_columns(pair[1], -n_left) for pair in equi]
        residual_c = combine_conjuncts(residual)
        gid = self._next_capture_group()
        per_est = est / num

        def join_of(left: PhysicalOp, right: PhysicalOp, op_est: float,
                    group: bool = False) -> PhysicalOp:
            if hashable:
                op = PHashJoin(plan.kind, left, right, left_keys, right_keys,
                               residual_c, plan.schema, estimated_rows=op_est,
                               step_text=plan.step_text())
            else:
                op = PNestedLoopJoin(plan.kind, left, right, plan.condition,
                                     plan.schema, estimated_rows=op_est,
                                     step_text=plan.step_text())
            if group:
                op.capture_group = gid
            return op

        def per_dn_build(out_locus: Locus) -> Tuple[FragmentBuilder, Locus]:
            def build(dn: Optional[int]) -> PhysicalOp:
                if dn is None:
                    return join_of(lb(None), rb(None), est)
                return join_of(lb(dn), rb(dn), per_est, group=True)

            return build, out_locus

        # 1. Co-located equi join: both sides partitioned on the join key —
        #    matching rows are already on the same node, no exchange at all.
        if hashable and self._colocated(ll, rl, left_keys, right_keys):
            return per_dn_build(ll)

        # 2. A replicated side joins in place on every node.  (A replicated
        #    *left* side of a LEFT join may not run per-DN: unmatched left
        #    rows would be emitted once per node.)
        if (ll.kind == "hash" and rl.kind == "replicated"
                and plan.kind in ("inner", "left", "cross")):
            return per_dn_build(ll)
        if (ll.kind == "replicated" and rl.kind == "hash"
                and plan.kind in ("inner", "cross")):
            return per_dn_build(rl)
        if ll.kind == "replicated" and rl.kind == "replicated":
            def build(dn: Optional[int]) -> PhysicalOp:
                return join_of(lb(dn), rb(dn), est)

            return build, REPLICATED

        # 3. Broadcast a small build side into the probe side's fragments
        #    (also the only per-DN option for non-equi conditions).
        if (ll.kind == "hash" and plan.kind in ("inner", "left", "cross")
                and (rrows <= BROADCAST_THRESHOLD * lrows or not equi)):
            def build(dn: Optional[int]) -> PhysicalOp:
                if dn is None:
                    return join_of(lb(None), rb(None), est)
                bcast = PExchange("broadcast", rb(None),
                                  estimated_rows=rrows,
                                  cost_model=self.cost_model)
                return join_of(lb(dn), bcast, per_est, group=True)

            return build, ll

        # 4. Mirrored: broadcast a small left side (inner joins only — the
        #    broadcast copy would duplicate LEFT-join null padding).
        if (rl.kind == "hash" and plan.kind in ("inner", "cross")
                and lrows <= BROADCAST_THRESHOLD * rrows):
            def build(dn: Optional[int]) -> PhysicalOp:
                if dn is None:
                    return join_of(lb(None), rb(None), est)
                bcast = PExchange("broadcast", lb(None),
                                  estimated_rows=lrows,
                                  cost_model=self.cost_model)
                return join_of(bcast, rb(dn), per_est, group=True)

            return build, rl

        # 5. Comparable equi sides: redistribute both out of their
        #    fragments and join above the exchanges.
        if equi and ll.kind == "hash" and rl.kind == "hash":
            lmk = self._exchange("redistribute", lb, lrows, ll.dns)
            rmk = self._exchange("redistribute", rb, rrows, rl.dns)

            def build(dn: Optional[int]) -> PhysicalOp:
                return join_of(lmk(), rmk(), est)

            return build, SINGLETON

        # 6. Fallback: materialize both sides on the coordinator.
        lmk = self._materialize(lb, ll, lrows)
        rmk = self._materialize(rb, rl, rrows)

        def build(dn: Optional[int]) -> PhysicalOp:
            return join_of(lmk(), rmk(), est)

        return build, SINGLETON


def _split_equi_keys(condition: Optional[BoundExpr], n_left: int):
    """Split a join condition into equi-key pairs and residual factors.

    Returns ``(pairs, residual)`` where each pair is (left_expr, right_expr)
    with the right expression still indexed in combined-row space.
    """
    pairs: List[Tuple[BoundExpr, BoundExpr]] = []
    residual: List[BoundExpr] = []
    for factor in conjuncts(condition):
        if isinstance(factor, BoundBinary) and factor.op == "=":
            left_refs = set(factor.left.references())
            right_refs = set(factor.right.references())
            if (left_refs and right_refs
                    and all(i < n_left for i in left_refs)
                    and all(i >= n_left for i in right_refs)):
                pairs.append((factor.left, factor.right))
                continue
            if (left_refs and right_refs
                    and all(i >= n_left for i in left_refs)
                    and all(i < n_left for i in right_refs)):
                pairs.append((factor.right, factor.left))
                continue
        residual.append(factor)
    return pairs, residual
