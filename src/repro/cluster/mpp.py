"""The FI-MPPDB cluster facade.

Wires together coordinator nodes, data nodes, the GTM and the shared catalog
(the Figure 1 architecture), and hands out :class:`Session` objects through
which applications run transactions.  The cluster can run either
distributed-transaction protocol (:class:`~repro.cluster.txn.TxnMode`), which
is the single switch the Figure 3 experiment flips.

Query execution is *fragmented* over this topology: the SQL engine's planner
cuts each plan at exchange boundaries, the per-DN fragments read their data
node's shard (``GlobalTransaction.scan_shard_lanes``, row or column table
alike), and only exchange traffic crosses back to the coordinator — see
:mod:`repro.exec.fragments`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TypeVar, Union

from repro.common.errors import (
    ConfigError,
    NetworkError,
    SerializationConflict,
    TransactionError,
)
from repro.cluster.catalog import Catalog
from repro.cluster.datanode import DataNode
from repro.cluster.shardmap import ShardMap
from repro.cluster.stats import ClusterStats
from repro.cluster.txn import (
    GlobalTransaction,
    LocalTransaction,
    RetryPolicy,
    TransactionPromotionRequired,
    TxnMode,
)
from repro.core.gtm import GlobalTransactionManager
from repro.net.costing import CostContext
from repro.obs import Observability
from repro.net.latency import DEFAULT_PROFILE, EnvironmentProfile
from repro.net.resource import Resource, ResourcePool
from repro.storage.table import TableSchema
from repro.wlm import WlmConfig, WlmGovernor

T = TypeVar("T")
AnyTxn = Union[LocalTransaction, GlobalTransaction]


class MppCluster:
    """A simulated FI-MPPDB deployment."""

    def __init__(
        self,
        num_dns: int,
        num_cns: Optional[int] = None,
        mode: TxnMode = TxnMode.GTM_LITE,
        profile: EnvironmentProfile = DEFAULT_PROFILE,
        obs_enabled: bool = True,
        obs_config=None,
        wlm_config: Optional[WlmConfig] = None,
        htap_config=None,
        name: str = "",
    ):
        if num_dns <= 0:
            raise ConfigError("num_dns must be positive")
        #: Cluster namespace.  Empty for a solo cluster (the seed behavior);
        #: set when several clusters coexist in one process (the geo layer
        #: names its regions) so shared-medium identifiers — HA fabric
        #: endpoints, cross-cluster trace node labels — stay collision-free.
        self.name = name
        self.num_dns = num_dns
        self.num_cns = num_cns if num_cns is not None else max(1, num_dns // 2)
        if self.num_cns <= 0:
            raise ConfigError("num_cns must be positive")
        self.mode = mode
        self.profile = profile
        #: Versioned hash-slot placement map (the catalog owns it; see
        #: :mod:`repro.cluster.shardmap`).  A fresh map places rows exactly
        #: where the seed's direct ``% num_dns`` did, so nothing changes
        #: until a rebalance actually moves slots.
        self.catalog = Catalog(shard_map=ShardMap(num_dns))
        #: The cluster-wide telemetry spine: every layer (GTM, data nodes,
        #: transactions, executor, SQL engine) records into this namespace.
        #: ``obs_enabled=False`` drops it entirely (telemetry-overhead
        #: benchmarking); every consumer guards for ``obs is None``.
        #: ``obs_config`` (an :class:`~repro.obs.ObsConfig`) selects the
        #: telemetry mode — sampling strides, ring capacities — and is
        #: introspectable at runtime through ``sys.obs_config``.
        self.obs = Observability(config=obs_config) if obs_enabled else None
        if self.obs is not None:
            self.obs.bind_shard_map(self.catalog.shard_map)
        self.gtm = GlobalTransactionManager(obs=self.obs)
        self.dns: List[DataNode] = [DataNode(f"dn{i}", i, obs=self.obs)
                                    for i in range(num_dns)]
        self.stats = ClusterStats(
            registry=self.obs.metrics if self.obs is not None else None)
        self.resources = ResourcePool()
        self.gtm_resource: Resource = self.resources.add("gtm")
        self.dn_resources: List[Resource] = [
            self.resources.add(f"dn{i}") for i in range(num_dns)
        ]
        self.cn_resources: List[Resource] = [
            self.resources.add(f"cn{i}") for i in range(self.num_cns)
        ]
        self._next_session = 0
        self._session_seq = 0
        self._completed_since_prune = 0
        self.lco_prune_interval = 256
        #: Set by :class:`repro.cluster.ha.HaManager` when standbys attach.
        self.ha = None
        #: Set by :meth:`repro.faults.FaultInjector.bind`.
        self.faults = None
        #: Set by :class:`repro.cluster.rebalance.RebalanceCoordinator`.
        self.rebalance = None
        #: Set by :class:`repro.geo.GeoCluster` on every member region, so
        #: layers built over one region (autonomous manager, sys views)
        #: can reach the geo runtime without a new dependency edge.
        self.geo = None
        #: Workload governance (``repro.wlm``): admission control, memory
        #: budgets and cancellation for every statement the SQL engine runs.
        self.wlm = WlmGovernor(
            config=wlm_config,
            clock=self.obs.clock if self.obs is not None else None,
            metrics=self.obs.metrics if self.obs is not None else None,
            waits=self.obs.waits if self.obs is not None else None,
            alerts=self.obs.alerts if self.obs is not None else None,
            faults_fn=lambda: self.faults,
        )
        if self.obs is not None:
            self.obs.bind_wlm(self.wlm)
        #: Dual-format delta-merge storage (``repro.htap``): column-oriented
        #: tables keep persistent frozen chunks + a committed-write delta per
        #: node.  A row-oriented table gets no HTAP state.
        from repro.htap.manager import HtapManager

        self.htap = HtapManager(self, config=htap_config)
        if self.obs is not None:
            self.obs.bind_htap(self.htap)
        #: How coordinators ride out unresponsive participants.
        self.retry_policy = RetryPolicy()
        #: Live :class:`GlobalTransaction` handles by GXID, so failover and
        #: recovery can poison transactions stranded by a dead participant.
        self._inflight_globals: Dict[int, GlobalTransaction] = {}
        #: Shards degraded to read-only (no promotable standby), by reason.
        self._read_only_shards: Dict[int, str] = {}

    # -- membership -----------------------------------------------------

    def dn_indices(self) -> tuple:
        """Active DN indices — THE membership read for every layer.

        Retired (scaled-in) nodes keep their positional slot in
        :attr:`dns` so fabric names, resources and telemetry labels stay
        stable, but they are absent here and nothing routes to them.
        """
        shard_map = self.catalog.shard_map
        if shard_map is not None:
            return shard_map.members()
        return tuple(range(self.num_dns))

    @property
    def num_active_dns(self) -> int:
        return len(self.dn_indices())

    def active_dns(self) -> List[DataNode]:
        return [self.dns[i] for i in self.dn_indices()]

    def add_data_node(self) -> int:
        """Provision a new, empty DN online and admit it to the shard map.

        The node comes up with every table's heap created, the replicated
        tables seeded (broadcast-join fragments need the same dimension
        rows everywhere), HTAP state attached and — when an HaManager is
        bound — its own standby wired into the ship path.  It owns zero
        slots until a :class:`~repro.cluster.rebalance.RebalanceCoordinator`
        moves some to it; writes continue throughout.
        """
        index = len(self.dns)
        dn = DataNode(f"dn{index}", index, obs=self.obs)
        for table in self.catalog.tables():
            dn.create_table(self.catalog.schema(table))
        self.dns.append(dn)
        self.num_dns = len(self.dns)
        self.dn_resources.append(self.resources.add(f"dn{index}"))
        self.catalog.shard_map.add_member(index)
        self.htap.ensure_node(dn)
        if self.ha is not None:
            self.ha.attach_node(index)
        self._seed_replicated(index)
        if self.obs is not None:
            self.obs.metrics.counter("cluster.dns_added").inc()
            self.obs.alerts.raise_alert(
                source="cluster", severity="info",
                message=f"dn{index} joined the cluster (0 slots until "
                        f"rebalance)",
                t_us=self.obs.clock.now_us, key=f"dn_added:dn{index}")
        return index

    def retire_data_node(self, dn_index: int) -> None:
        """Remove a *drained* DN from active membership (retire in place).

        The shard map refuses to retire a node that still owns slots —
        run ``cluster.rebalance.remove_dn(dn_index)`` to drain it online
        first.  The DataNode object stays in :attr:`dns` (indices of the
        survivors never shift) but no scan, write, HTAP tick or chaos
        helper touches it again.
        """
        self.catalog.shard_map.remove_member(dn_index)
        dn = self.dns[dn_index]
        dn.retired = True
        self._read_only_shards.pop(dn_index, None)
        if self.ha is not None:
            self.ha.detach_node(dn_index)
        if self.obs is not None:
            self.obs.metrics.counter("cluster.dns_retired").inc()
            self.obs.alerts.raise_alert(
                source="cluster", severity="info",
                message=f"dn{dn_index} drained and retired",
                t_us=self.obs.clock.now_us, key=f"dn_retired:dn{dn_index}")

    def _seed_replicated(self, dn_index: int) -> None:
        """Copy replicated tables onto a newly added node from a donor."""
        from repro.storage.table import Distribution

        target = self.dns[dn_index]
        donors = [i for i in self.dn_indices()
                  if i != dn_index and not self.dns[i].crashed]
        if not donors:
            return
        donor = self.dns[donors[0]]
        for table in self.catalog.tables():
            schema = self.catalog.schema(table)
            if schema.distribution is not Distribution.REPLICATION:
                continue
            rows = list(donor.scan(table, donor.local_snapshot()))
            if not rows:
                continue
            xid = target.begin()
            snapshot = target.local_snapshot()
            for _key, values in rows:
                # A copy of a heap's row: typed already (DataNode.insert).
                target.insert(table, dict(values), xid, snapshot)
            target.commit(xid)

    # -- DDL ------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        self.catalog.register(schema)
        for dn in self.dns:
            if not dn.retired:
                dn.create_table(schema)
        self.htap.register_table(schema)

    def drop_table(self, name: str) -> None:
        schema = self.catalog.schema(name)
        self.catalog.unregister(schema.name)
        self.htap.unregister_table(schema.name)
        for dn in self.dns:
            if not dn.retired:
                dn.drop_table(schema.name)

    # -- sessions -----------------------------------------------------------

    def session(self, cn_index: Optional[int] = None,
                track_costs: bool = False, start_us: float = 0.0) -> "Session":
        if cn_index is None:
            cn_index = self._next_session % self.num_cns
            self._next_session += 1
        if not (0 <= cn_index < self.num_cns):
            raise ConfigError(f"cn_index {cn_index} out of range")
        ctx = None
        if track_costs:
            ctx = CostContext(self.resources, self.profile.mpp, start_us=start_us)
        self._session_seq += 1
        return Session(self, cn_index, ctx, session_id=self._session_seq)

    # -- failure handling ---------------------------------------------------

    def declare_node_dead(self, dn_index: int, reason: str = "unresponsive") -> None:
        """A data node stopped answering: fail over, then resolve in-doubt.

        With an :class:`~repro.cluster.ha.HaManager` attached, the standby is
        promoted in place (committed state restored, staged prepares
        re-instated).  If the standby cannot be promoted safely (partitioned
        while lagging) — or there is no standby at all — the shard degrades
        to read-only instead of losing acknowledged commits.  Either way,
        every PREPARED transaction is then resolved through the GTM's commit
        log, so no in-doubt state survives the failure.
        """
        if not (0 <= dn_index < self.num_dns):
            raise ConfigError(f"no data node {dn_index}")
        if self.dns[dn_index].retired:
            raise ConfigError(f"dn{dn_index} is retired")
        if self.obs is not None:
            self.obs.metrics.counter("faults.nodes_declared_dead").inc()
            self.obs.alerts.raise_alert(
                source="cluster", severity="critical",
                message=f"dn{dn_index} declared dead: {reason}",
                t_us=self.obs.clock.now_us, key=f"node_dead:dn{dn_index}")
        if self.ha is not None:
            try:
                self.ha.fail_and_promote(dn_index)
            except NetworkError as exc:
                # Promoting a lagging, partitioned standby would lose
                # acknowledged commits; serving stale reads is the lesser
                # degradation.
                self.set_shard_read_only(dn_index, reason=str(exc))
        else:
            self.set_shard_read_only(dn_index, reason="no standby configured")
        from repro.cluster.recovery import resolve_in_doubt

        resolve_in_doubt(self)

    def set_shard_read_only(self, dn_index: int, reason: str) -> None:
        """Graceful degradation: keep serving reads, refuse writes."""
        dn = self.dns[dn_index]
        dn.crashed = False       # the node restarts, but without a peer
        dn.read_only = True
        self._read_only_shards[dn_index] = reason
        self._poison_inflight(
            dn_index, f"dn{dn_index} degraded to read-only: {reason}")
        if self.obs is not None:
            self.obs.metrics.gauge("shards.read_only").set(
                len(self._read_only_shards))
            self.obs.alerts.raise_alert(
                source="cluster", severity="critical",
                message=f"shard dn{dn_index} degraded to read-only: {reason}",
                t_us=self.obs.clock.now_us, key=f"read_only:dn{dn_index}")

    def clear_shard_read_only(self, dn_index: int) -> None:
        self.dns[dn_index].read_only = False
        self._read_only_shards.pop(dn_index, None)
        if self.obs is not None:
            self.obs.metrics.gauge("shards.read_only").set(
                len(self._read_only_shards))

    def read_only_shards(self) -> Dict[int, str]:
        return dict(self._read_only_shards)

    def _poison_inflight(self, dn_index: int, reason: str) -> int:
        """Poison in-flight globals that touched a now-dead node."""
        poisoned = 0
        for txn in list(self._inflight_globals.values()):
            if dn_index in txn._local_xid:  # noqa: SLF001
                if txn.poison(reason, failed_dn=dn_index):
                    poisoned += 1
        return poisoned

    # -- maintenance -----------------------------------------------------------

    def vacuum(self) -> int:
        """Run a cluster-wide vacuum using each node's current snapshot."""
        removed = 0
        for dn in self.active_dns():
            snapshot = dn.local_snapshot()
            for table in self.catalog.tables():
                if dn.has_table(table):
                    removed += dn.heap(table).vacuum(snapshot, dn.ltm.clog)
        return removed

    def maybe_prune_lcos(self) -> None:
        """Amortized LCO garbage collection, driven by commit traffic.

        Every ``lco_prune_interval`` completed transactions, drop the LCO
        prefix no live global snapshot can still need (see
        :meth:`repro.txn.manager.LocalTransactionManager.prune_lco`).
        """
        self._completed_since_prune += 1
        if self._completed_since_prune < self.lco_prune_interval:
            return
        self._completed_since_prune = 0
        horizon = self.gtm.snapshot_horizon()
        for dn in self.active_dns():
            dn.ltm.prune_lco(horizon)

    def reset_telemetry(self) -> None:
        """Zero every telemetry recorder without disturbing cluster state.

        Data, XID allocators and the catalog are untouched — only metrics,
        traces, wait events, activity history, the slow-query log, alerts,
        GTM request counters and the session-id sequence restart.  Running
        the same workload again afterwards yields identical telemetry to a
        fresh cluster running it (MVCC ids differ, telemetry does not).
        """
        if self.obs is not None:
            self.obs.reset()
        if self.faults is not None:
            self.faults.reset_history()
        self.wlm.reset_history()   # idempotent with the obs.reset path
        self.htap.reset_history()  # idempotent with the obs.reset path
        if self.rebalance is not None:
            self.rebalance.reset_history()  # idempotent with obs.reset
        self.gtm.stats.reset()
        self._session_seq = 0
        self._next_session = 0


class Session:
    """One client connection, pinned to a coordinator node."""

    def __init__(self, cluster: MppCluster, cn_index: int,
                 ctx: Optional[CostContext],
                 session_id: Optional[int] = None):
        self.cluster = cluster
        self.cn_index = cn_index
        self.ctx = ctx
        #: Stable id for wait-event attribution (``sys.activity.session``).
        self.session_id = session_id

    @property
    def now_us(self) -> float:
        """The session's simulated-time cursor (0 when not tracking costs)."""
        return self.ctx.t_us if self.ctx is not None else 0.0

    def begin(self, multi_shard: bool = False) -> AnyTxn:
        """Start a transaction.

        Under the classical baseline *every* transaction goes through the
        GTM, so ``multi_shard=False`` still yields a global transaction —
        that asymmetry is exactly the paper's motivation for GTM-lite.
        """
        if self.cluster.mode is TxnMode.CLASSICAL or multi_shard:
            return GlobalTransaction(self.cluster, self.ctx, self.cn_index,
                                     session_id=self.session_id)
        return LocalTransaction(self.cluster, self.ctx, self.cn_index,
                                session_id=self.session_id)

    def run_transaction(self, body: Callable[[AnyTxn], T],
                        multi_shard: bool = False, max_retries: int = 10) -> T:
        """Execute ``body`` in a transaction with automatic retry.

        Retries on serialization conflicts, and transparently re-runs as a
        multi-shard transaction if a single-shard attempt strays across
        shards (the CN "promoting" a mis-declared transaction).
        """
        attempts = 0
        promote = multi_shard
        while True:
            attempts += 1
            txn = self.begin(multi_shard=promote)
            try:
                result = body(txn)
                txn.commit()
                return result
            except TransactionPromotionRequired:
                txn.abort()
                if promote:
                    raise
                promote = True
            except SerializationConflict:
                txn.note_conflict_stall()
                txn.abort()
                if attempts > max_retries:
                    raise
            except TransactionError:
                txn.abort()
                raise
            except Exception:
                txn.abort()
                raise
