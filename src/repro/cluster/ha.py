"""High availability for the MPP cluster.

"FI-MPPDB provides high availability through smart replication scheme"
(Sec. I).  Implementation: every data node ships redo to a standby replica
over a :class:`repro.net.fabric.Fabric` link — so partitions and replication
lag are real, cuttable network states, not abstractions:

* **committed** transactions ship their redo synchronously (as before); if
  the standby is unreachable the shipment queues (*replication lag*) and
  drains when the link heals,
* **prepared** transactions additionally *stage* their redo at prepare time
  — 2PC's durability point — so a write that reaches the GTM commit decision
  survives the primary's crash even though its local commit confirmation
  never landed.  If the standby is unreachable at prepare time the node
  votes *no* (the prepare is refused) rather than make a durability promise
  it cannot keep.

On failure, :meth:`HaManager.fail_and_promote` rebuilds the shard from the
standby's committed state, re-instates staged prepares as PREPARED local
transactions (so ``recovery.resolve_in_doubt`` can roll them forward or
back by the GTM's decision), and poisons in-flight global transactions
whose undecided writes died with the node.  A standby that is partitioned
while lagging refuses promotion — promoting it would silently lose
acknowledged commits — and the cluster degrades the shard to read-only
instead (:meth:`repro.cluster.mpp.MppCluster.declare_node_dead`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError, NetworkError, TransactionAborted
from repro.cluster.datanode import DataNode, RedoOp
from repro.cluster.mpp import MppCluster
from repro.faults.injector import FP_PREPARE_SHIP, FP_REPLICATE, InjectedTimeout
from repro.net.fabric import Fabric


class StandbyReplica:
    """Committed-state mirror of one data node, plus staged prepares."""

    def __init__(self, node_id: str):
        self.node_id = node_id
        self._tables: Dict[str, Dict[object, Dict[str, object]]] = {}
        #: Redo staged at prepare time, by GXID — the durability that lets a
        #: GTM-committed-but-unconfirmed write survive the primary's crash.
        self._prepared: Dict[int, List[RedoOp]] = {}
        #: Write-order bookkeeping.  On the primary, MVCC version chains
        #: order same-key writes; the standby's flat rows don't, so a staged
        #: prepare resolved *late* (after a newer commit of the same key —
        #: possible, because UPGRADE lets writers build on a GTM-committed-
        #: but-unconfirmed version) must not clobber the newer value.  The
        #: shipping channel is FIFO, and same-key writes on one node are
        #: strictly ordered, so the *arrival* order of commit shipments and
        #: stage events equals the data order — only resolutions arrive out
        #: of order.  Every arrival (apply or stage) takes the next sequence
        #: number; each key remembers its last writer's sequence; a stage
        #: resolving to commit applies *at its stage-time sequence*, skipping
        #: ops whose key a later arrival already wrote.
        self._seq = 0
        self._key_seq: Dict[Tuple[str, object], int] = {}
        self._stage_seq: Dict[int, int] = {}
        self.transactions_applied = 0
        self.ops_applied = 0

    def ensure_table(self, table: str) -> None:
        self._tables.setdefault(table, {})

    def drop_table(self, table: str) -> None:
        self._tables.pop(table, None)
        self._key_seq = {pair: seq for pair, seq in self._key_seq.items()
                         if pair[0] != table}

    def apply(self, redo: List[RedoOp], at_seq: Optional[int] = None) -> None:
        """Apply one committed transaction's redo, atomically.

        ``at_seq`` places a late-resolving stage at its original position in
        the write order instead of at the head; fresh shipments take the
        next sequence number.
        """
        if at_seq is None:
            self._seq += 1
            at_seq = self._seq
        for op in redo:
            rows = self._tables.setdefault(op.table, {})
            if op.op in ("insert", "update"):
                rows[op.key] = dict(op.values or {})
            elif op.op == "delete":
                rows.pop(op.key, None)
            pair = (op.table, op.key)
            self._key_seq[pair] = max(self._key_seq.get(pair, 0), at_seq)
            self.ops_applied += 1
        self.transactions_applied += 1

    def stage_prepare(self, gxid: int, redo: List[RedoOp]) -> None:
        self._prepared[gxid] = list(redo)
        if gxid not in self._stage_seq:
            self._seq += 1
            self._stage_seq[gxid] = self._seq

    def resolve_prepared(self, gxid: int, outcome: str) -> None:
        """The staged transaction's fate is decided: apply or discard.

        A committing stage only applies ops whose keys nothing *later in the
        write order* already wrote: a later committed write built on this
        one (via UPGRADE) embeds its effect, and replaying the stale redo
        over it would lose the newer value.
        """
        staged = gxid in self._prepared
        fresh = self.unsuperseded_redo(gxid) if staged else None
        at_seq = self._stage_seq.get(gxid)
        self._prepared.pop(gxid, None)
        self._stage_seq.pop(gxid, None)
        if staged and outcome == "commit":
            self.apply(fresh, at_seq=at_seq)

    def unsuperseded_redo(self, gxid: int) -> List[RedoOp]:
        """The staged ops of ``gxid`` not overwritten by a later arrival."""
        staged_at = self._stage_seq.get(gxid, 0)
        return [op for op in self._prepared.get(gxid, [])
                if self._key_seq.get((op.table, op.key), 0) <= staged_at]

    def prepared_gxids(self) -> List[int]:
        """Staged GXIDs in *stage order* — the same-key data order."""
        return list(self._prepared)

    def row_count(self, table: str) -> int:
        return len(self._tables.get(table, {}))

    def rows(self, table: str) -> Dict[object, Dict[str, object]]:
        return dict(self._tables.get(table, {}))


@dataclass
class FailoverReport:
    node_id: str
    tables_restored: int
    rows_restored: int
    inflight_lost: int
    prepared_reinstated: int = 0
    inflight_poisoned: int = 0
    stages_dropped: int = 0
    stages_rolled_forward: int = 0


class HaManager:
    """Attaches standbys to a cluster and performs failovers."""

    def __init__(self, cluster: MppCluster, fabric: Optional[Fabric] = None):
        self.cluster = cluster
        obs = getattr(cluster, "obs", None)
        self.fabric = fabric if fabric is not None else Fabric(
            clock=obs.clock if obs is not None else None)
        self._lan_us = float(getattr(cluster.profile.mpp, "lan_hop_us", 0.0)
                             or 0.0)
        self._standbys: List[StandbyReplica] = []
        #: Shipments the standby missed while partitioned (replication lag),
        #: FIFO per node; drained on heal or before a safe promotion.
        self._pending: Dict[int, List[Tuple]] = {}
        self.failovers: List[FailoverReport] = []
        for i, dn in enumerate(cluster.dns):
            standby = StandbyReplica(f"{dn.node_id}-standby")
            for table in cluster.catalog.tables():
                standby.ensure_table(cluster.catalog.schema(table).name)
            self._standbys.append(standby)
            self._pending[i] = []
            self.fabric.register(self._primary_name(i),
                                 lambda src, payload: None)
            self.fabric.register(self._standby_name(i),
                                 self._standby_handler(i))
            self.fabric.connect(self._primary_name(i), self._standby_name(i),
                                self._lan_us)
            self._wire(i, dn)
        cluster.ha = self

    # -- naming / wiring ----------------------------------------------------
    #
    # Endpoint names are namespaced by the cluster's name when it has one:
    # two clusters sharing one fabric (regions of a geo deployment, or any
    # multi-cluster process) would otherwise both claim "dn0" and collide
    # at registration — a `% num_dns`-era assumption that the process holds
    # exactly one cluster.

    def _prefix(self) -> str:
        name = getattr(self.cluster, "name", "")
        return f"{name}:" if name else ""

    def _primary_name(self, i: int) -> str:
        return f"{self._prefix()}dn{i}"

    def _standby_name(self, i: int) -> str:
        return f"{self._prefix()}dn{i}-standby"

    def _standby_handler(self, i: int):
        def handle(src: str, payload) -> None:
            standby = self._standbys[i]
            kind = payload[0]
            if kind == "commit":
                standby.apply(payload[1])
            elif kind == "prepare":
                standby.stage_prepare(payload[1], payload[2])
            elif kind == "resolve":
                standby.resolve_prepared(payload[1], payload[2])
        return handle

    def _wire(self, i: int, dn: DataNode) -> None:
        dn.replication_hook = lambda redo: self._ship_commit(i, redo)
        dn.prepare_hook = lambda gxid, redo: self._ship_prepare(i, gxid, redo)
        dn.resolve_hook = lambda gxid, outcome: self._ship_resolve(
            i, gxid, outcome)

    def _fire(self, failpoint: str, **ctx) -> None:
        faults = getattr(self.cluster, "faults", None)
        if faults is not None:
            faults.fire(failpoint, **ctx)

    # -- shipping -----------------------------------------------------------

    def _ship_commit(self, i: int, redo: List[RedoOp]) -> None:
        payload = ("commit", redo)
        try:
            self._fire(FP_REPLICATE, dn=i)
            self.fabric.send(self._primary_name(i), self._standby_name(i),
                             payload, size_bytes=16 * len(redo))
        except (NetworkError, InjectedTimeout):
            # Replication lag: the commit is acknowledged locally; the
            # shipment queues until the link heals.
            self._pending[i].append(payload)

    def _ship_prepare(self, i: int, gxid: int, redo: List[RedoOp]) -> None:
        # No fallback here: prepare is a durability promise.  An unreachable
        # standby means the node cannot keep it, so it votes no.  (An
        # injected *timeout* propagates as-is — the coordinator's retry
        # loop treats it like any lost RPC.)
        self._fire(FP_PREPARE_SHIP, dn=i, gxid=gxid)
        try:
            self.fabric.send(self._primary_name(i), self._standby_name(i),
                             ("prepare", gxid, redo),
                             size_bytes=16 * len(redo))
        except NetworkError:
            raise TransactionAborted(
                f"dn{i} cannot reach its standby; prepare refused") from None

    def _ship_resolve(self, i: int, gxid: int, outcome: str) -> None:
        payload = ("resolve", gxid, outcome)
        try:
            self.fabric.send(self._primary_name(i), self._standby_name(i),
                             payload)
        except NetworkError:
            self._pending[i].append(payload)

    # -- partitions ---------------------------------------------------------

    def partition_standby(self, dn_index: int) -> None:
        """Cut the DN↔standby link (replication lag starts accruing)."""
        self.fabric.disconnect(self._primary_name(dn_index),
                               self._standby_name(dn_index))
        if self.cluster.obs is not None:
            self.cluster.obs.alerts.raise_alert(
                source="ha", severity="warning",
                message=f"dn{dn_index} standby link partitioned",
                t_us=self.cluster.obs.clock.now_us,
                key=f"ha_partition:dn{dn_index}")

    def heal_standby(self, dn_index: int) -> None:
        """Restore the link and drain the lag queue in order."""
        self.fabric.reconnect(self._primary_name(dn_index),
                              self._standby_name(dn_index))
        self._drain(dn_index)

    def standby_partitioned(self, dn_index: int) -> bool:
        return not self.fabric.reachable(self._primary_name(dn_index),
                                         self._standby_name(dn_index))

    def replication_lag(self, dn_index: int) -> int:
        """Shipments the standby has not received (transactions behind)."""
        return len(self._pending[dn_index])

    def _drain(self, dn_index: int) -> None:
        pending, self._pending[dn_index] = self._pending[dn_index], []
        for payload in pending:
            self.fabric.send(self._primary_name(dn_index),
                             self._standby_name(dn_index), payload)

    # -- membership ----------------------------------------------------------

    def attach_node(self, dn_index: int) -> None:
        """Stand up replication for a freshly added data node.

        Called by :meth:`MppCluster.add_data_node` — mirrors the per-node
        constructor block: a new standby pre-seeded with every catalog
        table, fabric endpoints for both names, and the redo/prepare/resolve
        hooks wired to the shipping path.
        """
        if dn_index != len(self._standbys):
            raise ConfigError(
                f"attach_node out of order: expected dn{len(self._standbys)}, "
                f"got dn{dn_index}")
        dn = self.cluster.dns[dn_index]
        standby = StandbyReplica(f"{dn.node_id}-standby")
        for table in self.cluster.catalog.tables():
            standby.ensure_table(self.cluster.catalog.schema(table).name)
        self._standbys.append(standby)
        self._pending[dn_index] = []
        self.fabric.register(self._primary_name(dn_index),
                             lambda src, payload: None)
        self.fabric.register(self._standby_name(dn_index),
                             self._standby_handler(dn_index))
        self.fabric.connect(self._primary_name(dn_index),
                            self._standby_name(dn_index), self._lan_us)
        self._wire(dn_index, dn)

    def detach_node(self, dn_index: int) -> None:
        """Stop replicating for a retired data node.

        The node keeps its index (and its drained, empty shard) but no
        longer ships redo; queued lag shipments are dropped — the retired
        node owns no slots, so there is nothing left to protect.
        """
        dn = self.cluster.dns[dn_index]
        dn.replication_hook = None
        dn.prepare_hook = None
        dn.resolve_hook = None
        self._pending[dn_index] = []
        self.fabric.disconnect(self._primary_name(dn_index),
                               self._standby_name(dn_index))

    # -- bookkeeping ---------------------------------------------------------

    def standby(self, dn_index: int) -> StandbyReplica:
        return self._standbys[dn_index]

    def register_table(self, name: str) -> None:
        """Call after CREATE TABLE so standbys know the table."""
        for standby in self._standbys:
            standby.ensure_table(name)

    # -- failover ------------------------------------------------------------

    def fail_and_promote(self, dn_index: int, force: bool = False) -> FailoverReport:
        """Kill a data node and promote its standby in place.

        The replacement node has fresh local XIDs and an empty LCO — exactly
        what a restarted PostgreSQL-style node would have — and rejoins the
        cluster at the same shard position.  Committed state is restored
        from the standby; prepared transactions staged on the standby are
        re-instated as PREPARED so recovery can resolve them by the GTM's
        decision; in-flight globals whose undecided writes died here are
        poisoned so their coordinators fail cleanly.

        Raises :class:`NetworkError` if the standby is partitioned while
        lagging (promotion would lose acknowledged commits) unless
        ``force=True``.
        """
        if not (0 <= dn_index < len(self.cluster.dns)):
            raise ConfigError(f"no data node {dn_index}")
        old = self.cluster.dns[dn_index]
        standby = self._standbys[dn_index]
        gtm = self.cluster.gtm

        if self._pending[dn_index]:
            if self.standby_partitioned(dn_index) and not force:
                raise NetworkError(
                    f"dn{dn_index} standby is partitioned and "
                    f"{len(self._pending[dn_index])} transactions behind; "
                    "promotion would lose committed data")
            if not self.standby_partitioned(dn_index):
                self._drain(dn_index)   # reachable again: catch up first
            else:
                self._pending[dn_index].clear()   # forced: accept the loss

        inflight = old.ltm.active_count

        # Poison in-flight global handles that touched this node and whose
        # outcome is not yet decided: their writes here died with the node.
        # (GTM-committed transactions are left alone — the staged prepares
        # below carry their writes onto the replacement.)
        poisoned = 0
        registry = getattr(self.cluster, "_inflight_globals", {})
        for txn in list(registry.values()):
            if dn_index in getattr(txn, "_local_xid", {}):
                if txn.poison(f"participant dn{dn_index} failed over",
                              failed_dn=dn_index):
                    poisoned += 1

        replacement = DataNode(old.node_id, dn_index,
                               obs=getattr(self.cluster, "obs", None))
        rows_restored = 0
        tables = 0
        for table in self.cluster.catalog.tables():
            schema = self.cluster.catalog.schema(table)
            replacement.create_table(schema)
            tables += 1
        # Restore committed state under one recovery transaction.
        xid = replacement.begin()
        snapshot = replacement.local_snapshot()
        for table in self.cluster.catalog.tables():
            schema = self.cluster.catalog.schema(table)
            # The standby holds the primary's redo rows: typed already
            # (DataNode.insert).
            for key, values in standby.rows(schema.name).items():
                replacement.insert(schema.name, values, xid, snapshot)
                rows_restored += 1
        replacement.commit(xid)
        # Recovery writes must not re-ship to the standby (it has them).
        replacement._redo.clear()  # noqa: SLF001

        # Resolve staged prepares against the GTM's decision record.  GTM-
        # aborted stages are discarded; GTM-*committed* stages roll forward
        # right here (the standard restart-recovery move) — committing them
        # immediately, in stage order, lets a staged transaction that built
        # on an earlier GTM-committed stage (via UPGRADE) replay cleanly on
        # top of it.  Undecided stages are re-instated as PREPARED for
        # ``resolve_in_doubt`` to settle.  Hooks are not wired yet, so
        # nothing re-ships during the replay.
        reinstated = 0
        rolled_forward = 0
        dropped = 0
        staged = standby.prepared_gxids()       # stage order = data order

        def replay(gxid: int) -> int:
            # Only ops no later write superseded: the restored committed
            # rows already embed overwritten staged writes (the overwriting
            # transaction built on them via UPGRADE), so replaying the
            # stale redo would roll those keys backwards.
            redo = standby.unsuperseded_redo(gxid)
            lxid = replacement.begin(gxid=gxid)
            snap = replacement.local_snapshot()
            for op in redo:     # rows a DataNode wrote: typed already
                if op.op == "insert":
                    replacement.insert(op.table, op.values, lxid, snap)
                elif op.op == "update":
                    replacement.update(op.table, op.key, op.values, lxid, snap)
                elif op.op == "delete":
                    replacement.delete(op.table, op.key, lxid, snap)
            return lxid

        for gxid in [g for g in staged if gtm.is_committed(g)]:
            lxid = replay(gxid)
            replacement.commit(lxid)
            replacement._redo.clear()  # noqa: SLF001 - recovery, not traffic
            standby.resolve_prepared(gxid, "commit")
            rolled_forward += 1
        for gxid in staged:
            if gtm.is_committed(gxid):
                continue                        # rolled forward above
            if not gtm.clog.is_in_doubt(gxid):
                standby.resolve_prepared(gxid, "abort")
                dropped += 1
                continue
            replacement.ltm.prepare(replay(gxid))
            reinstated += 1

        self.cluster.dns[dn_index] = replacement
        old.replication_hook = None
        old.prepare_hook = None
        old.resolve_hook = None
        old.crashed = True

        # Fabric rename: the dead primary's endpoint goes away and the
        # replacement re-registers under the same name — which must not
        # inherit the old endpoint's links or cuts (Fabric.unregister
        # cleans them up).
        self.fabric.unregister(self._primary_name(dn_index))
        self.fabric.register(self._primary_name(dn_index),
                             lambda src, payload: None)
        self.fabric.connect(self._primary_name(dn_index),
                            self._standby_name(dn_index), self._lan_us)
        self._wire(dn_index, replacement)

        # A shard that had degraded to read-only is writable again.
        if hasattr(self.cluster, "clear_shard_read_only"):
            self.cluster.clear_shard_read_only(dn_index)

        report = FailoverReport(old.node_id, tables, rows_restored, inflight,
                                prepared_reinstated=reinstated,
                                inflight_poisoned=poisoned,
                                stages_dropped=dropped,
                                stages_rolled_forward=rolled_forward)
        self.failovers.append(report)
        if self.cluster.obs is not None:
            self.cluster.obs.metrics.counter("ha.failovers").inc()
            self.cluster.obs.alerts.raise_alert(
                source="ha", severity="critical",
                message=(f"dn{dn_index} failed over: {rows_restored} rows "
                         f"restored, {reinstated} prepared re-instated"),
                t_us=self.cluster.obs.clock.now_us,
                key=f"ha_failover:dn{dn_index}")
        return report
