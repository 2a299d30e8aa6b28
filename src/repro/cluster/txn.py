"""Distributed transactions over the MPP cluster.

Two transaction classes mirror the paper's GTM-lite split:

* :class:`LocalTransaction` — a single-shard transaction.  Under GTM-lite it
  never talks to the GTM: the bound data node's local XID and local snapshot
  carry it end to end.
* :class:`GlobalTransaction` — a multi-shard transaction (or *any*
  transaction under the classical baseline).  It takes a GXID and a global
  snapshot at the GTM; on each data node it visits it additionally takes a
  local XID and snapshot, and — under GTM-lite — runs Algorithm 1 to merge
  the two.  Commit is two-phase: prepare everywhere, commit at the GTM,
  then confirm on each node.  The commit sequence is exposed stepwise so
  tests can stand inside the paper's anomaly windows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.common.errors import (
    InvalidTransactionState,
    TransactionAborted,
    TransactionError,
)
from repro.core.classical import ClassicalSnapshot
from repro.core.merge import merge_snapshots, naive_merge
from repro.faults.injector import (
    FP_CONFIRM_AFTER,
    FP_CONFIRM_BEFORE,
    FP_COORD_AFTER_GTM_COMMIT,
    FP_COORD_AFTER_PREPARE,
    FP_COORD_BETWEEN_CONFIRMS,
    FP_GTM_COMMIT,
    FP_PREPARE_AFTER,
    FP_PREPARE_BEFORE,
    CoordinatorCrash,
    InjectedTimeout,
)
from repro.net.costing import CostContext
from repro.obs.waits import (
    WAIT_2PC_COMMIT,
    WAIT_2PC_PREPARE,
    WAIT_DN_APPLY,
    WAIT_DN_COMMIT,
    WAIT_DN_SCAN,
    WAIT_FAULT_DELAY,
    WAIT_FAULT_FAILOVER,
    WAIT_FAULT_RETRY,
    WAIT_GTM_GLOBAL,
    WAIT_GTM_LOCAL,
    WAIT_LOCK_CONFLICT,
    WAIT_MERGE_UPGRADE,
)
from repro.storage.table import Distribution, shard_of_value
from repro.txn.snapshot import Snapshot
from repro.txn.status import TxnStatus


#: Interned coordinator node names ("cn0", "cn1", ...) so every root span
#: reuses one string object instead of formatting a fresh one per txn.
_CN_NODE_NAMES: Dict[int, str] = {}


def _cn_node(index: int) -> str:
    try:
        return _CN_NODE_NAMES[index]
    except KeyError:
        name = _CN_NODE_NAMES[index] = f"cn{index}"
        return name


@dataclass(frozen=True)
class RetryPolicy:
    """How a coordinator rides out unresponsive participants.

    Each 2PC step gets ``max_attempts`` tries; a try that times out costs
    ``timeout_us`` of simulated wall time plus an exponentially backed-off
    pause before the next.  When every attempt times out, the coordinator
    declares the node dead (``MppCluster.declare_node_dead``) and pays
    ``failover_us`` while the cluster promotes the standby (or degrades the
    shard to read-only when there is none).
    """

    max_attempts: int = 3
    timeout_us: float = 5_000.0
    backoff_base_us: float = 500.0
    backoff_cap_us: float = 8_000.0
    failover_us: float = 50_000.0

    def backoff_us(self, attempt: int) -> float:
        """Exponential backoff before attempt ``attempt + 1`` (0-based)."""
        return min(self.backoff_cap_us, self.backoff_base_us * (2 ** attempt))


class TransactionPromotionRequired(TransactionError):
    """A single-shard transaction touched a second shard; retry multi-shard."""


class TxnMode(enum.Enum):
    """Which distributed-transaction protocol the cluster runs."""

    GTM_LITE = "gtm_lite"
    CLASSICAL = "classical"
    # Ablations: GTM-lite with one of Algorithm 1's fixes disabled.
    GTM_LITE_NO_DOWNGRADE = "gtm_lite_no_downgrade"
    GTM_LITE_NO_UPGRADE = "gtm_lite_no_upgrade"
    GTM_LITE_NAIVE = "gtm_lite_naive"

    @property
    def downgrade_enabled(self) -> bool:
        return self in (TxnMode.GTM_LITE, TxnMode.GTM_LITE_NO_UPGRADE)

    @property
    def upgrade_enabled(self) -> bool:
        return self in (TxnMode.GTM_LITE, TxnMode.GTM_LITE_NO_DOWNGRADE)


class TxnState(enum.Enum):
    RUNNING = "running"
    COMMITTING = "committing"
    COMMITTED = "committed"
    ABORTED = "aborted"


class _BaseTransaction:
    """Shared plumbing: routing, schema lookup, state checks."""

    def __init__(self, cluster, ctx: Optional[CostContext], cn_index: int = 0,
                 session_id: Optional[int] = None):
        self._cluster = cluster
        self._ctx = ctx
        self._cn_index = cn_index
        self._session_id = session_id
        self.state = TxnState.RUNNING
        #: Set (to a reason string) when a node failure killed this
        #: transaction out from under its owner — failover poisoning,
        #: recovery's presumed abort, or read-only degradation.  Any further
        #: use raises :class:`TransactionAborted` with that reason.
        self.poisoned: Optional[str] = None
        self._obs = getattr(cluster, "obs", None)
        # Hot-path shortcuts: every statement syncs the shared sim clock and
        # records wait events, so resolve both through one attribute instead
        # of the obs bundle's two-hop chains.
        self._obs_clock = self._obs.clock if self._obs is not None else None
        self._waits = self._obs.waits if self._obs is not None else None
        #: Per-statement waits batched as ``event -> [count, total, max]``
        #: and flushed to the recorder once, at :meth:`_finish_span` — the
        #: pg_stat pattern.  ``None`` after the flush (or without obs), in
        #: which case :meth:`_wait` records directly.
        self._wait_acc: Optional[Dict[str, List[float]]] = (
            {} if self._obs is not None else None)
        self._span = None
        self._last_wait_event: Optional[str] = None
        # The three constant-cost statement waits (dn.scan / dn.apply /
        # gtm.local) are *counted* with plain integers and folded into the
        # accumulator at flush time — their per-observation value never
        # varies within a transaction, so a count reconstructs the exact
        # (count, total, max) triple at a fraction of the per-statement
        # cost.  Variable-value waits (2PC, faults, conflict stalls) still
        # go through :meth:`_wait`.
        self._nw_scan = 0
        self._nw_apply = 0
        self._nw_bind = 0
        if self._obs is not None:
            self._w_stmt = self._cost("dn_stmt_us")
            self._w_begin = self._cost("dn_begin_us")
        else:
            self._w_stmt = self._w_begin = 0.0
        #: This transaction's row in ``sys.activity`` (None without obs).
        self.activity_entry = None
        self._start_us = ctx.t_us if ctx is not None else (
            self._obs.clock.now_us if self._obs is not None else 0.0)
        # Root spans read the shared clock at creation; pull it up to this
        # client's cursor first so start times are honest.
        if self._obs_clock is not None and ctx is not None \
                and ctx.t_us > self._obs_clock.now_us:
            self._obs_clock.now_us = ctx.t_us

    # -- helpers -----------------------------------------------------------

    def _mpp_model(self):
        profile = getattr(self._cluster, "profile", None)
        return getattr(profile, "mpp", None)

    def _cost(self, attr: str) -> float:
        """A simulated service time from the cost model.

        Wait-event accounting uses the cluster's cost profile even when no
        :class:`CostContext` is attached (pure-correctness runs), mirroring
        how ``gtm.snapshot_us`` is always observed.
        """
        model = self._ctx.model if self._ctx is not None else self._mpp_model()
        return float(getattr(model, attr, 0.0) or 0.0) if model is not None else 0.0

    def _wait(self, event: str, wait_us: float) -> None:
        """Attribute simulated wait time to this transaction's session."""
        if self._waits is None or wait_us <= 0.0:
            return
        acc = self._wait_acc
        if acc is None:
            # Already flushed (a wait noted after the txn finished, e.g. a
            # post-mortem conflict stall): record straight through, and
            # note the activity entry immediately (no flush will run).
            self._waits.record(event, wait_us, self._session_id)
            entry = self.activity_entry
            if entry is not None:
                entry.wait_us += wait_us
                entry.last_wait = event
            return
        # try/except beats .get(): the same few events repeat within a
        # transaction, so the hit path is just a subscript.  The activity
        # entry's wait attribution is deferred to the flush too — only the
        # "most recent wait" marker is tracked here.
        try:
            entry = acc[event]
        except KeyError:
            acc[event] = [1, wait_us, wait_us]
        else:
            entry[0] += 1
            entry[1] += wait_us
            if wait_us > entry[2]:
                entry[2] = wait_us
        self._last_wait_event = event

    def _begin_activity(self, kind: str, snapshot: str) -> None:
        if self._obs is not None:
            self.activity_entry = self._obs.activity.begin(
                kind, snapshot, cn=self._cn_index, session=self._session_id,
                start_us=self._start_us)

    def _set_activity_state(self, state: str) -> None:
        if self._obs is not None and self.activity_entry is not None:
            self._obs.activity.set_state(self.activity_entry, state)

    def note_conflict_stall(self) -> None:
        """Account the work a serialization-conflict abort throws away."""
        if self._obs is None:
            return
        now = self._ctx.t_us if self._ctx is not None else self._obs.clock.now_us
        self._wait(WAIT_LOCK_CONFLICT, now - self._start_us)

    def _require_running(self) -> None:
        if self.poisoned is not None:
            raise TransactionAborted(self.poisoned)
        if self.state is not TxnState.RUNNING:
            raise InvalidTransactionState(f"transaction is {self.state.value}")

    def _schema(self, table: str):
        return self._cluster.catalog.schema(table)

    # Row/key routing goes through the catalog's versioned ShardMap (value
    # -> hash slot -> owning DN); clusters without one (none in practice)
    # fall back to the legacy direct modulus.  ``_route_*`` additionally
    # reports the slot's move target when a rebalance has the slot in its
    # double-write window.

    def _route_value(self, value) -> Tuple[int, Optional[int]]:
        shard_map = self._cluster.catalog.shard_map
        if shard_map is None:
            return shard_of_value(value, self._cluster.num_dns), None
        return shard_map.route(value)

    def _route_key(self, schema, key: object,
                   row: Optional[Dict[str, object]] = None
                   ) -> Tuple[int, Optional[int]]:
        """Route a point statement on a hash table.  ``row`` — a typed row
        (an insert's, or the row as the caller located it) — supplies the
        distribution value where the key alone cannot
        (``distribute by hash(<non-pk column>)``)."""
        if row is not None:
            return self._route_value(row[schema.distribution_column])
        return self._route_value(schema.dist_value_of_key(key))

    def _read_on(self, dn, table: str, key: object, view, xid: int):
        """A point read of one node's slice: what a scan of that slice
        would return for ``key`` (rows in a shard-map-excluded slot stay
        hidden, exactly as :meth:`_scan_filter` hides them from scans; a
        key that routed itself went to its slot's owner, where nothing
        is excluded)."""
        values = dn.read(table, key, view, xid)
        if values is not None:
            keep = self._scan_filter(table, dn.index)
            if keep is not None and not keep(values):
                return None
        return values

    def read_many(self, table: str, keys: Sequence[object],
                  dn_index: int) -> List[Tuple[object, Dict[str, object]]]:
        """Point-read ``keys`` on one node; the visible ``(key, values)``
        hits come back in the order a scan of that node yields them."""
        hits = []
        for key in keys:
            values = self.read(table, key, dn_index)
            if values is not None:
                hits.append((key, values))
        if len(hits) > 1:
            dn = self._cluster.dns[dn_index]
            hits.sort(key=lambda hit: dn.scan_position(table, hit[0]))
        return hits

    def _scan_filter(self, table: str, dn_index: int):
        """Row predicate hiding shard-map-excluded slots on this node.

        ``None`` — the steady-state answer — means the caller's fast path
        runs untouched.  Non-None only inside a rebalance window, where a
        node holds rows for a slot it does not (yet / any longer) own.
        """
        shard_map = self._cluster.catalog.shard_map
        if shard_map is None:
            return None
        excluded = shard_map.excluded_slots(dn_index)
        if not excluded:
            return None
        schema = self._schema(table)
        if schema.distribution is Distribution.REPLICATION:
            return None
        column = schema.distribution_column
        slot_of = shard_map.slot_of_value

        def keep(values: Dict[str, object]) -> bool:
            return slot_of(values[column]) not in excluded

        return keep

    def _sync_obs(self) -> None:
        """Pull the shared sim clock forward to this client's cursor."""
        if self._obs_clock is not None and self._ctx is not None:
            self._obs_clock.advance_to(self._ctx.t_us)

    # Statement charges (_charge_cn / _charge_dn_stmt) do NOT sync the
    # shared sim clock: nothing reads it mid-statement, and the points that
    # do read it — span start/end, the wait flush, DN commits feeding HTAP
    # capture — sync explicitly (txn begin, _finish_span, and the commit /
    # 2PC charges below, which keep the inlined advance-to).

    def _charge_cn(self) -> None:
        ctx = self._ctx
        if ctx is not None:
            ctx.charge(self._cluster.cn_resources[self._cn_index],
                       ctx.model.cn_route_us)

    def _charge_dn_stmt(self, dn_index: int, service_us: float) -> None:
        ctx = self._ctx
        if ctx is not None:
            ctx.charge(self._cluster.dn_resources[dn_index], service_us)

    def _charge_dn(self, dn_index: int, service_us: float) -> None:
        ctx = self._ctx
        if ctx is not None:
            ctx.charge(self._cluster.dn_resources[dn_index], service_us)
            clock = self._obs_clock
            if clock is not None and ctx.t_us > clock.now_us:
                clock.now_us = ctx.t_us

    def _charge_gtm(self, service_us: float) -> None:
        ctx = self._ctx
        if ctx is not None:
            ctx.charge(self._cluster.gtm_resource, service_us)
            clock = self._obs_clock
            if clock is not None and ctx.t_us > clock.now_us:
                clock.now_us = ctx.t_us

    def _finish_span(self, outcome: str) -> None:
        if self._obs is None:
            return
        # Statement charges skip the clock sync; catch the clock up before
        # anything here (span end, flush timestamps, latency) reads it.
        clock = self._obs_clock
        ctx = self._ctx
        if clock is not None and ctx is not None and ctx.t_us > clock.now_us:
            clock.now_us = ctx.t_us
        acc = self._wait_acc
        if acc is not None:
            self._wait_acc = None
            # Reconstruct the constant-cost statement waits from their
            # counters: all observations share one value, so the exact
            # triple is (n, n*w, w).
            w = self._w_stmt
            if w > 0.0:
                n = self._nw_scan
                if n:
                    acc[WAIT_DN_SCAN] = (n, n * w, w)
                n = self._nw_apply
                if n:
                    acc[WAIT_DN_APPLY] = (n, n * w, w)
            w = self._w_begin
            n = self._nw_bind
            if n and w > 0.0:
                acc[WAIT_GTM_LOCAL] = (n, n * w, w)
            if acc:
                self._waits.flush_batches(acc, self._session_id)
                entry = self.activity_entry
                if entry is not None:
                    # Deferred activity attribution: one update per txn
                    # instead of one per statement.
                    total = 0.0
                    for batch in acc.values():
                        total += batch[1]
                    entry.wait_us += total
                    entry.last_wait = self._last_wait_event
        now = self._ctx.t_us if self._ctx is not None else self._obs.clock.now_us
        self._obs.hist_txn_latency.observe(max(0.0, now - self._start_us))
        if self._span is not None:
            self._span.set_attribute("outcome", outcome)
            self._obs.tracer.end_span(self._span)
        if self.activity_entry is not None:
            self._obs.activity.finish(self.activity_entry, outcome, end_us=now)


class LocalTransaction(_BaseTransaction):
    """Single-shard transaction: local XID + local snapshot only."""

    def __init__(self, cluster, ctx: Optional[CostContext] = None, cn_index: int = 0,
                 session_id: Optional[int] = None):
        super().__init__(cluster, ctx, cn_index, session_id)
        self._dn_index: Optional[int] = None
        self._dn = None          # the bound node object (failover detection)
        self.xid: Optional[int] = None
        self.snapshot: Optional[Snapshot] = None
        if self._obs is not None:
            self._span = self._obs.tracer.start_span(
                "txn.local", parent=None, node=_cn_node(cn_index))
        self._begin_activity("local", "local")

    @property
    def is_multi_shard(self) -> bool:
        return False

    def _bind(self, dn_index: int):
        if self._dn_index is None:
            self._dn_index = dn_index
            dn = self._cluster.dns[dn_index]
            self._dn = dn
            self.xid = dn.begin()
            self.snapshot = dn.local_snapshot()
            self._charge_dn_stmt(dn_index, self._ctx.model.dn_begin_us if self._ctx else 0.0)
            self._nw_bind += 1
            self._last_wait_event = WAIT_GTM_LOCAL
            if self.activity_entry is not None:
                self.activity_entry.txn_id = self.xid
            return dn
        if self._dn_index != dn_index:
            raise TransactionPromotionRequired(
                f"single-shard transaction bound to DN {self._dn_index} "
                f"touched DN {dn_index}"
            )
        return self._bound_dn()

    def _bound_dn(self):
        """The bound node — unless failover replaced it, killing this txn."""
        dn = self._cluster.dns[self._dn_index]
        if dn is not self._dn:
            self.poisoned = (f"dn{self._dn_index} failed over; "
                             "in-flight local transaction lost")
            self.state = TxnState.ABORTED
            self._cluster.stats.note_abort(multi_shard=False)
            self._finish_span("aborted")
            raise TransactionAborted(self.poisoned)
        return dn

    def _local_write_target(self, schema, table: str, key: object,
                            row: Optional[Dict[str, object]] = None) -> int:
        """Route a single-shard point write, promoting when it cannot stay
        single-shard (replicated table on a multi-node cluster, or a slot
        inside a rebalance double-write window)."""
        if schema.distribution is Distribution.REPLICATION:
            if self._cluster.num_active_dns > 1:
                raise TransactionPromotionRequired(
                    "writing a replicated table is a multi-shard operation"
                )
            return self._cluster.dn_indices()[0]
        owner, moving = self._route_key(schema, key, row)
        if moving is not None:
            raise TransactionPromotionRequired(
                "slot is rebalancing; the write must double-write to "
                "source and target"
            )
        return owner

    # -- operations ----------------------------------------------------------

    def read(self, table: str, key: object,
             dn_index: Optional[int] = None) -> Optional[Dict[str, object]]:
        """Point read.  ``dn_index`` names the node to probe (a plan
        fragment's site); without it the key routes itself."""
        self._require_running()
        self._charge_cn()
        if dn_index is None:
            schema = self._schema(table)
            if schema.distribution is Distribution.REPLICATION:
                dn_index = (self._dn_index if self._dn_index is not None
                            else self._cluster.dn_indices()[0])
            else:
                dn_index = self._route_key(schema, key)[0]
        dn = self._bind(dn_index)
        self._charge_dn_stmt(dn.index, self._ctx.model.dn_stmt_us if self._ctx else 0.0)
        self._nw_scan += 1
        self._last_wait_event = WAIT_DN_SCAN
        return self._read_on(dn, table, key, self.snapshot, self.xid)

    def insert(self, table: str, row: Dict[str, object]) -> None:
        self._require_running()
        self._charge_cn()
        schema = self._schema(table)
        replicated = schema.distribution is Distribution.REPLICATION
        if replicated and self._cluster.num_active_dns > 1:
            raise TransactionPromotionRequired(
                "writing a replicated table is a multi-shard operation"
            )
        row = schema.coerce_row(row)    # typed once: routed and stored as is
        if replicated:
            dn = self._bind(self._cluster.dn_indices()[0])
        else:
            owner, moving = self._route_value(row[schema.distribution_column])
            if moving is not None:
                raise TransactionPromotionRequired(
                    "slot is rebalancing; the write must double-write to "
                    "source and target"
                )
            dn = self._bind(owner)
        self._charge_dn_stmt(dn.index, self._ctx.model.dn_stmt_us if self._ctx else 0.0)
        self._nw_apply += 1
        self._last_wait_event = WAIT_DN_APPLY
        dn.insert(table, row, self.xid, self.snapshot)

    def update(self, table: str, key: object, values: Dict[str, object],
               row: Optional[Dict[str, object]] = None) -> None:
        self._require_running()
        self._charge_cn()
        schema = self._schema(table)
        dn = self._bind(self._local_write_target(schema, table, key, row))
        self._charge_dn_stmt(dn.index, self._ctx.model.dn_stmt_us if self._ctx else 0.0)
        self._nw_apply += 1
        self._last_wait_event = WAIT_DN_APPLY
        dn.update(table, key, values, self.xid, self.snapshot)

    def delete(self, table: str, key: object,
               row: Optional[Dict[str, object]] = None) -> None:
        self._require_running()
        self._charge_cn()
        schema = self._schema(table)
        dn = self._bind(self._local_write_target(schema, table, key, row))
        self._charge_dn_stmt(dn.index, self._ctx.model.dn_stmt_us if self._ctx else 0.0)
        self._nw_apply += 1
        self._last_wait_event = WAIT_DN_APPLY
        dn.delete(table, key, self.xid, self.snapshot)

    def scan(self, table: str) -> Iterator[Tuple[object, Dict[str, object]]]:
        """Every visible ``(key, values)`` of ``table``; ``values`` is the
        stored row (:meth:`DataNode.scan`), so copy it before changing it."""
        self._require_running()
        schema = self._schema(table)
        if (schema.distribution is not Distribution.REPLICATION
                and self._cluster.num_active_dns > 1):
            raise TransactionPromotionRequired(
                f"scanning hash-distributed table {table} spans all shards"
            )
        dn = self._bind(self._dn_index if self._dn_index is not None
                        else self._cluster.dn_indices()[0])
        keep = self._scan_filter(table, dn.index)
        if keep is None:
            return dn.scan(table, self.snapshot, self.xid)
        return ((key, values)
                for key, values in dn.scan(table, self.snapshot, self.xid)
                if keep(values))

    # -- completion --------------------------------------------------------

    def commit(self) -> None:
        self._require_running()
        if self._dn_index is not None:
            dn = self._bound_dn()          # raises if the node failed over
            self.state = TxnState.COMMITTING
            self._set_activity_state("committing")
            self._charge_dn(self._dn_index,
                            self._ctx.model.dn_commit_us if self._ctx else 0.0)
            self._wait(WAIT_DN_COMMIT, self._cost("dn_commit_us"))
            dn.commit(self.xid)
        else:
            self.state = TxnState.COMMITTING
            self._set_activity_state("committing")
        self.state = TxnState.COMMITTED
        self._cluster.stats.note_commit(multi_shard=False)
        self._finish_span("committed")
        self._cluster.maybe_prune_lcos()

    def abort(self) -> None:
        if self.state in (TxnState.COMMITTED, TxnState.ABORTED):
            return
        if self._dn_index is not None:
            dn = self._cluster.dns[self._dn_index]
            if dn is self._dn:             # failover already discarded it
                dn.abort(self.xid)
        self.state = TxnState.ABORTED
        self._cluster.stats.note_abort(multi_shard=False)
        self._finish_span("aborted")


class GlobalTransaction(_BaseTransaction):
    """Multi-shard transaction: GXID + global snapshot, merged per DN."""

    def __init__(self, cluster, ctx: Optional[CostContext] = None, cn_index: int = 0,
                 session_id: Optional[int] = None):
        super().__init__(cluster, ctx, cn_index, session_id)
        self.mode: TxnMode = cluster.mode
        if self._obs is not None:
            self._span = self._obs.tracer.start_span(
                "txn.global", parent=None, node=_cn_node(cn_index))
        if self.mode is TxnMode.CLASSICAL:
            snapshot_kind = "classical"
        elif self.mode is TxnMode.GTM_LITE_NAIVE:
            snapshot_kind = "local"
        else:
            snapshot_kind = "merged"
        self._begin_activity("global", snapshot_kind)
        # Simulated snapshot-acquisition cost: the GTM serializes a snapshot
        # whose size grows with the number of in-flight GXIDs.  The same
        # figure is charged to the cost context (when present) and observed
        # into the ``gtm.snapshot_us`` histogram, so telemetry exists even
        # in pure-correctness runs.
        model = cluster.profile.mpp
        snapshot_us = (model.gtm_snapshot_us
                       + model.gtm_snapshot_per_active_us
                       * cluster.gtm.active_count)
        if ctx is not None:
            # One begin interaction: GXID assignment plus the snapshot.
            self._charge_gtm(ctx.model.gtm_xid_us + snapshot_us)
        acquire_span = None
        if self._obs is not None:
            self._obs.hist_gtm_snapshot.observe(snapshot_us)
            acquire_span = self._obs.tracer.start_span(
                "gtm.snapshot", parent=self._span)
        self._wait(WAIT_GTM_GLOBAL, snapshot_us)
        self.gxid = cluster.gtm.begin()
        self.global_snapshot = cluster.gtm.snapshot(for_gxid=self.gxid)
        if self.activity_entry is not None:
            self.activity_entry.txn_id = self.gxid
        if acquire_span is not None:
            acquire_span.set_attribute("gxid", self.gxid)
            acquire_span.set_attribute("active", len(self.global_snapshot.active))
            self._obs.tracer.end_span(
                acquire_span, end_us=acquire_span.start_us + snapshot_us)
        self._local_xid: Dict[int, int] = {}          # dn index -> local xid
        self._local_view: Dict[int, object] = {}       # dn index -> snapshot
        self._written: Set[int] = set()                # dn indexes with writes
        # The cluster tracks in-flight globals so failover and recovery can
        # poison handles whose participant died (instead of stranding them
        # with local XIDs that no longer exist on the replacement node).
        registry = getattr(cluster, "_inflight_globals", None)
        if registry is not None:
            registry[self.gxid] = self

    @property
    def is_multi_shard(self) -> bool:
        return True

    def touched_nodes(self) -> List[int]:
        return sorted(self._local_xid)

    # -- per-DN attach ------------------------------------------------------

    def _attach(self, dn_index: int):
        dn = self._cluster.dns[dn_index]
        if dn_index in self._local_xid:
            return dn, self._local_xid[dn_index], self._local_view[dn_index]
        lxid = dn.begin(gxid=self.gxid)
        local_snapshot = dn.local_snapshot()
        self._charge_dn_stmt(dn_index, self._ctx.model.dn_begin_us if self._ctx else 0.0)
        self._nw_bind += 1
        self._last_wait_event = WAIT_GTM_LOCAL
        if self.mode is TxnMode.CLASSICAL:
            view: object = ClassicalSnapshot(self.global_snapshot, dn.ltm,
                                             self._cluster.gtm)
        elif self.mode is TxnMode.GTM_LITE_NAIVE:
            view = naive_merge(local_snapshot).snapshot
        else:
            if self._obs is not None and self.activity_entry is not None:
                self._obs.activity.enter_wait(self.activity_entry)
            outcome = merge_snapshots(
                self.global_snapshot,
                local_snapshot,
                dn.ltm,
                self._cluster.gtm,
                enable_downgrade=self.mode.downgrade_enabled,
                enable_upgrade=self.mode.upgrade_enabled,
                obs=self._obs,
                parent_span=self._span,
                session=self._session_id,
                # UPGRADE: pause until the writer's local commit confirmation
                # lands — a slim window, about one network round trip each.
                wait_us_per_upgrade=2 * self._cost("lan_hop_us"),
            )
            if self._obs is not None and self.activity_entry is not None:
                self._obs.activity.leave_wait(self.activity_entry)
            self._charge_dn(
                dn_index, self._ctx.model.dn_merge_snapshot_us if self._ctx else 0.0
            )
            if outcome.upgrade_waits:
                wait_us = 2 * self._cost("lan_hop_us") * outcome.upgrade_waits
                if self._ctx is not None:
                    self._ctx.charge_local(wait_us)
                if self.activity_entry is not None:
                    self.activity_entry.note_wait(WAIT_MERGE_UPGRADE, wait_us)
            self._cluster.stats.note_merge(outcome)
            view = outcome.snapshot
        self._local_xid[dn_index] = lxid
        self._local_view[dn_index] = view
        return dn, lxid, view

    # -- operations ---------------------------------------------------------

    def read(self, table: str, key: object,
             dn_index: Optional[int] = None) -> Optional[Dict[str, object]]:
        """Point read.  ``dn_index`` names the node to probe (a plan
        fragment's site); without it the key routes itself."""
        self._require_running()
        self._charge_cn()
        if dn_index is None:
            schema = self._schema(table)
            if schema.distribution is Distribution.REPLICATION:
                dn_index = (min(self._local_xid) if self._local_xid
                            else self._cluster.dn_indices()[0])
            else:
                dn_index = self._route_key(schema, key)[0]
        dn, lxid, view = self._attach(dn_index)
        self._charge_dn_stmt(dn_index, self._ctx.model.dn_stmt_us if self._ctx else 0.0)
        self._nw_scan += 1
        self._last_wait_event = WAIT_DN_SCAN
        return self._read_on(dn, table, key, view, lxid)

    def _apply_on(self, dn_index: int, op) -> None:
        """Charge + apply one write statement on one participant."""
        dn, lxid, view = self._attach(dn_index)
        self._charge_dn_stmt(dn_index, self._ctx.model.dn_stmt_us if self._ctx else 0.0)
        self._nw_apply += 1
        self._last_wait_event = WAIT_DN_APPLY
        op(dn, lxid, view)
        self._written.add(dn_index)

    def insert(self, table: str, row: Dict[str, object]) -> None:
        self._require_running()
        self._charge_cn()
        schema = self._schema(table)
        row = schema.coerce_row(row)    # typed once: routed and stored as is
        if schema.distribution is Distribution.REPLICATION:
            for dn_index in self._cluster.dn_indices():
                self._apply_on(dn_index, lambda dn, lxid, view:
                               dn.insert(table, row, lxid, view))
            return
        owner, moving = self._route_value(row[schema.distribution_column])
        self._apply_on(owner, lambda dn, lxid, view:
                       dn.insert(table, row, lxid, view))
        if moving is not None:
            # Double-write window: the slot's rows are being copied to a
            # new owner; a fresh key cannot have been snapshot-copied yet,
            # so a plain insert lands it on the target too.  2PC makes the
            # pair atomic.
            self._apply_on(moving, lambda dn, lxid, view:
                           dn.insert(table, row, lxid, view))

    def update(self, table: str, key: object, values: Dict[str, object],
               row: Optional[Dict[str, object]] = None) -> None:
        self._require_running()
        self._charge_cn()
        schema = self._schema(table)
        if schema.distribution is Distribution.REPLICATION:
            for dn_index in self._cluster.dn_indices():
                self._apply_on(dn_index, lambda dn, lxid, view:
                               dn.update(table, key, values, lxid, view))
            return
        owner, moving = self._route_key(schema, key, row)
        self._apply_on(owner, lambda dn, lxid, view:
                       dn.update(table, key, values, lxid, view))
        if moving is not None:
            # The target may not hold the row yet (snapshot copy still in
            # flight), so the double-write is an upsert of the post-update
            # image read back from the owner (own writes are visible).
            dn, lxid, view = self._attach(owner)
            image = dn.read(table, key, view, lxid)
            if image is not None:
                self._apply_on(moving, lambda dn, lxid, view:
                               dn.update(table, key, dict(image), lxid, view)
                               if dn.read(table, key, view, lxid) is not None
                               else dn.insert(table, dict(image), lxid, view))

    def delete(self, table: str, key: object,
               row: Optional[Dict[str, object]] = None) -> None:
        self._require_running()
        self._charge_cn()
        schema = self._schema(table)
        if schema.distribution is Distribution.REPLICATION:
            for dn_index in self._cluster.dn_indices():
                self._apply_on(dn_index, lambda dn, lxid, view:
                               dn.delete(table, key, lxid, view))
            return
        owner, moving = self._route_key(schema, key, row)
        self._apply_on(owner, lambda dn, lxid, view:
                       dn.delete(table, key, lxid, view))
        if moving is not None:
            # Delete the target's copy only if the snapshot copy (or an
            # earlier double-write) already landed it there.
            self._apply_on(moving, lambda dn, lxid, view:
                           dn.delete(table, key, lxid, view)
                           if dn.read(table, key, view, lxid) is not None
                           else None)

    def _scan_sites(self, table: str):
        """Charge a scan of every node's slice of ``table`` and return the
        ``(dn, lxid, view)`` handles to read, in scan order."""
        self._charge_cn()
        schema = self._schema(table)
        if schema.distribution is Distribution.REPLICATION:
            return [self._attach(self._cluster.dn_indices()[0])]
        # The data nodes scan their shards concurrently: the coordinator
        # fans the statement out and waits for the slowest node, so the
        # client's cursor advances by the max across DNs, not the serial
        # sum.  Each node's service time is still attributed individually
        # in sys.wait_events.
        indices = self._cluster.dn_indices()
        handles = [self._attach(dn_index) for dn_index in indices]
        start_us = self._ctx.t_us if self._ctx is not None else 0.0
        end_us = start_us
        for dn_index in indices:
            if self._ctx is not None:
                self._ctx.t_us = start_us
                self._charge_dn_stmt(dn_index, self._ctx.model.dn_stmt_us)
                end_us = max(end_us, self._ctx.t_us)
            self._nw_scan += 1
            self._last_wait_event = WAIT_DN_SCAN
        if self._ctx is not None:
            self._ctx.t_us = end_us
            self._sync_obs()
        return handles

    def _scan_site(self, dn_index: int):
        """Charge a scan of one node's slice and return its handle."""
        dn, lxid, view = self._attach(dn_index)
        self._charge_dn_stmt(dn_index, self._ctx.model.dn_stmt_us if self._ctx else 0.0)
        self._nw_scan += 1
        self._last_wait_event = WAIT_DN_SCAN
        return dn, lxid, view

    def _visible_on(self, table: str, dn, lxid: int, view):
        """The walk of one node's slice, rows in a shard-map-excluded slot
        hidden (:meth:`_scan_filter`)."""
        items = dn.scan(table, view, lxid)
        keep = self._scan_filter(table, dn.index)
        if keep is not None:
            items = ((key, values) for key, values in items if keep(values))
        return items

    def _lanes_on(self, table: str, dn, lxid: int, view):
        """:meth:`_visible_on` as typed batches: the node's lane scan
        (:meth:`DataNode.scan_lanes`), or inside a rebalance window the
        filtered walk (a column table's frozen chunks may still hold the
        rows a shard-map exclusion hides)."""
        if self._scan_filter(table, dn.index) is None:
            return dn.scan_lanes(table, view, lxid)
        from repro.exec.batch import batches_from_rows

        schema = self._schema(table)
        return batches_from_rows(
            schema.rows_of(self._visible_on(table, dn, lxid, view)),
            len(schema.columns), types=[c.data_type for c in schema.columns])

    def scan(self, table: str) -> Iterator[Tuple[object, Dict[str, object]]]:
        """Every visible ``(key, values)`` of ``table`` on every node;
        ``values`` is the stored row (:meth:`DataNode.scan`), so copy it
        before changing it."""
        self._require_running()
        for dn, lxid, view in self._scan_sites(table):
            yield from self._visible_on(table, dn, lxid, view)

    def scan_lanes(self, table: str):
        """:meth:`scan` as typed batches (``repro.exec.batch.Batch``) of
        rows in table-column order, node by node, charged as :meth:`scan`
        is."""
        self._require_running()
        for dn, lxid, view in self._scan_sites(table):
            yield from self._lanes_on(table, dn, lxid, view)

    def scan_shard(self, table: str, dn_index: int) -> Iterator[tuple]:
        """Scan one node's slice of ``table`` — a hash shard, or the local
        replica of a replicated table — as rows in table-column order.
        This is the plan-fragment scan path: each fragment reads only the
        node it runs on."""
        self._require_running()
        dn, lxid, view = self._scan_site(dn_index)
        return self._schema(table).rows_of(
            self._visible_on(table, dn, lxid, view))

    def scan_shard_lanes(self, table: str, dn_index: int):
        """:meth:`scan_shard` as typed batches, charged as it is."""
        self._require_running()
        dn, lxid, view = self._scan_site(dn_index)
        return self._lanes_on(table, dn, lxid, view)

    # -- completion ----------------------------------------------------------

    def commit(self) -> None:
        """Run the full commit sequence in protocol order."""
        steps = self.commit_stepwise()
        steps.prepare_all()
        steps.commit_at_gtm()
        steps.finish()

    def commit_stepwise(self) -> "CommitSteps":
        self._require_running()
        self.state = TxnState.COMMITTING
        self._set_activity_state("committing")
        return CommitSteps(self)

    def abort(self) -> None:
        if self.state in (TxnState.COMMITTED, TxnState.ABORTED):
            return
        if self._cluster.gtm.is_committed(self.gxid):
            # Past the GTM commit point the outcome is decided: the local
            # commits are inevitable and rollback is no longer possible.
            raise InvalidTransactionState(
                f"gxid {self.gxid} already committed at the GTM; cannot abort"
            )
        for dn_index, lxid in list(self._local_xid.items()):
            self._release_local(dn_index, lxid)
        if self._cluster.gtm.clog.is_in_doubt(self.gxid):
            self._cluster.gtm.abort(self.gxid)
        self.state = TxnState.ABORTED
        # Derive the stat split from what was actually written — a global
        # transaction that wrote one shard (or none) is not a multi-shard
        # abort, exactly as ``note_commit`` classifies the commit side.
        self._cluster.stats.note_abort(multi_shard=len(self._written) > 1)
        self._finish_span("aborted")
        self._unregister()

    # -- failure handling ---------------------------------------------------

    def _release_local(self, dn_index: int, lxid: int) -> None:
        """Roll back one participant, tolerating failover and recovery.

        A replaced node never heard of our local XID (or reuses it for a
        different transaction), and recovery may have resolved it already —
        only a still-live XID that provably belongs to this GXID is aborted.
        """
        dn = self._cluster.dns[dn_index]
        if dn.ltm.xid_map.get(self.gxid) != lxid:
            return
        if not dn.ltm.clog.knows(lxid):
            return
        if dn.ltm.clog.get(lxid) in (TxnStatus.IN_PROGRESS, TxnStatus.PREPARED):
            dn.abort(lxid)

    def _unregister(self) -> None:
        registry = getattr(self._cluster, "_inflight_globals", None)
        if registry is not None:
            registry.pop(self.gxid, None)

    def poison(self, reason: str, failed_dn: Optional[int] = None) -> bool:
        """Abort this in-flight handle because a participant node died.

        Rolls back the surviving participants (skipping ``failed_dn`` — that
        node's state died with it) and the GTM entry, then marks the handle
        so any later use raises :class:`TransactionAborted` with ``reason``.
        A transaction already committed at the GTM is *not* poisoned: its
        outcome is decided and recovery rolls the survivors forward.
        Returns True if the handle was poisoned.
        """
        if self.state in (TxnState.COMMITTED, TxnState.ABORTED):
            return False
        if self._cluster.gtm.is_committed(self.gxid):
            return False
        for dn_index, lxid in list(self._local_xid.items()):
            if dn_index == failed_dn:
                continue
            self._release_local(dn_index, lxid)
        if self._cluster.gtm.clog.is_in_doubt(self.gxid):
            self._cluster.gtm.abort(self.gxid)
        self.poisoned = reason
        self.state = TxnState.ABORTED
        self._cluster.stats.note_abort(multi_shard=len(self._written) > 1)
        self._finish_span("aborted")
        self._unregister()
        return True

    def mark_recovery_aborted(self) -> None:
        """Recovery presumed-aborted this GXID; seal the zombie handle.

        The data-node state is already resolved (recovery rolled it back),
        so only the handle itself is marked.
        """
        if self.state in (TxnState.COMMITTED, TxnState.ABORTED):
            self._unregister()
            return
        self.poisoned = (f"gxid {self.gxid} presumed aborted by recovery")
        self.state = TxnState.ABORTED
        self._cluster.stats.note_abort(multi_shard=len(self._written) > 1)
        self._finish_span("aborted")
        self._unregister()


class CommitSteps:
    """Explicit commit sequencing for a :class:`GlobalTransaction`.

    GTM-lite order: prepare on every written node, commit at the GTM, then
    confirm (commit prepared) on each node.  The classical baseline confirms
    on the nodes *first* and dequeues from the GTM last, which is why it has
    no anomaly window.  Tests drive these methods one at a time.
    """

    def __init__(self, txn: GlobalTransaction):
        self._txn = txn
        self._prepared = False
        self._gtm_committed = False
        self._confirmed: Set[int] = set()

    def _traced(self, name: str, **attributes):
        """Open a 2PC-phase span under the transaction's span, or None.

        2PC is coordinator-driven, so the phase spans are attributed to the
        CN; the per-node service time they cover is in ``sys.wait_events``.
        """
        txn = self._txn
        if txn._obs is None:
            return None
        return txn._obs.tracer.start_span(
            name, parent=txn._span, node=_cn_node(txn._cn_index),
            **attributes)

    def _end(self, span) -> None:
        if span is not None:
            self._txn._obs.tracer.end_span(span)

    @property
    def pending_nodes(self) -> List[int]:
        return sorted(set(self._txn._written) - self._confirmed)

    # -- fault plumbing -----------------------------------------------------

    def _fire(self, failpoint: str, **ctx):
        """Hit a failpoint; honor injected delays; pass exceptions through."""
        txn = self._txn
        faults = getattr(txn._cluster, "faults", None)
        if faults is None:
            return None
        outcome = faults.fire(failpoint, gxid=txn.gxid, **ctx)
        if outcome.delay_us > 0.0:
            txn._wait(WAIT_FAULT_DELAY, outcome.delay_us)
            if txn._ctx is not None:
                txn._ctx.charge_local(outcome.delay_us)
                txn._sync_obs()
        return outcome

    def _coord_fire(self, failpoint: str) -> None:
        """A failpoint modeling the *coordinator's* own death.

        :class:`CoordinatorCrash` abandons the sequence: the handle is sealed
        and unregistered, and whatever 2PC state exists stays exactly as-is
        for ``recovery.resolve_in_doubt`` to find.
        """
        try:
            self._fire(failpoint)
        except CoordinatorCrash:
            self._abandon()
            raise

    def _abandon(self) -> None:
        txn = self._txn
        txn.poisoned = "coordinator crashed mid-commit"
        txn._finish_span("abandoned")
        txn._unregister()

    def _check_crashed(self, dn_index: int) -> None:
        dn = self._txn._cluster.dns[dn_index]
        if getattr(dn, "crashed", False):
            raise InjectedTimeout(f"dn{dn_index} is down", dn_index=dn_index)

    def _stall(self, attempt: int) -> None:
        """Pay for one timed-out attempt: the timeout plus the backoff."""
        txn = self._txn
        policy = txn._cluster.retry_policy
        stall_us = policy.timeout_us + policy.backoff_us(attempt)
        txn._wait(WAIT_FAULT_RETRY, stall_us)
        if txn._obs is not None:
            txn._obs.metrics.counter("faults.retries").inc()
        if txn._ctx is not None:
            txn._ctx.charge_local(stall_us)
            txn._sync_obs()

    def _with_dn_retry(self, dn_index: int, attempt_fn, phase: str) -> None:
        """Run one per-node 2PC step under timeout/retry/escalation.

        Timeouts retry with exponential backoff up to the policy's attempt
        budget; exhaustion declares the node dead and escalates to failover
        (or read-only degradation).  After escalation, a GTM-committed
        transaction continues — recovery already rolled its write forward —
        while an undecided one aborts.
        """
        txn = self._txn
        policy = txn._cluster.retry_policy
        attempt = 0
        while True:
            try:
                attempt_fn()
                return
            except InjectedTimeout:
                self._stall(attempt)
                attempt += 1
                if attempt >= policy.max_attempts:
                    self._escalate(dn_index, phase)
                    return
            except TransactionAborted:
                # A participant refused (standby unreachable at prepare):
                # global abort, all survivors rolled back.
                if txn.poisoned is None:
                    txn.poison(f"participant dn{dn_index} refused to {phase}")
                raise

    def _escalate(self, dn_index: int, phase: str) -> None:
        """The retry budget is spent: declare the node dead and fail over."""
        txn = self._txn
        cluster = txn._cluster
        txn._wait(WAIT_FAULT_FAILOVER, cluster.retry_policy.failover_us)
        if txn._ctx is not None:
            txn._ctx.charge_local(cluster.retry_policy.failover_us)
            txn._sync_obs()
        cluster.declare_node_dead(
            dn_index, reason=f"unresponsive during 2pc {phase}")
        if cluster.gtm.is_committed(txn.gxid):
            # The commit decision was durable; recovery rolled this node's
            # write forward on the replacement (or the degraded shard).
            return
        if txn.poisoned is None:
            txn.poison(f"participant dn{dn_index} died before the commit "
                       "decision", failed_dn=dn_index)
        raise TransactionAborted(
            txn.poisoned or f"participant dn{dn_index} died")

    # -- the protocol steps -------------------------------------------------

    def _prepare_one(self, dn_index: int) -> None:
        txn = self._txn

        def attempt() -> None:
            self._fire(FP_PREPARE_BEFORE, dn=dn_index)
            self._check_crashed(dn_index)
            dn = txn._cluster.dns[dn_index]
            lxid = txn._local_xid[dn_index]
            txn._charge_dn(dn_index,
                           txn._ctx.model.dn_prepare_us if txn._ctx else 0.0)
            txn._wait(WAIT_2PC_PREPARE, txn._cost("dn_prepare_us"))
            if dn.ltm.xid_map.get(txn.gxid) != lxid:
                raise TransactionAborted(
                    f"dn{dn_index} failed over; prepare has no transaction "
                    "to act on")
            # Idempotent against a lost ack: a retried prepare that already
            # landed must not re-flip the clog (PREPARED -> PREPARED raises).
            if dn.ltm.clog.get(lxid) is not TxnStatus.PREPARED:
                dn.prepare(lxid)
            self._fire(FP_PREPARE_AFTER, dn=dn_index)

        self._with_dn_retry(dn_index, attempt, "prepare")

    def prepare_all(self) -> None:
        if self._prepared:
            raise InvalidTransactionState("already prepared")
        txn = self._txn
        span = self._traced("2pc.prepare", nodes=len(txn._written))
        try:
            for dn_index in sorted(txn._written):
                self._prepare_one(dn_index)
        finally:
            self._end(span)
        self._prepared = True
        self._coord_fire(FP_COORD_AFTER_PREPARE)
        if txn.mode is TxnMode.CLASSICAL:
            # Classical order: data nodes commit before the GTM dequeues.
            self._confirm_all()

    def commit_at_gtm(self) -> None:
        if not self._prepared:
            raise InvalidTransactionState("prepare before GTM commit")
        if self._gtm_committed:
            raise InvalidTransactionState("already committed at GTM")
        txn = self._txn
        policy = txn._cluster.retry_policy
        span = self._traced("2pc.gtm_commit", gxid=txn.gxid)
        try:
            attempt = 0
            while True:
                try:
                    # A lost GTM commit-log write looks like a timeout: the
                    # coordinator cannot tell a slow GTM from a dead one.
                    self._coord_fire(FP_GTM_COMMIT)
                    break
                except InjectedTimeout:
                    self._stall(attempt)
                    attempt += 1
                    if attempt >= policy.max_attempts:
                        # Without the GTM there is no commit decision; the
                        # coordinator is as good as dead.  Abandon in place.
                        self._abandon()
                        raise CoordinatorCrash(
                            f"gtm unreachable committing gxid {txn.gxid}")
            txn._charge_gtm(txn._ctx.model.gtm_commit_us if txn._ctx else 0.0)
            txn._wait(WAIT_2PC_COMMIT, txn._cost("gtm_commit_us"))
            txn._cluster.gtm.commit(txn.gxid)
        finally:
            self._end(span)
        self._gtm_committed = True
        self._coord_fire(FP_COORD_AFTER_GTM_COMMIT)

    def _confirm_lxid(self, dn_index: int) -> Optional[int]:
        """The local XID still awaiting this GXID's confirmation, if any.

        After a failover the replacement node carries a *different* XID for
        the GXID (re-instated from the standby's staged prepare), and
        recovery may have resolved it already — so resolve through the
        node's current xidMap and status instead of the coordinator's view.
        """
        txn = self._txn
        dn = txn._cluster.dns[dn_index]
        mapped = dn.ltm.xid_map.get(txn.gxid)
        if mapped is None or not dn.ltm.clog.knows(mapped):
            return None
        if dn.ltm.clog.get(mapped) is TxnStatus.PREPARED:
            return mapped
        return None                       # already resolved (e.g. recovery)

    def _confirm_one(self, dn_index: int) -> None:
        txn = self._txn

        def attempt() -> None:
            outcome = self._fire(FP_CONFIRM_BEFORE, dn=dn_index)
            if outcome is not None and outcome.dropped:
                # The confirmation vanished in flight and the coordinator
                # moves on believing it was delivered: the node stays
                # PREPARED — the paper's Anomaly-1 window held open until
                # UPGRADE (readers) or recovery (permanently) closes it.
                if txn._obs is not None:
                    txn._obs.metrics.counter("faults.dropped_confirms").inc()
                return
            self._check_crashed(dn_index)
            dn = txn._cluster.dns[dn_index]
            txn._charge_dn(dn_index,
                           txn._ctx.model.dn_commit_prepared_us if txn._ctx else 0.0)
            txn._wait(WAIT_2PC_COMMIT, txn._cost("dn_commit_prepared_us"))
            lxid = self._confirm_lxid(dn_index)
            if lxid is not None:
                dn.commit(lxid)
            self._fire(FP_CONFIRM_AFTER, dn=dn_index)

        self._with_dn_retry(dn_index, attempt, "confirm")
        self._confirmed.add(dn_index)

    def confirm_at(self, dn_index: int) -> None:
        """Deliver the commit confirmation to one data node."""
        txn = self._txn
        if txn.mode is TxnMode.CLASSICAL:
            raise InvalidTransactionState(
                "classical protocol confirms during prepare_all"
            )
        if not self._gtm_committed:
            raise InvalidTransactionState("GTM commit must precede confirmations")
        if dn_index in self._confirmed:
            return
        if dn_index not in txn._written:
            raise InvalidTransactionState(f"node {dn_index} has nothing to confirm")
        self._confirm_one(dn_index)

    def _confirm_all(self) -> None:
        pending = self.pending_nodes
        span = self._traced("2pc.confirm", nodes=len(pending)) if pending else None
        try:
            for n, dn_index in enumerate(pending):
                if n > 0:
                    self._coord_fire(FP_COORD_BETWEEN_CONFIRMS)
                self._confirm_one(dn_index)
        finally:
            self._end(span)

    def finish(self) -> None:
        """Complete whatever remains of the sequence."""
        txn = self._txn
        if not self._prepared:
            self.prepare_all()
        if not self._gtm_committed:
            self.commit_at_gtm()
        if txn.mode is not TxnMode.CLASSICAL:
            self._confirm_all()
        # Read-only participants never prepared; release them (unless a
        # failover already swept them away with their node).
        for dn_index, lxid in txn._local_xid.items():
            if dn_index not in txn._written:
                dn = txn._cluster.dns[dn_index]
                if dn.ltm.xid_map.get(txn.gxid) == lxid:
                    dn.commit(lxid)
        txn.state = TxnState.COMMITTED
        txn._cluster.stats.note_commit(multi_shard=True)
        txn._finish_span("committed")
        txn._unregister()
        txn._cluster.maybe_prune_lcos()
