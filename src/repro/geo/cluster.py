"""repro.geo — geo-replicated multi-region OLTP over the MPP engine.

A :class:`GeoCluster` stands up N regions, each a full CN+DN+GTM
:class:`~repro.cluster.mpp.MppCluster`, connects them with a WAN-modeled
:class:`~repro.geo.fabric.RegionFabric`, and runs one of two multi-region
commit protocols over the same client API:

* ``GeoMode.GEOGAUSS`` — epoch-based multi-master commit (GeoGauss,
  PAPERS.md).  Each region batches its locally-submitted transactions into
  fixed simulated-time epochs; sealed batches are exchanged once per epoch;
  a deterministic certifier orders the union and resolves write-write
  conflicts identically in every region.  A transaction's commit
  acknowledgment waits for its epoch to certify — so the WAN round trip is
  paid once per *epoch*, not twice per *transaction*.
* ``GeoMode.GLOBAL_2PC`` — the naive baseline: every transaction runs a
  synchronous prepare+commit across all hosting regions, two WAN round
  trips each, with a global lock table that turns concurrent writers into
  honest aborts.

Partial replication (Sutra & Shapiro, PAPERS.md) rides on
:class:`~repro.geo.shardmap.GeoShardMap`: every geo hash slot has a home
region and a subscriber set, regions apply only the certified writes of
slots they host, and reads of a non-hosted slot route to the slot's home
region over the WAN.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field as dc_field
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.cluster.mpp import MppCluster
from repro.cluster.txn import TxnMode
from repro.common.errors import ConfigError, InvalidTransactionState
from repro.faults.injector import (
    FP_GEO_APPLY,
    FP_GEO_CERTIFY,
    FP_GEO_SHIP,
    CoordinatorCrash,
    InjectedTimeout,
)
from repro.geo.certify import COMMIT, certify_epoch, outcome_digest
from repro.geo.epoch import EpochBatch, EpochManager, GeoTxnRecord, GeoWriteOp
from repro.geo.fabric import RegionFabric
from repro.geo.shardmap import GeoShardMap
from repro.obs.tracing import TraceContext
from repro.obs.waits import (
    WAIT_GEO_APPLY,
    WAIT_GEO_CERTIFY,
    WAIT_GEO_EPOCH,
    WAIT_GEO_REMOTE_READ,
    WAIT_GEO_SHIP,
)
from repro.storage.table import Distribution, TableSchema

#: Epoch traces share one id space across every region's tracer, disjoint
#: from the per-region query/txn trace ids, so the per-region slices of one
#: epoch stitch into a single cross-region trace.
GEO_TRACE_BASE = 1 << 40


class GeoMode(enum.Enum):
    """Which multi-region commit protocol the cluster runs."""

    GEOGAUSS = "geogauss"
    GLOBAL_2PC = "global_2pc"


@dataclass
class GeoConfig:
    """Topology and protocol knobs for a :class:`GeoCluster`."""

    num_regions: int = 3
    dns_per_region: int = 2
    cns_per_region: int = 1
    mode: GeoMode = GeoMode.GEOGAUSS
    #: Epoch length.  Much smaller than the WAN RTT by design: the epoch
    #: wait it adds to commit latency is what buys the per-epoch (instead
    #: of per-transaction) WAN exchange.
    epoch_interval_us: float = 10_000.0
    #: Round trip between any two distinct regions (matches the
    #: device/cloud profile's ``internet_rtt_us``); one-way is half.
    wan_rtt_us: float = 60_000.0
    #: Regions hosting each geo slot (home + subscribers).  ``None`` means
    #: full replication: every region hosts every slot.
    replication_factor: Optional[int] = None
    #: The autonomous manager's AIMD target for p95 commit latency.
    commit_latency_sla_us: float = 150_000.0
    min_epoch_interval_us: float = 1_000.0
    max_epoch_interval_us: float = 120_000.0
    #: Per-epoch certification cost model.
    certify_base_us: float = 200.0
    certify_per_txn_us: float = 10.0
    #: Distributed-transaction protocol inside each region.
    txn_mode: TxnMode = TxnMode.GTM_LITE

    @property
    def one_way_us(self) -> float:
        return self.wan_rtt_us / 2.0


@dataclass
class GeoCommitHandle:
    """The client's view of one geo transaction's fate.

    Under epoch commit the acknowledgment is asynchronous: ``commit()``
    returns a PENDING handle, and the handle resolves when the home region
    certifies (and applies) the transaction's epoch.
    """

    txn_id: Tuple[int, int]
    origin: int
    kind: str
    submit_us: float
    status: str = "pending"        # 'pending' | 'committed' | 'aborted'
    epoch: Optional[int] = None
    ack_us: Optional[float] = None
    reason: Optional[str] = None
    result: object = None

    @property
    def latency_us(self) -> Optional[float]:
        if self.ack_us is None:
            return None
        return max(0.0, self.ack_us - self.submit_us)


@dataclass
class GeoEpochRow:
    """One region's record of one certified epoch (a ``sys.geo_epochs`` row)."""

    epoch: int
    region: int
    txns: int
    committed: int
    aborted: int
    applied_ops: int
    seal_us: float
    certify_us: float
    apply_us: float
    digest: int

    def as_row(self) -> tuple:
        return (self.epoch, self.region, self.txns, self.committed,
                self.aborted, self.applied_ops, self.seal_us,
                self.certify_us, self.apply_us, self.digest)


class GeoCluster:
    """N regions, one logical database, one deterministic commit order."""

    def __init__(self, config: Optional[GeoConfig] = None):
        self.config = config if config is not None else GeoConfig()
        cfg = self.config
        if cfg.num_regions <= 0:
            raise ConfigError("num_regions must be positive")
        self.regions: List[MppCluster] = [
            MppCluster(num_dns=cfg.dns_per_region, num_cns=cfg.cns_per_region,
                       mode=cfg.txn_mode, name=f"r{i}")
            for i in range(cfg.num_regions)
        ]
        self.shard_map = GeoShardMap(cfg.num_regions,
                                     replication_factor=cfg.replication_factor)
        self.fabric = RegionFabric(cfg.num_regions, cfg.one_way_us)
        self.epochs: List[EpochManager] = [
            EpochManager(i, cfg.epoch_interval_us)
            for i in range(cfg.num_regions)
        ]
        #: Set by :meth:`repro.faults.FaultInjector.bind`.
        self.faults = None
        self.crashed_regions: Set[int] = set()
        #: Batches held at each region awaiting certification:
        #: (holder, src, epoch) -> (batch, arrival_us).
        self._held: Dict[Tuple[int, int, int], Tuple[EpochBatch, float]] = {}
        #: Deliveries that could not complete (partition / fault / crashed
        #: receiver), retried every step: (src, dst, epoch).
        self._pending_ship: List[Tuple[int, int, int]] = []
        self._delivered: Set[Tuple[int, int, int]] = set()
        #: Per-region certification frontier and the simulated time its
        #: last epoch finished applying.
        self._certified: List[int] = [-1] * cfg.num_regions
        self._apply_end: List[float] = [0.0] * cfg.num_regions
        self._epoch_rows: List[GeoEpochRow] = []
        self._handles: Dict[Tuple[int, int], GeoCommitHandle] = {}
        #: Commit latencies of recently acknowledged transactions (both
        #: protocols), the AIMD controller's input signal.
        self.recent_latencies: Deque[float] = deque(maxlen=512)
        #: The naive-2PC global lock table: (table, key) -> (release time,
        #: holding writer).  A *different* writer whose commit window
        #: overlaps a held lock aborts; the holder's own next transaction
        #: re-extends its lock (sequential, not concurrent).
        self._locks: Dict[Tuple[str, object],
                          Tuple[float, Tuple[int, Optional[int]]]] = {}
        self._now_us = 0.0
        for i, region in enumerate(self.regions):
            region.geo = self
            if region.obs is not None:
                region.obs.bind_geo(self)
                region.obs.metrics.gauge("geo.epoch_interval_us").set(
                    cfg.epoch_interval_us)

    # ------------------------------------------------------------------
    # topology / DDL

    @property
    def num_regions(self) -> int:
        return len(self.regions)

    @property
    def obs(self):
        """Region 0's observability — where cluster-scoped recorders (the
        bound fault injector) stamp their history."""
        return self.regions[0].obs if self.regions else None

    def region(self, index: int) -> MppCluster:
        return self.regions[index]

    def create_table(self, schema: TableSchema) -> None:
        for region in self.regions:
            region.create_table(schema)

    def geo_slot_of(self, schema: TableSchema, dist_value) -> int:
        """The geo slot of one distribution value (-1: replicated table)."""
        if schema.distribution is Distribution.REPLICATION:
            return -1
        return self.shard_map.slot_of_value(dist_value)

    def hosting_regions_of(self, geo_slot: int) -> Tuple[int, ...]:
        if geo_slot < 0:
            return tuple(range(self.num_regions))
        return self.shard_map.hosting_regions(geo_slot)

    # ------------------------------------------------------------------
    # sessions

    def session(self, region: int = 0, start_us: float = 0.0) -> GeoSession:
        """A client session homed at ``region``."""
        return GeoSession(self, region, start_us=start_us)

    # ------------------------------------------------------------------
    # the epoch machine

    def _fire(self, failpoint: str, region: int, **ctx) -> Optional[float]:
        """Hit a geo failpoint.  Returns an extra delay, or ``None`` when
        the step must be skipped this round (timeout/drop); a coordinator
        crash takes the whole region down (open epochs lost, sealed log
        durable)."""
        if self.faults is None:
            return 0.0
        try:
            outcome = self.faults.fire(failpoint, region=region, **ctx)
        except CoordinatorCrash:
            self.crash_region(region)
            return None
        except InjectedTimeout:
            return None
        if outcome.dropped:
            return None
        return outcome.delay_us

    def step_to(self, now_us: float) -> int:
        """Advance the simulated epoch machine to ``now_us``.

        Seals every epoch whose boundary passed, ships sealed batches
        (retrying earlier failures), certifies and applies every epoch all
        of whose batches have arrived.  Returns the number of ship +
        certify events that made progress, so callers can drain to a
        fixpoint.
        """
        if self.config.mode is not GeoMode.GEOGAUSS:
            return 0
        if now_us > self._now_us:
            self._now_us = now_us
        progress = 0
        progress += self._retry_ships(now_us)
        for manager in self.epochs:
            if manager.region in self.crashed_regions:
                continue
            for batch in manager.seal_through(now_us):
                for dst in range(self.num_regions):
                    if self._ship_one(batch.region, dst, batch.epoch,
                                      now_us, retry=False):
                        progress += 1
                    else:
                        self._queue_ship(batch.region, dst, batch.epoch)
        progress += self._certify_ready(now_us)
        return progress

    def _queue_ship(self, src: int, dst: int, epoch: int) -> None:
        key = (src, dst, epoch)
        if key not in self._delivered and key not in self._pending_ship:
            self._pending_ship.append(key)

    def _retry_ships(self, now_us: float) -> int:
        delivered = 0
        still_pending: List[Tuple[int, int, int]] = []
        for src, dst, epoch in self._pending_ship:
            if not self._ship_one(src, dst, epoch, now_us, retry=True):
                still_pending.append((src, dst, epoch))
            else:
                delivered += 1
        self._pending_ship = still_pending
        return delivered

    def _ship_one(self, src: int, dst: int, epoch: int,
                  now_us: float, retry: bool) -> bool:
        if src in self.crashed_regions or dst in self.crashed_regions:
            return False
        batch = self.epochs[src].sealed.get(epoch)
        if batch is None:
            return False
        if src == dst:
            # Local hand-off: the sealed batch is already durable in its
            # own region — no WAN leg, no ship failpoint.
            self._held[(dst, src, epoch)] = (batch, batch.seal_us)
            self._delivered.add((src, dst, epoch))
            return True
        delay = self._fire(FP_GEO_SHIP, src, dst=dst, epoch=epoch)
        if delay is None:
            return False
        if not self.fabric.try_ship(src, dst, batch,
                                    size_bytes=batch.size_bytes()):
            return False
        self.fabric.drain_inbox(dst)   # _held below is the arrival ledger
        one_way = self.fabric.one_way_between(src, dst)
        # A first-try delivery lands exactly one one-way hop after the
        # seal, however late the driver advanced the clock; a retried
        # delivery (partition healed, fault cleared, region recovered)
        # cannot arrive before the step that finally carried it.
        arrival = batch.seal_us + one_way + delay
        if retry:
            arrival = max(arrival, self._now_us)
        self._held[(dst, src, epoch)] = (batch, arrival)
        self._delivered.add((src, dst, epoch))
        if src != dst and batch.records:
            obs = self.regions[src].obs
            if obs is not None:
                obs.metrics.counter("geo.batches_shipped").inc()
                span = obs.tracer.start_span(
                    "geo.ship",
                    parent_ctx=TraceContext(GEO_TRACE_BASE + epoch, 0),
                    node=f"r{src}", epoch=epoch, dst=f"r{dst}")
                span.start_us = batch.seal_us
                obs.tracer.end_span(span, end_us=arrival)
        return True

    def _certify_ready(self, now_us: float) -> int:
        progress = 0
        advancing = True
        while advancing:
            advancing = False
            for region in range(self.num_regions):
                if region in self.crashed_regions:
                    continue
                if self._certify_next(region, now_us):
                    progress += 1
                    advancing = True
        return progress

    def _certify_next(self, region: int, now_us: float) -> bool:
        epoch = self._certified[region] + 1
        held = []
        for src in range(self.num_regions):
            entry = self._held.get((region, src, epoch))
            if entry is None:
                return False            # consistency over availability
            held.append(entry)
        batches = [batch for batch, _ in held]
        t_all = max(self._apply_end[region],
                    max(arrival for _, arrival in held))
        if t_all > now_us:
            return False
        delay = self._fire(FP_GEO_CERTIFY, region, epoch=epoch)
        if delay is None:
            return False
        verdicts = certify_epoch(batches)
        digest = outcome_digest(epoch, verdicts)
        certify_end = t_all + delay + self.config.certify_base_us \
            + self.config.certify_per_txn_us * len(verdicts)
        apply_delay = self._fire(FP_GEO_APPLY, region, epoch=epoch)
        if apply_delay is None:
            return False
        apply_end, applied_ops = self._apply_epoch(
            region, batches, verdicts, certify_end + apply_delay)
        committed = sum(1 for _, outcome in verdicts if outcome == COMMIT)
        self._certified[region] = epoch
        self._apply_end[region] = apply_end
        if not verdicts:
            # Empty epochs advance the frontier but leave no trace: the
            # sys.geo_epochs view and span buffers record only epochs that
            # carried transactions.
            return True
        seal_us = self.epochs[region].sealed[epoch].seal_us \
            if epoch in self.epochs[region].sealed \
            else batches[0].seal_us
        self._epoch_rows.append(GeoEpochRow(
            epoch=epoch, region=region, txns=len(verdicts),
            committed=committed, aborted=len(verdicts) - committed,
            applied_ops=applied_ops, seal_us=seal_us,
            certify_us=certify_end, apply_us=apply_end, digest=digest))
        self._trace_epoch(region, epoch, seal_us, t_all, certify_end,
                          apply_end, len(verdicts))
        self._note_certified(region, epoch, batches, verdicts, seal_us,
                             t_all, certify_end, apply_end)
        obs = self.regions[region].obs
        if obs is not None:
            obs.metrics.counter("geo.epochs_certified").inc()
            obs.advance_to(apply_end)
        return True

    def _apply_epoch(self, region: int, batches: List[EpochBatch],
                     verdicts, start_us: float) -> Tuple[float, int]:
        """Apply the epoch's certified writes this region hosts as one
        region transaction, in certification order: readers see all of the
        epoch or none of it, and an apply that fails part-way leaves
        nothing behind for the retry to trip over."""
        by_id = {r.txn_id: r for batch in batches for r in batch.records}
        committed = [by_id[txn_id] for txn_id, outcome in verdicts
                     if outcome == COMMIT]
        end_us, applied_ops = self._apply_hosted(region, committed, start_us)
        obs = self.regions[region].obs
        if obs is not None and applied_ops:
            obs.metrics.counter("geo.applied_ops").inc(applied_ops)
        return end_us, applied_ops

    def _apply_hosted(self, region: int, records: List[GeoTxnRecord],
                      start_us: float) -> Tuple[float, int]:
        """Run the writes of ``records`` that ``region`` hosts, in order, as
        one region transaction (none when it hosts none of them).  Stacked
        writes to one key chain through the transaction's own writes.
        Returns the simulated end time and the number of ops applied."""
        hosts = self.shard_map.hosts
        ops = [op for record in records for op in record.ops
               if op.geo_slot < 0 or hosts(region, op.geo_slot)]
        if not ops:
            return start_us, 0
        session = self.regions[region].session(track_costs=True,
                                               start_us=start_us)

        def body(txn):
            for op in ops:
                if op.kind == "insert":
                    txn.insert(op.table, dict(op.values))
                elif op.kind == "update":
                    txn.update(op.table, op.key, dict(op.values))
                else:
                    txn.delete(op.table, op.key)

        session.run_transaction(body, multi_shard=True)
        return session.ctx.t_us, len(ops)

    def _trace_epoch(self, region: int, epoch: int, seal_us: float,
                     t_all: float, certify_end: float, apply_end: float,
                     txns: int) -> None:
        obs = self.regions[region].obs
        if obs is None:
            return
        ctx = TraceContext(GEO_TRACE_BASE + epoch, 0)
        root = obs.tracer.start_span("geo.epoch", parent_ctx=ctx,
                                     node=f"r{region}", epoch=epoch,
                                     txns=txns)
        root.start_us = seal_us
        certify = obs.tracer.start_span("geo.certify", parent=root,
                                        node=f"r{region}", epoch=epoch)
        certify.start_us = t_all
        obs.tracer.end_span(certify, end_us=certify_end)
        if apply_end > certify_end:
            apply_span = obs.tracer.start_span("geo.apply", parent=root,
                                               node=f"r{region}",
                                               epoch=epoch)
            apply_span.start_us = certify_end
            obs.tracer.end_span(apply_span, end_us=apply_end)
        obs.tracer.end_span(root, end_us=apply_end)

    def _note_certified(self, region: int, epoch: int,
                        batches: List[EpochBatch], verdicts, seal_us: float,
                        t_all: float, certify_end: float,
                        apply_end: float) -> None:
        """Resolve the handles of this region's own clients and attribute
        the commit-latency breakdown to wait events.

        Commits acknowledge at *certification*: the verdict is a pure
        function of the durable batch set, so once certified the outcome
        can never change, and the local apply is one region transaction
        per epoch in certification order.  The apply time is tracked
        separately (``WAIT_GEO_APPLY``, the read-visibility lag), not
        charged to commit latency.
        """
        obs = self.regions[region].obs
        outcome_of = dict(verdicts)
        for batch in batches:
            if batch.region != region:
                continue
            for record in batch.records:
                handle = self._handles.get(record.txn_id)
                if handle is None or handle.status != "pending":
                    continue
                committed = outcome_of.get(record.txn_id) == COMMIT
                handle.epoch = epoch
                handle.status = "committed" if committed else "aborted"
                handle.ack_us = certify_end
                if not committed:
                    handle.reason = "write-write conflict at certification"
                latency = handle.latency_us
                self.recent_latencies.append(latency)
                if obs is None:
                    continue
                session = record.session_id
                waits = obs.waits
                waits.record(WAIT_GEO_EPOCH,
                             max(0.0, seal_us - record.commit_ts), session)
                waits.record(WAIT_GEO_SHIP, max(0.0, t_all - seal_us),
                             session)
                waits.record(WAIT_GEO_CERTIFY,
                             max(0.0, certify_end - t_all), session)
                if committed:
                    waits.record(WAIT_GEO_APPLY,
                                 max(0.0, apply_end - certify_end), session)
                    obs.metrics.counter("geo.commits").inc()
                else:
                    obs.metrics.counter("geo.aborts").inc()
                obs.metrics.histogram("geo.commit_latency_us").observe(
                    latency)

    # ------------------------------------------------------------------
    # driving

    def drain(self, max_rounds: int = 10_000) -> float:
        """Settle every submitted transaction that *can* settle.

        Finds the goal — the highest epoch holding any real transaction,
        open or sealed — and advances the machine until every reachable
        region has certified through it.  Stops early when a partition or
        a crashed region blocks certification for two straight rounds
        (consistency over availability: nothing is guessed, the stalled
        epochs wait for heal/recovery).
        """
        if self.config.mode is not GeoMode.GEOGAUSS:
            return self._now_us
        goal = -1
        for manager in self.epochs:
            open_ts = manager.max_open_ts()
            if open_ts is not None:
                goal = max(goal, manager.epoch_of(open_ts))
            for epoch, batch in manager.sealed.items():
                if batch.records:
                    goal = max(goal, epoch)
        if goal < 0:
            return self._now_us
        stalled = 0
        for _ in range(max_rounds):
            live = [r for r in range(self.num_regions)
                    if r not in self.crashed_regions]
            laggards = [r for r in live if self._certified[r] < goal]
            if not laggards:
                break
            # Stall detection watches only the regions still behind the
            # goal: a healthy region certifying empty epochs forever must
            # not mask a partitioned peer that cannot move at all.
            before = sum(self._certified[r] for r in laggards)
            horizon = max(
                [self._now_us]
                + [arrival for _, arrival in self._held.values()]
                + [self._apply_end[r] for r in live]
                + [self.epochs[r].seal_boundary_us(goal) for r in live])
            horizon += max(m.interval_us for m in self.epochs) \
                + self.config.wan_rtt_us + self.config.certify_base_us + 1.0
            self.step_to(horizon)
            if sum(self._certified[r] for r in laggards) == before:
                stalled += 1
                if stalled >= 2:
                    break
            else:
                stalled = 0
        return self._now_us

    # ------------------------------------------------------------------
    # failures

    def partition(self, a: int, b: int, bidirectional: bool = True) -> None:
        self.fabric.partition(a, b, bidirectional=bidirectional)

    def heal(self, a: int, b: int, bidirectional: bool = True) -> None:
        self.fabric.heal(a, b, bidirectional=bidirectional)

    def crash_region(self, region: int) -> None:
        """Kill a region's epoch coordinator.

        Unsealed (never-acknowledged) transactions abort; sealed batches
        are durable and will re-ship on recovery.  Peers stall on this
        region's missing epochs — strict consistency chooses blocking over
        divergence.
        """
        if region in self.crashed_regions:
            return
        self.crashed_regions.add(region)
        for record in self.epochs[region].abort_open():
            handle = self._handles.get(record.txn_id)
            if handle is not None and handle.status == "pending":
                handle.status = "aborted"
                handle.ack_us = self._now_us
                handle.reason = "region crashed before its epoch sealed"
        obs = self.regions[region].obs
        if obs is not None:
            obs.metrics.counter("geo.region_crashes").inc()
            obs.alerts.raise_alert(
                source="geo", severity="critical",
                message=f"region r{region} epoch coordinator crashed",
                t_us=obs.clock.now_us, key=f"geo.crash:r{region}")

    def recover_region(self, region: int,
                       now_us: Optional[float] = None) -> None:
        """Bring a crashed region back: seal the elapsed epochs (empty) and
        re-ship everything peers have not acknowledged."""
        if region not in self.crashed_regions:
            return
        self.crashed_regions.discard(region)
        now = now_us if now_us is not None else self._now_us
        manager = self.epochs[region]
        for batch in manager.seal_through(now):
            pass                       # sealed empty; queued just below
        for epoch in sorted(manager.sealed):
            for dst in range(self.num_regions):
                self._queue_ship(region, dst, epoch)
        # Peers' batches shipped while this region was down went pending;
        # nothing else to do — the next step retries them.
        obs = self.regions[region].obs
        if obs is not None:
            obs.alerts.raise_alert(
                source="geo", severity="info",
                message=f"region r{region} recovered",
                t_us=obs.clock.now_us, key=f"geo.recover:r{region}")

    def recover_all(self, now_us: Optional[float] = None) -> None:
        """Post-chaos sweep: heal links, revive regions, settle epochs."""
        if self.faults is not None:
            self.faults.disarm_all()
        self.fabric.heal_all()
        for region in sorted(self.crashed_regions):
            self.recover_region(region, now_us=now_us)
        self.drain()

    # ------------------------------------------------------------------
    # tuning (the autonomous manager's lever)

    def set_epoch_interval(self, interval_us: float) -> float:
        """Retune the epoch length, anchored at the next global boundary.

        Every region rebases with identical arguments so epoch numbering
        never forks.  Clamped to the config's [min, max] band.
        """
        cfg = self.config
        interval_us = min(cfg.max_epoch_interval_us,
                          max(cfg.min_epoch_interval_us, interval_us))
        if self.config.mode is not GeoMode.GEOGAUSS:
            return interval_us
        if interval_us != self.epochs[0].interval_us:
            rebase_epoch = max(m.last_sealed for m in self.epochs) + 1
            at_us = max(m.start_us_of(rebase_epoch) for m in self.epochs)
            for manager in self.epochs:
                manager.rebase(rebase_epoch, at_us, interval_us)
            for region in self.regions:
                if region.obs is not None:
                    region.obs.metrics.gauge("geo.epoch_interval_us").set(
                        interval_us)
        cfg.epoch_interval_us = interval_us
        return interval_us

    @property
    def epoch_interval_us(self) -> float:
        if self.config.mode is GeoMode.GEOGAUSS:
            return self.epochs[0].interval_us
        return self.config.epoch_interval_us

    def commit_latency_p95(self) -> Optional[float]:
        if not self.recent_latencies:
            return None
        from repro.wlm.driver import percentile

        return percentile(list(self.recent_latencies), 95.0)

    # ------------------------------------------------------------------
    # introspection (the sys.geo_* views)

    def handle(self, txn_id: Tuple[int, int]) -> Optional[GeoCommitHandle]:
        return self._handles.get(txn_id)

    def handles(self) -> List[GeoCommitHandle]:
        return [self._handles[k] for k in sorted(self._handles)]

    def certified_epoch(self, region: int) -> int:
        return self._certified[region]

    def epoch_digests(self, epoch: int) -> Dict[int, int]:
        return {row.region: row.digest for row in self._epoch_rows
                if row.epoch == epoch}

    def assert_converged(self) -> None:
        """Raise if any epoch certified by 2+ regions disagrees anywhere, or
        if two regions at one certification frontier that host a key's
        slot hold different visible rows of it."""
        by_epoch: Dict[int, Dict[int, int]] = {}
        for row in self._epoch_rows:
            by_epoch.setdefault(row.epoch, {})[row.region] = row.digest
        for epoch, digests in sorted(by_epoch.items()):
            if len(set(digests.values())) > 1:
                raise AssertionError(
                    f"epoch {epoch} diverged across regions: {digests}")
        at_frontier: Dict[int, List[int]] = {}
        for region, epoch in enumerate(self._certified):
            at_frontier.setdefault(epoch, []).append(region)
        for regions in at_frontier.values():
            if len(regions) > 1:
                self._assert_rows_agree(regions)

    def _assert_rows_agree(self, regions: List[int]) -> None:
        """Every key's visible row is the same in each of ``regions`` that
        hosts its slot (absent counts as a row), one table at a time."""
        catalog = self.regions[regions[0]].catalog
        for table in catalog.tables():
            schema = catalog.schema(table)
            rows = {region: self._visible_rows(region, table)
                    for region in regions}
            for key in dict.fromkeys(key for region in regions
                                     for key in rows[region]):
                values = next(rows[r][key] for r in regions if key in rows[r])
                geo_slot = self.geo_slot_of(
                    schema, values.get(schema.distribution_column))
                held = {region: rows[region].get(key) for region in regions
                        if geo_slot < 0
                        or self.shard_map.hosts(region, geo_slot)}
                if len({repr(row if row is None else sorted(row.items()))
                        for row in held.values()}) > 1:
                    raise AssertionError(
                        f"{table} key {key!r} diverged across regions: "
                        f"{held}")

    def _visible_rows(self, region: int, table: str) -> Dict[object, dict]:
        """``key -> values`` of every row of ``table`` that ``region``
        holds, read from each data node's heap under its local snapshot."""
        return {key: values
                for dn in self.regions[region].active_dns()
                for key, values in dn.heap(table).visible(
                    dn.local_snapshot(), dn.ltm.clog)}

    def region_rows(self) -> List[tuple]:
        """``sys.geo_regions`` rows."""
        rows = []
        hosted = self.shard_map.hosted_counts()
        for i, region in enumerate(self.regions):
            commits = aborts = 0
            for handle in self._handles.values():
                if handle.origin != i:
                    continue
                if handle.status == "committed":
                    commits += 1
                elif handle.status == "aborted":
                    aborts += 1
            rows.append((
                i, f"r{i}", i, region.num_dns, hosted.get(i, 0),
                self._certified[i] if self.config.mode is GeoMode.GEOGAUSS
                else -1,
                commits, aborts,
                self.epochs[i].open_count if self.epochs else 0,
                1 if i in self.crashed_regions else 0,
            ))
        return rows

    def epoch_rows(self) -> List[tuple]:
        """``sys.geo_epochs`` rows, ordered by (epoch, region)."""
        return [row.as_row() for row in sorted(
            self._epoch_rows, key=lambda r: (r.epoch, r.region))]

    def shard_rows(self) -> List[tuple]:
        """``sys.geo_shard_map`` rows."""
        return self.shard_map.rows()

    # ------------------------------------------------------------------
    # the naive global-2PC baseline

    def _commit_2pc(self, handle: GeoCommitHandle,
                    record: GeoTxnRecord) -> None:
        """Synchronous per-transaction cross-region 2PC.

        One WAN round trip to prepare every hosting region, one more to
        commit — per transaction.  The global lock table holds every
        written key for the full window; a writer overlapping a held lock
        aborts during its prepare round.
        """
        cfg = self.config
        submit = record.commit_ts
        involved: Set[int] = {record.origin}
        for op in record.ops:
            involved.update(self.hosting_regions_of(op.geo_slot))
        remote = any(r != record.origin for r in involved)
        round_trip = cfg.wan_rtt_us if remote else 0.0
        writer = (record.origin, record.session_id)
        conflicted = False
        for key in record.write_keys:
            held = self._locks.get(key)
            if held is not None and held[0] > submit and held[1] != writer:
                conflicted = True
                break
        if conflicted:
            handle.status = "aborted"
            handle.ack_us = submit + round_trip   # the prepare round says no
            handle.reason = "lock conflict during global prepare"
        else:
            ack = submit + 2 * round_trip
            for key in record.write_keys:
                self._locks[key] = (ack, writer)
            for region in sorted(involved):
                self._apply_hosted(region, [record], submit)
            handle.status = "committed"
            handle.ack_us = ack
        obs = self.regions[record.origin].obs
        latency = handle.latency_us
        self.recent_latencies.append(latency)
        if obs is not None:
            if handle.status == "committed":
                obs.metrics.counter("geo.commits").inc()
            else:
                obs.metrics.counter("geo.aborts").inc()
            obs.metrics.histogram("geo.commit_latency_us").observe(latency)

    # ------------------------------------------------------------------
    # internal: commit submission (both protocols)

    def _submit(self, handle: GeoCommitHandle, record: GeoTxnRecord,
                session_id) -> None:
        record.session_id = session_id    # threaded through to the waits
        self._handles[record.txn_id] = handle
        if self.config.mode is GeoMode.GLOBAL_2PC:
            self._commit_2pc(handle, record)
            return
        if record.origin in self.crashed_regions:
            handle.status = "aborted"
            handle.reason = "home region is down"
            handle.ack_us = record.commit_ts
            return
        handle.epoch = self.epochs[record.origin].submit(record)


class GeoSession:
    """One client connection, homed at one region of a :class:`GeoCluster`."""

    def __init__(self, geo: GeoCluster, region: int, start_us: float = 0.0):
        if not (0 <= region < geo.num_regions):
            raise ConfigError(f"region {region} out of range")
        self.geo = geo
        self.region = region
        #: The underlying home-region session: its cost context is this
        #: client's simulated clock, and local reads run through it at LAN
        #: cost exactly as a single-region client's would.
        self.local = geo.regions[region].session(track_costs=True,
                                                 start_us=start_us)
        #: The session's *pending* writes — submitted to an epoch but not
        #: yet certified: (table, key) -> (kind, data, handle).  The next
        #: transaction of this session reads through this overlay, so
        #: sequential transactions chain (read-your-pending-writes) even
        #: though the region's storage only reflects certified epochs.
        #: Entries evaporate once their handle resolves: committed writes
        #: are then in storage, aborted ones never existed.
        self._pending: Dict[Tuple[str, object],
                            Tuple[str, Optional[dict],
                                  Optional[GeoCommitHandle]]] = {}

    @property
    def now_us(self) -> float:
        return self.local.now_us

    def wait_until(self, t_us: float) -> float:
        """Advance this client's simulated clock — a driver's think time
        while the epoch machine runs in the background."""
        if self.local.ctx is not None:
            return self.local.ctx.wait_until(t_us)
        return self.now_us

    def begin(self) -> "GeoTransaction":
        return GeoTransaction(self)

    def run_transaction(self, body, multi_shard: bool = False
                        ) -> GeoCommitHandle:
        """Execute ``body`` and submit the commit; returns the handle.

        ``multi_shard`` is accepted for drop-in parity with
        :meth:`repro.cluster.mpp.Session.run_transaction`; geo transactions
        buffer their writes, so the distinction is resolved at apply time.
        """
        txn = self.begin()
        try:
            result = body(txn)
        except Exception:
            txn.abort()
            raise
        handle = txn.commit()
        handle.result = result
        return handle


class GeoTransaction:
    """Snapshot reads at the home region, buffered writes, epoch commit.

    Implements the same ``read``/``update``/``insert``/``delete`` surface
    as the intra-region transactions, so TPC-C-lite bodies run unchanged.
    Reads see certified state plus the transaction's own buffered writes;
    writes travel as concrete row images/deltas inside the epoch batch, so
    every hosting region applies byte-identical values.
    """

    def __init__(self, session: GeoSession):
        self.session = session
        self.geo = session.geo
        self.state = "running"
        self._ops: List[GeoWriteOp] = []
        #: Read-your-writes overlay: (table, key) -> (kind, data) with kind
        #: 'row' (full image), 'delta' (accumulated update columns), or
        #: 'del'.  Seeded from the session's still-pending writes so this
        #: transaction sees its predecessors; resolved entries are pruned
        #: (committed → now in storage, aborted → never happened).
        self._overlay: Dict[Tuple[str, object],
                            Tuple[str, Optional[dict]]] = {}
        self._written: Set[Tuple[str, object]] = set()
        for key, (kind, data, handle) in list(session._pending.items()):
            if handle is not None and handle.status != "pending":
                del session._pending[key]
                continue
            self._overlay[key] = (kind, data)
        #: Lazily-opened read transactions, one per region touched.
        self._read_txns: Dict[int, object] = {}
        self._start_us = session.now_us

    # -- plumbing ----------------------------------------------------------

    def _require_running(self) -> None:
        if self.state != "running":
            raise InvalidTransactionState(f"geo transaction is {self.state}")

    def _schema(self, table: str) -> TableSchema:
        return self.geo.regions[self.session.region].catalog.schema(table)

    def _read_txn(self, region: int):
        txn = self._read_txns.get(region)
        if txn is None:
            if region == self.session.region:
                txn = self.session.local.begin(multi_shard=True)
            else:
                txn = self.geo.regions[region].session(
                    track_costs=False).begin(multi_shard=True)
            self._read_txns[region] = txn
        return txn

    def _home_hosts(self, schema: TableSchema, geo_slot: int) -> bool:
        return geo_slot < 0 or self.geo.shard_map.hosts(
            self.session.region, geo_slot)

    def _slot_of_key(self, schema: TableSchema, key: object) -> int:
        if schema.distribution is Distribution.REPLICATION:
            return -1
        return self.geo.geo_slot_of(schema, schema.dist_value_of_key(key))

    # -- operations --------------------------------------------------------

    def read(self, table: str, key: object):
        self._require_running()
        entry = self._overlay.get((table, key))
        if entry is not None:
            kind, data = entry
            if kind == "del":
                return None
            if kind == "row":
                return dict(data)
            base = self._read_base(table, key)       # kind == 'delta'
            if base is None:
                return None
            merged = dict(base)
            merged.update(data)
            return merged
        return self._read_base(table, key)

    def _read_base(self, table: str, key: object):
        schema = self._schema(table)
        geo_slot = self._slot_of_key(schema, key)
        if self._home_hosts(schema, geo_slot):
            return self._read_txn(self.session.region).read(table, key)
        # Remote-shard read: routed to the slot's home region, one WAN
        # round trip charged to this client's clock.
        owner = self.geo.shard_map.home_region_of_slot(geo_slot)
        rtt = self.geo.config.wan_rtt_us
        local = self.session.local
        if local.ctx is not None:
            local.ctx.charge_local(rtt)
        obs = self.geo.regions[self.session.region].obs
        if obs is not None:
            obs.waits.record(WAIT_GEO_REMOTE_READ, rtt,
                             local.session_id)
            obs.metrics.counter("geo.remote_reads").inc()
        return self._read_txn(owner).read(table, key)

    def _buffer(self, op: GeoWriteOp) -> None:
        self._ops.append(op)
        key = (op.table, op.key)
        self._written.add(key)
        if op.kind == "insert":
            self._overlay[key] = ("row", dict(op.values))
        elif op.kind == "delete":
            self._overlay[key] = ("del", None)
        else:
            prior = self._overlay.get(key)
            if prior is not None and prior[0] in ("row", "delta"):
                merged = dict(prior[1])
                merged.update(op.values)
                self._overlay[key] = (prior[0], merged)
            else:
                self._overlay[key] = ("delta", dict(op.values))

    def insert(self, table: str, row: Dict[str, object]) -> None:
        self._require_running()
        schema = self._schema(table)
        coerced = schema.coerce_row(dict(row))
        key = coerced[schema.primary_key]
        if schema.distribution is Distribution.REPLICATION:
            geo_slot = -1
        else:
            geo_slot = self.geo.geo_slot_of(
                schema, coerced[schema.distribution_column])
        self._buffer(GeoWriteOp("insert", table, key, coerced, geo_slot))

    def update(self, table: str, key: object,
               values: Dict[str, object]) -> None:
        self._require_running()
        schema = self._schema(table)
        geo_slot = self._slot_of_key(schema, key)
        self._buffer(GeoWriteOp("update", table, key, dict(values), geo_slot))

    def delete(self, table: str, key: object) -> None:
        self._require_running()
        schema = self._schema(table)
        geo_slot = self._slot_of_key(schema, key)
        self._buffer(GeoWriteOp("delete", table, key, None, geo_slot))

    # -- completion --------------------------------------------------------

    def _close_reads(self) -> None:
        for txn in self._read_txns.values():
            txn.commit()               # read-only: releases the snapshots
        self._read_txns.clear()

    def commit(self) -> GeoCommitHandle:
        self._require_running()
        self.state = "committed"       # submitted; the handle carries fate
        self._close_reads()
        commit_ts = self.session.now_us
        manager = self.geo.epochs[self.session.region] \
            if self.geo.epochs else None
        if not self._ops:
            # Read-only: nothing to certify, acknowledged at LAN latency.
            txn_id = manager.next_txn_id() if manager is not None \
                else (self.session.region, 0)
            handle = GeoCommitHandle(
                txn_id=txn_id, origin=self.session.region, kind="read_only",
                submit_us=commit_ts, status="committed", ack_us=commit_ts)
            return handle
        txn_id = manager.next_txn_id()
        record = GeoTxnRecord(txn_id=txn_id, origin=self.session.region,
                              kind="write", commit_ts=commit_ts,
                              ops=self._ops)
        handle = GeoCommitHandle(txn_id=txn_id, origin=self.session.region,
                                 kind="write", submit_us=commit_ts)
        self.geo._submit(handle, record, self.session.local.session_id)
        # Publish this transaction's written keys into the session overlay
        # so the session's next transaction reads through them while the
        # epoch is in flight.
        for key in self._written:
            kind, data = self._overlay[key]
            self.session._pending[key] = (kind, data, handle)
        return handle

    def abort(self) -> None:
        if self.state != "running":
            return
        self.state = "aborted"
        for txn in self._read_txns.values():
            txn.abort()
        self._read_txns.clear()
        self._ops.clear()
        self._overlay.clear()
