"""The autonomous database manager: Fig. 12 assembled.

Wires the five components — information store, change manager, anomaly
manager, workload manager, in-DB ML — around an
:class:`~repro.cluster.mpp.MppCluster` and exposes the monitoring loop:
``collect()`` harvests cluster metrics into the information store, and
``tick()`` runs detection, SLA enforcement, self-healing and (optionally)
knob tuning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.autonomous.anomaly import (
    Anomaly,
    AnomalyManager,
    EwmaDetector,
    HeartbeatDetector,
    Severity,
    ThresholdDetector,
)
from repro.autonomous.change import ChangeEvent, ChangeManager, KnobDef
from repro.autonomous.infostore import InformationStore
from repro.autonomous.ml import KnobTuner, TuningResult
from repro.autonomous.workload import Priority, Sla, WorkloadManager
from repro.cluster.mpp import MppCluster
from repro.obs import InfoStoreExporter

DEFAULT_KNOBS = [
    KnobDef("max_concurrency", 32, 1, 256,
            "query slots across the cluster"),
    KnobDef("buffer_pool_mb", 1024, 64, 65536,
            "shared buffer size per data node"),
    KnobDef("vacuum_interval_s", 60, 5, 3600,
            "background vacuum cadence"),
]


@dataclass
class TickReport:
    t_us: float
    anomalies: List[Anomaly] = field(default_factory=list)
    sla_problems: List[str] = field(default_factory=list)
    concurrency_limit: int = 0
    healing_actions: List[str] = field(default_factory=list)
    tuning: Optional[TuningResult] = None
    #: HTAP merges the tick drove, and the interval after AIMD adjustment
    #: (0.0 when the cluster has no HTAP manager).
    htap_merges: int = 0
    htap_interval_us: float = 0.0
    #: Per-DN row-placement skew (max/mean slot count) observed this tick,
    #: and the slots an autonomous rebalance moved to flatten it (0 when no
    #: coordinator is attached or the skew is within threshold).
    shard_skew: float = 0.0
    rebalance_slots_moved: int = 0
    #: Geo commit-latency p95 observed this tick and the epoch interval
    #: after AIMD adjustment (0.0 when the cluster is not geo-replicated).
    geo_p95_commit_us: float = 0.0
    geo_epoch_interval_us: float = 0.0


class AutonomousManager:
    """Self-configuring / self-optimizing / self-healing controller."""

    #: Slot-count skew (max/mean) above which a tick triggers an online
    #: rebalance — 1.2 tolerates the remainder slots of a non-dividing DN
    #: count but reacts to a freshly added slot-less node (adding a 5th DN
    #: to 4 leaves the old members at exactly 1.25).
    REBALANCE_SKEW_THRESHOLD = 1.2

    def __init__(self, cluster: MppCluster, sla: Optional[Sla] = None,
                 enable_tuning: bool = False, ha=None):
        self.cluster = cluster
        #: Optional :class:`~repro.cluster.ha.HaManager`; when present,
        #: node-failure anomalies trigger an actual standby promotion
        #: (self-healing closes the loop instead of only logging).
        self.ha = ha
        self.info = InformationStore()
        #: Live engine telemetry: every ``collect()`` flushes the cluster's
        #: metric registry (txn/gtm/exec/query counters and histogram
        #: summaries) into the information store, so detectors consume real
        #: engine series instead of hand-fed ones.
        self.exporter = (InfoStoreExporter(cluster.obs.metrics, self.info)
                         if getattr(cluster, "obs", None) is not None else None)
        #: The observability-side alert sink (``sys.alerts``).  Anomaly
        #: findings and slow-query bursts both land there, deduplicated.
        self.alerts = (cluster.obs.alerts
                       if getattr(cluster, "obs", None) is not None else None)
        if self.alerts is not None:
            self.alerts.bind_store(self.info)
        self.changes = ChangeManager()
        self.anomalies = AnomalyManager(self.info)
        self.workload = WorkloadManager(
            self.info,
            sla if sla is not None else Sla("default", p95_latency_us=50_000.0),
            governor=getattr(cluster, "wlm", None),
            alerts=self.alerts,
        )
        for knob in DEFAULT_KNOBS:
            self.changes.define_knob(knob)
        for dn in cluster.dns:
            self.changes.node_added(dn.node_id)
        self.tuner = KnobTuner(DEFAULT_KNOBS) if enable_tuning else None
        self._install_default_detectors()
        self.anomalies.on_anomaly(self._heal)
        if self.alerts is not None:
            self.anomalies.on_anomaly(self.alerts.from_anomaly)
        self._healing_log: List[str] = []
        # Deltas are measured from the moment supervision starts, so
        # pre-existing traffic (e.g. bulk loads) is not misattributed.
        self._last_commits = cluster.stats.commits

    def _install_default_detectors(self) -> None:
        self.anomalies.add_detector(ThresholdDetector(
            "memory_utilization", upper=0.9, severity=Severity.WARNING,
            action="reduce buffer_pool_mb"))
        self.anomalies.add_detector(EwmaDetector(
            "disk_read_latency_us", k_sigma=4.0,
            action="probe slow disk"))
        self._heartbeat_nodes: set = set()
        for dn in self._active_dns():
            self._install_heartbeat(dn)

    def _active_dns(self):
        active = getattr(self.cluster, "active_dns", None)
        return list(active()) if active is not None else list(self.cluster.dns)

    def _install_heartbeat(self, dn) -> None:
        if dn.node_id in self._heartbeat_nodes:
            return
        self._heartbeat_nodes.add(dn.node_id)
        self.anomalies.add_detector(HeartbeatDetector(
            f"heartbeat.{dn.node_id}", timeout_us=5_000_000.0,
            action=f"failover {dn.node_id}"))

    # -- monitoring -----------------------------------------------------------

    def collect(self, now_us: float,
                extra_metrics: Optional[Dict[str, float]] = None) -> None:
        """Harvest cluster counters into the information store."""
        if self.exporter is not None:
            self.exporter.flush(now_us)
        stats = self.cluster.stats
        commits = stats.commits
        self.info.record("commits_delta", now_us, commits - self._last_commits)
        self._last_commits = commits
        self.info.record("aborts_total", now_us, stats.aborts)
        self.info.record("gtm_requests", now_us,
                         self.cluster.gtm.stats.total_requests)
        for dn in self._active_dns():
            # A DN added after supervision started gets its heartbeat
            # detector here (retired DNs stop being recorded — and are
            # deliberately not watched: silence is expected of them).
            self._install_heartbeat(dn)
            self.info.record(f"heartbeat.{dn.node_id}", now_us, 1.0)
            self.info.record(f"active_txns.{dn.node_id}", now_us,
                             dn.ltm.active_count)
        htap = getattr(self.cluster, "htap", None)
        if htap is not None:
            self.info.record("htap.freshness_lag_us", now_us,
                             htap.max_freshness_lag_us(now_us))
            self.info.record("htap.delta_rows", now_us,
                             float(htap.delta_rows()))
        if extra_metrics:
            for name, value in extra_metrics.items():
                self.info.record(name, now_us, value)

    def report_node_down(self, node_id: str) -> None:
        """Stop a node's heartbeats (used by tests / fault injection)."""
        # Nothing to do here: collect() only records heartbeats for nodes we
        # believe online; callers simply stop including the node.
        self.changes.node_removed(node_id, reason="reported down")

    # -- the autonomic loop --------------------------------------------------------

    def tick(self, now_us: float) -> TickReport:
        report = TickReport(t_us=now_us)
        self._healing_log = []
        report.anomalies = self.anomalies.evaluate(now_us)
        if self.alerts is not None:
            self.alerts.check_slow_queries(self.cluster.obs.slowlog, now_us)
        report.sla_problems = self.workload.evaluate_sla(now_us)
        report.concurrency_limit = self.workload.adjust(now_us)
        htap = getattr(self.cluster, "htap", None)
        if htap is not None:
            # Drive the merge daemon, then step the merge interval against
            # the freshness SLA: commits must not wait too long for column
            # visibility.
            report.htap_merges = htap.maybe_tick(now_us)
            report.htap_interval_us = self._step_interval(
                now_us, htap.max_freshness_lag_us(now_us),
                htap.config.freshness_sla_us, htap.config.merge_interval_us,
                htap.set_interval,
                "htap", "freshness lag", "merge", "htap.freshness")
        geo = getattr(self.cluster, "geo", None)
        if geo is not None and geo.config.mode.value == "geogauss":
            # Step the epoch interval against the geo commit-latency SLA: a
            # longer epoch amortizes the WAN better but every commit waits
            # longer for its seal.
            p95 = geo.commit_latency_p95()
            interval = geo.epoch_interval_us
            if p95 is not None:
                report.geo_p95_commit_us = p95
                self.info.record("geo.p95_commit_us", now_us, p95)
                report.geo_epoch_interval_us = self._step_interval(
                    now_us, p95, geo.config.commit_latency_sla_us, interval,
                    geo.set_epoch_interval,
                    "geo", "p95 commit", "epoch", "geo.commit_sla")
            else:
                report.geo_epoch_interval_us = interval
        rebalance = getattr(self.cluster, "rebalance", None)
        shard_map = getattr(self.cluster.catalog, "shard_map", None)
        if shard_map is not None:
            report.shard_skew = shard_map.skew()
            if (rebalance is not None
                    and report.shard_skew > self.REBALANCE_SKEW_THRESHOLD
                    and not shard_map.has_moves()):
                # Self-healing placement: a skewed slot assignment (fresh
                # DN, lopsided removal drain) is flattened online.
                report.rebalance_slots_moved = rebalance.rebalance()
                if report.rebalance_slots_moved:
                    self._healing_log.append(
                        f"rebalance {report.rebalance_slots_moved} slots "
                        f"(skew {report.shard_skew:.2f})")
                    if self.alerts is not None:
                        self.alerts.raise_alert(
                            source="autonomous", severity="info",
                            message=(f"shard skew {report.shard_skew:.2f} "
                                     "exceeded threshold; rebalanced "
                                     f"{report.rebalance_slots_moved} slots"),
                            t_us=now_us, key="autonomous.rebalance")
        report.healing_actions = list(self._healing_log)
        if self.tuner is not None:
            metric = self.info.latest("commits_delta")
            if metric is not None:
                self.tuner.observe(self.changes.knobs(), metric)
            proposal = self.tuner.propose()
            if proposal is not None:
                for name, value in proposal.knobs.items():
                    self.changes.set(name, value, now_us,
                                     reason="knob tuner proposal")
                report.tuning = proposal
        return report

    def _step_interval(self, now_us: float, signal: float, sla: float,
                       interval: float, set_interval, source: str,
                       signal_name: str, lever: str, key: str) -> float:
        """One step of the interval AIMD law: halve ``interval`` (log it and
        alert) while ``signal`` breaches ``sla``, relax it 1.25x otherwise.
        Returns what ``set_interval`` settled on."""
        if signal > sla:
            settled = set_interval(interval / 2)
            self._healing_log.append(f"tighten {source} {lever} interval")
            if self.alerts is not None:
                self.alerts.raise_alert(
                    source=source, severity="warning",
                    message=(f"{source} {signal_name} {signal:.0f}us "
                             f"exceeds sla {sla:.0f}us"),
                    t_us=now_us, key=key)
            return settled
        return set_interval(interval * 1.25)

    # -- self-healing ----------------------------------------------------------------

    def _heal(self, anomaly: Anomaly) -> None:
        action = anomaly.suggested_action
        if action is None:
            return
        self._healing_log.append(action)
        if action.startswith("failover "):
            node_id = action.split(" ", 1)[1]
            self.changes.node_removed(node_id, anomaly.t_us,
                                      reason=anomaly.message)
            if self.ha is not None:
                for index, dn in enumerate(self.cluster.dns):
                    if dn.node_id == node_id:
                        self.ha.fail_and_promote(index)
                        self.changes.node_added(node_id, anomaly.t_us)
                        break
        elif action == "reduce buffer_pool_mb":
            current = self.changes.get("buffer_pool_mb")
            self.changes.set("buffer_pool_mb", max(64.0, current / 2),
                             anomaly.t_us, reason=anomaly.message)
