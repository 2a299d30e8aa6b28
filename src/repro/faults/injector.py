"""Deterministic, seed-driven fault injection.

Fault-Tolerant Partial Replication (Sutra & Shapiro) and GeoGauss (PAPERS.md)
both validate replicated commit protocols primarily by *injecting* partial
failures; this module is that harness for the reproduction.  The paper's HA
claim ("high availability through smart replication", Sec. I) and GTM-lite's
correctness argument (Sec. II-A) are really claims about what survives a
crash inside the 2PC window — so the failpoints below sit exactly on that
window's edges.

A :class:`FaultInjector` holds *rules* armed against named *failpoints*.
Crash-relevant hot paths call :meth:`FaultInjector.fire` with a context
(``dn=…, gxid=…``); when an armed rule matches, the injector records the
fault, raises a deduplicated alert, and applies the rule's action:

* ``timeout``            — raise :class:`InjectedTimeout`; the caller's retry
  loop treats it as an RPC that never returned (also models a lost GTM
  commit-log write when armed at ``FP_GTM_COMMIT``).
* ``crash_dn``           — mark the data node crashed (every later RPC to it
  times out until failover replaces it) and raise :class:`InjectedTimeout`.
* ``crash_coordinator``  — raise :class:`CoordinatorCrash`; the driver must
  abandon the :class:`~repro.cluster.txn.CommitSteps` object mid-sequence,
  leaving exactly the in-doubt state ``recovery.resolve_in_doubt`` exists for.
* ``drop``               — the message is silently lost: the caller skips the
  delivery but proceeds as if it succeeded (dropped commit confirmations are
  the paper's Anomaly-1 window held open until recovery).
* ``partition``          — cut the DN↔standby replication link through
  :class:`repro.net.fabric.Fabric` (``HaManager.partition_standby``).
* ``delay``              — add ``delay_us`` of simulated latency at the site.

Injection is deterministic: rule matching consumes a ``random.Random(seed)``
only for probabilistic rules, so a seed fully determines a fault schedule.
An injector with no armed rules is telemetry-inert — a bound-but-disarmed
injector produces byte-identical telemetry to no injector at all (asserted
by ``benchmarks/bench_fault_overhead.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError, ReproError

# -- failpoint vocabulary -----------------------------------------------------

#: DN crash / RPC loss *before* the prepare record is durable.
FP_PREPARE_BEFORE = "2pc.prepare.before"
#: DN crash *after* prepare is durable (and staged on the standby) but
#: before the ack reaches the coordinator.
FP_PREPARE_AFTER = "2pc.prepare.after"
#: Coordinator death between ``prepare_all`` and ``commit_at_gtm``.
FP_COORD_AFTER_PREPARE = "coord.after_prepare"
#: GTM commit-log write loss / GTM request timeout.
FP_GTM_COMMIT = "gtm.commit"
#: Coordinator death between ``commit_at_gtm`` and the first confirmation —
#: the paper's Anomaly-1 window (Fig. 2), held open permanently.
FP_COORD_AFTER_GTM_COMMIT = "coord.after_gtm_commit"
#: Commit confirmation lost, delayed, or addressed to a crashed node.
FP_CONFIRM_BEFORE = "2pc.confirm.before"
#: DN crash after the local commit record, before the ack.
FP_CONFIRM_AFTER = "2pc.confirm.after"
#: Coordinator death after confirming some but not all participants.
FP_COORD_BETWEEN_CONFIRMS = "coord.between_confirms"
#: DN→standby shipping of a committed transaction's redo.
FP_REPLICATE = "ha.replicate"
#: DN→standby staging of a prepared transaction's redo.
FP_PREPARE_SHIP = "ha.prepare_ship"
#: Workload-manager admission, before a slot or ticket exists — a crash
#: here must leak nothing (mirrors repro.wlm.governor.FP_WLM_ADMIT).
FP_WLM_ADMIT = "wlm.admit"
#: Operator spill to disk mid-query (mirrors governor.FP_WLM_SPILL); a
#: crash here unwinds through the engine's cancellation cleanup path.
FP_WLM_SPILL = "wlm.spill"
#: One table's HTAP delta merge, after the cutoff is chosen but before the
#: new frozen chunk set is published — a crash here must lose nothing.
FP_HTAP_MERGE = "htap.merge"
#: The HTAP merge daemon's per-node tick; a timeout here stalls merges on
#: that node, letting tests bound freshness-lag behavior under daemon loss.
FP_HTAP_FRESHNESS = "htap.freshness"
#: One table's slot snapshot-copy during an online rebalance, fired before
#: the copied rows commit on the move target — a coordinator crash here
#: leaves a partial (scan-excluded) copy that recovery must roll back.
FP_REBALANCE_COPY = "rebalance.copy"
#: The atomic slot-owner flip at the end of a move's catch-up window — a
#: coordinator crash just before it leaves the double-write window open,
#: and recovery must roll the move forward (copy is already complete).
FP_REBALANCE_FLIP = "rebalance.flip"
#: One epoch batch leaving a region for one peer (fired per (dst, epoch)).
#: A timeout/drop defers the delivery to the durable resend queue; a
#: coordinator crash takes down the *sending* region's epoch coordinator.
FP_GEO_SHIP = "geo.ship"
#: A region about to certify an epoch it holds all batches for; a timeout
#: retries the certification on a later step (the decision is pure, so a
#: delayed certification still reaches the identical verdict).
FP_GEO_CERTIFY = "geo.certify"
#: A region about to apply a certified epoch's hosted writes.
FP_GEO_APPLY = "geo.apply"

ALL_FAILPOINTS = (
    FP_PREPARE_BEFORE, FP_PREPARE_AFTER, FP_COORD_AFTER_PREPARE,
    FP_GTM_COMMIT, FP_COORD_AFTER_GTM_COMMIT,
    FP_CONFIRM_BEFORE, FP_CONFIRM_AFTER, FP_COORD_BETWEEN_CONFIRMS,
    FP_REPLICATE, FP_PREPARE_SHIP,
    FP_WLM_ADMIT, FP_WLM_SPILL,
    FP_HTAP_MERGE, FP_HTAP_FRESHNESS,
    FP_REBALANCE_COPY, FP_REBALANCE_FLIP,
    FP_GEO_SHIP, FP_GEO_CERTIFY, FP_GEO_APPLY,
)

# -- actions ------------------------------------------------------------------

ACT_TIMEOUT = "timeout"
ACT_CRASH_DN = "crash_dn"
ACT_CRASH_COORDINATOR = "crash_coordinator"
ACT_DROP = "drop"
ACT_PARTITION = "partition"
ACT_DELAY = "delay"

ALL_ACTIONS = (ACT_TIMEOUT, ACT_CRASH_DN, ACT_CRASH_COORDINATOR,
               ACT_DROP, ACT_PARTITION, ACT_DELAY)

#: Actions that take a node down (alert severity ``critical``).
_CRASH_ACTIONS = (ACT_CRASH_DN, ACT_CRASH_COORDINATOR)


class FaultError(ReproError):
    """Base class for injected-failure signals."""


class InjectedTimeout(FaultError):
    """An RPC that never returned (lost request, lost reply, or dead peer)."""

    def __init__(self, message: str, dn_index: Optional[int] = None):
        super().__init__(message)
        self.dn_index = dn_index


class CoordinatorCrash(FaultError):
    """The coordinator died mid-sequence.

    Whoever drives the commit must *abandon* the transaction — no abort, no
    cleanup — exactly as a real CN process death would.  Recovery
    (:func:`repro.cluster.recovery.resolve_in_doubt`) later resolves whatever
    was left prepared.
    """


@dataclass
class FaultRule:
    """One armed fault: where, what, how often."""

    failpoint: str
    action: str
    times: int = 1                 # firings remaining; -1 = unlimited
    probability: float = 1.0       # gated by the injector's seeded RNG
    match: Optional[Dict[str, object]] = None   # context filter, e.g. {"dn": 1}
    delay_us: float = 0.0          # extra latency for ACT_DELAY

    def matches(self, failpoint: str, ctx: Dict[str, object]) -> bool:
        if self.failpoint != failpoint or self.times == 0:
            return False
        if self.match:
            for key, value in self.match.items():
                if ctx.get(key) != value:
                    return False
        return True


@dataclass(frozen=True)
class InjectedFault:
    """One fault that actually fired (a ``sys.faults`` row)."""

    fault_id: int
    failpoint: str
    action: str
    target: str
    gxid: Optional[int]
    t_us: float

    def as_row(self) -> Tuple[int, str, str, str, Optional[int], float]:
        return (self.fault_id, self.failpoint, self.action, self.target,
                self.gxid, self.t_us)


@dataclass
class FireOutcome:
    """Non-exceptional directives a failpoint site must honor."""

    dropped: bool = False
    delay_us: float = 0.0


_NO_OUTCOME = FireOutcome()


class FaultInjector:
    """Seed-driven rule engine threaded through the crash-relevant paths."""

    def __init__(self, seed: int = 0, enabled: bool = True):
        self.seed = seed
        self.rng = random.Random(seed)
        self.enabled = enabled
        self.rules: List[FaultRule] = []
        self.history: List[InjectedFault] = []
        self.cluster = None
        self._next_id = 1

    # -- wiring ------------------------------------------------------------

    def bind(self, cluster) -> "FaultInjector":
        """Attach to a cluster: hot paths consult ``cluster.faults``."""
        self.cluster = cluster
        cluster.faults = self
        obs = getattr(cluster, "obs", None)
        if obs is not None:
            obs.bind_faults(self)
        return self

    # -- arming ------------------------------------------------------------

    def arm(self, failpoint: str, action: str, times: int = 1,
            probability: float = 1.0, match: Optional[Dict[str, object]] = None,
            delay_us: float = 0.0) -> FaultRule:
        if failpoint not in ALL_FAILPOINTS:
            raise ConfigError(f"unknown failpoint {failpoint!r}")
        if action not in ALL_ACTIONS:
            raise ConfigError(f"unknown fault action {action!r}")
        rule = FaultRule(failpoint, action, times=times,
                         probability=probability, match=match,
                         delay_us=delay_us)
        self.rules.append(rule)
        return rule

    def disarm(self, rule: FaultRule) -> None:
        if rule in self.rules:
            self.rules.remove(rule)

    def disarm_all(self) -> None:
        self.rules.clear()

    # -- firing ------------------------------------------------------------

    def fire(self, failpoint: str, **ctx) -> FireOutcome:
        """Evaluate armed rules at a failpoint; apply the first that matches.

        Raises :class:`InjectedTimeout` / :class:`CoordinatorCrash` for the
        exceptional actions; returns directives (drop, delay) otherwise.
        """
        if not self.enabled or not self.rules:
            return _NO_OUTCOME
        outcome = FireOutcome()
        for rule in self.rules:
            if not rule.matches(failpoint, ctx):
                continue
            if rule.probability < 1.0 and self.rng.random() >= rule.probability:
                continue
            if rule.times > 0:
                rule.times -= 1
            fault = self._record(rule, failpoint, ctx)
            if rule.action == ACT_TIMEOUT:
                raise InjectedTimeout(
                    f"injected timeout at {failpoint} ({fault.target})",
                    dn_index=ctx.get("dn"))
            if rule.action == ACT_CRASH_DN:
                dn_index = ctx.get("dn")
                if dn_index is not None:
                    self.crash_dn(dn_index)
                raise InjectedTimeout(
                    f"injected crash of {fault.target} at {failpoint}",
                    dn_index=dn_index)
            if rule.action == ACT_CRASH_COORDINATOR:
                raise CoordinatorCrash(
                    f"injected coordinator crash at {failpoint}"
                    + (f" (gxid {ctx['gxid']})" if "gxid" in ctx else ""))
            if rule.action == ACT_DROP:
                outcome.dropped = True
            elif rule.action == ACT_PARTITION:
                self._partition(ctx.get("dn"))
            elif rule.action == ACT_DELAY:
                outcome.delay_us += rule.delay_us
        return outcome

    # -- node-level faults ---------------------------------------------------

    def crash_dn(self, dn_index: int) -> None:
        """Kill a data node: every later RPC to it times out until failover."""
        cluster = self._require_cluster()
        cluster.dns[dn_index].crashed = True

    def _partition(self, dn_index: Optional[int]) -> None:
        cluster = self._require_cluster()
        ha = getattr(cluster, "ha", None)
        if ha is None:
            raise ConfigError("partition action requires an HaManager")
        if dn_index is None:
            raise ConfigError("partition action requires a dn in the context")
        ha.partition_standby(dn_index)

    def _require_cluster(self):
        if self.cluster is None:
            raise ConfigError("fault action requires bind(cluster) first")
        return self.cluster

    # -- recording ----------------------------------------------------------

    def _record(self, rule: FaultRule, failpoint: str,
                ctx: Dict[str, object]) -> InjectedFault:
        if "dn" in ctx and ctx["dn"] is not None:
            target = f"dn{ctx['dn']}"
        elif "region" in ctx and ctx["region"] is not None:
            target = f"r{ctx['region']}"
        elif failpoint.startswith("gtm."):
            target = "gtm"
        else:
            target = "coordinator"
        obs = getattr(self.cluster, "obs", None) if self.cluster else None
        t_us = obs.clock.now_us if obs is not None else 0.0
        fault = InjectedFault(
            fault_id=self._next_id,
            failpoint=failpoint,
            action=rule.action,
            target=target,
            gxid=ctx.get("gxid"),
            t_us=t_us,
        )
        self._next_id += 1
        self.history.append(fault)
        if obs is not None:
            obs.metrics.counter("faults.injected").inc()
            obs.metrics.counter(f"faults.action.{rule.action}").inc()
            severity = "critical" if rule.action in _CRASH_ACTIONS else "warning"
            obs.alerts.from_fault(failpoint, rule.action, target, t_us,
                                  severity=severity)
        return fault

    # -- reading -------------------------------------------------------------

    def rows(self) -> List[Tuple[int, str, str, str, Optional[int], float]]:
        """``sys.faults`` rows: (fault_id, failpoint, action, target, gxid, t_us)."""
        return [fault.as_row() for fault in self.history]

    @property
    def injected_count(self) -> int:
        return len(self.history)

    def reset_history(self) -> None:
        """Forget past injections (telemetry reset); armed rules survive."""
        self.history.clear()
        self._next_id = 1
