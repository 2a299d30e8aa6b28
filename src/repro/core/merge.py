"""Algorithm 1 — MergeSnapshot.

A multi-shard reader under GTM-lite holds a *global* snapshot (taken at the
GTM when it began) and, on each data node it visits, a *local* snapshot
(taken when it first arrives there).  The two were taken at different times,
so their views can conflict; the paper identifies two anomalies and resolves
them by merging the snapshots:

* **Anomaly 1** — the global snapshot says a writer committed, but locally it
  is still PREPARED (the commit confirmation has not reached this node yet).
  Resolution: **UPGRADE** — wait for the local commit and treat the writer as
  committed.  Safe because a prepared transaction whose GXID committed at the
  GTM can no longer abort.
* **Anomaly 2** — the global snapshot says a writer T1 is active, but locally
  T1 (and possibly a later T3 that overwrote T1's data) already committed.
  Resolution: **DOWNGRADE** — re-hide T1 *and every later local commit that
  data-depends on it*, by walking the local commit order (LCO) and tainting
  write sets transitively.

The output is a :class:`~repro.txn.snapshot.MergedSnapshot` in the node's
local XID space, used as the visibility criterion for every tuple access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

from repro.core.gtm import GlobalTransactionManager
from repro.obs.waits import WAIT_MERGE_UPGRADE
from repro.txn.manager import LocalTransactionManager
from repro.txn.snapshot import MergedSnapshot, Snapshot
from repro.txn.writeset import WriteSet


@dataclass
class MergeOutcome:
    """A merged snapshot plus what the merge had to do to build it."""

    snapshot: MergedSnapshot
    downgraded: Set[int] = field(default_factory=set)
    upgraded: Set[int] = field(default_factory=set)
    # UPGRADE means "pause and wait for local commit"; the cluster charges a
    # wait per upgraded transaction.  DOWNGRADE is a pure snapshot edit.
    upgrade_waits: int = 0


def merge_snapshots(
    global_snapshot: Snapshot,
    local_snapshot: Snapshot,
    ltm: LocalTransactionManager,
    gtm: GlobalTransactionManager,
    enable_downgrade: bool = True,
    enable_upgrade: bool = True,
    obs=None,
    parent_span=None,
    session=None,
    wait_us_per_upgrade: float = 0.0,
) -> MergeOutcome:
    """Run Algorithm 1 for one reader on one data node.

    ``enable_downgrade`` / ``enable_upgrade`` exist for the ablation
    benchmark: switching either off reproduces the corresponding anomaly.
    When an :class:`repro.obs.Observability` is supplied the merge emits a
    ``snapshot.merge`` span (child of ``parent_span``, normally the
    transaction's span) carrying the upgrade/downgrade counts, and — if any
    UPGRADE paused the reader — records a ``gtm.merge_upgrade`` wait event
    of ``wait_us_per_upgrade`` per upgraded writer, attributed to
    ``session``.
    """
    if obs is not None:
        span = obs.tracer.start_span("snapshot.merge", parent=parent_span,
                                     node=ltm.node_id)
        try:
            outcome = _merge(global_snapshot, local_snapshot, ltm, gtm,
                             enable_downgrade, enable_upgrade)
        except Exception:
            span.set_attribute("error", True)
            obs.tracer.end_span(span)
            raise
        span.set_attribute("downgraded", len(outcome.downgraded))
        span.set_attribute("upgraded", len(outcome.upgraded))
        span.set_attribute("upgrade_waits", outcome.upgrade_waits)
        obs.tracer.end_span(span)
        waits = getattr(obs, "waits", None)
        if waits is not None and outcome.upgrade_waits and wait_us_per_upgrade > 0.0:
            waits.record(WAIT_MERGE_UPGRADE,
                         wait_us_per_upgrade * outcome.upgrade_waits,
                         session=session)
        return outcome
    return _merge(global_snapshot, local_snapshot, ltm, gtm,
                  enable_downgrade, enable_upgrade)


def _merge(
    global_snapshot: Snapshot,
    local_snapshot: Snapshot,
    ltm: LocalTransactionManager,
    gtm: GlobalTransactionManager,
    enable_downgrade: bool,
    enable_upgrade: bool,
) -> MergeOutcome:
    forced_active: Set[int] = set()
    forced_committed: Set[int] = set()
    upgrade_waits = 0

    # Lines 1-2: globally active transactions that have a local identity are
    # candidates to re-hide.  (Locally *running* ones are already hidden by
    # the local snapshot; locally *committed* ones are found via the LCO.)
    #
    # Line 5 (downgradeTX): traverse the LCO in commit order.  A committed
    # entry is re-hidden if its global transaction was still active (or
    # unknown/future) in the global snapshot, or if it wrote data last
    # written by an already-re-hidden transaction.  Until the first entry
    # is re-hidden nothing is tainted, so no write set can depend on one.
    if enable_downgrade:
        tainted = WriteSet()
        hiding = False
        for entry in ltm.lco:
            globally_invisible = (
                entry.gxid is not None
                and global_snapshot.sees_as_running(entry.gxid)
            )
            depends_on_hidden = (hiding
                                 and entry.write_set.intersects(tainted))
            if globally_invisible or depends_on_hidden:
                forced_active.add(entry.local_xid)
                tainted.merge(entry.write_set)
                hiding = True

    # Line 6 (upgradeTX): locally active-but-prepared transactions whose
    # GXID already committed at the GTM must become visible.  The reader
    # "waits for commit" — modeled by counting a wait and forcing the local
    # xid committed in the merged snapshot.
    if enable_upgrade:
        for local_xid in ltm.prepared_xids():
            gxid = ltm.gxid_for(local_xid)
            if gxid is None:
                continue
            if not global_snapshot.sees_as_running(gxid) and gtm.is_committed(gxid):
                forced_committed.add(local_xid)
                upgrade_waits += 1

    # Line 7: adjust merged xmin/xmax.  Downgraded xids must stay considered
    # "running", so the merged xmin cannot advance past them.
    merged_xmin = local_snapshot.xmin
    if forced_active:
        merged_xmin = min(merged_xmin, min(forced_active))

    merged = MergedSnapshot(
        xmin=merged_xmin,
        xmax=local_snapshot.xmax,
        active=local_snapshot.active,
        forced_active=frozenset(forced_active),
        forced_committed=frozenset(forced_committed),
    )
    return MergeOutcome(
        snapshot=merged,
        downgraded=forced_active,
        upgraded=forced_committed,
        upgrade_waits=upgrade_waits,
    )


def naive_merge(local_snapshot: Snapshot) -> MergeOutcome:
    """The broken strawman: just use the local snapshot.

    This is what a reader would do without Algorithm 1; it exhibits both
    anomalies and exists so tests and the ablation bench can demonstrate
    them.
    """
    merged = MergedSnapshot(
        xmin=local_snapshot.xmin,
        xmax=local_snapshot.xmax,
        active=local_snapshot.active,
    )
    return MergeOutcome(snapshot=merged)
