"""Randomized fault-schedule generation and post-chaos recovery.

The chaos property suite (``tests/property/test_chaos_2pc.py``) feeds a
seeded :class:`random.Random` and a :class:`ChaosMenu` to
:func:`arm_random_faults` to draw a fault schedule — which failpoints
fire, with what action, against which node — then runs a workload, then
calls :func:`recover_cluster` and asserts the three invariants: no
GTM-committed write lost, no residual PREPARED state, and no snapshot ever
observing a partially-committed global transaction.  The resharding, HTAP
and geo suites draw from their own menus the same way.

All ``repro.cluster`` imports are deferred into function bodies:
``cluster.txn`` imports :mod:`repro.faults.injector`, so importing cluster
modules at the top here would complete a cycle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.faults.injector import (
    ACT_CRASH_COORDINATOR,
    ACT_CRASH_DN,
    ACT_DELAY,
    ACT_DROP,
    ACT_PARTITION,
    ACT_TIMEOUT,
    FP_CONFIRM_AFTER,
    FP_CONFIRM_BEFORE,
    FP_COORD_AFTER_GTM_COMMIT,
    FP_COORD_AFTER_PREPARE,
    FP_COORD_BETWEEN_CONFIRMS,
    FP_GEO_APPLY,
    FP_GEO_CERTIFY,
    FP_GEO_SHIP,
    FP_GTM_COMMIT,
    FP_HTAP_FRESHNESS,
    FP_HTAP_MERGE,
    FP_PREPARE_AFTER,
    FP_PREPARE_BEFORE,
    FP_REBALANCE_COPY,
    FP_REBALANCE_FLIP,
    FP_REPLICATE,
    FaultInjector,
    FaultRule,
)


@dataclass(frozen=True)
class ChaosMenu:
    """What a fault-schedule draw picks from.

    ``rules`` are ``(failpoint, action, scoped?)`` entries; a scoped rule
    is pinned to one random ``scope_key`` value (a DN index, a region) so
    a crash takes out a specific participant rather than whichever fires
    first.  An action in ``times_actions`` fires ``times`` drawn from
    ``times_bag`` (a skewed bag, so some schedules exhaust a retry budget
    while most recover within it); every other action fires once.  A
    ``delay`` rule's extra latency is drawn from ``delay_bag``.
    """

    rules: Tuple[Tuple[str, str, bool], ...]
    times_bag: Tuple[int, ...]
    times_actions: Tuple[str, ...]
    delay_bag: Tuple[float, ...] = ()
    scope_key: str = "dn"


# The 2PC menu (``tests/property/test_chaos_2pc.py``).
FAULT_MENU = ChaosMenu(
    rules=(
        (FP_PREPARE_BEFORE, ACT_CRASH_DN, True),
        (FP_PREPARE_AFTER, ACT_CRASH_DN, True),
        (FP_PREPARE_BEFORE, ACT_TIMEOUT, True),
        (FP_CONFIRM_BEFORE, ACT_CRASH_DN, True),
        (FP_CONFIRM_AFTER, ACT_CRASH_DN, True),
        (FP_CONFIRM_BEFORE, ACT_TIMEOUT, True),
        (FP_CONFIRM_BEFORE, ACT_DROP, True),
        (FP_COORD_AFTER_PREPARE, ACT_CRASH_COORDINATOR, False),
        (FP_COORD_AFTER_GTM_COMMIT, ACT_CRASH_COORDINATOR, False),
        (FP_COORD_BETWEEN_CONFIRMS, ACT_CRASH_COORDINATOR, False),
        (FP_GTM_COMMIT, ACT_TIMEOUT, False),
        (FP_REPLICATE, ACT_PARTITION, True),
    ),
    times_bag=(1, 1, 2, 5),
    times_actions=(ACT_TIMEOUT,),
)

# The resharding menu (``tests/property/test_chaos_rebalance.py``): faults
# against the rebalance coordinator's copy and flip steps, plus 2PC faults
# that land inside the double-write window.  A coordinator killed mid-move
# must leave an unambiguous slot owner and — after ``recover_cluster`` plus
# ``RebalanceCoordinator.recover`` — neither lose nor duplicate a row.
REBALANCE_FAULT_MENU = ChaosMenu(
    rules=(
        (FP_REBALANCE_COPY, ACT_CRASH_COORDINATOR, False),
        (FP_REBALANCE_COPY, ACT_TIMEOUT, False),
        (FP_REBALANCE_COPY, ACT_DROP, False),
        (FP_REBALANCE_FLIP, ACT_CRASH_COORDINATOR, False),
        (FP_REBALANCE_FLIP, ACT_TIMEOUT, False),
        (FP_PREPARE_BEFORE, ACT_CRASH_DN, True),
        (FP_CONFIRM_BEFORE, ACT_TIMEOUT, True),
        (FP_COORD_AFTER_PREPARE, ACT_CRASH_COORDINATOR, False),
    ),
    times_bag=(1, 1, 2),
    times_actions=(ACT_TIMEOUT, ACT_DROP),
)

# The HTAP menu (``tests/property/test_chaos_htap.py``): faults against the
# delta-merge daemon.  A crash mid-merge must lose no rows and leave no
# stuck watermark; stalls and drops only delay column freshness.
HTAP_FAULT_MENU = ChaosMenu(
    rules=(
        (FP_HTAP_MERGE, ACT_CRASH_DN, True),
        (FP_HTAP_MERGE, ACT_TIMEOUT, True),
        (FP_HTAP_MERGE, ACT_DROP, True),
        (FP_HTAP_MERGE, ACT_DELAY, True),
        (FP_HTAP_FRESHNESS, ACT_TIMEOUT, True),
        (FP_HTAP_FRESHNESS, ACT_DROP, True),
    ),
    times_bag=(1, 1, 2, 5),
    times_actions=(ACT_TIMEOUT, ACT_DROP),
    delay_bag=(500.0, 2_000.0, 10_000.0),
)

# The geo menu (``tests/property/test_chaos_geo.py``): faults against the
# epoch pipeline — batches lost or delayed on the WAN, certification
# stalls, and whole-region epoch-coordinator crashes.  Whatever the
# schedule, every region that certifies an epoch must produce the same
# digest, and no transaction acknowledged committed may lose its writes.
# Every geo failpoint carries a ``region`` context key, so every rule is
# region-scoped.
GEO_FAULT_MENU = ChaosMenu(
    rules=(
        (FP_GEO_SHIP, ACT_TIMEOUT, True),
        (FP_GEO_SHIP, ACT_DROP, True),
        (FP_GEO_SHIP, ACT_DELAY, True),
        (FP_GEO_SHIP, ACT_CRASH_COORDINATOR, True),
        (FP_GEO_CERTIFY, ACT_TIMEOUT, True),
        (FP_GEO_CERTIFY, ACT_DELAY, True),
        (FP_GEO_APPLY, ACT_TIMEOUT, True),
        (FP_GEO_APPLY, ACT_DELAY, True),
    ),
    times_bag=(1, 1, 2, 5),
    times_actions=(ACT_TIMEOUT, ACT_DROP),
    delay_bag=(1_000.0, 15_000.0, 60_000.0),
    scope_key="region",
)


def arm_random_faults(injector: FaultInjector, rng: random.Random,
                      menu: ChaosMenu, scope_size: int,
                      max_faults: int = 2) -> List[FaultRule]:
    """Arm 1..max_faults rules drawn from ``menu``; a scoped rule pins to
    one of ``scope_size`` DNs or regions."""
    rules = []
    for _ in range(rng.randint(1, max_faults)):
        failpoint, action, scoped = rng.choice(menu.rules)
        match = ({menu.scope_key: rng.randrange(scope_size)} if scoped
                 else None)
        times = rng.choice(menu.times_bag) if action in menu.times_actions \
            else 1
        delay_us = rng.choice(menu.delay_bag) if action == ACT_DELAY else 0.0
        rules.append(injector.arm(failpoint, action, times=times, match=match,
                                  delay_us=delay_us))
    return rules


def recover_geo(geo) -> None:
    """Post-chaos sweep for a :class:`repro.geo.GeoCluster`: disarm, heal
    every WAN cut, revive crashed regions, and drain the epoch pipeline to
    its fixpoint."""
    geo.recover_all()


def recover_cluster(cluster) -> None:
    """Bring a post-chaos cluster back to a clean, fully-resolved state.

    Heals every standby partition (draining lag queues), fails over every
    crashed node, resolves all remaining in-doubt transactions, and rolls
    any interrupted rebalance move forward or back
    (:meth:`repro.cluster.rebalance.RebalanceCoordinator.recover`).  After
    this returns, ``recovery.in_doubt_count(cluster) == 0`` must hold and
    every shard-map slot has exactly one settled owner.

    Retired nodes are skipped throughout: they own no slots, ship no redo,
    and :meth:`MppCluster.declare_node_dead` refuses them by design.
    """
    from repro.cluster.recovery import resolve_in_doubt

    faults = getattr(cluster, "faults", None)
    if faults is not None:
        faults.disarm_all()      # recovery itself runs fault-free
    active = list(getattr(cluster, "dn_indices", lambda: range(cluster.num_dns))())
    ha = getattr(cluster, "ha", None)
    if ha is not None:
        for i in active:
            if ha.standby_partitioned(i):
                ha.heal_standby(i)
    for i in active:
        if getattr(cluster.dns[i], "crashed", False):
            cluster.declare_node_dead(i, reason="post-chaos sweep")
    resolve_in_doubt(cluster)
    rebalance = getattr(cluster, "rebalance", None)
    if rebalance is not None:
        rebalance.recover()
