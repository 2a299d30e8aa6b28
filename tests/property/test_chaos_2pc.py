"""Chaos property suite: seeded fault schedules against GTM-lite 2PC.

Each seed draws a random fault schedule (`repro.faults.chaos.FAULT_MENU`),
runs a small update workload through it, recovers the cluster, and asserts
the three crash-safety invariants:

1. **No GTM-committed write is ever lost** — once `gtm.is_committed(gxid)`
   holds, the transaction's writes survive node crashes, coordinator death,
   failover and recovery.
2. **No residual PREPARED state after recovery** — `in_doubt_count == 0`
   once `recover_cluster` returns.
3. **No snapshot ever observes a partially-committed global transaction** —
   the final state exactly equals the oracle built from the per-transaction
   commit decisions, so a half-applied multi-shard write would show up as a
   divergence.

The seed range is environment-tunable so CI can shard the search space:
``CHAOS_SEED_BASE`` (default 0) and ``CHAOS_SEED_COUNT`` (default 50).
"""

import os
import random

import pytest

from repro.cluster import MppCluster, TxnMode, in_doubt_count
from repro.cluster.ha import HaManager
from repro.common.errors import TransactionError
from repro.faults import CoordinatorCrash, FaultInjector
from repro.faults.chaos import FAULT_MENU, arm_random_faults, recover_cluster
from repro.storage import Column, DataType, TableSchema

NUM_DNS = 3
KEYS = list(range(8))
ROUNDS = 3
TXNS_PER_ROUND = 6

SEED_BASE = int(os.environ.get("CHAOS_SEED_BASE", "0"))
SEED_COUNT = int(os.environ.get("CHAOS_SEED_COUNT", "50"))


def build(seed):
    cluster = MppCluster(num_dns=NUM_DNS, mode=TxnMode.GTM_LITE)
    cluster.create_table(TableSchema(
        "t", [Column("k", DataType.INT), Column("v", DataType.INT)], "k"))
    HaManager(cluster)
    injector = FaultInjector(seed=seed).bind(cluster)
    session = cluster.session()
    init = session.begin(multi_shard=True)
    for k in KEYS:
        init.insert("t", {"k": k, "v": 0})
    init.commit()
    return cluster, injector, session


def chaos_round(cluster, injector, session, rng, expected, marker):
    """One round: arm a random schedule, push transactions through it.

    Returns the next unused marker value.  ``expected`` is the oracle,
    updated only when the GTM recorded (or a local node acknowledged) the
    commit — exactly the writes the cluster has promised to keep.
    """
    arm_random_faults(injector, rng, FAULT_MENU, NUM_DNS)
    for t in range(TXNS_PER_ROUND):
        marker += 1
        if t % 3 == 2:
            # A single-shard transaction: exercises the local-commit
            # replication path (and its partition/lag faults).
            k = rng.choice(KEYS)
            txn = session.begin()
            try:
                txn.update("t", k, {"v": marker})
                txn.commit()
                expected[k] = marker
            except TransactionError:
                txn.abort()
            continue
        keys = rng.sample(KEYS, 2)
        txn = session.begin(multi_shard=True)
        try:
            for k in keys:
                txn.update("t", k, {"v": marker})
            txn.commit()
        except CoordinatorCrash:
            # The coordinator died mid-commit; whatever it left behind is
            # recovery's problem.  The GTM commit log still decides below.
            pass
        except TransactionError:
            txn.abort()
        if cluster.gtm.is_committed(txn.gxid):
            # Invariant 1's oracle: GTM-committed means durable, even when
            # commit() raised (crash after the decision → rolled forward).
            for k in keys:
                expected[k] = marker
    return marker


def final_state(cluster, session):
    reader = session.begin(multi_shard=True)
    state = {k: reader.read("t", k)["v"] for k in KEYS}
    reader.commit()
    return state


@pytest.mark.parametrize("seed", range(SEED_BASE, SEED_BASE + SEED_COUNT))
def test_chaos_schedule_preserves_invariants(seed):
    cluster, injector, session = build(seed)
    rng = random.Random(seed ^ 0x5EED)
    expected = {k: 0 for k in KEYS}
    marker = 0
    for _ in range(ROUNDS):
        marker = chaos_round(cluster, injector, session, rng, expected, marker)
        recover_cluster(cluster)
        # Invariant 2: recovery leaves nothing in doubt.
        assert in_doubt_count(cluster) == 0
    # Invariants 1 and 3: the surviving state is exactly the oracle — no
    # acknowledged write lost, no partially-applied multi-shard write.
    assert final_state(cluster, session) == expected
    # Telemetry contract: one deduplicated failure alert per fault site.
    sites = {(f.failpoint, f.target) for f in injector.history}
    fault_alerts = [a for a in cluster.obs.alerts.alerts()
                    if a.source == "faults"]
    for failpoint, target in sites:
        assert any(f"at {failpoint} on {target}" in a.message
                   for a in fault_alerts), (failpoint, target)
    assert len(fault_alerts) <= len(injector.history)
    assert sum(a.count for a in fault_alerts) == len(injector.history)


@pytest.mark.parametrize("failpoint,action,node_scoped", FAULT_MENU.rules)
def test_every_menu_entry_survives_deterministically(failpoint, action,
                                                     node_scoped):
    """Each (failpoint, action) pair, alone, preserves the invariants."""
    cluster, injector, session = build(seed=99)
    match = {"dn": 0} if node_scoped else None
    injector.arm(failpoint, action, times=1, match=match)
    expected = {k: 0 for k in KEYS}
    for marker, keys in enumerate([(0, 1), (2, 3), (4, 5)], start=1):
        txn = session.begin(multi_shard=True)
        try:
            for k in keys:
                txn.update("t", k, {"v": marker})
            txn.commit()
        except CoordinatorCrash:
            pass
        except TransactionError:
            txn.abort()
        if cluster.gtm.is_committed(txn.gxid):
            for k in keys:
                expected[k] = marker
    recover_cluster(cluster)
    assert in_doubt_count(cluster) == 0
    assert final_state(cluster, session) == expected
