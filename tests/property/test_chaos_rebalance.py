"""Chaos property suite: seeded fault schedules against online resharding.

Each seed arms a random schedule from ``REBALANCE_FAULT_MENU`` (coordinator
death and RPC faults at the ``rebalance.copy`` / ``rebalance.flip``
failpoints, plus 2PC faults that land inside the double-write window),
drives a DN expansion with writes flowing through the catch-up windows,
recovers, and asserts the resharding invariants:

1. **No row lost, no row duplicated** — the surviving table state equals
   the oracle built from acknowledged commits, and every key is visible on
   exactly one active DN.
2. **Slot ownership is never ambiguous** — after recovery no slot is
   mid-move, every owner is an active member, and every scan exclusion is
   cleared.
3. **Recovery settles every move** — a coordinator killed mid-copy rolls
   the move back; killed pre-flip rolls it forward; nothing stays pending.

Seed range is environment-tunable so CI can shard the search space:
``CHAOS_SEED_BASE`` (default 0) and ``CHAOS_SEED_COUNT`` (default 25).
"""

import os
import random

import pytest

from repro.cluster import MppCluster, TxnMode, in_doubt_count
from repro.cluster.ha import HaManager
from repro.cluster.rebalance import RebalanceCoordinator
from repro.common.errors import TransactionError
from repro.faults import CoordinatorCrash, FaultInjector, InjectedTimeout
from repro.faults.chaos import (
    REBALANCE_FAULT_MENU,
    arm_random_faults,
    recover_cluster,
)
from repro.storage import Column, DataType, TableSchema

NUM_DNS = 3
#: Spread over the whole 192-slot space so the moved slots carry rows.
KEYS = [i * 13 for i in range(24)]

SEED_BASE = int(os.environ.get("CHAOS_SEED_BASE", "0"))
SEED_COUNT = int(os.environ.get("CHAOS_SEED_COUNT", "25"))


def build(seed):
    cluster = MppCluster(num_dns=NUM_DNS, mode=TxnMode.GTM_LITE)
    cluster.create_table(TableSchema(
        "t", [Column("k", DataType.INT), Column("v", DataType.INT)], "k"))
    HaManager(cluster)
    coordinator = RebalanceCoordinator(cluster)
    injector = FaultInjector(seed=seed).bind(cluster)
    session = cluster.session()
    init = session.begin(multi_shard=True)
    for k in KEYS:
        init.insert("t", {"k": k, "v": 0})
    init.commit()
    return cluster, coordinator, injector, session


def make_catchup(cluster, session, rng, expected, counter):
    """Catch-up workload: multi-shard updates inside the double-write
    window, oracle-tracked exactly like the 2PC chaos suite."""

    def callback():
        for _ in range(3):
            counter[0] += 1
            marker = counter[0]
            keys = rng.sample(KEYS, 2)
            txn = session.begin(multi_shard=True)
            try:
                for k in keys:
                    txn.update("t", k, {"v": marker})
                txn.commit()
            except CoordinatorCrash:
                pass            # the GTM commit log decides below
            except TransactionError:
                txn.abort()
            if cluster.gtm.is_committed(txn.gxid):
                for k in keys:
                    expected[k] = marker
    return callback


def assert_invariants(cluster, expected):
    shard_map = cluster.catalog.shard_map
    # Invariant 2: unambiguous, settled ownership.
    assert not shard_map.has_moves()
    members = set(shard_map.members())
    for slot in range(shard_map.num_slots):
        assert shard_map.owner_of_slot(slot) in members
    for dn_index in cluster.dn_indices():
        assert shard_map.excluded_slots(dn_index) == frozenset()
    # Invariant 1a: every key on exactly one active DN.
    locations = {}
    for dn_index in cluster.dn_indices():
        dn = cluster.dns[dn_index]
        for key, values in dn.scan("t", dn.local_snapshot()):
            locations.setdefault(key, []).append(dn_index)
            assert shard_map.owner_of_value(key) == dn_index, (
                f"key {key} found on dn{dn_index}, owner is "
                f"dn{shard_map.owner_of_value(key)}")
    assert all(len(spots) == 1 for spots in locations.values()), {
        k: s for k, s in locations.items() if len(s) != 1}
    # Invariant 1b: the surviving state is exactly the oracle.
    session = cluster.session()
    reader = session.begin(multi_shard=True)
    state = {k: reader.read("t", k)["v"] for k in KEYS}
    reader.commit()
    assert state == expected


@pytest.mark.parametrize("seed", range(SEED_BASE, SEED_BASE + SEED_COUNT))
def test_chaos_expansion_preserves_rows_and_ownership(seed):
    cluster, coordinator, injector, session = build(seed)
    rng = random.Random(seed ^ 0xC0FFEE)
    expected = {k: 0 for k in KEYS}
    counter = [0]
    arm_random_faults(injector, rng, REBALANCE_FAULT_MENU, NUM_DNS)
    callback = make_catchup(cluster, session, rng, expected, counter)
    try:
        coordinator.add_dn(on_catchup=callback)
    except (CoordinatorCrash, InjectedTimeout, TransactionError):
        # The coordinator died (or lost an RPC) mid-move; whatever state it
        # left behind is recovery's problem.
        pass
    recover_cluster(cluster)
    assert in_doubt_count(cluster) == 0
    assert coordinator.active_moves() == []
    assert_invariants(cluster, expected)
    # The cluster still takes writes after recovery, wherever slots ended up.
    txn = session.begin(multi_shard=True)
    for k in KEYS[:4]:
        txn.update("t", k, {"v": -1})
    txn.commit()
    for k in KEYS[:4]:
        expected[k] = -1
    assert_invariants(cluster, expected)


@pytest.mark.parametrize("failpoint,action,node_scoped",
                         REBALANCE_FAULT_MENU.rules)
def test_every_menu_entry_recovers_deterministically(failpoint, action,
                                                     node_scoped):
    """Each (failpoint, action) pair, alone, preserves the invariants."""
    cluster, coordinator, injector, session = build(seed=7)
    match = {"dn": 0} if node_scoped else None
    injector.arm(failpoint, action, times=1, match=match)
    rng = random.Random(7)
    expected = {k: 0 for k in KEYS}
    callback = make_catchup(cluster, session, rng, expected, [0])
    try:
        coordinator.add_dn(on_catchup=callback)
    except (CoordinatorCrash, InjectedTimeout, TransactionError):
        pass
    recover_cluster(cluster)
    assert in_doubt_count(cluster) == 0
    assert coordinator.active_moves() == []
    assert_invariants(cluster, expected)
