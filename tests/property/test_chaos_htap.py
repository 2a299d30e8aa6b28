"""Chaos property suite: seeded fault schedules against the HTAP merge daemon.

Each seed draws a random schedule from ``HTAP_FAULT_MENU`` (crash a DN
mid-merge, time out or drop a merge, stall the freshness tick), runs an
OLTP write mix with daemon ticks interleaved, recovers the cluster, and
asserts the delta-merge crash-safety invariants:

1. **No lost or duplicated rows** — every DN's lane scan
   (``scan_shard_lanes``, served from its frozen chunks) equals the MVCC
   heap walk row for row, and the union of served rows equals the
   oracle built from acknowledged commits.
2. **No stuck watermark** — once recovery completes and a fault-free tick
   runs, every delta drains and ``frozen.merged_seq`` catches up to the
   delta's next sequence number.
3. **Clean re-merge after failover** — a write after recovery lands in the
   frozen chunk set on the next tick, including on re-seeded replacement
   nodes.

The seed range is environment-tunable so CI can shard the search space:
``CHAOS_SEED_BASE`` (default 0) and ``CHAOS_SEED_COUNT`` (default 50).
"""

import os
import random

import pytest

from repro.cluster import MppCluster, TxnMode
from repro.cluster.ha import HaManager
from repro.common.errors import TransactionError
from repro.exec.batch import rows_from_batches
from repro.faults import FaultInjector
from repro.faults.chaos import (HTAP_FAULT_MENU, arm_random_faults,
                                recover_cluster)
from repro.storage import Column, DataType, Orientation, TableSchema
from repro.storage.colstore import ColumnStore

NUM_DNS = 3
KEYS = list(range(12))
ROUNDS = 3
TXNS_PER_ROUND = 8

SEED_BASE = int(os.environ.get("CHAOS_SEED_BASE", "0"))
SEED_COUNT = int(os.environ.get("CHAOS_SEED_COUNT", "50"))


def build(seed):
    cluster = MppCluster(num_dns=NUM_DNS, mode=TxnMode.GTM_LITE)
    cluster.create_table(TableSchema(
        "c", [Column("k", DataType.INT), Column("v", DataType.INT)], "k",
        orientation=Orientation.COLUMN))
    HaManager(cluster)
    injector = FaultInjector(seed=seed).bind(cluster)
    session = cluster.session()
    init = session.begin(multi_shard=True)
    for k in KEYS:
        init.insert("c", {"k": k, "v": 0})
    init.commit()
    return cluster, injector, session


def chaos_round(cluster, injector, session, rng, expected, marker):
    """Arm a random HTAP schedule, interleave writes with daemon ticks.

    ``expected`` is the oracle: key -> value for every acknowledged commit.
    Writes that raise are aborted and leave the oracle untouched.
    """
    arm_random_faults(injector, rng, HTAP_FAULT_MENU, NUM_DNS)
    clock = cluster.obs.clock
    for _ in range(TXNS_PER_ROUND):
        marker += 1
        k = rng.choice(KEYS)
        txn = session.begin()
        try:
            if k not in expected:
                txn.insert("c", {"k": k, "v": marker})
                txn.commit()
                expected[k] = marker
            elif rng.random() < 0.2:
                txn.delete("c", k)
                txn.commit()
                del expected[k]
            else:
                txn.update("c", k, {"v": marker})
                txn.commit()
                expected[k] = marker
        except TransactionError:
            txn.abort()
        clock.advance(rng.choice((5_000.0, 20_000.0, 60_000.0)))
        if rng.random() < 0.5:
            # The daemon tick runs through the armed faults: merges may be
            # aborted, delayed, or crash the node mid-merge.  tick() itself
            # must never raise.
            cluster.htap.tick(clock.now_us)
    return marker


def assert_no_lost_or_duplicate_rows(cluster, expected):
    """Invariant 1: lane scans match heap walks and the oracle."""
    txn = cluster.session().begin(multi_shard=True)
    served_union = {}
    for dn_index, dn in enumerate(cluster.dns):
        names = dn._schemas["c"].column_names
        served = [dict(zip(names, row)) for row in rows_from_batches(
            txn.scan_shard_lanes("c", dn_index))]
        oracle = ColumnStore(dn._schemas["c"], compress=False)
        oracle.append_rows(
            values for _key, values in dn.heap("c").scan(
                txn._local_view[dn_index], dn.ltm.clog,
                txn._local_xid[dn_index]))
        oracle.flush()
        assert served == list(oracle.scan_rows())
        for row in served:
            assert row["k"] not in served_union   # no duplicated rows
            served_union[row["k"]] = row["v"]
    txn.commit()
    assert served_union == expected               # no lost rows


def assert_watermark_caught_up(cluster):
    """Invariant 2: every delta drained, merged_seq == next_seq."""
    assert cluster.htap.delta_rows() == 0
    for dn in cluster.dns:
        for store in dn.htap.tables.values():
            assert store.frozen is not None
            assert store.frozen.merged_seq == store.delta.next_seq


@pytest.mark.parametrize("seed", range(SEED_BASE, SEED_BASE + SEED_COUNT))
def test_htap_chaos_schedule_preserves_invariants(seed):
    cluster, injector, session = build(seed)
    rng = random.Random(seed ^ 0x47A9)
    expected = {k: 0 for k in KEYS}
    marker = 0
    for _ in range(ROUNDS):
        marker = chaos_round(cluster, injector, session, rng, expected,
                             marker)
        recover_cluster(cluster)
    # Fault-free catch-up tick: the watermark must not be stuck.
    clock = cluster.obs.clock
    clock.advance(100_000.0)
    cluster.htap.tick(clock.now_us)
    assert_watermark_caught_up(cluster)
    assert_no_lost_or_duplicate_rows(cluster, expected)
    # Invariant 3: a post-recovery write re-merges cleanly everywhere,
    # including re-seeded replacement nodes.
    marker += 1
    k = rng.choice(KEYS)
    txn = session.begin()
    if k in expected:
        txn.update("c", k, {"v": marker})
    else:
        txn.insert("c", {"k": k, "v": marker})
    txn.commit()
    expected[k] = marker
    clock.advance(100_000.0)
    assert cluster.htap.tick(clock.now_us) >= 1
    assert_watermark_caught_up(cluster)
    assert_no_lost_or_duplicate_rows(cluster, expected)


@pytest.mark.parametrize("failpoint,action,node_scoped", HTAP_FAULT_MENU.rules)
def test_every_htap_menu_entry_survives_deterministically(failpoint, action,
                                                          node_scoped):
    """Each (failpoint, action) pair, alone, preserves the invariants."""
    cluster, injector, session = build(seed=99)
    match = {"dn": 0} if node_scoped else None
    injector.arm(failpoint, action, times=1, match=match, delay_us=2_000.0)
    expected = {k: 0 for k in KEYS}
    clock = cluster.obs.clock
    for marker, k in enumerate((1, 4, 7), start=1):
        txn = session.begin()
        try:
            txn.update("c", k, {"v": marker})
            txn.commit()
            expected[k] = marker
        except TransactionError:
            txn.abort()
        clock.advance(50_000.0)
        cluster.htap.tick(clock.now_us)
    recover_cluster(cluster)
    clock.advance(50_000.0)
    cluster.htap.tick(clock.now_us)
    assert_watermark_caught_up(cluster)
    assert_no_lost_or_duplicate_rows(cluster, expected)
