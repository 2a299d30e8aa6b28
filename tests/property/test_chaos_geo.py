"""Chaos property suite: seeded fault schedules against geo epoch commit.

Each seed drives a contended multi-region workload while arming a random
schedule from ``GEO_FAULT_MENU`` (ship drops/timeouts/delays, a region
coordinator crash, certify/apply stalls) and, on some seeds, cutting a
random WAN link.  After ``recover_geo`` the invariants of epoch-based
multi-master commit must hold:

1. **No divergence** — every certified epoch produced the same verdict
   digest in every region, and no region's frontier stopped short of the
   last epoch that carried real transactions (regions may run ahead
   through trailing *empty* epochs; that is progress, not divergence).
2. **Nothing left in limbo** — every submitted transaction's handle
   resolved to committed or aborted; recovery re-ships whatever the faults
   swallowed.
3. **Acks tell the truth** — re-running the pure certifier over the sealed
   epoch batches reproduces exactly the set of acknowledged commits, and
   replaying the committed writes in certification order reproduces every
   hosting region's stored row, key for key (no lost acked write, no
   resurrected aborted write).
4. **Replica agreement** — all hosting regions of a key store the same
   row; non-hosting regions store nothing.

Seed range is environment-tunable so CI can shard the search space:
``CHAOS_SEED_BASE`` (default 0) and ``CHAOS_SEED_COUNT`` (default 25).
"""

import os

import pytest

from repro.common.rng import make_rng
from repro.faults import FaultInjector
from repro.faults.chaos import (
    GEO_FAULT_MENU,
    arm_random_faults,
    recover_geo,
)
from repro.geo import (
    COMMIT,
    GeoCluster,
    GeoConfig,
    certification_order,
    certify_epoch,
)
from repro.storage import Column, DataType, TableSchema

NUM_REGIONS = 3
KEYS = list(range(10))

SEED_BASE = int(os.environ.get("CHAOS_SEED_BASE", "0"))
SEED_COUNT = int(os.environ.get("CHAOS_SEED_COUNT", "25"))


def build(seed):
    rng = make_rng(0x6E0 + seed)
    rf = rng.choice([None, 2, 2])           # bias toward partial replication
    geo = GeoCluster(GeoConfig(num_regions=NUM_REGIONS, dns_per_region=1,
                               replication_factor=rf))
    geo.create_table(TableSchema(
        "t", [Column("k", DataType.INT), Column("v", DataType.INT)], "k"))
    injector = FaultInjector(seed=seed).bind(geo)
    seeder = geo.session(0)
    for k in KEYS:
        seeder.run_transaction(lambda txn, k=k: txn.insert(
            "t", {"k": k, "v": 0}))
    geo.drain()
    return geo, injector, rng


def run_workload(geo, injector, rng):
    """Contended updates from every region with faults landing mid-epoch."""
    sessions = [geo.session(r) for r in range(NUM_REGIONS)]
    handles = []
    for round_no in range(4):
        if round_no == 1:
            arm_random_faults(injector, rng, GEO_FAULT_MENU, NUM_REGIONS)
        if round_no == 2 and rng.random() < 0.5:
            a = rng.randrange(NUM_REGIONS)
            b = (a + 1 + rng.randrange(NUM_REGIONS - 1)) % NUM_REGIONS
            geo.partition(a, b, bidirectional=rng.random() < 0.5)
        for region in range(NUM_REGIONS):
            for _ in range(3):
                key = rng.choice(KEYS)

                def bump(txn, k=key):
                    row = txn.read("t", k)
                    txn.update("t", k, {"v": row["v"] + 1})

                handles.append(sessions[region].run_transaction(bump))
        geo.step_to(geo._now_us + rng.choice([5_000.0, 20_000.0, 70_000.0]))
    geo.drain()
    return handles


def oracle_replay(geo, through_epoch):
    """Re-certify every sealed epoch with the pure function and replay the
    committed writes; returns (expected row state, expected verdicts)."""
    state = {}
    verdicts_by_txn = {}
    for epoch in range(through_epoch + 1):
        batches = [geo.epochs[r].sealed[epoch] for r in range(NUM_REGIONS)]
        verdicts = dict(certify_epoch(batches))
        verdicts_by_txn.update(verdicts)
        for record in certification_order(batches):
            if verdicts[record.txn_id] != COMMIT:
                continue
            for op in record.ops:
                if op.kind == "insert":
                    state[(op.table, op.key)] = dict(op.values)
                elif op.kind == "update":
                    state[(op.table, op.key)].update(op.values)
                elif op.kind == "delete":
                    state.pop((op.table, op.key), None)
    return state, verdicts_by_txn


@pytest.mark.parametrize("seed", range(SEED_BASE, SEED_BASE + SEED_COUNT))
def test_geo_survives_chaos(seed):
    geo, injector, rng = build(seed)
    handles = run_workload(geo, injector, rng)
    recover_geo(geo)

    # 1. no divergence: identical digests everywhere, and every region
    # certified past the last epoch holding real transactions
    geo.assert_converged()
    frontier = min(geo.certified_epoch(r) for r in range(NUM_REGIONS))
    last_real = max(
        (epoch for r in range(NUM_REGIONS)
         for epoch, batch in geo.epochs[r].sealed.items() if batch.records),
        default=-1)
    assert frontier >= last_real, \
        f"a region stalled at {frontier}, behind real epoch {last_real}"

    # 2. nothing in limbo
    assert all(h.status != "pending" for h in handles), \
        "recovery left transactions unresolved"

    # 3. acknowledged outcomes match an independent replay of the sealed log
    state, verdicts = oracle_replay(geo, frontier)
    for handle in handles:
        if handle.status == "committed":
            assert verdicts.get(handle.txn_id) == COMMIT, \
                f"acked commit {handle.txn_id} not in replayed commits"
        elif handle.txn_id in verdicts:
            assert verdicts[handle.txn_id] != COMMIT, \
                f"acked abort {handle.txn_id} committed in replay"

    # 4. every hosting region stores exactly the replayed row
    for k in KEYS:
        expected = state.get(("t", k))
        rows = {}
        for r in range(NUM_REGIONS):
            reader = geo.regions[r].session().begin(multi_shard=True)
            rows[r] = reader.read("t", k)
            reader.commit()
        for r in range(NUM_REGIONS):
            if geo.shard_map.hosts_value(r, k):
                assert rows[r] == expected, \
                    f"region {r} key {k}: {rows[r]} != oracle {expected}"
            else:
                assert rows[r] is None, \
                    f"non-hosting region {r} stored key {k}"
