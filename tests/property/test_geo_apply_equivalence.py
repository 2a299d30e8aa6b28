"""A certified epoch applies as one region transaction, and that transaction
leaves exactly the rows a one-transaction-per-record replay leaves.

The epoch under test carries same-session stacked updates of one key, an
insert then an update of another, a delete then a re-insert of a third, a
write to a key the apply region does not host, and a concurrent writer that
certification aborts.  Three checks:

* every region's rows equal a reference that replays the same certified
  records, one transaction per committed record, on a fresh
  :class:`~repro.cluster.mpp.MppCluster`;
* the apply region records exactly one ``txn.commit`` for the epoch;
* a reader snapshot taken between two steps of the epoch machine sees none
  of the epoch or all of it.
"""

import pytest

from repro.cluster.mpp import MppCluster
from repro.geo import GeoCluster, GeoConfig
from repro.geo.certify import COMMIT, certify_epoch
from repro.storage import Column, DataType, TableSchema

APPLY_REGION = 1
DNS = 2


def schema():
    return TableSchema(
        "t", [Column("k", DataType.INT), Column("v", DataType.INT)], "k")


def keys_where(geo, hosted, count, start=0):
    """``count`` keys whose slot the apply region hosts (or does not)."""
    keys, k = [], start
    while len(keys) < count:
        if geo.shard_map.hosts_value(APPLY_REGION, k) == hosted:
            keys.append(k)
        k += 1
    return keys


def rows_of(cluster):
    reader = cluster.session().begin(multi_shard=True)
    rows = {key: dict(values) for key, values in reader.scan("t")}
    reader.commit()
    return rows


def reference_rows(geo, region, through_epoch):
    """Replay every certified epoch through ``through_epoch`` the way a
    region did before epochs applied whole: one region transaction per
    committed record, holding the record's ops this region hosts."""
    ref = MppCluster(num_dns=DNS)
    ref.create_table(schema())
    session = ref.session()
    for epoch in range(through_epoch + 1):
        batches = [geo.epochs[src].sealed[epoch]
                   for src in range(geo.num_regions)]
        by_id = {r.txn_id: r for batch in batches for r in batch.records}
        for txn_id, outcome in certify_epoch(batches):
            if outcome != COMMIT:
                continue
            ops = [op for op in by_id[txn_id].ops
                   if op.geo_slot < 0
                   or geo.shard_map.hosts(region, op.geo_slot)]
            if not ops:
                continue

            def body(txn, ops=ops):
                for op in ops:
                    if op.kind == "insert":
                        txn.insert(op.table, dict(op.values))
                    elif op.kind == "update":
                        txn.update(op.table, op.key, dict(op.values))
                    else:
                        txn.delete(op.table, op.key)

            session.run_transaction(body, multi_shard=True)
    return rows_of(ref)


@pytest.fixture
def geo():
    geo = GeoCluster(GeoConfig(num_regions=3, dns_per_region=DNS,
                               replication_factor=2))
    geo.create_table(schema())
    return geo


def test_epoch_applies_once_and_equals_per_record_replay(geo):
    stacked, grown, reborn = keys_where(geo, hosted=True, count=3)
    (elsewhere,) = keys_where(geo, hosted=False, count=1)
    loader = geo.session(0)
    for k in (stacked, reborn):
        loader.run_transaction(lambda txn, k=k: txn.insert("t", {"k": k, "v": 0}))
    t_us = geo.drain()

    a = geo.session(0)
    b = geo.session(2)
    rival = geo.session(2)
    handles = [
        a.run_transaction(lambda txn: txn.update("t", stacked, {"v": 1})),
        a.run_transaction(lambda txn: txn.update("t", stacked, {"v": 2})),
        a.run_transaction(lambda txn: txn.insert("t", {"k": grown, "v": 5})),
        a.run_transaction(lambda txn: txn.update("t", grown, {"v": 6})),
        b.run_transaction(lambda txn: txn.delete("t", reborn)),
        b.run_transaction(lambda txn: txn.insert("t", {"k": reborn, "v": 9})),
        b.run_transaction(lambda txn: txn.insert("t", {"k": elsewhere, "v": 7})),
        rival.run_transaction(lambda txn: txn.update("t", stacked, {"v": 99})),
    ]
    epoch = handles[0].epoch
    assert {h.epoch for h in handles} == {epoch}

    cluster = geo.regions[APPLY_REGION]
    before = rows_of(cluster)
    seen = [before]
    applies = []
    while geo.certified_epoch(APPLY_REGION) < epoch:
        commits = cluster.stats.commits
        certified = geo.certified_epoch(APPLY_REGION)
        t_us += 1_000.0
        geo.step_to(t_us)
        if geo.certified_epoch(APPLY_REGION) >= epoch > certified:
            applies.append(cluster.stats.commits - commits)
        else:
            assert cluster.stats.commits == commits
        seen.append(rows_of(cluster))
        assert t_us < 1e7, "epoch never certified"
    geo.drain()

    assert [h.status for h in handles] == ["committed"] * 7 + ["aborted"]
    assert applies == [1]
    after = rows_of(cluster)
    assert after == {stacked: {"k": stacked, "v": 2},
                     grown: {"k": grown, "v": 6},
                     reborn: {"k": reborn, "v": 9}}
    assert before != after
    assert all(rows in (before, after) for rows in seen)
    assert seen[-1] == after
    for region in range(geo.num_regions):
        assert rows_of(geo.regions[region]) == reference_rows(
            geo, region, geo.certified_epoch(region))
    geo.assert_converged()
