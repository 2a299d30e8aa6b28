"""Parallel cross-DN scan accounting in ``GlobalTransaction.scan``.

The coordinator fans a scan out to every data node and waits for the
slowest one — the client's simulated cursor must advance by the *max*
across DNs, not the serial sum, while ``sys.wait_events`` still records
every node's individual service time.
"""

import pytest

from repro.cluster import MppCluster
from repro.obs.waits import WAIT_DN_SCAN
from repro.storage.table import Column, Distribution, TableSchema
from repro.storage.types import DataType

NUM_DNS = 4


def build_cluster():
    cluster = MppCluster(num_dns=NUM_DNS)
    schema = TableSchema(
        "t",
        [Column("id", DataType.INT), Column("v", DataType.INT)],
        primary_key="id",
        distribution=Distribution.HASH,
        distribution_column="id",
    )
    cluster.create_table(schema)
    session = cluster.session()
    txn = session.begin(multi_shard=True)
    for i in range(40):
        txn.insert("t", {"id": i, "v": i * 10})
    txn.commit()
    return cluster


class TestParallelScanAccounting:
    def test_cursor_advances_by_max_not_sum(self):
        cluster = build_cluster()
        model = cluster.profile.mpp
        session = cluster.session(track_costs=True)
        txn = session.begin(multi_shard=True)
        ctx = txn._ctx
        before = ctx.t_us
        rows = list(txn.scan("t"))
        after = ctx.t_us
        txn.commit()
        assert len(rows) == 40
        elapsed = after - before

        # Serial components the scan legitimately pays per DN: attach
        # (begin + merge-snapshot RPCs) happens once per node; the scan
        # statement itself runs on all nodes concurrently.
        attach_us = NUM_DNS * (
            2 * model.lan_hop_us + model.dn_begin_us
            + 2 * model.lan_hop_us + model.dn_merge_snapshot_us)
        cn_route = 2 * model.lan_hop_us + model.cn_route_us
        parallel_scan_us = 2 * model.lan_hop_us + model.dn_stmt_us
        expected = cn_route + attach_us + parallel_scan_us
        assert elapsed == pytest.approx(expected)
        # Strictly cheaper than the old serial accounting.
        serial = cn_route + attach_us + NUM_DNS * parallel_scan_us
        assert elapsed < serial

    def test_per_dn_service_still_attributed_in_wait_events(self):
        cluster = build_cluster()
        base = dict(
            (event, count) for event, count, *_ in cluster.obs.waits.rows())
        session = cluster.session(track_costs=True)
        txn = session.begin(multi_shard=True)
        list(txn.scan("t"))
        txn.commit()
        waits = {event: (count, total)
                 for event, count, total, _avg, _mx in cluster.obs.waits.rows()}
        count, total = waits[WAIT_DN_SCAN]
        new_events = count - base.get(WAIT_DN_SCAN, 0)
        assert new_events == NUM_DNS, "one wait record per data node"

    def test_replicated_scan_unchanged(self):
        cluster = MppCluster(num_dns=NUM_DNS)
        schema = TableSchema(
            "r", [Column("id", DataType.INT)], primary_key="id",
            distribution=Distribution.REPLICATION,
        )
        cluster.create_table(schema)
        session = cluster.session()
        txn = session.begin(multi_shard=True)
        for i in range(5):
            txn.insert("r", {"id": i})
        txn.commit()
        txn = cluster.session().begin(multi_shard=True)
        assert len(list(txn.scan("r"))) == 5
        txn.commit()

    def test_scan_shard_reads_one_node_only(self):
        cluster = build_cluster()
        session = cluster.session()
        txn = session.begin(multi_shard=True)
        per_dn = [list(txn.scan_shard("t", dn)) for dn in range(NUM_DNS)]
        txn.commit()
        assert sum(len(rows) for rows in per_dn) == 40
        assert all(len(rows) < 40 for rows in per_dn)
        seen = {key for rows in per_dn for key, _values in rows}
        assert len(seen) == 40

    def test_shard_column_store_sees_mvcc_snapshot(self):
        cluster = MppCluster(num_dns=2)
        schema = TableSchema(
            "c",
            [Column("id", DataType.INT), Column("v", DataType.INT)],
            primary_key="id",
            distribution=Distribution.HASH,
            distribution_column="id",
        )
        cluster.create_table(schema)
        writer = cluster.session().begin(multi_shard=True)
        for i in range(10):
            writer.insert("c", {"id": i, "v": i})
        writer.commit()
        reader = cluster.session().begin(multi_shard=True)
        # Uncommitted concurrent write must be invisible to the snapshot.
        concurrent = cluster.session().begin(multi_shard=True)
        concurrent.insert("c", {"id": 100, "v": 100})
        # Each node's fragment lane scan reads under the reader's snapshot.
        total = sum(batch.n for dn in range(2)
                    for batch in reader.scan_shard_lanes("c", dn))
        concurrent.abort()
        reader.commit()
        assert total == 10
