"""Cluster-level behavior: routing, promotion, replication, maintenance."""

import pytest

from repro.cluster import MppCluster, TransactionPromotionRequired, TxnMode
from repro.common.errors import (
    ConfigError,
    InvalidTransactionState,
    SerializationConflict,
)
from repro.storage import Column, DataType, Distribution, TableSchema
from repro.storage.table import shard_of_value


def make_cluster(num_dns=3, mode=TxnMode.GTM_LITE):
    cluster = MppCluster(num_dns=num_dns, mode=mode)
    cluster.create_table(TableSchema(
        "t", [Column("k", DataType.INT), Column("v", DataType.INT)], "k"))
    cluster.create_table(TableSchema(
        "dim", [Column("k", DataType.INT), Column("label", DataType.TEXT)], "k",
        distribution=Distribution.REPLICATION))
    return cluster


class TestRouting:
    def test_rows_land_on_their_shard(self):
        cluster = make_cluster()
        session = cluster.session()
        txn = session.begin(multi_shard=True)
        for k in range(9):
            txn.insert("t", {"k": k, "v": k})
        txn.commit()
        for k in range(9):
            dn = cluster.dns[shard_of_value(k, 3)]
            snapshot = dn.local_snapshot()
            assert dn.read("t", k, snapshot) is not None

    def test_replicated_table_on_every_node(self):
        cluster = make_cluster()
        session = cluster.session()
        txn = session.begin(multi_shard=True)
        txn.insert("dim", {"k": 1, "label": "x"})
        txn.commit()
        for dn in cluster.dns:
            assert dn.read("dim", 1, dn.local_snapshot()) is not None

    def test_single_shard_can_read_replicated(self):
        cluster = make_cluster()
        session = cluster.session()
        txn = session.begin(multi_shard=True)
        txn.insert("dim", {"k": 1, "label": "x"})
        txn.insert("t", {"k": 0, "v": 0})
        txn.commit()
        local = session.begin(multi_shard=False)
        local.read("t", 0)
        assert local.read("dim", 1)["label"] == "x"
        local.commit()


class TestPromotion:
    def test_crossing_shards_raises(self):
        cluster = make_cluster()
        session = cluster.session()
        seed = session.begin(multi_shard=True)
        seed.insert("t", {"k": 0, "v": 0})
        seed.insert("t", {"k": 1, "v": 0})
        seed.commit()
        txn = session.begin(multi_shard=False)
        txn.read("t", 0)
        with pytest.raises(TransactionPromotionRequired):
            txn.read("t", 1)
        txn.abort()

    def test_writing_replicated_from_local_raises(self):
        cluster = make_cluster()
        session = cluster.session()
        txn = session.begin(multi_shard=False)
        with pytest.raises(TransactionPromotionRequired):
            txn.insert("dim", {"k": 2, "label": "y"})
        txn.abort()

    def test_run_transaction_auto_promotes(self):
        cluster = make_cluster()
        session = cluster.session()
        seed = session.begin(multi_shard=True)
        seed.insert("t", {"k": 0, "v": 0})
        seed.insert("t", {"k": 1, "v": 0})
        seed.commit()

        def body(txn):
            txn.update("t", 0, {"v": 1})
            txn.update("t", 1, {"v": 1})

        session.run_transaction(body, multi_shard=False)
        check = session.begin(multi_shard=True)
        assert check.read("t", 0)["v"] == 1
        assert check.read("t", 1)["v"] == 1
        check.commit()

    def test_scan_from_local_txn_requires_single_node(self):
        cluster = make_cluster()
        session = cluster.session()
        txn = session.begin(multi_shard=False)
        with pytest.raises(TransactionPromotionRequired):
            list(txn.scan("t"))
        txn.abort()


class TestRetries:
    def test_run_transaction_retries_conflicts(self):
        cluster = make_cluster(num_dns=1)
        session = cluster.session()
        seed = session.begin(multi_shard=True)
        seed.insert("t", {"k": 0, "v": 0})
        seed.commit()
        attempts = []

        def body(txn):
            attempts.append(1)
            txn.read("t", 0)   # pins the snapshot on the data node
            if len(attempts) == 1:
                # Simulate a loser: another txn slips in and commits first.
                rival = session.begin(multi_shard=False)
                rival.update("t", 0, {"v": 100})
                rival.commit()
            txn.update("t", 0, {"v": 7})

        session.run_transaction(body, multi_shard=False)
        assert len(attempts) == 2
        check = session.begin(multi_shard=True)
        assert check.read("t", 0)["v"] == 7
        check.commit()


class TestLifecycleErrors:
    def test_commit_twice_rejected(self):
        cluster = make_cluster()
        session = cluster.session()
        txn = session.begin(multi_shard=False)
        txn.commit()
        with pytest.raises(InvalidTransactionState):
            txn.commit()

    def test_ops_after_commit_rejected(self):
        cluster = make_cluster()
        session = cluster.session()
        txn = session.begin(multi_shard=True)
        txn.commit()
        with pytest.raises(InvalidTransactionState):
            txn.read("t", 0)

    def test_abort_is_idempotent(self):
        cluster = make_cluster()
        session = cluster.session()
        txn = session.begin(multi_shard=False)
        txn.abort()
        txn.abort()

    def test_classical_mode_ignores_single_shard_flag(self):
        cluster = make_cluster(mode=TxnMode.CLASSICAL)
        session = cluster.session()
        txn = session.begin(multi_shard=False)
        assert txn.is_multi_shard
        txn.commit()
        assert cluster.gtm.stats.begins >= 1

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            MppCluster(num_dns=0)
        cluster = make_cluster()
        with pytest.raises(ConfigError):
            cluster.session(cn_index=99)


class TestMaintenance:
    def test_vacuum_reclaims_versions(self):
        cluster = make_cluster(num_dns=1)
        session = cluster.session()
        seed = session.begin(multi_shard=True)
        seed.insert("t", {"k": 0, "v": 0})
        seed.commit()
        for v in range(5):
            session.run_transaction(lambda t, v=v: t.update("t", 0, {"v": v}))
        assert len(cluster.dns[0].heap("t").version_chain(0)) == 6
        removed = cluster.vacuum()
        assert removed == 5

    def test_lco_pruning_under_load(self):
        cluster = make_cluster(num_dns=2)
        cluster.lco_prune_interval = 16
        session = cluster.session()
        seed = session.begin(multi_shard=True)
        for k in range(4):
            seed.insert("t", {"k": k, "v": 0})
        seed.commit()
        for i in range(200):
            session.run_transaction(
                lambda t, i=i: t.update("t", i % 4, {"v": i}),
                multi_shard=(i % 10 == 0))
        total_lco = sum(len(dn.ltm.lco) for dn in cluster.dns)
        assert total_lco < 100  # pruned, not ~200+

    def test_gtm_horizon_tracks_active_readers(self):
        cluster = make_cluster()
        session = cluster.session()
        reader = session.begin(multi_shard=True)
        horizon_with_reader = cluster.gtm.snapshot_horizon()
        assert horizon_with_reader <= reader.gxid
        reader.commit()
        assert cluster.gtm.snapshot_horizon() > horizon_with_reader


class TestReadOnlyCommit:
    """A commit that wrote nothing leaves the local commit order alone,
    global or local, from the ``Transaction`` API or from SQL."""

    def test_readers_leave_no_lco_entry(self):
        from repro.sql.engine import SqlEngine

        cluster = make_cluster()
        session = cluster.session()
        seed = session.begin(multi_shard=True)
        for k in range(6):
            seed.insert("t", {"k": k, "v": k})
        seed.commit()
        before = [len(dn.ltm.lco) for dn in cluster.dns]
        reader = session.begin(multi_shard=True)
        assert len(list(reader.scan("t"))) == 6
        reader.commit()
        local = session.begin(multi_shard=False)
        assert local.read("t", 0) is not None
        local.commit()
        engine = SqlEngine(cluster)
        for _ in range(2):   # a fresh plan, then the cached one
            assert engine.execute("select count(*) from t").scalar() == 6
            assert engine.execute("select v from t where k = 3").rows == [(3,)]
        assert [len(dn.ltm.lco) for dn in cluster.dns] == before
        # a writer still joins the LCO, on the node it wrote
        engine.execute("update t set v = 9 where k = 3")
        grew = [len(dn.ltm.lco) - n for dn, n in zip(cluster.dns, before)]
        assert sorted(grew) == [0, 0, 1]
        assert grew[shard_of_value(3, 3)] == 1


class TestAbortClassification:
    """``txn.abort.*`` stats derive from what was actually written, mirroring
    how the commit side classifies — a global transaction that wrote one
    shard (or nothing) is not a multi-shard abort."""

    def test_global_abort_one_shard_counts_single(self):
        cluster = make_cluster()
        session = cluster.session()
        txn = session.begin(multi_shard=True)
        txn.insert("t", {"k": 0, "v": 1})       # one shard touched
        txn.abort()
        assert cluster.stats.aborts_single_shard == 1
        assert cluster.stats.aborts_multi_shard == 0

    def test_global_abort_two_shards_counts_multi(self):
        cluster = make_cluster()
        session = cluster.session()
        txn = session.begin(multi_shard=True)
        txn.insert("t", {"k": 0, "v": 1})
        txn.insert("t", {"k": 1, "v": 1})       # second shard
        txn.abort()
        assert cluster.stats.aborts_single_shard == 0
        assert cluster.stats.aborts_multi_shard == 1

    def test_read_only_global_abort_counts_single(self):
        cluster = make_cluster()
        session = cluster.session()
        txn = session.begin(multi_shard=True)
        txn.read("t", 0)                        # no writes at all
        txn.abort()
        assert cluster.stats.aborts_single_shard == 1
        assert cluster.stats.aborts_multi_shard == 0
