"""Unit coverage for repro.htap: stamps, delta capture, merge, compose."""

import pytest

from repro.cluster.ha import HaManager
from repro.cluster.mpp import MppCluster
from repro.exec.batch import rows_from_batches
from repro.storage.colstore import ColumnStore
from repro.storage.heap import MvccHeap
from repro.storage.table import Column, Orientation, TableSchema
from repro.storage.types import DataType
from repro.txn.snapshot import Snapshot
from repro.txn.status import StatusLog, TxnStatus


def column_schema(name="c", extra=()):
    columns = [Column("k", DataType.INT), Column("v", DataType.INT)]
    columns.extend(extra)
    return TableSchema(name, columns, "k", orientation=Orientation.COLUMN)


def build(num_dns=2, **kwargs):
    cluster = MppCluster(num_dns=num_dns, **kwargs)
    cluster.create_table(column_schema())
    return cluster, cluster.session()


def heap_walk_rows(dn, table, snapshot, xid):
    """The legacy cold rebuild, bypassing HTAP — the byte-identity oracle."""
    store = ColumnStore(dn._schemas[table], compress=False)
    store.append_rows(values for _key, values
                      in dn.heap(table).scan(snapshot, dn.ltm.clog, xid))
    store.flush()
    return store


def served_rows(txn, table, dn_index):
    """One DN's lane scan of ``table``, as row dicts."""
    names = txn._schema(table).column_names
    return [dict(zip(names, row)) for row in rows_from_batches(
        txn.scan_shard_lanes(table, dn_index))]


def assert_serves_identically(cluster, table="c"):
    """Every DN's lane scan must equal the heap walk, row for row."""
    txn = cluster.session().begin(multi_shard=True)
    for dn_index, dn in enumerate(cluster.dns):
        served = served_rows(txn, table, dn_index)
        view = txn._local_view[dn_index]
        oracle = heap_walk_rows(dn, table, view, txn._local_xid[dn_index])
        assert served == list(oracle.scan_rows())
    txn.commit()


class TestArrivalStamps:
    def test_stamps_follow_scan_order(self):
        heap = MvccHeap("t")
        clog = StatusLog()
        snapshot = Snapshot(xmin=100, xmax=100, active=frozenset())
        for xid, key in ((3, "a"), (4, "b"), (5, "c")):
            clog.begin(xid)
            heap.insert(key, {"k": key}, xid, snapshot, clog)
            clog.set(xid, TxnStatus.COMMITTED)
        assert [heap.stamp_of(k) for k in ("a", "b", "c")] == [0, 1, 2]

    def test_committed_delete_keeps_stamp_aborted_insert_frees_it(self):
        heap = MvccHeap("t")
        clog = StatusLog()
        snapshot = Snapshot(xmin=100, xmax=100, active=frozenset())
        clog.begin(3)
        heap.insert("a", {"k": "a"}, 3, snapshot, clog)
        clog.set(3, TxnStatus.COMMITTED)
        clog.begin(4)
        heap.delete("a", 4, snapshot, clog)
        clog.set(4, TxnStatus.COMMITTED)
        # The chain survives a committed delete: same arrival stamp.
        assert heap.stamp_of("a") == 0
        clog.begin(5)
        heap.insert("b", {"k": "b"}, 5, snapshot, clog)
        heap.abort_key("b", 5)
        clog.set(5, TxnStatus.ABORTED)
        # An aborted insert removes the chain; re-inserting gets a new slot.
        clog.begin(6)
        heap.insert("b", {"k": "b"}, 6, snapshot, clog)
        clog.set(6, TxnStatus.COMMITTED)
        assert heap.stamp_of("b") == 2


class TestDeltaCapture:
    def test_commit_feeds_delta_in_commit_order(self):
        cluster, session = build(num_dns=1)
        txn = session.begin()
        txn.insert("c", {"k": 1, "v": 10})
        txn.commit()
        txn = session.begin()
        txn.update("c", 1, {"v": 11})
        txn.insert("c", {"k": 2, "v": 20})
        txn.commit()
        store = cluster.dns[0].htap.tables["c"]
        assert [(e.op, e.key) for e in store.delta.entries] == [
            ("insert", 1), ("update", 1), ("insert", 2)]
        assert [e.seq for e in store.delta.entries] == [0, 1, 2]

    def test_abort_leaves_delta_untouched(self):
        cluster, session = build(num_dns=1)
        txn = session.begin()
        txn.insert("c", {"k": 1, "v": 10})
        txn.abort()
        assert len(cluster.dns[0].htap.tables["c"].delta) == 0

    def test_row_table_gets_no_htap_state(self):
        cluster = MppCluster(num_dns=1)
        cluster.create_table(TableSchema(
            "r", [Column("k", DataType.INT), Column("v", DataType.INT)], "k"))
        txn = cluster.session().begin()
        txn.insert("r", {"k": 1, "v": 10})
        txn.commit()
        cluster.htap.tick()
        assert cluster.dns[0].htap is None
        assert cluster.htap.delta_rows() == 0


class TestMerge:
    def test_merge_folds_delta_and_advances_watermark(self):
        cluster, session = build(num_dns=1)
        for k in range(5):
            txn = session.begin()
            txn.insert("c", {"k": k, "v": k})
            txn.commit()
        store = cluster.dns[0].htap.tables["c"]
        assert len(store.delta) == 5
        assert cluster.htap.tick() == 1
        assert len(store.delta) == 0
        assert store.frozen.row_count == 5
        assert store.frozen.merged_seq == 5
        assert list(store.frozen.store.scan_rows()) == [
            {"k": k, "v": k} for k in range(5)]

    def test_incremental_merge_applies_update_and_delete(self):
        cluster, session = build(num_dns=1)
        for k in range(4):
            txn = session.begin()
            txn.insert("c", {"k": k, "v": k})
            txn.commit()
        cluster.htap.tick()
        txn = session.begin()
        txn.update("c", 1, {"v": 100})
        txn.commit()
        txn = session.begin()
        txn.delete("c", 2)
        txn.commit()
        cluster.htap.tick()
        store = cluster.dns[0].htap.tables["c"]
        assert list(store.frozen.store.scan_rows()) == [
            {"k": 0, "v": 0}, {"k": 1, "v": 100}, {"k": 3, "v": 3}]
        assert store.merges == 3   # creation seed + two daemon merges

    def test_reinsert_after_delete_keeps_heap_order(self):
        cluster, session = build(num_dns=1)
        for k in range(3):
            txn = session.begin()
            txn.insert("c", {"k": k, "v": k})
            txn.commit()
        cluster.htap.tick()
        txn = session.begin()
        txn.delete("c", 0)
        txn.commit()
        txn = session.begin()
        txn.insert("c", {"k": 0, "v": 99})
        txn.commit()
        cluster.htap.tick()
        # The chain survived the committed delete, so the re-inserted key
        # keeps its original heap position — and the frozen order shows it.
        store = cluster.dns[0].htap.tables["c"]
        assert list(store.frozen.store.scan_rows()) == [
            {"k": 0, "v": 99}, {"k": 1, "v": 1}, {"k": 2, "v": 2}]
        assert_serves_identically(cluster)

    def test_merge_charges_storage_io(self):
        cluster, session = build(num_dns=1)
        txn = session.begin()
        txn.insert("c", {"k": 1, "v": 1})
        txn.commit()
        cluster.htap.tick()
        stats = cluster.obs.waits.stats("htap_merge")
        assert stats.count == 1
        assert stats.total_us > 0.0
        assert cluster.htap.history[-1].bytes > 0


class TestCompose:
    def test_clean_snapshot_serves_frozen_store_object(self):
        cluster, session = build(num_dns=1)
        txn = session.begin()
        txn.insert("c", {"k": 1, "v": 1})
        txn.commit()
        cluster.htap.tick()
        store = cluster.dns[0].htap.tables["c"]
        reader = session.begin(multi_shard=True)
        dn, lxid, view = reader._scan_site(0)
        served = store.compose(dn, view, lxid)
        reader.commit()
        assert served is store.frozen.store   # zero rebuild
        assert cluster.obs.metrics.counter("htap.scans_frozen").value == 1

    def test_composed_read_is_byte_identical_to_heap_walk(self):
        cluster, session = build()
        for k in range(10):
            txn = session.begin()
            txn.insert("c", {"k": k, "v": k})
            txn.commit()
        cluster.htap.tick()
        # Unmerged updates, deletes and inserts on top of frozen chunks.
        for k in (1, 5):
            txn = session.begin()
            txn.update("c", k, {"v": k * 100})
            txn.commit()
        txn = session.begin()
        txn.delete("c", 4)
        txn.commit()
        txn = session.begin()
        txn.insert("c", {"k": 42, "v": 4242})
        txn.commit()
        assert_serves_identically(cluster)

    def test_snapshot_isolation_against_later_commits(self):
        cluster, session = build(num_dns=1)
        txn = session.begin()
        txn.insert("c", {"k": 1, "v": 1})
        txn.commit()
        cluster.htap.tick()
        reader = session.begin(multi_shard=True)
        writer = cluster.session().begin(multi_shard=True)
        writer.insert("c", {"k": 2, "v": 2})
        writer.commit()
        # The reader's snapshot predates the commit: the committed delta
        # entry must stay invisible.
        assert served_rows(reader, "c", 0) == [{"k": 1, "v": 1}]
        reader.commit()
        late = session.begin(multi_shard=True)
        assert served_rows(late, "c", 0) == [
            {"k": 1, "v": 1}, {"k": 2, "v": 2}]
        late.commit()

    def test_own_writes_fall_back_to_heap_walk(self):
        cluster, session = build(num_dns=1)
        txn = session.begin()
        txn.insert("c", {"k": 1, "v": 1})
        txn.commit()
        cluster.htap.tick()
        writer = session.begin(multi_shard=True)
        writer.insert("c", {"k": 2, "v": 2})
        # Uncommitted own writes live only in the heap: fallback, and the
        # reader still sees its own write.
        assert served_rows(writer, "c", 0) == [{"k": 1, "v": 1},
                                               {"k": 2, "v": 2}]
        writer.commit()
        assert cluster.obs.metrics.counter("htap.cold_rebuilds").value == 1
        assert (cluster.obs.metrics.counter("htap.fallback.own_writes").value
                == 1)

    def test_snapshot_older_than_watermark_falls_back(self):
        cluster, session = build(num_dns=1)
        txn = session.begin()
        txn.insert("c", {"k": 1, "v": 1})
        txn.commit()
        reader = session.begin(multi_shard=True)   # snapshot before merge
        writer = cluster.session().begin(multi_shard=True)
        writer.insert("c", {"k": 2, "v": 2})
        writer.commit()
        cluster.htap.tick()          # watermark advances past the reader
        assert served_rows(reader, "c", 0) == [{"k": 1, "v": 1}]
        reader.commit()
        assert cluster.obs.metrics.counter("htap.cold_rebuilds").value >= 1

    def test_repeat_scans_stop_cold_rebuilding(self):
        cluster, session = build(num_dns=1)
        for k in range(6):
            txn = session.begin()
            txn.insert("c", {"k": k, "v": k})
            txn.commit()
        cluster.htap.tick()
        for _ in range(5):
            reader = session.begin(multi_shard=True)
            list(reader.scan_shard_lanes("c", 0))
            reader.commit()
        metrics = cluster.obs.metrics
        assert metrics.counter("htap.scans_frozen").value == 5
        assert metrics.counter("htap.cold_rebuilds").value == 0


class TestFailover:
    def test_reseed_after_failover_serves_again(self):
        cluster, session = build(num_dns=2)
        HaManager(cluster)
        for k in range(6):
            txn = session.begin()
            txn.insert("c", {"k": k, "v": k})
            txn.commit()
        cluster.htap.tick()
        cluster.dns[0].crashed = True
        cluster.declare_node_dead(0, reason="test")
        # The replacement node has no HTAP state until the daemon re-seeds.
        assert cluster.dns[0].htap is None
        assert_serves_identically(cluster)   # heap-walk fallback still right
        cluster.htap.tick()
        assert cluster.dns[0].htap is not None
        assert cluster.obs.metrics.counter("htap.reseeds").value >= 1
        assert_serves_identically(cluster)


class TestFreshness:
    def test_lag_tracks_oldest_unmerged_commit(self):
        cluster, session = build(num_dns=1)
        cluster.obs.clock.advance_to(1_000.0)
        txn = session.begin()
        txn.insert("c", {"k": 1, "v": 1})
        txn.commit()
        cluster.obs.clock.advance_to(5_000.0)
        store = cluster.dns[0].htap.tables["c"]
        assert store.freshness_lag_us(5_000.0) == pytest.approx(4_000.0)
        assert cluster.htap.max_freshness_lag_us() == pytest.approx(4_000.0)
        cluster.htap.tick()
        assert store.freshness_lag_us(5_000.0) == 0.0
        assert store.max_lag_us == pytest.approx(4_000.0)
