"""Tests for XID allocation, status log and the local transaction manager."""

import pytest

from repro.common.errors import InvalidTransactionState
from repro.txn.manager import LocalTransactionManager
from repro.txn.status import StatusLog, TxnStatus
from repro.txn.xid import FIRST_XID, XidAllocator


class TestXidAllocator:
    def test_ascending(self):
        alloc = XidAllocator()
        xids = [alloc.allocate() for _ in range(5)]
        assert xids == sorted(xids)
        assert len(set(xids)) == 5

    def test_next_xid_is_upper_bound(self):
        alloc = XidAllocator()
        xid = alloc.allocate()
        assert alloc.next_xid == xid + 1

    def test_reserved_range_protected(self):
        with pytest.raises(ValueError):
            XidAllocator(start=FIRST_XID - 1)


class TestStatusLog:
    def test_lifecycle(self):
        log = StatusLog()
        log.begin(10)
        assert log.get(10) is TxnStatus.IN_PROGRESS
        log.set(10, TxnStatus.PREPARED)
        log.set(10, TxnStatus.COMMITTED)
        assert log.is_committed(10)

    def test_double_begin_rejected(self):
        log = StatusLog()
        log.begin(10)
        with pytest.raises(InvalidTransactionState):
            log.begin(10)

    def test_committed_is_final(self):
        log = StatusLog()
        log.begin(10)
        log.set(10, TxnStatus.COMMITTED)
        with pytest.raises(InvalidTransactionState):
            log.set(10, TxnStatus.ABORTED)

    def test_unknown_xid_raises(self):
        with pytest.raises(InvalidTransactionState):
            StatusLog().get(99)

    def test_in_doubt_states(self):
        log = StatusLog()
        log.begin(10)
        assert log.is_in_doubt(10)
        log.set(10, TxnStatus.PREPARED)
        assert log.is_in_doubt(10)
        log.set(10, TxnStatus.COMMITTED)
        assert not log.is_in_doubt(10)

    def test_forget_refuses_in_doubt(self):
        log = StatusLog()
        log.begin(10)
        with pytest.raises(InvalidTransactionState):
            log.forget(10)
        log.set(10, TxnStatus.ABORTED)
        log.forget(10)
        assert not log.knows(10)


class TestLocalTransactionManager:
    def test_begin_registers_gxid_mapping(self):
        ltm = LocalTransactionManager("dn0")
        lxid = ltm.begin(gxid=500)
        assert ltm.xid_map[500] == lxid
        assert ltm.gxid_for(lxid) == 500

    def test_duplicate_gxid_mapping_rejected(self):
        ltm = LocalTransactionManager("dn0")
        ltm.begin(gxid=500)
        with pytest.raises(InvalidTransactionState):
            ltm.begin(gxid=500)

    def test_commit_appends_lco_in_order(self):
        ltm = LocalTransactionManager("dn0")
        a = ltm.begin()
        b = ltm.begin(gxid=9)
        ltm.record_write(a, "t", 1)
        ltm.record_write(b, "t", 2)
        ltm.commit(b)
        ltm.commit(a)
        assert [e.local_xid for e in ltm.lco] == [b, a]
        assert [e.gxid for e in ltm.lco] == [9, None]
        assert ltm.lco[0].seqno < ltm.lco[1].seqno

    def test_abort_clears_mapping(self):
        ltm = LocalTransactionManager("dn0")
        lxid = ltm.begin(gxid=77)
        ltm.abort(lxid)
        assert 77 not in ltm.xid_map
        assert ltm.active_count == 0

    def test_local_snapshot_includes_prepared(self):
        ltm = LocalTransactionManager("dn0")
        a = ltm.begin()
        ltm.prepare(a)
        snap = ltm.local_snapshot()
        assert a in snap.active
        assert ltm.prepared_xids() == [a]

    def test_local_snapshot_excludes_finished(self):
        ltm = LocalTransactionManager("dn0")
        a = ltm.begin()
        b = ltm.begin()
        ltm.commit(a)
        snap = ltm.local_snapshot()
        assert a not in snap.active and b in snap.active
        assert snap.xmin == b

    def test_record_write_requires_active(self):
        ltm = LocalTransactionManager("dn0")
        a = ltm.begin()
        ltm.commit(a)
        with pytest.raises(InvalidTransactionState):
            ltm.record_write(a, "t", 1)

    def test_truncate_lco_keeps_newest(self):
        ltm = LocalTransactionManager("dn0")
        for key in range(10):
            xid = ltm.begin()
            ltm.record_write(xid, "t", key)
            ltm.commit(xid)
        removed = ltm.truncate_lco(keep_last=3)
        assert removed == 7 and len(ltm.lco) == 3

    def test_prune_lco_respects_horizon(self):
        ltm = LocalTransactionManager("dn0")
        # local commit, old global commit, newer global commit, local commit
        a = ltm.begin()
        ltm.record_write(a, "t", 1)
        ltm.commit(a)
        b = ltm.begin(gxid=10)
        ltm.record_write(b, "t", 2)
        ltm.commit(b)
        c = ltm.begin(gxid=20)
        ltm.record_write(c, "t", 3)
        ltm.commit(c)
        d = ltm.begin()
        ltm.record_write(d, "t", 4)
        ltm.commit(d)
        removed = ltm.prune_lco(horizon_gxid=15)
        # a (local front) and b (gxid 10 < 15) go; c blocks the prefix, so d stays.
        assert removed == 2
        assert [e.local_xid for e in ltm.lco] == [c, d]

    def test_commit_without_writes_leaves_no_lco_entry(self):
        ltm = LocalTransactionManager("dn0")
        local = ltm.begin()
        shared = ltm.begin(gxid=31)
        writer = ltm.begin(gxid=32)
        ltm.record_write(writer, "t", 1)
        for xid in (local, shared, writer):
            ltm.commit(xid)
        assert [e.local_xid for e in ltm.lco] == [writer]
        # the commit itself is as before: clog flipped, nothing active
        assert all(ltm.clog.is_committed(x) for x in (local, shared, writer))
        assert ltm.active_count == 0
        assert ltm.xid_map[31] == shared
