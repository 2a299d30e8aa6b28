"""Property tests: the heap's one visible-version walk.

``MvccHeap.visible`` decides each xid's visibility once per walk and hands
out the stored values uncopied.  Under random histories — inserts, updates,
deletes and delete-then-reinserts that commit, abort, stay prepared or stay
open — and random snapshots (plain, or merged with forced-active and
forced-committed xids, read with or without an open xid's own writes), it
must agree with the per-key visibility of point reads, ``scan`` must be its
copy, and ``TableSchema.rows_of`` its projection.
"""

from hypothesis import example, given, settings, strategies as st

from repro.common.errors import (
    DuplicateKeyError,
    SerializationConflict,
    StorageError,
)
from repro.storage.heap import MvccHeap
from repro.storage.table import Column, TableSchema
from repro.storage.types import DataType
from repro.txn.manager import LocalTransactionManager
from repro.txn.snapshot import MergedSnapshot
from repro.txn.xid import INVALID_XID

KEYS = range(5)
SCHEMA = TableSchema("t", [Column("k", DataType.INT),
                           Column("v", DataType.INT),
                           Column("w", DataType.TEXT)], "k")

#: One transaction: (op, key, how it ends).
steps = st.lists(st.tuples(
    st.sampled_from(["insert", "update", "delete", "reinsert"]),
    st.sampled_from(KEYS),
    st.sampled_from(["commit", "abort", "prepare", "open"])),
    min_size=1, max_size=30)


def _write(heap, ltm, op, key, xid, value):
    snapshot = ltm.local_snapshot()
    row = {"k": key, "v": value, "w": None if value % 3 else f"w{value}"}
    if op in ("delete", "reinsert"):
        heap.delete(key, xid, snapshot, ltm.clog)
    if op == "update":
        heap.update(key, row, xid, snapshot, ltm.clog)
    if op in ("insert", "reinsert"):
        heap.insert(key, row, xid, snapshot, ltm.clog)


def run_history(history, snapshot_at):
    """Apply ``history``; return the heap, the clog, the snapshot taken
    before step ``snapshot_at`` and the xids by how they ended."""
    ltm = LocalTransactionManager("dn")
    heap = MvccHeap("t")
    ended = {"commit": [], "abort": [], "prepare": [], "open": []}
    snapshot = None
    for index, (op, key, end) in enumerate(history):
        if index == snapshot_at:
            snapshot = ltm.local_snapshot()
        xid = ltm.begin()
        try:
            _write(heap, ltm, op, key, xid, index)
        except (DuplicateKeyError, SerializationConflict, StorageError):
            end = "abort"
        if end == "abort":
            heap.abort_key(key, xid)
            ltm.abort(xid)
        else:
            ltm.record_write(xid, "t", key)
            if end == "commit":
                ltm.commit(xid)
            elif end == "prepare":
                ltm.prepare(xid)
        ended[end].append(xid)
    if snapshot is None:
        snapshot = ltm.local_snapshot()
    return heap, ltm.clog, snapshot, ended


def _pick(xids, flags):
    return frozenset(x for x, on in zip(xids, flags) if on)


@given(steps, st.integers(min_value=0, max_value=30), st.booleans(),
       st.lists(st.booleans(), max_size=30),
       st.lists(st.booleans(), max_size=30),
       st.integers(min_value=-1, max_value=30))
@settings(max_examples=300, deadline=None)
# a downgrade hides the delete that an older version's xmax records, so the
# walk must go on past the newer, visibly deleted, version
@example(history=[("insert", 0, "commit"), ("delete", 0, "commit"),
                  ("insert", 0, "commit"), ("delete", 0, "commit")],
         snapshot_at=30, merged=True, downgrade=[False, True], upgrade=[],
         own=-1)
def test_walk_matches_point_reads_copies_and_projection(
        history, snapshot_at, merged, downgrade, upgrade, own):
    heap, clog, snapshot, ended = run_history(history, snapshot_at)
    if merged:
        # Alg. 1's adjustments: committed xids hidden (DOWNGRADE),
        # prepared xids revealed (UPGRADE)
        snapshot = MergedSnapshot(
            snapshot.xmin, snapshot.xmax, snapshot.active,
            forced_active=_pick(ended["commit"], downgrade),
            forced_committed=_pick(ended["prepare"], upgrade))
    open_xids = ended["open"]
    own_xid = (open_xids[own % len(open_xids)]
               if open_xids and own >= 0 else INVALID_XID)

    present = sorted((k for k in KEYS if heap.version_chain(k)),
                     key=heap.stamp_of)
    expected = [(k, row) for k in present
                if (row := heap.read(k, snapshot, clog, own_xid)) is not None]

    walked = list(heap.visible(snapshot, clog, own_xid))
    assert walked == expected
    for key, values in walked:          # the stored dicts themselves
        assert any(values is version.values
                   for version in heap.version_chain(key))
    scanned = list(heap.scan(snapshot, clog, own_xid))
    assert scanned == expected
    assert all(copy is not stored
               for (_, copy), (_, stored) in zip(scanned, walked))
    assert list(SCHEMA.rows_of(heap.visible(snapshot, clog, own_xid))) == [
        tuple(values.get(n) for n in SCHEMA.column_names)
        for _, values in scanned]


def test_rows_of_one_column_yields_one_tuples():
    schema = TableSchema("one", [Column("k", DataType.INT)], "k")
    assert list(schema.rows_of([(1, {"k": 1}), (2, {"k": 2})])) == [(1,), (2,)]
