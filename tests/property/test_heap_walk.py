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


#: TEXT values a write picks from: values are seen again, and ``""`` is a
#: value beside NULL.
TEXTS = ("", "a", "b", "c", "d", "e")


def _write(heap, ltm, op, key, xid, value):
    snapshot = ltm.local_snapshot()
    row = {"k": key,
           # now and then an INT past int64: the walk types it as objects
           "v": value if value % 12 != 5 else 2 ** 63 + value,
           "w": None if value % 3 else TEXTS[value // 3 % len(TEXTS)]}
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


# -- the column image a lane scan reuses and patches ---------------------------
#
# ``DataNode.scan_lanes`` serves a row table from the typed batch of an
# earlier scan while the heap's mutation count holds and the snapshot
# decides every recorded xid the same way, and patches it (only the keys
# written since are decided again) while the heap's record of those keys
# lasts.  Under random programs — writes that commit, abort, stay prepared
# or stay open, later resolutions of the pending ones, rollbacks through
# ``abort_key``, vacuums, deletes and re-inserts, TEXT values seen before
# and new ones, NULLs beside ``""``, INT values past int64 — and scans under
# fresh or older snapshots, plain or merged, with or without an open xid's
# own writes, every scan must equal a fresh walk row for row and type for
# type; the image must be the batch a fresh walk types (dtypes, validity,
# TEXT dictionaries and codes) and record what a fresh walk records (the
# xids it decides and how, how often each is consulted, the rows' stamps);
# and it must be replaced exactly when the count or a decision changed.

_write_step = st.tuples(
    st.just("write"), st.sampled_from(["insert", "update", "delete",
                                       "reinsert"]),
    st.sampled_from(KEYS), st.sampled_from(["commit", "abort", "prepare",
                                            "open"]))
_resolve_step = st.tuples(st.just("resolve"), st.integers(0, 30),
                          st.sampled_from(["commit", "abort"]))
_scan_step = st.tuples(
    st.just("scan"), st.integers(-1, 30), st.booleans(),
    st.lists(st.booleans(), max_size=12), st.lists(st.booleans(), max_size=12),
    st.integers(-1, 30))
#: A plain scan under a fresh snapshot: what a patch most often serves.
_SCAN = ("scan", -1, False, [], [], -1)
programs = st.lists(st.one_of(_write_step, _write_step, _resolve_step,
                              st.tuples(st.just("vacuum")), _scan_step,
                              st.just(_SCAN)),
                    min_size=8, max_size=40)
#: A chain that vacuum removed, inserted again: it arrives anew, after the
#: key that was behind it.
_REINSERTED = [_SCAN, ("write", "insert", 0, "commit"),
               ("write", "insert", 1, "commit"), _SCAN,
               ("write", "delete", 0, "commit"), ("vacuum",),
               ("write", "insert", 0, "commit"), _SCAN]
#: Step 5 writes an INT past int64: the lane a walk types turns to objects,
#: and back to int64 once that row is gone.
_WIDENED = [("write", "insert", 0, "commit"), _SCAN, _SCAN, _SCAN, _SCAN,
            ("write", "insert", 1, "commit"), _SCAN,
            ("write", "delete", 1, "commit"), _SCAN]


def _image_rows(batches):
    from repro.exec.batch import rows_from_batches

    return list(rows_from_batches(batches))


def test_image_scans_are_fresh_walks_and_images_are_patched():
    patches = []

    @given(programs, st.sampled_from([2, 1024]))
    @settings(max_examples=250, deadline=None)
    @example(program=_REINSERTED, batch_rows=1024)
    @example(program=_WIDENED, batch_rows=2)
    def scans_are_fresh_walks(program, batch_rows):
        patches.append(_run_image_program(program, batch_rows))

    scans_are_fresh_walks()
    # a design that walks again after every write passes every check above:
    # patches must happen (the programs write TEXT values both seen and
    # unseen, so walking on an unseen one would not hide them all)
    assert sum(patches) > 0


#: Keys no program writes, loaded first: an image holds more rows than a
#: program writes keys, so a patch has untouched rows to keep.  Their
#: TEXT values are some of ``TEXTS``: the others arrive unseen.
BACKGROUND = range(30, 40)


def _run_image_program(program, batch_rows):
    """Run ``program`` on a data node over the ``BACKGROUND`` rows; returns
    how many scans patched."""
    import pytest

    import repro.exec.batch as batch_mod
    from repro.cluster.datanode import DataNode

    dn = DataNode("dn", 0)
    dn.create_table(SCHEMA)
    heap, ltm = dn.heap("t"), dn.ltm
    clog = ltm.clog
    loader = ltm.begin()
    for key in BACKGROUND:
        _write(heap, ltm, "insert", key, loader, key)
    ltm.commit(loader)
    pending = []                # (xid, key) still prepared or open
    snapshots = [ltm.local_snapshot()]
    committed, prepared = [loader], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch_mod, "DEFAULT_BATCH_SIZE", batch_rows)
        for index, step in enumerate(program):
            if step[0] == "write":
                _, op, key, end = step
                xid = ltm.begin()
                try:
                    _write(heap, ltm, op, key, xid, index)
                except (DuplicateKeyError, SerializationConflict,
                        StorageError):
                    end = "abort"
                if end == "abort":
                    heap.abort_key(key, xid)
                    ltm.abort(xid)
                    continue
                ltm.record_write(xid, "t", key)
                if end == "commit":
                    ltm.commit(xid)
                    committed.append(xid)
                else:
                    if end == "prepare":
                        ltm.prepare(xid)
                        prepared.append(xid)
                    pending.append((xid, key))
            elif step[0] == "resolve":
                if not pending:
                    continue
                xid, key = pending.pop(step[1] % len(pending))
                if step[2] == "commit":
                    ltm.commit(xid)
                    committed.append(xid)
                else:
                    heap.abort_key(key, xid)
                    ltm.abort(xid)
            elif step[0] == "vacuum":
                heap.vacuum(ltm.local_snapshot(), clog)
            else:
                _, pick, merged, downgrade, upgrade, own = step
                snapshots.append(ltm.local_snapshot())
                snapshot = snapshots[pick % len(snapshots)]
                open_xids = [x for x, _ in pending if x not in prepared]
                if merged:
                    snapshot = MergedSnapshot(
                        snapshot.xmin, snapshot.xmax, snapshot.active,
                        forced_active=_pick(committed, downgrade),
                        forced_committed=_pick(
                            [x for x, _ in pending if x in prepared],
                            upgrade))
                own_xid = (open_xids[own % len(open_xids)]
                           if open_xids and own >= 0 else INVALID_XID)
                _check_image_scan(dn, heap, snapshot, clog, own_xid,
                                  batch_rows)
    return dn._n_patches


def _check_image_scan(dn, heap, snapshot, clog, own_xid, batch_rows):
    before = dn._images.get("t")
    stale = before is None or heap.mutations != before.mutations or any(
        snapshot.xid_visible(x, clog, own_xid) != ok
        for x, ok in before.decisions.items())
    fresh_decisions, fresh_refs = {}, {}
    items = list(heap.visible(snapshot, clog, own_xid, fresh_decisions,
                              fresh_refs))
    fresh = list(SCHEMA.rows_of(items))
    n_scan, n_rows = dn._n_scan, dn._n_rows

    batches = list(dn.scan_lanes("t", snapshot, own_xid))

    rows = _image_rows(batches)
    assert rows == fresh
    assert [tuple(map(type, row)) for row in rows] == [
        tuple(map(type, row)) for row in fresh]
    assert dn._n_scan == n_scan + 1 and dn._n_rows == n_rows + len(fresh)
    assert [b.n for b in batches] == [
        min(batch_rows, len(fresh) - start)
        for start in range(0, len(fresh), batch_rows)]
    image = dn._images["t"]
    assert (image is not before) == stale
    # an image records what a fresh walk records: the same xids decided
    # the same way (in any order), each consulted as often, the same stamps
    assert image.decisions == fresh_decisions
    assert image.refs == fresh_refs
    assert image.stamps.tolist() == [heap.stamp_of(k) for k, _ in items]
    _assert_typed_as_a_walk(image.batch, fresh)
    for batch in batches:           # shared by every scan it serves
        for vec in batch.columns:
            assert not vec.validity.flags.writeable
            assert not (vec.codes if vec.codes is not None
                        else vec.data).flags.writeable


def _assert_typed_as_a_walk(batch, fresh):
    """``batch`` holds the lanes ``batch_of_rows`` types from ``fresh``."""
    from repro.exec.batch import batch_of_rows

    if not fresh:
        assert batch is None
        return
    walked = batch_of_rows(fresh, [c.data_type for c in SCHEMA.columns])
    assert batch.n == walked.n
    for got, want in zip(batch.columns, walked.columns):
        assert got.validity.tolist() == want.validity.tolist()
        if want.dictionary is None:
            assert got.dictionary is None
            assert got.data.dtype == want.data.dtype
            assert got.data.tolist() == want.data.tolist()
        else:
            assert got.dictionary.tolist() == want.dictionary.tolist()
            assert got.codes.dtype == want.codes.dtype
            assert got.codes.tolist() == want.codes.tolist()


def test_image_is_reused_until_a_write_or_a_resolution_changes_a_decision():
    from repro.cluster.datanode import DataNode

    dn = DataNode("dn", 0)
    dn.create_table(SCHEMA)
    heap, ltm = dn.heap("t"), dn.ltm

    def scan(xid=INVALID_XID):
        rows = _image_rows(dn.scan_lanes("t", ltm.local_snapshot(), xid))
        return rows, dn._images["t"]

    loader = ltm.begin()
    for key in KEYS:
        _write(heap, ltm, "insert", key, loader, key)
    ltm.commit(loader)
    rows, image = scan()
    assert [row[0] for row in rows] == list(KEYS)
    assert scan() == (rows, image)                  # unwritten: reused

    writer = ltm.begin()                            # an uncommitted update
    _write(heap, ltm, "update", 1, writer, 10)
    rows_before, rebuilt = scan()
    assert rebuilt is not image and rows_before == rows
    assert scan()[1] is rebuilt                     # still in progress
    own_rows, own = scan(writer)                    # the writer sees its own
    assert own is not rebuilt and own_rows[1] == (1, 10, None)

    ltm.prepare(writer)
    ltm.commit(writer)
    # a plain reader now decides every xid as the writer did: reused
    assert scan() == (own_rows, own)

    second = ltm.begin()
    _write(heap, ltm, "update", 2, second, 20)
    ltm.prepare(second)
    before_commit, hidden = scan()
    assert hidden is not own and before_commit[2] == (2, 2, None)
    ltm.commit(second)                              # no write, new decision
    after, resolved = scan()
    assert resolved is not hidden and after[2] == (2, 20, None)
    assert scan()[1] is resolved
