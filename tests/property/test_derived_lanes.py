"""Derived lanes: a chunk ``overlay`` builds from one chunk derives its
decoded vectors from that chunk's instead of decoding them again.

The chunk constant is patched down to ``CHUNK`` rows, so a handful of rows
spans several chunks.  Random histories of inserts, same-stamp updates,
deletes, vacuum, late arrivals, merges and lane scans at held (older) and
fresh snapshots run against one cluster; after every step

* every decoded vector of every served chunk (the frozen set's and each
  composed store's) equals a fresh decode of the same payload: dtype,
  ``data`` bytes and ``validity``, both read-only;
* every vector decoded or derived earlier keeps its bytes, so a child
  derived from a parent — by a composed read and by the next merge, both
  from one frozen tail — never writes into it.

Each history ends in a fixed phase that makes both branches derive and
fills the tail past a chunk boundary, with a same-stamp update and a late
arrival in it.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster.mpp import MppCluster
from repro.htap.store import HtapTableStore
from repro.storage import colstore
from repro.storage.colstore import ColumnChunk
from repro.storage.table import Column, Orientation, TableSchema
from repro.storage.types import DataType

CHUNK = 4


@pytest.fixture(autouse=True, scope="module")
def small_chunks():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(colstore, "DEFAULT_CHUNK_ROWS", CHUNK)
        yield


def schema():
    return TableSchema(
        "c", [Column("k", DataType.INT), Column("b", DataType.BIGINT),
              Column("d", DataType.DOUBLE), Column("t", DataType.TIMESTAMP),
              Column("s", DataType.TEXT)],
        "k", orientation=Orientation.COLUMN)


BIGINTS = st.one_of(st.none(), st.integers(2**53 - 3, 2**53 + 3),
                    st.integers(-2**62, 2**62))
DOUBLES = st.one_of(st.none(), st.sampled_from([math.nan, -0.0, 0.0]),
                    st.floats(allow_nan=True, allow_infinity=True))
STAMPS = st.one_of(st.none(), st.integers(0, 2**48))
TEXTS = st.one_of(st.none(), st.sampled_from(["a", "b", ""]))
VALUES = st.tuples(BIGINTS, DOUBLES, STAMPS, TEXTS)
PICKS = st.integers(min_value=0, max_value=999)
STEPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.lists(VALUES, min_size=1, max_size=3)),
    st.tuples(st.just("update"), PICKS, VALUES),
    st.tuples(st.just("delete"), PICKS),
    st.tuples(st.just("reinsert"), PICKS, VALUES),
    st.tuples(st.just("vacuum")),
    st.tuples(st.just("late_begin")),
    st.tuples(st.just("late_commit")),
    st.tuples(st.just("hold")),
    st.tuples(st.just("read"), PICKS),
    st.tuples(st.just("merge")),
), max_size=30)


def row(key, values):
    return dict(zip(("k", "b", "d", "t", "s"), (key,) + tuple(values)))


class History:
    """One cluster fed a step stream, every served store recorded."""

    def __init__(self, served):
        self.cluster = MppCluster(num_dns=1)
        self.cluster.create_table(schema())
        self.served = served
        self.live = []
        self.next_key = 0
        self.late = None
        self.held = []              # readers whose snapshots are kept
        self.seen = {}              # id -> (vector, its lane bytes)

    def commit(self, *ops):
        txn = self.cluster.session().begin(multi_shard=True)
        for op in ops:
            getattr(txn, op[0])("c", *op[1:])
        txn.commit()

    def insert(self, rows):
        keys = range(self.next_key, self.next_key + len(rows))
        self.commit(*(("insert", row(k, v)) for k, v in zip(keys, rows)))
        self.live.extend(keys)
        self.next_key += len(rows)

    def scan(self, txn=None):
        fresh = txn is None
        txn = txn or self.cluster.session().begin(multi_shard=True)
        list(txn.scan_shard_lanes("c", 0))
        if fresh:
            txn.commit()

    def merge(self):
        self.cluster.htap.tick()
        self.served.append(
            self.cluster.dns[0].htap.tables["c"].frozen.store)

    def apply(self, step):
        kind = step[0]
        if kind == "insert":
            self.insert(step[1])
        elif kind in ("update", "delete", "reinsert") and self.live:
            key = self.live[step[1] % len(self.live)]
            if kind == "update":
                values = row(key, step[2])
                del values["k"]
                self.commit(("update", key, values))
                return
            self.commit(("delete", key))
            self.live.remove(key)
            if kind == "reinsert":
                self.cluster.vacuum()
                self.commit(("insert", row(key, step[2])))
                self.live.append(key)
        elif kind == "vacuum":
            self.cluster.vacuum()
        elif kind == "late_begin" and self.late is None:
            # Arrives in the heap now, commits after later rows froze.
            txn = self.cluster.session().begin(multi_shard=True)
            txn.insert("c", row(self.next_key, (None,) * 4))
            self.late = txn, self.next_key
            self.next_key += 1
        elif kind == "late_commit" and self.late is not None:
            txn, key = self.late
            txn.commit()
            self.live.append(key)
            self.late = None
        elif kind == "hold" and len(self.held) < 2:
            txn = self.cluster.session().begin(multi_shard=True)
            self.scan(txn)          # its snapshots are taken now
            self.held.append(txn)
        elif kind == "read":
            # A held reader (an older snapshot) or a fresh one.
            readers = self.held + [None]
            self.scan(readers[step[1] % len(readers)])
        elif kind == "merge":
            self.merge()

    def check(self):
        """Every decoded vector of every served chunk is a fresh decode of
        its payload, and no vector seen before has changed."""
        for store in self.served:
            for sealed in store._sealed:
                for chunk in sealed.values():
                    if chunk._decoded is not None:
                        assert_is_fresh_decode(chunk)
                        vec = chunk._decoded
                        self.seen.setdefault(id(vec), (vec, lane_bytes(vec)))
        self.served.clear()
        for vec, before in self.seen.values():
            assert lane_bytes(vec) == before

    def end(self):
        for txn in self.held:
            txn.commit()
        if self.late is not None:
            self.late[0].commit()


def lane_bytes(vec):
    data = vec.data
    data = data.tobytes() if data.dtype != object else tuple(data)
    return data, vec.validity.tobytes()


def assert_is_fresh_decode(chunk):
    vec = chunk._decoded
    fresh = ColumnChunk(chunk.column, chunk.data_type, chunk.codec,
                        chunk.payload, chunk.row_count).decode_with_nulls()
    assert vec.data.dtype == fresh.data.dtype
    assert lane_bytes(vec) == lane_bytes(fresh)
    for arrays in ((vec.data, vec.validity), (fresh.data, fresh.validity)):
        assert not any(array.flags.writeable for array in arrays)


ROUNDS = (1, 2, 1, 2, 1)          # rows each closing round appends


def record(patch, served, derived):
    """Collect every store ``compose`` serves into ``served`` and, for each
    chunk that derived its key lanes, ``(source, source rows, rows)`` into
    ``derived``."""
    compose, derive = HtapTableStore.compose, ColumnChunk.derive_decoded

    def composing(self, dn, snapshot, own_xid=0):
        store = compose(self, dn, snapshot, own_xid)
        if store is not None:
            served.append(store)
        return store

    def deriving(self, source, start, offsets):
        derive(self, source, start, offsets)
        if self._decoded is not None and self.column == "k":
            derived.append((source, start, self.row_count))

    patch.setattr(HtapTableStore, "compose", composing)
    patch.setattr(ColumnChunk, "derive_decoded", deriving)


NULLS = (None,) * 4
ZERO, NEG_ZERO = (None, 0.0, None, None), (None, -0.0, None, None)


@given(steps=STEPS,
       tail=st.lists(VALUES, min_size=sum(ROUNDS), max_size=sum(ROUNDS)))
@example(  # a delete in the decoded tail: re-chunked, not derived
    steps=[("insert", [NULLS] * 2), ("merge",), ("read", 0), ("delete", 1),
           ("read", 0)], tail=[NULLS] * sum(ROUNDS))
@example(  # a late row lands inside the decoded tail: not derived
    steps=[("insert", [NULLS]), ("late_begin",), ("insert", [NULLS] * 2),
           ("merge",), ("read", 0), ("late_commit",), ("read", 0)],
    tail=[NULLS] * sum(ROUNDS))
@example(  # a full chunk whose ``d`` is one RLE run of 0.0 and -0.0 lanes:
    # a patched copy must not derive from the run's decoded vector
    steps=[("insert", [ZERO, NEG_ZERO, ZERO, NEG_ZERO]), ("merge",),
           ("read", 0), ("update", 0, ZERO), ("read", 0)],
    tail=[NULLS] * sum(ROUNDS))
@settings(max_examples=100, deadline=None)
def test_derived_lanes_are_a_fresh_decode(steps, tail):
    served, derived = [], []
    with pytest.MonkeyPatch.context() as patch:
        record(patch, served, derived)
        history = History(served)
        try:
            for step in steps:
                history.apply(step)
                history.check()
            close(history, tail)
        finally:
            history.end()
    assert len(derived) >= 3
    # a composed read and the next merge derived from one frozen tail
    sources = [source for source, _start, _rows in derived]
    assert any(sum(other is source for other in sources) > 1
               for source in sources)
    # a derived chunk filled up: the next row crosses a chunk boundary
    assert any(start < rows == CHUNK for _source, start, rows in derived)


def close(history, tail):
    """Rounds that make both branches derive from a decoded frozen tail:
    each appends ``ROUNDS`` rows and patches the row the round before
    appended last, then a composed read, the merge and a frozen read.  A
    late row arrives after the first round's rows and commits before the
    fourth round, so it lands mid-set — often inside the decoded tail."""
    history.apply(("late_commit",))
    history.merge()
    history.scan()
    history.check()
    at = 0
    for index, rows in enumerate(ROUNDS):
        if index in (1, 3):
            history.apply(("late_begin",) if index == 1 else ("late_commit",))
        if at:
            # ``t`` < 0 differs from every inserted stamp.
            history.commit(("update", last, {
                "b": tail[at][0], "d": tail[at][1], "t": -at}))
        history.insert(tail[at:at + rows])
        last = history.next_key - 1
        at += rows
        history.scan()
        history.check()
        history.merge()
        history.check()
        history.scan()
        history.check()
