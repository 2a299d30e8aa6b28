"""Multi-chunk HTAP: the overlay that merge and compose share.

Every other HTAP test lives inside one 4 096-row chunk.  Here the chunk
constant is patched down to ``CHUNK`` rows for the whole module, so a few
dozen rows span several chunks and the properties the overlay must keep
become checkable:

* the composed store equals the heap-walk store *chunk for chunk*, and a
  lane scan yields one batch per composed chunk with the heap walk's rows;
  the SQL aggregates stay bit-equal to a row-oriented twin, whose table
  gets no HTAP state and so runs the seed path;
* a merge shares (``is``) every chunk it did not have to touch;
* only a full chunk is compressed, and exactly once;
* a store handed to a reader never changes under later commits and merges;
* a crash inside the merge body publishes nothing.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.mpp import MppCluster
from repro.exec.batch import rows_from_batches
from repro.htap import store as store_module
from repro.htap.manager import _row_bytes
from repro.sql.engine import SqlEngine
from repro.storage import colstore, compression
from repro.storage.colstore import ColumnStore
from repro.storage.table import Column, Orientation, TableSchema
from repro.storage.types import DataType

CHUNK = 8


@pytest.fixture(autouse=True, scope="module")
def small_chunks():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(colstore, "DEFAULT_CHUNK_ROWS", CHUNK)
        yield


def schema(name="c", orientation=Orientation.COLUMN):
    return TableSchema(
        name,
        [Column("k", DataType.INT), Column("v", DataType.INT),
         Column("w", DataType.DOUBLE), Column("s", DataType.TEXT)],
        "k", orientation=orientation)


def build(num_dns=1, orientation=Orientation.COLUMN):
    cluster = MppCluster(num_dns=num_dns)
    cluster.create_table(schema(orientation=orientation))
    return cluster


def row(k, v=0, w=None, s=None):
    return {"k": k, "v": v, "w": w, "s": s}


def commit(cluster, *ops):
    """One transaction of ``("insert", row)`` / ``("update", k, values)`` /
    ``("delete", k)`` ops."""
    txn = cluster.session().begin(multi_shard=True)
    for op in ops:
        getattr(txn, op[0])("c", *op[1:])
    txn.commit()


def load(cluster, count):
    commit(cluster, *(("insert", row(k, k, k / 4.0, f"s{k % 3}"))
                      for k in range(count)))
    cluster.htap.tick()


def chunk_lengths(store):
    return [len(chunk["k"]) for chunk in store.scan_chunks(["k"])]


def assert_serves_chunk_for_chunk(cluster, table="c"):
    """Every DN's composed store equals the heap walk: rows *and*
    boundaries; its lane scan is those chunks, batch for chunk."""
    txn = cluster.session().begin(multi_shard=True)
    for dn_index, dn in enumerate(cluster.dns):
        names = dn._schemas[table].column_names
        batches = list(txn.scan_shard_lanes(table, dn_index))
        view, xid = txn._local_view[dn_index], txn._local_xid[dn_index]
        served = dn.htap.tables[table].compose(dn, view, xid)
        oracle = ColumnStore(dn._schemas[table], compress=False)
        oracle.append_rows(
            values for _key, values in dn.heap(table).scan(
                view, dn.ltm.clog, xid))
        oracle.flush()
        assert served.chunk_count == oracle.chunk_count
        assert chunk_lengths(served) == chunk_lengths(oracle)
        assert list(served.scan_rows()) == list(oracle.scan_rows())
        assert [batch.n for batch in batches] == chunk_lengths(oracle)
        assert [dict(zip(names, row)) for row in rows_from_batches(
            batches)] == list(oracle.scan_rows())
        for sealed in served._sealed:
            if next(iter(sealed.values())).row_count < CHUNK:
                # Only a full chunk is ever compressed.
                assert {c.codec for c in sealed.values()} == {"plain"}
    txn.commit()


def serve(cluster, dn_index=0):
    """The store a fresh reader's lane scan of ``dn_index`` is served from."""
    reader = cluster.session().begin(multi_shard=True)
    dn, lxid, view = reader._scan_site(dn_index)
    served = dn.htap.tables["c"].compose(dn, view, lxid)
    reader.commit()
    return served


# -- random streams ------------------------------------------------------------

PICKS = st.integers(min_value=0, max_value=999)
DOUBLES = st.one_of(
    st.none(), st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
TEXTS = st.one_of(st.none(), st.sampled_from(["a", "b", "c"]))
STEPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.sampled_from([1, 2, 9]), DOUBLES, TEXTS),
    st.tuples(st.just("update"), PICKS, DOUBLES, TEXTS),
    st.tuples(st.just("delete"), PICKS),
    st.tuples(st.just("reinsert"), PICKS, DOUBLES, TEXTS),
    st.tuples(st.just("late_begin")),
    st.tuples(st.just("late_commit")),
    st.tuples(st.just("merge")),
    st.tuples(st.just("read")),
), min_size=1, max_size=60)


class Twin:
    """One cluster fed a step stream.  Keys come from a counter and picks
    index the live keys, so the same stream drives a column table and its
    row-oriented twin in lockstep."""

    def __init__(self, num_dns, preload, orientation=Orientation.COLUMN):
        self.cluster = build(num_dns, orientation)
        self.engine = SqlEngine(self.cluster)
        self.live = []
        self.next_key = preload
        self.late = None          # (open transaction, the key it inserted)
        if preload:
            load(self.cluster, preload)
            self.live = list(range(preload))

    def apply(self, step, marker):
        kind = step[0]
        if kind == "insert":
            keys = range(self.next_key + 1, self.next_key + 1 + step[1])
            commit(self.cluster, *(("insert", row(key, marker, *step[2:]))
                                   for key in keys))
            self.live.extend(keys)
            self.next_key = keys[-1]
        elif kind == "late_begin" and self.late is None:
            # The key arrives in the heap now but commits later — after
            # merges froze rows that arrived behind it — so it lands mid-set.
            self.next_key += 1
            txn = self.cluster.session().begin(multi_shard=True)
            txn.insert("c", row(self.next_key, marker))
            self.late = txn, self.next_key
        elif kind == "late_commit" and self.late is not None:
            txn, key = self.late
            txn.commit()
            self.live.append(key)
            self.late = None
        elif kind in ("update", "delete", "reinsert") and self.live:
            key = self.live[step[1] % len(self.live)]
            if kind == "update":
                commit(self.cluster, ("update", key, {
                    "v": marker, "w": step[2], "s": step[3]}))
                return
            commit(self.cluster, ("delete", key))
            self.live.remove(key)
            if kind == "reinsert":
                # Drop the dead chain before inserting again: the key comes
                # back at a new heap position, which the overlay must follow.
                self.cluster.vacuum()
                commit(self.cluster,
                       ("insert", row(key, marker, step[2], step[3])))
                self.live.append(key)

    def aggregate(self):
        return self.engine.execute(
            "select sum(w), count(w), count(*), min(s) from c").rows


def untouched_chunks(table_store):
    """Indices of frozen chunks the pending delta cannot have touched: no
    entry addresses a row in them and no row before them moves."""
    frozen = table_store.frozen
    last_stamps = [chunk.stamps[-1] for chunk in frozen.chunks]
    touched, shift_from = set(), len(frozen.chunks)
    for entry in table_store.delta.entries:
        pos = frozen.pos_by_key.get(entry.key)
        if pos is not None:
            index = pos // CHUNK
            touched.add(index)
            if (entry.values is not None and entry.stamp
                    == frozen.chunks[index].stamps[pos % CHUNK]):
                continue
            shift_from = min(shift_from, index)
        if entry.values is not None:
            index = sum(1 for stamp in last_stamps if stamp < entry.stamp)
            if (index == len(last_stamps) and frozen.chunks
                    and len(frozen.chunks[-1].keys) < CHUNK):
                index -= 1
            shift_from = min(shift_from, index)
    return [i for i in range(shift_from) if i not in touched]


class TestRandomStreams:
    @given(steps=STEPS, num_dns=st.sampled_from([1, 2]),
           preload=st.sampled_from([0, 7, 8, 20, 33]))
    @settings(max_examples=150, deadline=None)
    def test_served_store_is_the_heap_walk_chunk_for_chunk(self, steps,
                                                           num_dns, preload):
        served = Twin(num_dns, preload)
        bare = Twin(num_dns, preload, Orientation.ROW)
        cluster = served.cluster
        for marker, step in enumerate(steps + [("late_commit",)]):
            if step[0] == "merge":
                stores = [dn.htap.tables["c"] for dn in cluster.dns]
                before = [(s.frozen.chunks, untouched_chunks(s))
                          for s in stores]
                cluster.htap.tick()
                for s, (old, untouched) in zip(stores, before):
                    assert len(s.delta) == 0
                    for index in untouched:
                        assert s.frozen.chunks[index] is old[index]
            elif step[0] == "read":
                assert_serves_chunk_for_chunk(cluster)
                # Bit-equal floats, not merely close ones.
                assert repr(served.aggregate()) == repr(bare.aggregate())
            else:
                served.apply(step, marker)
                bare.apply(step, marker)
        assert_serves_chunk_for_chunk(cluster)
        assert repr(served.aggregate()) == repr(bare.aggregate())
        cluster.htap.tick()
        assert_serves_chunk_for_chunk(cluster)
        assert repr(served.aggregate()) == repr(bare.aggregate())


# -- what a merge touches ------------------------------------------------------

class TestMergeTouchesOnlyTheDelta:
    def test_insert_only_merge_appends_to_the_last_chunk(self):
        cluster = build()
        load(cluster, 20)                       # chunks of 8, 8, 4 rows
        table_store = cluster.dns[0].htap.tables["c"]
        old = table_store.frozen.chunks
        assert [len(c.keys) for c in old] == [8, 8, 4]
        commit(cluster, ("insert", row(100)), ("insert", row(101)))
        cluster.htap.tick()
        new = table_store.frozen.chunks
        assert new[0] is old[0] and new[1] is old[1]
        assert [len(c.keys) for c in new] == [8, 8, 6]
        event = cluster.htap.history[-1]
        assert (event.chunks_rewritten, event.chunks_total) == (1, 3)
        assert event.bytes <= 2 * 2 * _row_bytes(table_store.schema)
        assert_serves_chunk_for_chunk(cluster)

    def test_update_copies_only_its_chunk(self):
        cluster = build()
        load(cluster, 20)
        table_store = cluster.dns[0].htap.tables["c"]
        old = table_store.frozen.chunks
        decoded = old[2].sealed(table_store.schema, True)["k"].decode_with_nulls()
        commit(cluster, ("update", 3, {"v": 333}))
        cluster.htap.tick()
        new = table_store.frozen.chunks
        assert new[0] is not old[0]
        assert new[1] is old[1] and new[2] is old[2]
        # ... and an untouched chunk keeps its decoded vectors.
        assert new[2].sealed(table_store.schema, True)["k"].decode_with_nulls() \
            is decoded
        event = cluster.htap.history[-1]
        assert (event.chunks_rewritten, event.chunks_total) == (1, 3)
        assert_serves_chunk_for_chunk(cluster)

    def test_delete_rechunks_from_the_disturbed_chunk_on(self):
        cluster = build()
        load(cluster, 20)
        table_store = cluster.dns[0].htap.tables["c"]
        old = table_store.frozen.chunks
        commit(cluster, ("delete", 9))
        cluster.htap.tick()
        new = table_store.frozen.chunks
        assert new[0] is old[0]
        assert [len(c.keys) for c in new] == [8, 8, 3]
        assert cluster.htap.history[-1].chunks_rewritten == 2
        assert table_store.frozen.pos_by_key[10] == 9
        assert 9 not in table_store.frozen.pos_by_key
        assert_serves_chunk_for_chunk(cluster)

    def test_composed_read_shares_untouched_chunks_with_the_frozen_set(self):
        cluster = build()
        load(cluster, 20)
        frozen = cluster.dns[0].htap.tables["c"].frozen
        commit(cluster, ("insert", row(100)))
        composed = serve(cluster)
        assert composed is not frozen.store
        assert composed._sealed[0] is frozen.store._sealed[0]
        assert composed._sealed[1] is frozen.store._sealed[1]
        assert chunk_lengths(composed) == [8, 8, 5]

    def test_a_chunk_is_compressed_once_when_it_fills(self, monkeypatch):
        calls = []
        real = compression.best_codec
        monkeypatch.setattr(compression, "best_codec",
                            lambda values: calls.append(1) or real(values))
        cluster = build()
        columns = len(schema().columns)
        load(cluster, 5)
        table_store = cluster.dns[0].htap.tables["c"]
        assert not calls                         # a short last chunk is plain
        commit(cluster, *(("insert", row(k, k)) for k in range(5, 8)))
        serve(cluster)                           # a composed read compresses nothing
        assert not calls
        cluster.htap.tick()                      # the chunk fills: encoded now
        assert len(calls) == columns
        full = table_store.frozen.chunks[0]
        assert full.sealed(table_store.schema, True)["k"].codec != "plain"
        for k in range(8, 12):                   # later merges and reads reuse it
            commit(cluster, ("insert", row(k, k)))
            serve(cluster)
            cluster.htap.tick()
        assert len(calls) == columns
        assert table_store.frozen.chunks[0] is full
        assert_serves_chunk_for_chunk(cluster)


# -- reader isolation ----------------------------------------------------------

class TestReaderIsolation:
    def test_served_stores_never_change_under_later_commits_and_merges(self):
        cluster = build()
        load(cluster, 20)
        table_store = cluster.dns[0].htap.tables["c"]
        frozen_scanned, frozen_cold = serve(cluster), serve(cluster)
        assert frozen_scanned is table_store.frozen.store
        frozen_rows = list(frozen_scanned.scan_rows())
        commit(cluster, ("insert", row(100, 1, 0.5, "x")),
               ("update", 2, {"v": 222}), ("delete", 17))
        composed_scanned, composed_cold = serve(cluster), serve(cluster)
        composed_rows = list(composed_scanned.scan_rows())
        assert composed_rows != frozen_rows
        for k in range(200, 212):
            commit(cluster, ("insert", row(k, k)), ("update", 1, {"v": k}),
                   ("update", 100, {"v": k}))
            if k % 3 == 0:
                commit(cluster, ("delete", k - 1))
            cluster.htap.tick()
        # Scanned before or only now, each store shows what it was served with.
        assert list(frozen_scanned.scan_rows()) == frozen_rows
        assert list(frozen_cold.scan_rows()) == frozen_rows
        assert list(composed_scanned.scan_rows()) == composed_rows
        assert list(composed_cold.scan_rows()) == composed_rows
        for store in (frozen_cold, composed_cold):
            for chunk in store.scan_chunks():
                for vector in chunk.values():
                    assert not vector.data.flags.writeable
                    assert not vector.validity.flags.writeable
        # No delta entry is visible now: the frozen store itself is served.
        assert serve(cluster) is table_store.frozen.store


# -- crash inside the merge body ------------------------------------------------

class TestCrashMidMerge:
    def test_crash_after_first_rewritten_chunk_publishes_nothing(self, monkeypatch):
        cluster = build()
        cluster.create_table(TableSchema(
            "a", [Column("k", DataType.INT), Column("u", DataType.INT)], "k",
            orientation=Orientation.COLUMN))
        load(cluster, 20)
        table_store = cluster.dns[0].htap.tables["c"]
        # Table "a" merges first and succeeds, so the tick has a live span
        # when table "c"'s merge dies: one same-stamp update (chunk 0 is
        # copied) and one delete (chunks 1.. are re-chunked).
        txn = cluster.session().begin(multi_shard=True)
        txn.insert("a", {"k": 1, "u": 1})
        txn.update("c", 2, {"v": 222})
        txn.delete("c", 12)
        txn.commit()
        frozen = table_store.frozen
        chunks, pos_by_key = list(frozen.chunks), dict(frozen.pos_by_key)
        pending = len(table_store.delta)

        class Exploding(store_module.FrozenChunk):
            __slots__ = ()
            built = 0

            def __init__(self, keys, stamps, columns):
                if "v" in columns:
                    if Exploding.built:
                        raise RuntimeError("crash mid-merge")
                    Exploding.built += 1
                super().__init__(keys, stamps, columns)

        with monkeypatch.context() as patch:
            patch.setattr(store_module, "FrozenChunk", Exploding)
            with pytest.raises(RuntimeError, match="crash mid-merge"):
                cluster.htap.tick()
        assert Exploding.built == 1
        assert table_store.frozen is frozen
        assert all(a is b for a, b in zip(frozen.chunks, chunks))
        assert len(frozen.chunks) == len(chunks)
        assert frozen.pos_by_key == pos_by_key
        assert len(table_store.delta) == pending
        assert frozen.merged_seq == table_store.delta.next_seq - pending
        assert_serves_chunk_for_chunk(cluster)
        # The tick cleaned up after itself: its span ended, and nothing
        # later parents to it.
        tracer = cluster.obs.tracer
        dead_tick = tracer.finished_spans("htap.tick")[-1]
        assert not cluster.htap._in_tick and cluster.htap._tick_span is None
        assert cluster.htap.tick() == 1
        assert len(table_store.delta) == 0
        assert table_store.frozen.merged_seq == table_store.delta.next_seq
        tick = tracer.finished_spans("htap.tick")[-1]
        merge = tracer.finished_spans("htap.merge")[-1]
        assert tick.span_id != dead_tick.span_id
        assert merge.parent_id == tick.span_id
        assert merge.get_attribute("table") == "c"
        assert_serves_chunk_for_chunk(cluster)
