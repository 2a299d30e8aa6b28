"""A column table's lane scan: ``DataNode.scan_lanes`` over HTAP state.

A column table with HTAP state is scanned through the same entry point as
a row table: ``scan_lanes`` yields one read-only batch per chunk of the
store ``HtapTableStore.compose`` serves — its decoded vectors, not copies.
When ``compose`` declines (here: the reader's own uncommitted writes), the
scan counts ``htap.cold_rebuilds`` and reads the row-table column image
instead, in ``DEFAULT_BATCH_SIZE`` slices.  Either way the data nodes
count one ``dn.scan`` and one ``exec.rows`` per visible row, and a float
aggregate over the two reads is bit-identical.
"""

import pytest

from repro.cluster.mpp import MppCluster
from repro.exec.batch import enable_batches
from repro.htap.store import HtapTableStore
from repro.sql.engine import SqlEngine
from repro.sql.parser import parse
from repro.storage import colstore
from repro.storage.table import Column, Orientation, TableSchema
from repro.storage.types import DataType

COUNTERS = ("dn.scan", "exec.rows", "htap.scans_frozen",
            "htap.scans_composed", "htap.cold_rebuilds")


def schema():
    return TableSchema(
        "c", [Column("k", DataType.INT), Column("v", DataType.INT),
              Column("x", DataType.DOUBLE), Column("s", DataType.TEXT)],
        "k", orientation=Orientation.COLUMN)


def insert(cluster, keys, x=lambda k: k / 10):
    txn = cluster.session().begin(multi_shard=True)
    for k in keys:
        txn.insert("c", {"k": k, "v": k % 5, "x": x(k), "s": "ab"[k % 2]})
    txn.commit()


def counts(cluster):
    metrics = cluster.obs.metrics
    return {name: metrics.value(name) or 0.0 for name in COUNTERS}


def moved(before, after):
    return {name: after[name] - before[name] for name in COUNTERS}


@pytest.fixture
def served(monkeypatch):
    """Every store ``compose`` returns, in call order."""
    stores = []
    real = HtapTableStore.compose

    def compose(self, dn, snapshot, own_xid=0):
        stores.append(real(self, dn, snapshot, own_xid))
        return stores[-1]

    monkeypatch.setattr(HtapTableStore, "compose", compose)
    return stores


@pytest.fixture
def cluster(monkeypatch):
    monkeypatch.setattr(colstore, "DEFAULT_CHUNK_ROWS", 8)
    cluster = MppCluster(num_dns=1)
    cluster.create_table(schema())
    insert(cluster, range(20))
    cluster.htap.tick()
    return cluster


def scan(cluster, txn=None):
    own = txn is None
    txn = txn or cluster.session().begin(multi_shard=True)
    batches = list(txn.scan_shard_lanes("c", 0))
    if own:
        txn.commit()
    return batches


def assert_batches_are_the_chunks(batches, store):
    names = schema().column_names
    chunks = list(store.scan_chunks(names))
    assert [batch.n for batch in batches] == [len(c["k"]) for c in chunks]
    for batch, chunk in zip(batches, chunks):
        assert all(vec is chunk[name]
                   for vec, name in zip(batch.columns, names))
        for vec in batch.columns:
            assert not vec.validity.flags.writeable
            assert not vec.data.flags.writeable


class TestComposedLanes:
    def test_a_clean_snapshot_yields_the_frozen_vectors(self, cluster,
                                                        served):
        dn = cluster.dns[0]
        before = counts(cluster)
        batches = scan(cluster)
        frozen = dn.htap.tables["c"].frozen.store
        assert served == [frozen]
        assert_batches_are_the_chunks(batches, frozen)
        assert [batch.n for batch in batches] == [8, 8, 4]
        assert moved(before, counts(cluster)) == {
            "dn.scan": 1, "exec.rows": 20, "htap.scans_frozen": 1,
            "htap.scans_composed": 0, "htap.cold_rebuilds": 0}
        assert "c" not in dn._images     # no image forms for a column table

    def test_a_visible_delta_yields_the_composed_vectors(self, cluster,
                                                         served):
        dn = cluster.dns[0]
        frozen = dn.htap.tables["c"].frozen.store
        insert(cluster, [100, 101])
        before = counts(cluster)
        batches = scan(cluster)
        (store,) = served
        assert store is not frozen
        assert_batches_are_the_chunks(batches, store)
        # the untouched chunks are the frozen set's own
        assert batches[0].columns[0] is next(frozen.scan_chunks(["k"]))["k"]
        assert [batch.n for batch in batches] == [8, 8, 6]
        assert moved(before, counts(cluster)) == {
            "dn.scan": 1, "exec.rows": 22, "htap.scans_frozen": 0,
            "htap.scans_composed": 1, "htap.cold_rebuilds": 0}
        assert "c" not in dn._images

    def test_own_writes_fall_back_to_the_image(self, cluster, served):
        dn = cluster.dns[0]
        metrics = cluster.obs.metrics
        before = counts(cluster)
        txn = cluster.session().begin(multi_shard=True)
        txn.insert("c", {"k": 100, "v": 0, "x": 0.5, "s": "a"})
        batches = scan(cluster, txn)
        txn.commit()
        assert served == [None]
        assert sum(batch.n for batch in batches) == 21
        assert dn._images["c"].batch.n == 21
        assert moved(before, counts(cluster)) == {
            "dn.scan": 1, "exec.rows": 21, "htap.scans_frozen": 0,
            "htap.scans_composed": 0, "htap.cold_rebuilds": 1}
        assert metrics.value("htap.fallback.own_writes") == 1

    def test_a_composed_scan_drops_the_fallback_image(self, cluster, served):
        dn = cluster.dns[0]
        txn = cluster.session().begin(multi_shard=True)
        txn.insert("c", {"k": 100, "v": 0, "x": 0.5, "s": "a"})
        scan(cluster, txn)
        txn.commit()
        assert "c" in dn._images
        batches = scan(cluster)
        assert served[0] is None and served[1] is not None
        assert sum(batch.n for batch in batches) == 21
        assert "c" not in dn._images


# -- the fold does not see the batch boundaries --------------------------------

def _x(k):
    """Doubles over five magnitudes: their sum rounds differently when
    1 024- or 4 096-row slices are summed first."""
    return (k * 7919 % 1000) / 7 * 10.0 ** (k % 5 - 2)


def test_fallback_and_composed_float_aggregates_are_bit_identical():
    rows = 5000          # two 4 096-row chunks; five 1 024-row image slices
    cluster = MppCluster(num_dns=1)
    engine = SqlEngine(cluster)
    cluster.create_table(schema())
    insert(cluster, range(rows), x=_x)
    cluster.htap.tick()
    xs = [_x(k) for k in range(rows)]
    sequential = 0.0
    for x in xs:
        sequential += x
    for size in (1024, 4096):
        # the data can tell either set of boundaries apart
        chunked = 0.0
        for start in range(0, rows, size):
            part = 0.0
            for x in xs[start:start + size]:
                part += x
            chunked += part
        assert chunked != sequential

    sql = "select sum(x), avg(x) from c"
    composed = engine.execute(sql).rows
    metrics = cluster.obs.metrics
    assert (metrics.value("htap.cold_rebuilds") or 0) == 0
    assert repr(composed) == repr([(sequential, sequential / rows)])

    # The same read under an own write to ``c`` that leaves ``x`` alone.
    txn = cluster.session().begin(multi_shard=True)
    try:
        txn.update("c", 3, {"v": 99})
        physical = engine.plan_select(parse(sql), txn)
        enable_batches(physical)
        fallback = list(physical.execute())
    finally:
        txn.abort()
    assert metrics.value("htap.cold_rebuilds") == 1
    assert metrics.value("htap.fallback.own_writes") == 1
    assert cluster.dns[0]._images["c"].batch.n == rows
    assert repr(fallback) == repr(composed)
