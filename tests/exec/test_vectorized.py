"""The vectorized engine through SQL: scans, filters and aggregates in
lanes over a column table's compressed frozen chunks.

``m`` is merged into small frozen chunks (full ones compressed, the last
one ``plain``), so every statement here filters and folds the chunks'
decoded vectors with the lane kernels of :mod:`repro.exec.batch`.  Each
answer is checked against the values themselves and, bit for bit,
against the row reference: the same engine with a no-op in place of
``repro.sql.engine.enable_batches`` (no plan cache), so every operator
runs its row body.
"""

import pytest

import repro.sql.engine as engine_mod
import repro.storage.colstore as colstore
from repro.cluster.mpp import MppCluster
from repro.common.errors import SqlAnalysisError
from repro.sql.engine import SqlEngine

#: ``id``, ``g`` and ``v`` of 300 rows, then a row whose ``g`` and ``v``
#: are NULL and a ``g1`` row whose ``v`` is NULL.
ROWS = ([(i, f"g{i % 4}", float(i)) for i in range(300)]
        + [(300, None, None), (301, "g1", None)])


@pytest.fixture(scope="module")
def engine():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(colstore, "DEFAULT_CHUNK_ROWS", 64)
        cluster = MppCluster(num_dns=2)
        engine = SqlEngine(cluster, plan_cache_size=0)
        engine.execute("create table m (id int primary key, g text, v double)"
                       " with (orientation = column)")
        engine.execute("insert into m values " + ", ".join(
            "(" + ", ".join("null" if x is None else repr(x) for x in row)
            + ")" for row in ROWS))
        engine.analyze()
        cluster.htap.tick()
        codecs = {chunk["g"].codec for dn in cluster.dns
                  for chunk in dn.htap.tables["m"].frozen.store._sealed}
        assert codecs - {"plain"}, "no compressed chunk to scan"
        yield engine


@pytest.fixture
def run(engine, monkeypatch):
    """Rows of a statement on the lane path, checked equal to the row
    reference's and served from the frozen chunks."""
    metrics = engine.cluster.obs.metrics

    def execute(sql):
        before = metrics.value("htap.scans_frozen") or 0.0
        rows = engine.execute(sql).rows
        assert (metrics.value("htap.scans_frozen") or 0.0) > before
        with monkeypatch.context() as patch:
            patch.setattr(engine_mod, "enable_batches", lambda root: None)
            assert repr(engine.execute(sql).rows) == repr(rows), sql
        return rows
    return execute


class TestScanFilter:
    def test_filtering(self, run):
        assert len(run("select id from m where v > 249.0")) == 50

    def test_multiple_predicates_anded(self, run):
        rows = run("select id from m where v >= 100.0 and v < 110.0 "
                   "and g = 'g0' order by id")
        assert rows == [(100,), (104,), (108,)]

    def test_unknown_predicate_column(self, engine):
        with pytest.raises(SqlAnalysisError):
            engine.execute("select id from m where zz = 1")


class TestAggregates:
    def test_whole_table(self, run):
        assert run("select sum(v), min(v), max(v), count(v), count(*) "
                   "from m") == [(float(sum(range(300))), 0.0, 299.0, 300,
                                  302)]
        assert run("select avg(v) from m")[0][0] == pytest.approx(149.5)

    def test_filtered(self, run):
        assert run("select count(*), count(v) from m where g = 'g1'") == [
            (76, 75)]

    def test_empty_result(self, run):
        assert run("select count(*), sum(v), min(v), avg(v) from m "
                   "where v > 10000.0") == [(0, None, None, None)]


class TestRowFallbackEquivalence:
    @pytest.mark.parametrize("func", ["sum", "min", "max", "count", "avg"])
    def test_same_answers(self, run, func):
        values = [float(i) for i in range(50, 250)]
        want = {"sum": sum(values), "min": 50.0, "max": 249.0,
                "count": 200, "avg": sum(values) / 200}[func]
        rows = run(f"select {func}(v) from m where v >= 50.0 and v < 250.0")
        assert rows[0][0] == pytest.approx(want)

    def test_selection_mask_respects_validity(self, run):
        # NULL never matches: not a comparison, not its negation
        assert len(run("select id from m where v >= 0.0")) == 300
        assert len(run("select id from m where v <> 5.0")) == 299
        assert run("select id from m where g is null") == [(300,)]
