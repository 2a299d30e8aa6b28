"""Batch execution pipeline: kernels, NULL semantics, activation rules.

Covers the two bugfix satellites directly:

* the many-groups regression — the lane fold must give every lane its
  group id in one pass per batch (``_GroupIds``) instead of re-scanning
  the chunk per group (the old path was O(groups x rows));
* NULL semantics — the batch kernels and the row executor must
  agree on SQL three-valued logic; the parametrized suite runs the same
  query through both executors and requires identical rows.

The row reference is an engine whose plans are never activated: a no-op
stands in for ``repro.sql.engine.enable_batches``, so every operator runs
its row body.
"""

import time

import numpy as np
import pytest

import repro.exec.batch as batch_mod
import repro.sql.engine as engine_mod
from repro.cluster.mpp import MppCluster
from repro.exec.batch import (
    Batch,
    batches_from_rows,
    comparable,
    concat_batches,
    enable_batches,
    rows_from_batches,
    sort_indices,
)
from repro.exec.operators import PPartialAgg, PScan, walk_physical
from repro.optimizer.expr import BoundColumn
from repro.optimizer.logical import AggSpec, ColumnInfo
from repro.sql.engine import SqlEngine
from repro.storage.colstore import ColumnStore, ColumnVector
from repro.storage.table import Column, TableSchema
from repro.storage.types import DataType


# -- satellite: many-groups regression -------------------------------------

class TestManyGroups:
    def _partial_agg(self, rows: int, groups: int, func: str) -> PPartialAgg:
        """``select g, func(v) from m group by g`` as a DN-side partial
        aggregate over a column-store scan (4 chunks at 200k rows)."""
        schema = TableSchema(
            "m", [Column("id", DataType.INT), Column("g", DataType.INT),
                  Column("v", DataType.DOUBLE)], "id")
        cs = ColumnStore(schema, chunk_rows=65536)
        cs.append_rows([
            {"id": i, "g": i % groups, "v": float(i % 97)}
            for i in range(rows)
        ])
        scan_schema = [ColumnInfo("g", None, DataType.INT),
                       ColumnInfo("v", None, DataType.DOUBLE)]

        def lanes():
            return (Batch([chunk["g"], chunk["v"]], len(chunk["g"]))
                    for chunk in cs.scan_chunks(["g", "v"]))

        # a column shard's row body bridges its lanes, as the engine binds it
        scan = PScan("m", lambda: rows_from_batches(lanes()), scan_schema,
                     lanes=lanes)
        return PPartialAgg(
            scan, [BoundColumn(0, "g", DataType.INT)],
            [AggSpec(func, BoundColumn(1, "v", DataType.DOUBLE))],
            scan_schema)

    def test_many_groups_matches_row_fold(self):
        lane = self._partial_agg(rows=5000, groups=701, func="sum")
        enable_batches(lane)
        row = self._partial_agg(rows=5000, groups=701, func="sum")
        states = list(lane.execute())
        assert len(states) == 701
        # same groups, same first-seen order, bit-identical states
        assert states == list(row.execute())

    def test_many_groups_is_not_quadratic(self):
        # 200k rows x 20k groups: a per-group boolean-mask rescan performs
        # ~4e9 element comparisons (tens of seconds); the bucketed path is
        # one argsort per chunk.  A generous wall-clock ceiling catches the
        # regression without being timing-flaky.
        agg = self._partial_agg(rows=200_000, groups=20_000, func="count")
        enable_batches(agg)
        assert agg.child.batch_mode
        start = time.perf_counter()
        states = list(agg.execute())
        elapsed = time.perf_counter() - start
        assert len(states) == 20_000
        assert sum(state[0] for _, state in states) == 200_000
        assert elapsed < 5.0, f"lane fold took {elapsed:.1f}s"

    def test_group_ids_number_groups_in_first_seen_order(self):
        ids = batch_mod._GroupIds(1)

        def lanes(values):
            return ColumnVector(
                np.array([0 if v is None else v for v in values]),
                np.array([v is not None for v in values]))

        gids, firsts = ids([lanes([3, 1, 3, None, 1])], 5)
        assert gids.tolist() == [0, 1, 0, 2, 1]
        assert firsts.tolist() == [0, 1, 3]
        # a later batch: old groups keep their ids, new ones come after
        # them in the order their first lanes appear
        gids, firsts = ids([lanes([7, None, 3, -2, 7])], 5)
        assert gids.tolist() == [3, 2, 0, 4, 3]
        assert firsts.tolist() == [0, 3]


# -- satellite: NULL semantics, both executors ------------------------------

NULL_PREDICATES = [
    "v > 25",
    "v >= 30 and v <= 90",
    "v <> 30",
    "g = 'a'",
    "v > 25 and g <> 'b'",
    "v > 25 or g = 'b'",
    "not (v > 25)",
    "not (g = 'a' and v > 10)",
    "v is null",
    "v is not null",
    "v is null or g is null",
    "g in ('a', 'b')",
    "v in (10, 30, 90)",
    "v not in (10, 30)",
    "v + 10 > 35",
    "v * 2 <= 60",
    "-v < -25",
    "v - w > 0",
    "(v > 10 and v < 90) or g = 'c'",
    "v > 25 and w is null",
]


#: The rows of ``t``: NULLs in g (every 7th), v (every 5th), w (every 4th).
T_ROWS = [(i, None if i % 7 == 0 else "abc"[i % 3],
           None if i % 5 == 0 else i * 2, None if i % 4 == 0 else i)
          for i in range(60)]


def _engine() -> SqlEngine:
    cluster = MppCluster(num_dns=2)
    engine = SqlEngine(cluster, plan_cache_size=0)
    engine.execute(
        "create table t (id int primary key, g text, v int, w int) "
        "with (orientation = column)")
    engine.execute("insert into t values " + ", ".join(
        "(" + ", ".join("null" if x is None else repr(x) for x in row) + ")"
        for row in T_ROWS))
    engine.analyze()
    return engine


@pytest.fixture(scope="module")
def engine():
    return _engine()


@pytest.fixture
def row_rows(engine, monkeypatch):
    """Rows of a statement on the row reference: the same engine (it
    plans afresh per statement, ``plan_cache_size=0``) with the plan left
    un-activated."""
    def run(sql):
        with monkeypatch.context() as patch:
            patch.setattr(engine_mod, "enable_batches", lambda root: None)
            return engine.execute(sql).rows
    return run


class TestNullSemanticsSharedByBothPaths:
    @pytest.mark.parametrize("predicate", NULL_PREDICATES)
    def test_filter_agreement(self, engine, row_rows, predicate):
        sql = f"select id, g, v, w from t where {predicate} order by id"
        assert engine.execute(sql).rows == row_rows(sql)

    @pytest.mark.parametrize("predicate", NULL_PREDICATES[:6])
    def test_aggregate_agreement(self, engine, row_rows, predicate):
        sql = (f"select g, count(*), sum(v) from t where {predicate} "
               "group by g order by g")
        assert engine.execute(sql).rows == row_rows(sql)

    def test_null_sort_keys_agree(self, engine, row_rows):
        for direction in ("asc", "desc"):
            sql = f"select id, v from t order by v {direction}, id"
            assert engine.execute(sql).rows == row_rows(sql)


# -- batch bridges and kernels ---------------------------------------------

class TestBatchBridges:
    def test_row_round_trip_preserves_nones(self):
        rows = [(1, "a", None), (None, "b", 2.5), (3, None, 0.0)]
        batches = list(batches_from_rows(iter(rows), width=3, batch_size=2))
        assert [b.n for b in batches] == [2, 1]
        assert list(rows_from_batches(batches)) == rows

    def test_take_and_select(self):
        data = np.array([10, 20, 30, 40], dtype=np.int64)
        validity = np.array([True, False, True, True])
        batch = Batch([ColumnVector(data, validity)], 4)
        taken = batch.take(np.array([3, 0]))
        assert taken.columns[0].data.tolist() == [40, 10]
        picked = batch.select(np.array([False, True, True, False]))
        assert picked.n == 2
        assert picked.columns[0].validity.tolist() == [False, True]

    def test_concat(self):
        def one(values):
            arr = np.array(values, dtype=np.int64)
            return Batch([ColumnVector(arr, np.ones(len(values), bool))],
                         len(values))
        merged = concat_batches([one([1, 2]), one([3])], width=1)
        assert merged.n == 3
        assert merged.columns[0].data.tolist() == [1, 2, 3]

    def test_comparable_keeps_ints_past_2_53_exact(self):
        ints = np.array([2 ** 53 + 1, 3], dtype=np.int64)
        doubles = np.array([2.0 ** 53, 3.0])
        assert (ints == doubles).tolist() == [True, True]   # numpy rounds
        a, b = comparable(ints, doubles)
        assert (a == b).tolist() == [False, True]           # Python does not
        small = np.array([2 ** 53, 3], dtype=np.int64)
        a, b = comparable(small, doubles)
        assert a is small and b is doubles

    def test_sort_indices_matches_python_composite(self):
        values = [5, None, 2, 5, None, 1, 2]
        data = np.array([0 if v is None else v for v in values],
                        dtype=np.int64)
        validity = np.array([v is not None for v in values])
        vec = ColumnVector(data, validity)
        from repro.exec.operators import _sort_key
        for descending in (False, True):
            order = sort_indices([(vec, descending)], len(values))
            reference = sorted(
                range(len(values)),
                key=lambda i: _sort_key(values[i]),
                reverse=descending,
            )
            # index-exact: ties must keep input order in both paths
            assert order.tolist() == reference


# -- activation rules -------------------------------------------------------

def _activated_plan(engine, sql):
    """``(plan, rows)``: ``sql`` planned, activated and run to the end."""
    from repro.sql.parser import parse
    txn = engine.cluster.session().begin(multi_shard=True)
    try:
        physical = engine.plan_select(parse(sql), txn)
        enable_batches(physical)
        rows = list(physical.execute())
    finally:
        txn.commit()
    return physical, rows


class TestActivation:
    def test_limit_subtree_stays_row_mode(self, engine):
        physical, _ = _activated_plan(
            engine, "select id from t where v > 4 order by v limit 3")
        from repro.exec import operators as ops
        for op in walk_physical(physical):
            # the sort drains its input before the LIMIT pulls a row: it
            # stays a row body, and the scan below it batches
            if isinstance(op, ops.PSort):
                assert not op.batch_mode
            if isinstance(op, ops.PScan):
                assert op.batch_mode

    def test_scan_batches_complex_predicates(self, engine):
        physical, _ = _activated_plan(
            engine, "select id from t where v > 4 or g = 'a'")
        from repro.exec import operators as ops
        scans = [op for op in walk_physical(physical)
                 if isinstance(op, ops.PScan)]
        assert scans and all(op.batch_mode for op in scans)


# -- the bridged scan under a LIMIT ----------------------------------------

#: rows of ``t`` that satisfy ``v > 4``
MATCHING = [row for row in T_ROWS if row[2] is not None and row[2] > 4]


class TestLimitOverColumnScan:
    """Under a ``LIMIT`` the scan's row body is the column scan bridged to
    rows and counted per row — the only scan a column shard has."""

    def _scans(self, physical, batched=False):
        scans = [op for op in walk_physical(physical)
                 if isinstance(op, PScan)]
        # the column shard's lanes, filtered by the compiled predicate
        assert scans and all(op.lanes is not None
                             and op._batch_pred is not None
                             and op.batch_mode == batched for op in scans)
        return scans

    def test_unsorted_limit_is_count_exact(self, engine, row_rows):
        sql = "select id, g, v, w from t where v > 4 limit 9"
        physical, rows = _activated_plan(engine, sql)
        assert rows == row_rows(sql) == engine.execute(sql).rows
        assert len(rows) == 9 and set(rows) <= set(MATCHING)
        # NULL lanes are None, everything else a plain Python value
        assert any(None in row for row in rows)
        assert {type(v) for row in rows for v in row} <= {int, str, type(None)}
        # the scans produced exactly the rows the LIMIT pulled, no chunk more
        assert sum(op.actual_rows for op in self._scans(physical)) == 9

    def test_sorted_limit_drains_the_scan(self, engine, row_rows):
        sql = ("select id, g, v, w from t where v > 4 "
               "order by v desc, id limit 3")
        physical, rows = _activated_plan(engine, sql)
        assert rows == row_rows(sql) == engine.execute(sql).rows
        assert rows == sorted(MATCHING, key=lambda r: (-r[2], r[0]))[:3]
        assert {type(v) for row in rows for v in row} <= {int, str, type(None)}
        # below the sort, which drains it, the scan batches
        assert (sum(op.actual_rows
                    for op in self._scans(physical, batched=True))
                == len(MATCHING))


# -- a row table's scan, under a LIMIT and in chunks -----------------------

@pytest.fixture(scope="module")
def row_engine():
    """``t``'s rows in a row-oriented table on two data nodes."""
    cluster = MppCluster(num_dns=2)
    engine = SqlEngine(cluster, plan_cache_size=0)
    engine.execute("create table t (id int primary key, g text, v int, w int)")
    engine.execute("insert into t values " + ", ".join(
        "(" + ", ".join("null" if x is None else repr(x) for x in row) + ")"
        for row in T_ROWS))
    engine.analyze()
    return engine


class TestRowScanCounts:
    """``scanned_rows`` (tuples pulled off the heap walk) and the data
    nodes' ``exec.rows`` count exactly what the plan pulled: per row under
    a ``LIMIT``, per chunk in batches; the numbers are the row-at-a-time
    pipeline's."""

    @staticmethod
    def _run(engine, sql):
        metrics = engine.cluster.obs.metrics
        before = metrics.value("exec.rows") or 0.0
        physical, rows = _activated_plan(engine, sql)
        scans = [op for op in walk_physical(physical) if isinstance(op, PScan)]
        assert scans and all(op.lanes is not None for op in scans)
        return (rows, scans, sum(op.scanned_rows for op in scans),
                metrics.value("exec.rows") - before)

    def test_unsorted_limit_pulls_row_by_row(self, row_engine):
        rows, scans, scanned, dn_rows = self._run(
            row_engine, "select id, g, v, w from t where v > 4 limit 9")
        assert len(rows) == 9 and set(rows) <= set(MATCHING)
        assert not any(op.batch_mode for op in scans)
        assert sum(op.actual_rows for op in scans) == 9
        assert (scanned, dn_rows) == (13, 13)

    def test_sorted_limit_drains_the_scan_in_chunks(self, row_engine):
        rows, scans, scanned, dn_rows = self._run(
            row_engine, "select id, g, v, w from t where v > 4 "
                        "order by v desc, id limit 3")
        assert rows == sorted(MATCHING, key=lambda r: (-r[2], r[0]))[:3]
        assert all(op.batch_mode for op in scans)
        assert (scanned, dn_rows) == (len(T_ROWS), len(T_ROWS))

    def test_interpreted_predicate_filters_each_chunk(self, row_engine,
                                                      monkeypatch):
        # LIKE has no batch form: the row interpreter drops rows from each
        # 7-row chunk before the chunk becomes lanes
        monkeypatch.setattr(batch_mod, "DEFAULT_BATCH_SIZE", 7)
        rows, scans, scanned, dn_rows = self._run(
            row_engine, "select id, g from t where g like 'a%' order by id")
        assert rows == [(r[0], r[1]) for r in T_ROWS if r[1] == "a"]
        assert all(op.batch_mode and op._batch_pred is None for op in scans)
        assert (scanned, dn_rows) == (len(T_ROWS), len(T_ROWS))
