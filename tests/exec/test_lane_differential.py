"""Differential suite: joins and aggregates in lanes vs rows vs sqlite3.

Random fact and dimension tables — each row- or column-oriented, on 1, 2
or 4 data nodes, with duplicate, NULL and missing join keys, empty build
sides, int = double join keys, multi-column and TEXT group keys with NULLs
— run the same statements three ways:

* the shipped engine (batch bodies, plan cache; every statement twice, so
  the second run is a cache hit);
* the row reference: the same engine with a no-op in place of
  ``repro.sql.engine.enable_batches`` and no plan cache, so every operator
  runs its row body;
* a stdlib ``sqlite3`` mirror of the same rows.

Against the row reference everything must be identical: ``repr`` of the
rows (so ``1`` vs ``1.0`` and every bit of a ``sum(double)`` count),
``profile.rows_table()`` and ``elapsed_time_us``.  Against sqlite3 the rows
must match as multisets, floats to a tolerance (sqlite sums in its own
order).
"""

import math
import sqlite3

import pytest

import repro.exec.batch as batch_mod
import repro.sql.engine as engine_mod
import repro.storage.colstore as colstore
from repro.cluster.mpp import MppCluster
from repro.exec.batch import enable_batches
from repro.exec.operators import (PHashAggregate, PHashJoin, PPartialAgg,
                                  walk_physical)
from repro.sql.engine import SqlEngine
from repro.sql.parser import parse

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover - the container ships hypothesis
    given = None

FACT = ("f", "id int primary key, k int, x double, g text, h int")
DIM = ("d", "id int primary key, k int, dk double, tag text")

#: (statement, compared with sqlite3)
STATEMENTS = [
    ("select f.id, d.id from f, d where f.k = d.k", True),
    ("select f.id, d.tag from f, d where f.k = d.dk", True),   # int = double
    ("select f.g, d.tag, count(*) from f, d "
     "where f.k = d.k and f.h = d.id group by f.g, d.tag", True),
    ("select d.tag, count(*), sum(f.x), avg(f.x), min(f.x), max(f.h) "
     "from f, d where f.k = d.k group by d.tag", True),
    ("select count(*), sum(f.x), min(d.tag) from f, d where f.k = d.k", True),
    ("select f.id, d.id from f, d where f.k = d.k and d.id < 0", True),
    ("select g, h, count(*), count(x), sum(x), avg(x), min(g), max(x) "
     "from f group by g, h", True),
    ("select g, sum(x) s from f group by g order by s desc, g limit 2",
     False),
    ("select d.tag, sum(f.x) t from f, d where f.k = d.k "
     "group by d.tag order by t desc limit 1", False),
    ("select f.id, d.id from f, d where f.k = d.k order by f.id, d.id "
     "limit 3", False),
    # int and double lanes meet in one sort: no value may change type
    ("select k from f union all select dk from d order by k", True),
    ("select id from f where k > 9007199254740992.0", True),
    # the row interpreter raises on a zero modulus, int64 lanes would not
    ("select id, k % h from f", False),
    # past int64 Python's ints grow, int64 lanes would wrap; past 2**53
    # Python divides exactly, float64 lanes would round first
    ("select id, k * 4611686018427387904, k + 9223372036854775805, "
     "-(k - 9223372036854775807 - 1), -k, k / 3, k + 9223372036854775808 "
     "from f", False),
    ("select g, sum(k * 4611686018427387904) from f group by g", False),
    # Python's bools add as ints; numpy's OR (and refuse to subtract)
    ("select id, (k > 2) + (h > 1), (k > 2) - (h > 1), -(k > 2) from f",
     True),
]


def _engine(rows, orientations, num_dns, reference):
    cluster = MppCluster(num_dns=num_dns)
    engine = SqlEngine(cluster, plan_cache_size=0 if reference else 64)
    for (name, columns), orientation in zip((FACT, DIM), orientations):
        engine.execute(f"create table {name} ({columns})"
                       + (" with (orientation = column)"
                          if orientation == "column" else ""))
        if rows[name]:
            engine.execute(f"insert into {name} values " + ", ".join(
                "(" + ", ".join("null" if v is None else repr(v)
                                for v in row) + ")"
                for row in rows[name]))
    engine.analyze()
    return engine


def _observed(engine, sql):
    try:
        result = engine.execute(sql)
    except Exception as exc:        # the same error, or none, both ways
        return repr(exc)
    return (repr(result.rows), result.profile.rows_table(),
            result.profile.elapsed_time_us)


def _mirror(rows):
    mirror = sqlite3.connect(":memory:")
    for name, columns in (FACT, DIM):
        mirror.execute(f"create table {name} ({columns})")
        width = len(columns.split(","))
        mirror.executemany(
            f"insert into {name} values ({', '.join('?' * width)})",
            rows[name])
    return mirror


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return (a is not None and b is not None
                and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6))
    return a == b


def _same_multiset(got, want) -> bool:
    # every statement's leading columns tell its rows apart, so a float's
    # rounding never decides the order
    def key(row):
        return [(v is None, round(v, 4) if isinstance(v, float) else v)
                for v in row]

    got, want = sorted(got, key=key), sorted(want, key=key)
    return len(got) == len(want) and all(
        len(g) == len(w) and all(_close(a, b) for a, b in zip(g, w))
        for g, w in zip(got, want))


def check(rows, orientations, num_dns, batch_rows=1024, chunk_rows=4096):
    """``batch_rows`` / ``chunk_rows`` shrink batches and column chunks so
    a few rows cross their boundaries (groups first seen in a later batch,
    a key's matches split across probe batches)."""
    # Both engines see the same statement sequence (each statement twice:
    # planned, then a cache hit on the shipped engine), so the learning
    # optimizer's estimates move in step.
    sequence = [sql for sql, _ in STATEMENTS for _ in range(2)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch_mod, "DEFAULT_BATCH_SIZE", batch_rows)
        patch.setattr(colstore, "DEFAULT_CHUNK_ROWS", chunk_rows)
        shipped = _engine(rows, orientations, num_dns, reference=False)
        with pytest.MonkeyPatch.context() as row_reference:
            row_reference.setattr(engine_mod, "enable_batches",
                                  lambda root: None)
            reference = _engine(rows, orientations, num_dns, reference=True)
            expected = [_observed(reference, sql) for sql in sequence]
        for sql, want in zip(sequence, expected):
            assert _observed(shipped, sql) == want, sql
        mirror = _mirror(rows)
        for sql, vs_sqlite in STATEMENTS:
            if vs_sqlite:
                assert _same_multiset(shipped.execute(sql).rows,
                                      mirror.execute(sql).fetchall()), sql


# -- fixed cases ---------------------------------------------------------------

#: NULL, duplicate and missing keys on both sides; a 0.1-step double column
#: whose sums round differently in any other order.
FIXED = {
    "f": [(i, None if i % 6 == 0 else i % 5, None if i % 7 == 3 else i / 10,
           None if i % 4 == 0 else "abc"[i % 3], None if i % 5 == 1 else i % 3)
          for i in range(40)],
    "d": [(j, None if j == 3 else j % 4, None if j == 3 else float(j % 4),
           "t" + str(j % 2)) for j in range(9)],
}


@pytest.mark.parametrize("num_dns", [1, 2, 4])
@pytest.mark.parametrize("orientations", [("row", "row"), ("row", "column"),
                                          ("column", "row"),
                                          ("column", "column")])
def test_fixed_tables(orientations, num_dns):
    check(FIXED, orientations, num_dns)


@pytest.mark.parametrize("orientations", [("row", "column"),
                                          ("column", "row")])
def test_fixed_tables_in_small_batches(orientations):
    check(FIXED, orientations, 2, batch_rows=3, chunk_rows=4)


def test_empty_build_side():
    check({"f": FIXED["f"], "d": []}, ("row", "column"), 2)


def _large_keys(bigger):
    """Integers past 2**53 beside doubles: as floats 2**53 + 1 rounds to
    2**53 (and 2**53 + 3 to 2**53 + 4), as Python values they differ; and
    -2**63, whose negation int64 cannot hold.  The join builds on the
    larger table, so ``bigger`` picks which side's keys are sorted and
    which side probes them."""
    big = 2 ** 53
    f_keys = [big + 1, big + 3, None, 1, big + 1, -2 ** 63]
    d_keys = [big, big + 4, 1]
    (f_keys if bigger == "f" else d_keys).extend(range(100, 106))
    return {"f": [(i, k, i / 10, "ab"[i % 2], i % 3)
                  for i, k in enumerate(f_keys)],
            "d": [(j, k, float(k), "pqr"[j % 3])
                  for j, k in enumerate(d_keys)]}


@pytest.mark.parametrize("bigger", ["f", "d"])
@pytest.mark.parametrize("orientations", [("row", "row"), ("row", "column"),
                                          ("column", "row"),
                                          ("column", "column")])
@pytest.mark.parametrize("num_dns", [1, 2])
def test_int_keys_past_double_precision(orientations, bigger, num_dns):
    """One DN: both sides' keys meet in one join (redistribution would
    hash 2**53 + 1 and 2.0**53 apart).  Two: a column table's filter runs
    per DN on its column store's spec masks."""
    check(_large_keys(bigger), orientations, num_dns)


@pytest.mark.parametrize("orientations", [("row", "row"), ("column", "row"),
                                          ("row", "column")])
def test_joins_and_aggregates_run_in_lanes(orientations):
    """Guard the guard: whatever the tables' orientation, the join and
    every aggregate above it fold lanes in the shipped engine."""
    engine = _engine(FIXED, orientations, 2, reference=False)
    txn = engine.cluster.session().begin(multi_shard=True)
    try:
        physical = engine.plan_select(parse(STATEMENTS[3][0]), txn)
    finally:
        txn.commit()
    enable_batches(physical)
    plan = list(walk_physical(physical))
    assert any(isinstance(op, PHashJoin) and op.batch_mode for op in plan)
    aggs = [op for op in plan if isinstance(op, (PHashAggregate,
                                                 PPartialAgg))]
    assert aggs and all(op.batch_mode and op.child.batch_mode
                        and op._lane_fns is not None for op in aggs)


# -- generated cases -----------------------------------------------------------

if given is not None:
    _tenths = st.integers(-5000, 5000).map(lambda i: i / 10)

    @st.composite
    def _tables(draw):
        fact = [(i, draw(st.one_of(st.none(), st.integers(0, 6))),
                 draw(st.one_of(st.none(), _tenths)),
                 draw(st.one_of(st.none(), st.sampled_from("abc"))),
                 draw(st.one_of(st.none(), st.integers(0, 3))))
                for i in range(draw(st.integers(0, 30)))]
        dim = []
        for j in range(draw(st.integers(0, 10))):
            k = draw(st.one_of(st.none(), st.integers(2, 9)))
            dim.append((j, k, None if k is None else float(k),
                        draw(st.sampled_from(["p", "q", "r"]))))
        return {"f": fact, "d": dim}

    @settings(max_examples=60, deadline=None)
    @given(rows=_tables(),
           orientations=st.tuples(st.sampled_from(["row", "column"]),
                                  st.sampled_from(["row", "column"])),
           num_dns=st.sampled_from([1, 2, 4]),
           batch_rows=st.sampled_from([1, 4, 1024]),
           chunk_rows=st.sampled_from([3, 4096]))
    def test_generated_tables(rows, orientations, num_dns, batch_rows,
                              chunk_rows):
        check(rows, orientations, num_dns, batch_rows, chunk_rows)
