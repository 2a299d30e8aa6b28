"""Differential suite: joins and aggregates in lanes vs rows vs sqlite3.

Random fact and dimension tables — each row- or column-oriented, on 1, 2
or 4 data nodes, with duplicate, NULL and missing join keys, empty build
sides, int = double join keys, multi-column and TEXT group keys with NULLs,
TEXT lanes carrying their chunks' dictionary codes, NaN and signed zeros —
run the same statements three ways:

* the shipped engine (batch bodies, plan cache; every statement twice, so
  the second run is a cache hit; a row table's scans read the data nodes'
  column images, so the second run reuses the first one's);
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
from repro.cluster.datanode import DataNode
from repro.cluster.mpp import MppCluster
from repro.exec.batch import enable_batches
from repro.exec.operators import (PExchange, PFinalAgg, PHashAggregate,
                                  PHashJoin, PPartialAgg, PScan,
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
    # a filter nothing passes: COUNT is 0, every other aggregate NULL
    ("select count(*), count(x), sum(x), avg(x), min(x), max(h) from f "
     "where x > 1000.0", True),
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


def _engine(rows, orientations, num_dns, reference, merge=False,
            tables=(FACT, DIM)):
    """``merge`` folds the load into frozen column chunks first: full
    chunks are then compressed (a TEXT column of few values ``dict``), the
    last one stays ``plain``."""
    cluster = MppCluster(num_dns=num_dns)
    engine = SqlEngine(cluster, plan_cache_size=0 if reference else 64)
    for (name, columns), orientation in zip(tables, orientations):
        engine.execute(f"create table {name} ({columns})"
                       + (" with (orientation = column)"
                          if orientation == "column" else ""))
        if rows[name]:
            engine.execute(f"insert into {name} values " + ", ".join(
                "(" + ", ".join(_literal(v) for v in row) + ")"
                for row in rows[name]))
    engine.analyze()
    if merge:
        cluster.htap.tick()
    return engine


def _literal(value) -> str:
    if value is None:
        return "null"
    if value == math.inf:
        return "9" * 400 + ".0"     # parses to inf
    if value != value:
        return f"({_literal(math.inf)} - {_literal(math.inf)})"    # NaN
    return repr(value)


def _observed(engine, sql):
    try:
        result = engine.execute(sql)
    except Exception as exc:        # the same error, or none, both ways
        return repr(exc)
    if result.profile is None:      # DML
        return result.rowcount
    return (repr(result.rows), result.profile.rows_table(),
            result.profile.elapsed_time_us)


def _mirror(rows, tables=(FACT, DIM)):
    mirror = sqlite3.connect(":memory:")
    for name, columns in tables:
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


def check(rows, orientations, num_dns, batch_rows=1024, chunk_rows=4096,
          statements=STATEMENTS, merge=False, tables=(FACT, DIM)):
    """``batch_rows`` / ``chunk_rows`` shrink batches and column chunks so
    a few rows cross their boundaries (groups first seen in a later batch,
    a key's matches split across probe batches).  Returns the shipped
    engine."""
    # Both engines see the same statement sequence (each statement twice:
    # planned, then a cache hit on the shipped engine), so the learning
    # optimizer's estimates move in step.
    sequence = [sql for sql, _ in statements for _ in range(2)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch_mod, "DEFAULT_BATCH_SIZE", batch_rows)
        patch.setattr(colstore, "DEFAULT_CHUNK_ROWS", chunk_rows)
        shipped = _engine(rows, orientations, num_dns, False, merge, tables)
        with pytest.MonkeyPatch.context() as row_reference:
            row_reference.setattr(engine_mod, "enable_batches",
                                  lambda root: None)
            reference = _engine(rows, orientations, num_dns, True, merge,
                                tables)
            expected = [_observed(reference, sql) for sql in sequence]
        for sql, want in zip(sequence, expected):
            assert _observed(shipped, sql) == want, sql
        mirror = _mirror(rows, tables)
        for sql, vs_sqlite in statements:
            if vs_sqlite:
                assert _same_multiset(shipped.execute(sql).rows,
                                      mirror.execute(sql).fetchall()), sql
    return shipped


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
    per DN on its composed chunks' lanes."""
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


def test_final_aggregate_merges_lanes():
    """Partial states cross the gather as lanes and the final aggregate
    merges them in lanes, under a sort and under ``order by … limit``."""
    engine = _engine(FIXED, ("column", "row"), 2, reference=False)
    for sql in ("select g, count(*), min(x) from f group by g order by g",
                "select h, sum(x) s from f group by h order by s limit 2"):
        txn = engine.cluster.session().begin(multi_shard=True)
        try:
            physical = engine.plan_select(parse(sql), txn)
        finally:
            txn.commit()
        enable_batches(physical)
        finals = [op for op in walk_physical(physical)
                  if isinstance(op, PFinalAgg)]
        assert finals and all(op.batch_mode and op.child.batch_mode
                              for op in finals)
        assert any(isinstance(op.child, PExchange)
                   and isinstance(op.child.children()[0].child, PPartialAgg)
                   for op in finals)


# -- NaN and signed zeros ------------------------------------------------------
#
# ``x - x`` is NaN on a row whose ``x`` is inf (a 400-digit literal).  The
# row fold compares sequentially (nothing is below a NaN, and a NaN is
# below nothing) and keys its groups by a dict (no NaN finds another);
# -0.0 and 0.0 compare equal, so whichever came first stays.

F64 = ("f", "id int primary key, x double, g int")


def _float_rows(xs, gs):
    return {"f": [(i, x, g) for i, (x, g) in enumerate(zip(xs, gs))]}


@pytest.mark.parametrize("num_dns", [1, 2])
@pytest.mark.parametrize("orientation", ["row", "column"])
def test_min_max_across_a_batch_boundary_keep_the_row_order(orientation,
                                                            num_dns):
    # group 0: NaN between 1.0 and 0.5, across the boundary; groups 2 and
    # 3: NaN first, so nothing replaces it
    rows = _float_rows([1.0, 5.0, math.inf, 0.5, math.inf, 0.5, math.inf],
                       [0, 1, 0, 0, 2, 2, 3])
    sql = "select g, min(x - x + x), max(x - x + x) from f group by g"
    engine = check(rows, (orientation,), num_dns, batch_rows=2, chunk_rows=2,
                   tables=(F64,), statements=[
                       (sql, False),
                       ("select min(x - x + x), max(x - x + x), "
                        "min(x - x), count(x - x) from f", False)])
    if num_dns == 1:
        assert repr(engine.execute(sql).rows) == (
            "[(0, 0.5, 1.0), (1, 5.0, 5.0), (2, nan, nan), (3, nan, nan)]")


@pytest.mark.parametrize("num_dns", [1, 2])
@pytest.mark.parametrize("orientation", ["row", "column"])
def test_nan_keys_are_groups_of_their_own(orientation, num_dns):
    rows = _float_rows([1.0, math.inf, math.inf, -0.0, 0.0], [0] * 5)
    sql = "select g, x - x, count(*) from f group by g, x - x"
    engine = check(rows, (orientation,), num_dns, tables=(F64,), statements=[
        (sql, False),
        ("select x - x, count(*), min(id) from f group by x - x", False)])
    if num_dns == 1:
        assert (repr(engine.execute(sql).rows)
                == "[(0, 0.0, 3), (0, nan, 1), (0, nan, 1)]")


@pytest.mark.parametrize("sizes", [(2, 2), (1024, 4096)])
@pytest.mark.parametrize("orientation", ["row", "column"])
def test_signed_zeros_as_extremes_and_keys(orientation, sizes):
    rows = _float_rows([0.0, -0.0, -0.0, 0.0, 1.0, -0.0, 0.0, -1.0],
                       [0, 0, 1, 1, 1, 2, 2, 2])
    check(rows, (orientation,), 2, *sizes, tables=(F64,), statements=[
        ("select g, min(x), max(x), sum(x) from f group by g", False),
        ("select x, count(*), min(id), max(g) from f group by x", False),
        ("select x, g, count(*) from f group by x, g", False),
        ("select min(x), max(x) from f where g < 2", False),
        ("select g, min(x * 0.0), max(x * 0.0) from f group by g", False)])


# -- TEXT lanes carrying dictionary codes --------------------------------------

#: Merged into frozen chunks of eight rows on one DN: the first chunk's
#: ``g`` is ``dict``-coded ('a', 'b', NULL), the tail chunk's ``plain``
#: ('c', 'd', NULL), so 'a' is absent from the tail's codes and 'c' from
#: the first chunk's.
CODED = {
    "f": [(i, i % 4, i / 4, g, i % 3) for i, g in enumerate(
        ["a", "b", "a", None, "b", "a", "b", "a", "c", "d", None])],
    "d": [(j, j % 4, float(j % 4), tag)
          for j, tag in enumerate(["p", "q", None, "p", "r", "q"])],
}

TEXT_STATEMENTS = [
    ("select g, count(*), count(g), min(g), max(g), sum(x) from f "
     "group by g", True),
    ("select g, h, count(*) from f group by g, h", True),
    ("select id from f where g = 'a'", True),
    ("select id from f where g = 'c'", True),
    ("select id from f where g = 'zz'", True),
    ("select id from f where g <> 'a'", True),
    ("select id from f where 'b' = g", True),
    ("select id from f where g in ('a', 'd')", True),
    ("select id from f where g in ('b', null)", True),
    ("select id from f where g not in ('a', 'c')", True),
    # the row interpreter's own NULL-item rule, not SQL's: reference only
    ("select id from f where g not in ('a', null)", False),
    ("select id, g = 'a', g <> 'b', g in ('c') from f", False),
    ("select g, count(*) from f where g <> 'b' and x > 0.5 group by g", True),
    ("select count(*) from f where g = 'a' or g is null", True),
    # after a join: the lanes gathered with ``take``, codes and all
    ("select f.g, d.tag, count(*) from f, d where f.k = d.k "
     "group by f.g, d.tag", True),
    ("select d.tag, count(*) from f, d where f.k = d.k and f.g = 'b' "
     "and d.tag <> 'p' group by d.tag", True),
    # after a union: two dictionaries in one lane
    ("select g, count(*) from (select g from f union all "
     "select tag from d) u group by g", True),
    ("select g from f union all select tag from d order by g", True),
]


@pytest.mark.parametrize("num_dns", [1, 2])
@pytest.mark.parametrize("orientations", [("column", "column"),
                                          ("column", "row"),
                                          ("row", "column")])
def test_text_codes_across_dict_and_plain_chunks(orientations, num_dns):
    engine = check(CODED, orientations, num_dns, batch_rows=4, chunk_rows=8,
                   statements=TEXT_STATEMENTS, merge=True)
    if orientations[0] == "column" and num_dns == 1:
        # guard the guard: the codecs the statements were written against
        store = engine.cluster.dns[0].htap.tables["f"].frozen.store
        assert [chunk["g"].codec for chunk in store._sealed] == ["dict",
                                                                 "plain"]
        assert all(chunk["g"].decode_with_nulls().codes is not None
                   for chunk in store._sealed)


def test_many_groups_first_seen_in_later_batches():
    """A ``cust_id``-style fold: 500 integer groups, 200 of them first
    seen after the first batches; keys spread past the direct-address
    table (``k * 100003``) and key pairs past it (``k, id``)."""
    fact = [(i, (i * 37) % 300 if i < 300 else 300 + i % 200, i / 8,
             "abcde"[i % 5] if i % 11 else None, None if i % 13 == 0 else i % 7)
            for i in range(600)]
    rows = {"f": fact, "d": [(j, j, float(j), "pq"[j % 2]) for j in range(50)]}
    statements = [
        ("select k, count(*), sum(x), avg(x), min(x), max(x), min(g), "
         "max(h) from f group by k", True),
        ("select k, g, count(*), sum(h) from f group by k, g", True),
        ("select k * 100003, count(*) from f group by k * 100003", True),
        ("select id * 1000, count(*) from f group by id * 1000", True),
        ("select k, id, count(*) from f group by k, id", True),
        ("select h, g, k, count(*) from f group by h, g, k", True),
        ("select k, sum(x) s from f group by k order by s desc, k limit 5",
         False),
        ("select d.tag, f.k, count(*) from f, d where f.h = d.k "
         "group by d.tag, f.k", True),
    ]
    for orientations in (("column", "row"), ("row", "column")):
        for num_dns in (1, 2):
            check(rows, orientations, num_dns, batch_rows=64, chunk_rows=128,
                  statements=statements, merge=orientations[0] == "column")


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


# -- row tables scanned from column images -------------------------------------
#
# A row table's lane scan reads each data node's column image of its last
# walk, which must be walked again exactly when a write or a resolved
# transaction changed what the snapshot sees.  Each case runs a sequence —
# statements, or steps that hold and release another session's write — on
# the shipped engine and the row reference; the selects must agree with the
# reference and, with the writes replayed, with sqlite3.


def replay(rows, orientations, num_dns, steps, batch_rows=1024,
           tables=(FACT, DIM)):
    """Run ``steps`` (SQL text, or ``step(engine, mirror)`` callables that
    return an observation) on both engines and the sqlite mirror; returns
    the shipped engine."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch_mod, "DEFAULT_BATCH_SIZE", batch_rows)
        shipped = _engine(rows, orientations, num_dns, False, tables=tables)
        with pytest.MonkeyPatch.context() as row_reference:
            row_reference.setattr(engine_mod, "enable_batches",
                                  lambda root: None)
            reference = _engine(rows, orientations, num_dns, True,
                                tables=tables)
            expected = [_step(reference, step, None) for step in steps]
        mirror = _mirror(rows, tables)
        for step, want in zip(steps, expected):
            assert _step(shipped, step, mirror) == want, step
    return shipped


def _step(engine, step, mirror):
    if callable(step):
        return step(engine, mirror)
    observed = _observed(engine, step)
    if mirror is None:
        return observed
    if not step.startswith("select"):
        try:
            mirror.execute(step)
        except sqlite3.IntegrityError:      # rolled back both ways
            assert "Error" in observed
    elif isinstance(observed, tuple):
        assert _same_multiset(engine.execute(step).rows,
                              mirror.execute(step).fetchall()), step
    return observed


SCANS = [
    "select f.id, d.id, d.tag from f, d where f.k = d.k",
    "select d.tag, count(*), sum(f.x) from f, d where f.k = d.k "
    "group by d.tag",
    "select id, k, tag from d where tag <> 't0' or tag is null",
]


def _images_of(engine, table):
    return [dn._images.get(table) for dn in engine.cluster.dns]


@pytest.mark.parametrize("reference", [True, False])
def test_only_lane_scans_read_images(reference):
    """The row bodies walk the heap, so the row reference is independent of
    the images; the shipped engine's row-table scans read nothing else."""
    reads = []
    scan_lanes, scan = DataNode.scan_lanes, DataNode.scan
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DataNode, "scan_lanes", lambda *args: (
            reads.append("image"), scan_lanes(*args))[1])
        patch.setattr(DataNode, "scan", lambda *args: (
            reads.append("walk"), scan(*args))[1])
        if reference:
            patch.setattr(engine_mod, "enable_batches", lambda root: None)
        engine = _engine(FIXED, ("row", "row"), 2, reference)
        del reads[:]                # the load's analyze walks the heaps
        for sql in SCANS:
            engine.execute(sql)
    assert reads and set(reads) == {"walk" if reference else "image"}


@pytest.mark.parametrize("num_dns", [1, 2, 4])
def test_row_table_scanned_again_after_each_kind_of_dml(num_dns):
    writes = [
        "insert into d values (20, 3, 3.0, 'new')",
        "update d set tag = 'upd' where k = 1",
        # key-assigning: each row moves to its new key's owner
        "update d set id = id + 100 where id < 3",
        "delete from d where k = 2",
        # a rollback: the second row collides, the first is undone
        "insert into d values (30, 1, 1.0, 'x'), (30, 2, 2.0, 'y')",
        "update f set k = k + 1 where id < 12",
        "delete from f where id > 30",
    ]
    steps = list(SCANS)
    for write in writes:
        steps += [write] + SCANS
    engine = replay(FIXED, ("row", "row"), num_dns, steps, batch_rows=4)
    # guard the guard: a repeated scan of unwritten tables reuses the images
    before = _images_of(engine, "d")
    engine.execute(SCANS[0])
    assert _images_of(engine, "d") == before and any(before)


def test_row_table_scanned_while_another_session_holds_a_write():
    def hold(engine, mirror):
        txn = engine.cluster.session().begin(multi_shard=True)
        txn.insert("d", {"id": 50, "k": 1, "dk": 1.0, "tag": "held"})
        txn.update("d", 0, {"tag": "moved"})
        engine.held = txn

    def release(engine, mirror):
        engine.held.commit()
        if mirror is not None:
            mirror.execute("insert into d values (50, 1, 1.0, 'held')")
            mirror.execute("update d set tag = 'moved' where id = 0")

    def images(engine, mirror):
        # what the step before left: the images the next scan may reuse
        engine.last_images = _images_of(engine, "d")

    def reused(engine, mirror):
        return _images_of(engine, "d") == engine.last_images

    steps = (SCANS + [hold] + SCANS + [images] + SCANS + [reused]
             + [release] + SCANS + [images] + SCANS + [reused])
    for num_dns in (2, 4):
        engine = replay(FIXED, ("row", "row"), num_dns, steps, batch_rows=4)
        assert reused(engine, None)


@pytest.mark.parametrize("orientations", [("row", "row"),
                                          ("column", "row")])
def test_int_columns_refuse_values_past_int64(orientations):
    """A value outside int64 never reaches an INT column, by insert or by
    update (sqlite would store it as a REAL): both engines refuse it with
    the same error, and the int64 edges are stored exactly."""
    def refused(sql):
        def step(engine, mirror):
            observed = _observed(engine, sql)
            assert "out of range for int" in observed, observed
            return observed
        return step

    steps = [
        refused("insert into f values (100, 1180591620717411303424, 1.0, "
                "'a', 1)"),
        refused("insert into f values (101, 1, 1.0, 'a', "
                "-9223372036854775809)"),
        refused("update f set k = k * 4611686018427387904 where id = 2"),
        "insert into f values (102, 9223372036854775807, 1.0, 'a', 1), "
        "(103, -9223372036854775808, 1.0, 'a', 1)",
        "select sum(k), count(k), sum(h) from f where id < 100",
        "select id, k from f where id > 99",
        "select g, sum(h) from f group by g",
    ]
    for num_dns in (1, 2):
        engine = replay(FIXED, orientations, num_dns, steps)
        edges = engine.execute("select k from f where id > 99 order by id")
        assert [(type(k), k) for k, in edges.rows] == [
            (int, 2 ** 63 - 1), (int, -2 ** 63)]


#: ``report_cached``'s ``vip`` join: a small row table broadcast to every
#: fragment of a large column table, filtered on a TEXT column.
SALES = ("f", "id int primary key, k int, x double, g text, h int")
CUSTOMERS = ("d", "id int primary key, tag text")
VIP = {
    "f": [(i, (i * 7) % 40, (i * 13) % 500 / 4, "ab"[i % 3 == 0], i % 4)
          for i in range(400)],
    "d": [(j, "vip" if j % 6 == 0 else ("mass" if j % 7 else None))
          for j in range(40)],
}
VIP_STATEMENTS = [
    ("select f.k, sum(f.x) total from f, d where f.k = d.id "
     "and d.tag = 'vip' and f.g = 'b' group by f.k "
     "order by total desc limit 10", False),
    ("select f.k, sum(f.x) total from f, d where f.k = d.id "
     "and d.tag = 'vip' and f.g = 'b' group by f.k", True),
    ("select d.tag, count(*) from f, d where f.k = d.id and f.h = 1 "
     "group by d.tag", True),
    ("select f.k, count(*) from f, d where f.k = d.id "
     "and d.tag in ('vip', 'none') group by f.k", True),
]


@pytest.mark.parametrize("batch_rows", [3, 1024])
@pytest.mark.parametrize("num_dns", [2, 4])
def test_vip_broadcast_join_over_a_row_table(num_dns, batch_rows):
    """Every fragment's broadcast scan reads every node's image."""
    tables = (SALES, CUSTOMERS)
    engine = check(VIP, ("column", "row"), num_dns, batch_rows=batch_rows,
                   statements=VIP_STATEMENTS, tables=tables)
    plan = engine.execute("explain " + VIP_STATEMENTS[0][0]).plan_text
    assert "Exchange broadcast" in plan
    assert plan.split("Exchange broadcast")[1].split("\n")[1].strip(
        ).startswith("SeqScan d")


@pytest.mark.parametrize("num_dns", [1, 2, 4])
def test_row_table_text_codes(num_dns):
    engine = check(CODED, ("row", "row"), num_dns, batch_rows=4,
                   statements=TEXT_STATEMENTS)
    # guard the guard: the row table's images carry TEXT as codes
    images = [image for image in _images_of(engine, "f") if image]
    assert images and all(image.batch.columns[3].codes is not None
                          for image in images)


# -- one-column join keys ------------------------------------------------------

NAN = math.nan


@pytest.mark.parametrize("orientations", [("row", "row"), ("row", "column"),
                                          ("column", "row")])
@pytest.mark.parametrize("num_dns", [1, 2])
def test_one_column_join_keys(orientations, num_dns):
    """NaN keys (stored: never equal), NULL keys, a key on many build rows
    (their order), doubles beside ints on both sides."""
    rows = {
        "f": [(i, [0, 1, None, 2][i % 4], [NAN, 1.0, 2.0, None, 0.0][i % 5],
               "ab"[i % 2], i % 3) for i in range(30)],
        "d": [(j, [1, 0, 1, None, 2, 1][j % 6], [2.0, NAN, 0.0, 1.0][j % 4],
               "pq"[j % 2]) for j in range(14)],
    }
    statements = [
        ("select f.id, d.id from f, d where f.k = d.k", True),
        ("select f.id, d.id from f, d where f.x = d.dk", True),
        ("select f.id, d.id from f, d where f.k = d.dk", True),
        ("select f.id, d.id from f, d where f.x = d.k", True),
        ("select d.id, count(*) from f, d where f.h = d.k group by d.id",
         True),
    ]
    check(rows, orientations, num_dns, batch_rows=4, statements=statements)


BOOLS = ("b", "id int primary key, flag bool, n int")


@pytest.mark.parametrize("orientations", [("row", "row"), ("row", "column"),
                                          ("column", "row")])
def test_bool_keys_join_ints(orientations):
    rows = {"f": [(i, i % 3, i / 2, "ab"[i % 2], i % 2) for i in range(12)],
            "b": [(j, [True, False, None][j % 3], j % 2) for j in range(7)]}
    statements = [
        ("select f.id, b.id from f, b where f.k = b.flag", True),
        ("select f.id, b.id from f, b where b.flag = f.h", True),
        ("select b.flag, count(*) from f, b where f.h = b.n group by b.flag",
         True),
    ]
    check(rows, orientations, 2, statements=statements, tables=(FACT, BOOLS))


@pytest.mark.parametrize("orientations", [("row", "row"), ("column", "row"),
                                          ("row", "column")])
def test_empty_build_side_on_either_orientation(orientations):
    check({"f": FIXED["f"], "d": []}, orientations, 2)
    check({"f": [], "d": FIXED["d"]}, orientations, 2)


# -- lanes gathered only when read ---------------------------------------------
#
# A filter or a join hands its parent views over its input's vectors; a
# view gathers a column only when something reads it.  Here the join's
# probe side carries columns nothing above it reads (and the build side's
# own) through a redistribute exchange, under small batches so the views
# cross batch boundaries.

UNREAD_STATEMENTS = [
    ("select f.g, count(*) from f, d where f.k = d.k group by f.g", True),
    ("select d.tag, count(*), sum(f.x) from f, d "
     "where f.h = d.k and f.x > 1 group by d.tag", True),
    ("select d.tag from f, d where f.h = d.k and d.dk > 0", True),
]


@pytest.mark.parametrize("orientations", [("row", "row"), ("column", "row"),
                                          ("row", "column")])
@pytest.mark.parametrize("num_dns", [2, 4])
def test_unread_probe_columns_cross_a_redistribute(orientations, num_dns):
    engine = check(FIXED, orientations, num_dns, batch_rows=3,
                   statements=UNREAD_STATEMENTS)
    for sql, _ in UNREAD_STATEMENTS:
        plan = engine.execute("explain " + sql).plan_text
        assert "Exchange redistribute" in plan, plan


# -- a column table's scan predicates ------------------------------------------
#
# Both orientations filter a scan with the predicate's compiled batch
# expression (or, with no batch form, the row interpreter): constants on
# either side, int lanes against double constants and the reverse past
# 2**53, coded TEXT against NULLs, and LIKE.

SCAN_STATEMENTS = [
    ("select id from f where 2 < k", True),
    ("select id, x from f where 1.5 >= x and 0 <> h", True),
    ("select id from f where k < 2.5", True),
    ("select id from f where 3.0 = k", True),
    ("select id from f where x >= 2", True),
    ("select g, count(*), sum(x) from f where g like 'a%' group by g", True),
    ("select id from f where g like '%b' and k > 1", True),
]

LARGE_SCAN_STATEMENTS = [
    ("select id from f where 9007199254740992.0 < k", True),
    ("select id from f where k = 9007199254740992.0", True),
    ("select id from f where k <> 9007199254740992.0", True),
    ("select id from d where dk = 9007199254740993", True),
    ("select id from d where 9007199254740993 > dk", True),
    ("select id from d where dk >= 9007199254740993", True),
]

CODED_SCAN_STATEMENTS = [
    ("select id from f where 'a' <> g", True),
    ("select id from f where g <> 'zz'", True),
    ("select id from f where g = 'd' or 'b' = g", True),
    ("select id, x from f where g <> 'a' and 1 < k", True),
    ("select id from f where g like 'c'", True),
]


@pytest.mark.parametrize("num_dns", [1, 2])
def test_column_scan_predicates(num_dns):
    check(FIXED, ("column", "column"), num_dns, statements=SCAN_STATEMENTS)
    check(_large_keys("f"), ("column", "column"), num_dns,
          statements=LARGE_SCAN_STATEMENTS)
    check(CODED, ("column", "column"), num_dns, batch_rows=4, chunk_rows=8,
          statements=CODED_SCAN_STATEMENTS, merge=True)


def test_like_filters_a_column_scan_by_the_row_interpreter():
    engine = _engine(FIXED, ("column", "column"), 2, reference=False)
    txn = engine.cluster.session().begin(multi_shard=True)
    try:
        physical = engine.plan_select(parse(SCAN_STATEMENTS[5][0]), txn)
    finally:
        txn.commit()
    enable_batches(physical)
    scans = [op for op in walk_physical(physical) if isinstance(op, PScan)]
    assert scans and all(op.batch_mode and op.lanes is not None
                         and op._batch_pred is None for op in scans)
