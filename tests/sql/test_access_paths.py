"""Differential access-path suite: ``KeyLookup`` against the scan it replaces.

Twin engines on identical data run identical statements.  The reference is
the same engine with a no-op in place of the one matcher function
(``repro.optimizer.access.lookup_keys`` returning ``None`` — no statement
is ever keyed, so every leaf is a ``SeqScan``, every DML statement walks
the table and every transaction is global); there is no engine option for
this.  Outcomes are compared **as lists**: same rows, same order.
"""

import sqlite3

import pytest

import repro.optimizer.access as access
from repro.cluster.ha import HaManager
from repro.cluster.mpp import MppCluster
from repro.cluster.rebalance import RebalanceCoordinator
from repro.sql.engine import SqlEngine

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover - the container ships hypothesis
    given = None


def _scan_only(run):
    """Run ``run()`` with the matcher replaced by a no-op."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(access, "lookup_keys",
                      lambda predicate, table_schema: None)
        return run()


def _outcome(engine, sql):
    try:
        result = engine.execute(sql)
    except Exception as exc:  # compared too: both sides must agree
        return ("raised", type(exc).__name__)
    if result.columns:
        return result.rows
    return result.rowcount


def _both(build, statements):
    """``statements`` on a keyed and on a scan-only twin of ``build()``."""
    def run():
        engine = build()
        return engine, [_outcome(engine, sql) for sql in statements]

    keyed_engine, keyed = run()
    _, scanned = _scan_only(run)
    return keyed_engine, keyed, scanned


def _acct(num_dns=4, with_clause="", rows=40, ha=False):
    def build():
        cluster = MppCluster(num_dns=num_dns)
        if ha:
            HaManager(cluster)
        engine = SqlEngine(cluster)
        engine.execute(
            "create table acct (id int primary key, owner int, tag text, "
            f"bal double) {with_clause}")
        # Descending ids: heap arrival order is not key order, so a lookup
        # that emitted IN-list or key order would be caught.
        values = ", ".join(
            f"({i}, {i % 5}, 't{i % 3}', {i * 1.5})"
            for i in range(rows - 1, -1, -1))
        engine.execute(f"insert into acct values {values}")
        engine.analyze()
        return engine
    return build


POINT_AND_IN = [
    "select * from acct where id = 7",
    "select id, bal from acct where 7 = id",
    "select * from acct where id = 9999",                  # missing key
    "select * from acct where id in (5, 2)",
    "select * from acct where id in (5, 2, 5, 2, 2)",      # duplicates
    "select * from acct where id in (3, 3, 3)",            # one after dedupe
    "select * from acct where id in (1, 9999, 17, -4)",    # some missing
    "select * from acct where id in (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)",
    "select * from acct where id = 1 + 2",                 # folds to a key
    "select * from acct where id = -3",
    # residual conjuncts run on the fetched row
    "select * from acct where id = 7 and owner = 2",
    "select * from acct where id = 7 and owner = 3",
    "select * from acct where id in (4, 9, 14) and bal > 10 and tag = 't0'",
    "select * from acct where id = 7 and id = 8",
    "select * from acct where id in (7, 8) and id = 8",
    # shapes that must stay on the scan
    "select * from acct where id = 7 or id = 8",
    "select * from acct where id + 0 = 7",
    "select * from acct where owner = 2",
    "select * from acct where id not in (1, 2)",
    "select * from acct where id > 36",
    # keyed leaves under other operators
    "select count(*), sum(bal) from acct where id in (1, 2, 3, 21)",
    "select tag, count(*) from acct where id in (1, 2, 3, 4, 5, 6) "
    "group by tag order by tag",
    "select id from acct where id in (9, 8, 7, 6) order by id desc limit 2",
    "select a.id, b.id from acct a, acct b "
    "where a.id = 3 and b.owner = a.owner and b.id in (8, 13, 14)",
    "select id from acct where id = 3 union all "
    "select id from acct where id in (30, 31)",
]

CONSTANTS = [
    "select id from acct where id = 3",
    "select id from acct where id = 3.0",     # matches row 3, not lowered
    "select id from acct where id = true",    # matches row 1, not lowered
    "select id from acct where id = '3'",
    "select id from acct where id = null",
    "select id from acct where id in (3, 4.0)",
    "select id from acct where id in (2, null)",
    "update acct set bal = 0 where id = 3.0",
    "delete from acct where id = true",
    "select id, bal from acct where id in (1, 3)",
]


class TestSameRowsSameOrder:
    @pytest.mark.parametrize("num_dns", [1, 2, 4])
    @pytest.mark.parametrize("with_clause",
                             ["", "with (orientation = column)"])
    def test_select_shapes(self, num_dns, with_clause):
        _, keyed, scanned = _both(_acct(num_dns, with_clause), POINT_AND_IN)
        assert keyed == scanned

    def test_in_list_comes_back_in_heap_order(self):
        engine, keyed, scanned = _both(_acct(1), [
            "select id from acct where id in (5, 2)"])
        # loaded descending: 5 arrived before 2
        assert keyed == scanned == [[(5,), (2,)]]
        assert "KeyLookup" in engine.execute(
            "explain select id from acct where id in (5, 2)").plan_text

    @pytest.mark.parametrize("num_dns", [1, 4])
    def test_constant_types(self, num_dns):
        engine, keyed, scanned = _both(_acct(num_dns), CONSTANTS)
        assert keyed == scanned
        assert keyed[1] == [(3,)] and keyed[2] == [(1,)]
        explain = lambda sql: engine.execute("explain " + sql).plan_text
        assert "KeyLookup" in explain(CONSTANTS[0])
        for sql in CONSTANTS[1:7]:
            assert "KeyLookup" not in explain(sql), sql

    @pytest.mark.parametrize("num_dns", [1, 2, 4])
    def test_text_keys(self, num_dns):
        def build():
            engine = SqlEngine(MppCluster(num_dns=num_dns))
            engine.execute("create table names (k text primary key, n int)")
            engine.execute("insert into names values " + ", ".join(
                f"('k{i}', {i})" for i in range(30, 0, -1)))
            return engine

        statements = [
            "select * from names where k = 'k7'",
            "select * from names where k in ('k3', 'zz', 'k21', 'k3')",
            "select * from names where k = 7",           # wrong type: scan
            "select * from names where k = 'k7' and n > 7",
            "update names set n = n + 100 where k in ('k2', 'k9')",
            "delete from names where k = 'k3'",
            "select * from names where k in ('k2', 'k3', 'k9')",
        ]
        engine, keyed, scanned = _both(build, statements)
        assert keyed == scanned
        assert "KeyLookup" in engine.execute(
            "explain " + statements[0]).plan_text
        assert "KeyLookup" not in engine.execute(
            "explain " + statements[2]).plan_text

    @pytest.mark.parametrize("num_dns", [1, 4])
    def test_replicated_table(self, num_dns):
        def build():
            engine = SqlEngine(MppCluster(num_dns=num_dns))
            engine.execute("create table dim (id int primary key, v text) "
                           "distribute by replication")
            engine.execute("create table fact (id int primary key, d int)")
            engine.execute("insert into dim values " + ", ".join(
                f"({i}, 'v{i}')" for i in range(12, 0, -1)))
            engine.execute("insert into fact values " + ", ".join(
                f"({i}, {i % 12 + 1})" for i in range(24)))
            return engine

        statements = [
            "select * from dim where id = 4",
            "select * from dim where id in (9, 2, 2, 40)",
            "update dim set v = 'w' where id = 4",
            "delete from dim where id in (2, 3)",
            "insert into dim values (2, 'back')",
            "select * from dim where id in (2, 3, 4)",
            "select f.id, d.v from fact f, dim d "
            "where f.d = d.id and d.id = 4 order by f.id",
            "select * from dim",
        ]
        engine, keyed, scanned = _both(build, statements)
        assert keyed == scanned
        # one replica serves the read; writes reached every node
        plan = engine.execute("explain " + statements[0]).plan_text
        assert plan.count("KeyLookup dim") == 1
        for dn in engine.cluster.active_dns():
            assert dn.read("dim", 4, dn.local_snapshot())["v"] == "w"


class TestWrites:
    STATEMENTS = [
        "update acct set bal = bal + 1 where id = 7",
        "update acct set tag = 'x' where id in (3, 4, 4, 99)",
        "update acct set bal = 0 where id = 7 and owner = 0",   # no match
        "select * from acct where id in (3, 4, 7)",
        "delete from acct where id = 7",
        "delete from acct where id = 7",                        # gone
        "select * from acct where id = 7",
        "insert into acct values (7, 1, 'again', 1.0)",         # same key
        "select * from acct where id in (6, 7, 8)",
        "select id from acct",        # 7 keeps its place in the heap walk
        "delete from acct where id in (1, 2) and bal > 2",
        "select count(*) from acct",
        "insert into acct values (8, 1, 'dup', 1.0)",           # raises
    ]

    @pytest.mark.parametrize("num_dns", [1, 2, 4])
    @pytest.mark.parametrize("with_clause",
                             ["", "with (orientation = column)"])
    def test_update_delete_reinsert(self, num_dns, with_clause):
        _, keyed, scanned = _both(_acct(num_dns, with_clause),
                                  self.STATEMENTS)
        assert keyed == scanned
        assert keyed[-1] == ("raised", "DuplicateKeyError")


class TestUpdateMovesTheRow:
    """An UPDATE that assigns the primary key or the distribution column
    changes where the row lives.  It runs as delete + insert, so the heap
    key, the primary-key value and the owning node stay equal — a probe of
    the new key finds the row exactly as the scan does."""

    STATEMENTS = [
        "update acct set id = 100 where id = 3",
        "select * from acct where id = 100",
        "select * from acct where id + 0 = 100",               # by scan
        "select * from acct where id = 3",
        "update acct set bal = -1 where id = 100",
        "select * from acct where id in (100, 3, 4)",
        "insert into acct values (3, 9, 'new', 9.0)",          # 3 is free
        "update acct set id = id + 1 where id in (38, 39)",    # 39 vacates
        "update acct set id = 8 where id = 9",                 # raises
        "select * from acct where id in (8, 9, 38, 39, 40)",
        "update acct set id = id, bal = 5 where id = 8",       # stays put
        "update acct set id = id + 1000 where owner = 2",      # located by scan
        "select id from acct where id in (1002, 2, 1007)",
        "delete from acct where id = 100",
        "select * from acct where id = 100",
        "select id from acct",
    ]

    @pytest.mark.parametrize("num_dns", [1, 2, 4])
    @pytest.mark.parametrize("with_clause",
                             ["", "with (orientation = column)"])
    def test_key_update(self, num_dns, with_clause):
        engine, keyed, scanned = _both(_acct(num_dns, with_clause),
                                       self.STATEMENTS)
        assert keyed == scanned
        assert keyed[1] == keyed[2] == [(100, 3, "t0", 4.5)]
        assert keyed[3] == [] and keyed[4] == 1
        assert keyed[8] == ("raised", "DuplicateKeyError")
        assert keyed[13] == 1 and keyed[14] == []
        cluster = engine.cluster
        owner_of = cluster.catalog.shard_map.owner_of_value
        for dn in cluster.active_dns():
            for key, values in dn.scan("acct", dn.local_snapshot()):
                assert key == values["id"]
                assert owner_of(key) == dn.index

    def test_key_update_equals_sqlite(self):
        engine = _acct(4)()
        mirror = sqlite3.connect(":memory:")
        mirror.execute("create table acct (id int primary key, owner int, "
                       "tag text, bal double)")
        mirror.executemany(
            "insert into acct values (?, ?, ?, ?)",
            engine.execute("select * from acct").rows)
        for sql in self.STATEMENTS:
            if "id + 1" in sql:
                continue     # sqlite checks uniqueness row by row
            got = _outcome(engine, sql)
            try:
                cursor = mirror.execute(sql)
            except sqlite3.IntegrityError:
                assert got == ("raised", "DuplicateKeyError"), sql
                continue
            if isinstance(got, int):
                assert got == cursor.rowcount, sql
            else:
                assert sorted(got) == sorted(cursor.fetchall()), sql

    def test_moving_to_another_node_promotes(self):
        """The keyed UPDATE starts single-shard; inserting the row on a
        second node promotes it, and it commits two-phase."""
        engine = _acct(4)()
        stats = engine.cluster.stats
        before = stats.commits_multi_shard
        assert engine.execute(
            "update acct set id = 101 where id = 3").rowcount == 1  # dn3->dn1
        assert stats.commits_multi_shard == before + 1
        assert engine.execute(
            "update acct set id = 7 + 4 * 100 where id = 7").rowcount == 1
        assert stats.commits_multi_shard == before + 1               # same node
        assert engine.execute(
            "select id from acct where id in (101, 407, 3, 7)").rows == [
                (101,), (407,)]


class TestDistributedOnNonKeyColumn:
    """``distribute by hash(w)``: the key does not say where the row lives,
    so the lookup probes every node — and UPDATE/DELETE route by the
    located row (they used to raise ``cannot route by key``)."""

    DDL = "create table t (id int primary key, w int, x int)"
    LOAD = "insert into t values " + ", ".join(
        f"({i}, {i * 7 % 5}, {i})" for i in range(19, -1, -1))
    STATEMENTS = [
        "update t set x = 100 where id = 3",
        "delete from t where id = 4",
        "update t set x = x + 1 where id in (5, 6, 99)",
        "update t set x = 0 where w = 2",
        "delete from t where x = 0 and id > 10",
        "select * from t where id = 3",
        "select * from t where id in (6, 4, 5, 3)",
        "select * from t order by id",
        # a new distribution value moves the row to that value's node ...
        "update t set w = w + 1 where id = 3",
        "update t set w = 4, x = -1 where id in (5, 6)",
        # ... where later keyed writes find it
        "update t set x = x + 1 where id = 3",
        "delete from t where id = 5",
        "select * from t where id in (3, 5, 6)",
        "select * from t order by id",
    ]

    def _build(self, num_dns):
        def build():
            engine = SqlEngine(MppCluster(num_dns=num_dns))
            engine.execute(self.DDL + " distribute by hash(w)")
            engine.execute(self.LOAD)
            return engine
        return build

    @pytest.mark.parametrize("num_dns", [1, 2, 4])
    def test_matches_scan_twin(self, num_dns):
        engine, keyed, scanned = _both(self._build(num_dns), self.STATEMENTS)
        assert keyed == scanned
        assert keyed[0] == 1 and keyed[1] == 1
        plan = engine.execute("explain select * from t where id = 3").plan_text
        # no pruning: an O(1) probe on every node
        assert plan.count("KeyLookup t") == num_dns

    def test_probe_skips_copies_a_scan_would_hide(self):
        """Mid-move the target holds a copy of the slot's rows; the probe of
        that node must not return it (nor the stale source copy between
        flip and truncate)."""
        def drive():
            engine = self._build(4)()
            shard_map = engine.cluster.catalog.shard_map
            sql = ["select * from t where id = 3",
                   "select * from t where id in (3, 8, 13, 18, 4)"]
            slot = shard_map.slot_of_value(3 * 7 % 5)      # row 3's w
            source = shard_map.owner_of_slot(slot)
            mover = RebalanceCoordinator(engine.cluster)
            move = mover.begin([slot], (source + 1) % 4)
            mover.copy(move)
            out = [_outcome(engine, s) for s in sql]
            out.append(_outcome(engine, "update t set x = 7 where id = 3"))
            mover.flip(move)
            out += [_outcome(engine, s) for s in sql]
            mover.truncate(move)
            out += [_outcome(engine, s) for s in sql]
            return out

        keyed = drive()
        assert keyed == _scan_only(drive)
        assert keyed[0] == [(3, 1, 3)] and keyed[3] == [(3, 1, 7)]

    def test_answers_equal_sqlite(self):
        engine = self._build(4)()
        mirror = sqlite3.connect(":memory:")
        mirror.execute(self.DDL)
        mirror.execute(self.LOAD)
        for sql in self.STATEMENTS:
            got = _outcome(engine, sql)
            cursor = mirror.execute(sql)
            if isinstance(got, int):
                assert got == cursor.rowcount, sql
            else:
                assert sorted(got) == sorted(cursor.fetchall()), sql


class TestPlacementChanges:
    """Keyed statements while their slot moves, after the flip, after a
    node joins and after a failover — the same text each time, so the plan
    cache is in play."""

    KEY = 6
    READ = f"select * from acct where id = {KEY}"
    BOTH = f"select * from acct where id in ({KEY}, 11, 17)"

    def _drive(self, build):
        """Every outcome of one scripted slot move, as a list."""
        engine = build()
        cluster = engine.cluster
        shard_map = cluster.catalog.shard_map
        out = []

        def step(*statements):
            out.extend(_outcome(engine, sql) for sql in statements)

        step(self.READ, self.READ, self.BOTH)             # cached by now
        slot = shard_map.slot_of_value(self.KEY)
        source = shard_map.owner_of_slot(slot)
        target = next(dn for dn in shard_map.members() if dn != source)
        mover = RebalanceCoordinator(cluster)
        move = mover.begin([slot], target)
        mover.copy(move)
        # between copy and flip: reads go to the source, writes double-write
        step(self.READ, self.BOTH,
             f"update acct set bal = bal + 100 where id = {self.KEY}",
             self.READ,
             "insert into acct values "
             f"({self.KEY + shard_map.num_slots}, 1, 'moved', 2.0)",
             f"delete from acct where id = {self.KEY + 2 * shard_map.num_slots}",
             self.BOTH)
        copies = [cluster.dns[dn].read("acct", self.KEY,
                                       cluster.dns[dn].local_snapshot())
                  for dn in (source, target)]
        mover.flip(move)
        step(self.READ, self.BOTH)          # stale copy still on the source
        mover.truncate(move)
        step(self.READ, self.BOTH,
             f"update acct set bal = bal + 1 where id = {self.KEY}",
             self.READ)
        mover.add_dn()
        step(self.READ, self.BOTH,
             f"delete from acct where id = {self.KEY}", self.READ,
             "select id from acct")
        return engine, out, copies, (source, target)

    @pytest.mark.parametrize("with_clause",
                             ["", "with (orientation = column)"])
    def test_slot_move_then_add_dn(self, with_clause):
        build = _acct(4, with_clause, rows=600)
        engine, keyed, copies, (source, target) = self._drive(build)
        _, scanned, _, _ = _scan_only(lambda: self._drive(build))
        assert keyed == scanned
        # the in-window update promoted to the global path and landed on
        # both copies, so the flip lost nothing
        assert copies[0] == copies[1]
        assert copies[0]["bal"] == self.KEY * 1.5 + 100

    def test_cached_plan_follows_the_owner(self):
        engine = _acct(4, rows=600)()
        cluster = engine.cluster
        shard_map = cluster.catalog.shard_map
        slot = shard_map.slot_of_value(self.KEY)
        source = shard_map.owner_of_slot(slot)
        target = (source + 1) % 4
        engine.execute(self.READ)
        hits = engine.plan_cache.hits
        assert f"Fragment dn{source}" in engine.execute(self.READ).plan_text
        assert engine.plan_cache.hits == hits + 1
        mover = RebalanceCoordinator(cluster)
        move = mover.begin([slot], target)
        mover.copy(move)
        # mid-move the map's version has not moved: the cached plan still
        # serves, from the node that still owns the slot
        assert f"Fragment dn{source}" in engine.execute(self.READ).plan_text
        assert engine.plan_cache.hits == hits + 2
        mover.flip(move)
        result = engine.execute(self.READ)
        assert engine.plan_cache.hits == hits + 2          # evicted
        assert f"Fragment dn{target}" in result.plan_text
        assert result.rows == [(self.KEY, 1, "t0", 9.0)]
        mover.truncate(move)
        # every cached leaf names a node the map still routes the key to
        for dn, keys in _lookup_sites(engine, self.BOTH):
            for key in keys:
                assert shard_map.owner_of_value(key) == dn

    def test_after_failover(self):
        def drive():
            engine = _acct(4, rows=80, ha=True)()
            out = [_outcome(engine, sql) for sql in (
                self.READ, self.BOTH,
                f"update acct set bal = 1 where id = {self.KEY}")]
            owner = engine.cluster.catalog.shard_map.owner_of_value(self.KEY)
            engine.cluster.declare_node_dead(owner, reason="test failover")
            out += [_outcome(engine, sql) for sql in (
                self.READ, self.BOTH,
                f"update acct set bal = bal + 1 where id = {self.KEY}",
                f"delete from acct where id = {self.KEY + 4}",
                self.READ, self.BOTH, "select id from acct")]
            return out

        keyed = drive()
        assert keyed == _scan_only(drive)
        assert keyed[3] == [(self.KEY, 1, "t0", 1.0)]


def _lookup_sites(engine, sql):
    from repro.exec.operators import PKeyLookup, walk_physical
    from repro.sql.parser import parse

    plan = engine.plan_select(parse(sql), None)
    for op in walk_physical(plan):
        if isinstance(op, PKeyLookup):
            yield from op.sites


if given is not None:
    _TWINS = {}

    def _twins():
        if not _TWINS:
            _TWINS["keyed"] = _acct(4, rows=60)()
            _TWINS["scan"] = _acct(4, rows=60)()
        return _TWINS["keyed"], _TWINS["scan"]

    @settings(max_examples=60, deadline=None)
    @given(keys=st.lists(st.integers(-5, 70), min_size=1, max_size=12),
           floor=st.integers(0, 4))
    def test_random_key_sets(keys, floor):
        keyed, scan = _twins()
        sql = (f"select * from acct where id in ({', '.join(map(str, keys))}) "
               f"and owner >= {floor}")
        assert _outcome(keyed, sql) == _scan_only(lambda: _outcome(scan, sql))
