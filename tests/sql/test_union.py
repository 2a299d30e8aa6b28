"""Tests for UNION / UNION ALL."""

import pytest

from repro.cluster import MppCluster
from repro.common.errors import SqlAnalysisError, SqlSyntaxError
from repro.sql.engine import SqlEngine


@pytest.fixture
def engine():
    eng = SqlEngine(MppCluster(num_dns=2))
    eng.execute("create table hot (id int primary key, v int)")
    eng.execute("create table cold (id int primary key, v int)")
    eng.execute("insert into hot values (1, 10), (2, 20), (3, 30)")
    eng.execute("insert into cold values (4, 40), (5, 10), (6, 20)")
    return eng


class TestUnionAll:
    def test_concatenates(self, engine):
        result = engine.execute(
            "select v from hot union all select v from cold")
        assert sorted(result.rows) == [(10,), (10,), (20,), (20,), (30,), (40,)]

    def test_order_and_limit_apply_to_whole_union(self, engine):
        result = engine.execute(
            "select id, v from hot union all select id, v from cold "
            "order by id desc limit 2")
        assert result.rows == [(6, 20), (5, 10)]

    def test_three_branches(self, engine):
        result = engine.execute(
            "select id from hot union all select id from cold "
            "union all select id from hot where id = 1")
        assert result.rowcount == 7

    def test_branches_optimize_independently(self, engine):
        plan = engine.execute(
            "explain select v from hot where id = 1 "
            "union all select v from cold where id = 4").plan_text
        # Each branch keeps its own pushed-down predicate on its leaf: a
        # key lookup, instantiated only on the node that owns the key.
        assert plan.count("[HOT.ID=1]") == plan.count("KeyLookup hot") == 1
        assert plan.count("[COLD.ID=4]") == plan.count("KeyLookup cold") == 1
        assert "SeqScan" not in plan
        assert "UnionAll" in plan

    def test_union_inside_cte(self, engine):
        result = engine.execute(
            "with merged (v) as (select v from hot union all "
            "select v from cold) "
            "select count(*), sum(v) from merged")
        assert result.rows == [(6, 130.0)]


class TestUnionDistinct:
    def test_plain_union_dedupes(self, engine):
        result = engine.execute(
            "select v from hot union select v from cold order by v")
        assert result.rows == [(10,), (20,), (30,), (40,)]

    def test_mixed_all_and_distinct(self, engine):
        # Any plain UNION in the chain dedupes the whole result (documented
        # simplification of SQL's left-associative semantics).
        result = engine.execute(
            "select v from hot union all select v from hot "
            "union select v from cold order by v")
        assert result.rows == [(10,), (20,), (30,), (40,)]


class TestUnionErrors:
    def test_width_mismatch_rejected(self, engine):
        with pytest.raises(SqlAnalysisError):
            engine.execute("select id, v from hot union all select id from cold")

    def test_order_by_before_union_rejected(self, engine):
        with pytest.raises(SqlSyntaxError):
            engine.execute("select v from hot order by v "
                           "union all select v from cold")

    def test_aggregates_per_branch(self, engine):
        result = engine.execute(
            "select max(v) from hot union all select max(v) from cold")
        assert sorted(result.rows) == [(30,), (40,)]
