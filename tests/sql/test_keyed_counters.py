"""Keyed statements, counted exactly (no clocks).

On a 2 000-row table over four data nodes a keyed SELECT, UPDATE and
DELETE each examine one tuple on one node, never scan, never talk to the
GTM and commit single-shard; EXPLAIN shows the one fragment they run on.
"""

import pytest

from repro.cluster.datanode import DataNode
from repro.cluster.mpp import MppCluster
from repro.sql.engine import SqlEngine

ROWS = 2000
NUM_DNS = 4


@pytest.fixture(scope="module")
def engine():
    cluster = MppCluster(num_dns=NUM_DNS)
    eng = SqlEngine(cluster)
    eng.execute("create table acct (id int primary key, owner_id int, "
                "branch text, balance double)")
    txn = cluster.session().begin(multi_shard=True)
    for i in range(ROWS):
        txn.insert("acct", {"id": i, "owner_id": i % 200,
                            "branch": f"b{i % 8}", "balance": float(i)})
    txn.commit()
    eng.analyze()
    return eng


def _counters(cluster):
    flat = dict(cluster.obs.metrics.snapshot()[1])
    out = {name: flat.get(name, 0.0) for name in (
        "exec.rows", "dn.read", "dn.scan", "txn.commit",
        "txn.commit.multi_shard")}
    out["gtm.requests"] = cluster.gtm.stats.total_requests
    return out


def _delta(engine, sql):
    before = _counters(engine.cluster)
    result = engine.execute(sql)
    after = _counters(engine.cluster)
    return result, {name: after[name] - before[name] for name in after}


@pytest.fixture
def no_scans(monkeypatch):
    def scan(self, *args, **kwargs):
        raise AssertionError("DataNode.scan called by a keyed statement")
    monkeypatch.setattr(DataNode, "scan", scan)


class TestOneTupleOneNodeNoGtm:
    def test_select(self, engine, no_scans):
        result, moved = _delta(
            engine, "select id, balance from acct where id = 1234")
        assert result.rows == [(1234, 1234.0)]
        # one tuple examined on the data node (dn.read), plus the query's
        # one output row, which the profiler also files under exec.rows
        assert moved["dn.read"] == 1
        assert moved["exec.rows"] == 1 + len(result.rows)
        assert moved["dn.scan"] == 0
        assert moved["gtm.requests"] == 0
        assert moved["txn.commit"] == 1
        assert moved["txn.commit.multi_shard"] == 0

    @pytest.mark.parametrize("sql", [
        "update acct set balance = balance + 1.25 where id = 77",
        "delete from acct where id = 78",
    ])
    def test_update_and_delete(self, engine, no_scans, sql):
        result, moved = _delta(engine, sql)
        assert result.rowcount == 1
        assert moved["exec.rows"] == 1
        assert moved["dn.read"] == 1
        assert moved["dn.scan"] == 0
        assert moved["gtm.requests"] == 0
        assert moved["txn.commit"] == 1
        assert moved["txn.commit.multi_shard"] == 0

    def test_one_row_insert(self, engine, no_scans):
        result, moved = _delta(
            engine, "insert into acct values (5000, 1, 'b1', 2.5)")
        assert result.rowcount == 1
        assert moved["gtm.requests"] == 0
        assert moved["txn.commit.multi_shard"] == 0

    def test_unkeyed_statements_still_go_global(self, engine):
        _, moved = _delta(engine, "update acct set balance = 0 "
                                  "where owner_id = 199 and branch = 'b7'")
        assert moved["dn.scan"] == NUM_DNS
        assert moved["gtm.requests"] == 3        # begin, snapshot, commit
        assert moved["txn.commit.multi_shard"] == 1
        _, moved = _delta(
            engine, "insert into acct values (5001, 1, 'b', 1.0), "
                    "(5002, 1, 'b', 1.0)")
        assert moved["txn.commit.multi_shard"] == 1


class TestExplain:
    def test_one_fragment_over_a_key_lookup(self, engine):
        plan = engine.execute(
            "explain select id, balance from acct where id = 1234").plan_text
        owner = engine.cluster.catalog.shard_map.owner_of_value(1234)
        lines = [line.strip() for line in plan.split("\n")]
        assert sum(line.startswith("Fragment") for line in lines) == 1
        assert any(line.startswith(f"Fragment dn{owner}") for line in lines)
        assert any(line.startswith("KeyLookup acct [ACCT.ID=1234]")
                   for line in lines)
        assert "SeqScan" not in plan

    def test_two_keys_on_two_nodes_stay_a_global_read(self, engine, no_scans):
        sql = "select id from acct where id in (8, 9)"      # dn0 and dn1
        plan = engine.execute("explain " + sql).plan_text
        assert plan.count("Fragment dn") == 2
        assert plan.count("KeyLookup acct") == 2
        result, moved = _delta(engine, sql)
        assert result.rows == [(8,), (9,)]
        assert moved["dn.read"] == 2
        assert moved["gtm.requests"] == 3
        assert moved["txn.commit.multi_shard"] == 1

    def test_explain_begins_no_transaction(self, engine):
        _, moved = _delta(engine, "explain select * from acct where id = 1")
        assert moved["txn.commit"] == 0 and moved["gtm.requests"] == 0

    def test_distributed_identity_with_one_fragment(self, engine):
        result = engine.execute("explain analyze distributed "
                                "select id, balance from acct where id = 1234")
        rows = result.rows
        coordinator, fragments = rows[0], rows[1:]
        assert coordinator[0] == "coordinator"
        assert len(fragments) == 1 and fragments[0][-1] is True   # critical
        elapsed = coordinator[5] + max(row[5] for row in fragments)
        assert result.profile.elapsed_time_us == pytest.approx(elapsed)
        # one gather edge, one row across it
        assert coordinator[4] == 1
        assert "Critical path" in result.plan_text
