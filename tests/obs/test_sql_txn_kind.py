"""Observability follows the transaction kind a SQL statement ran under.

A keyed statement is a single-shard transaction: its query span stitches a
``txn.local`` child, the activity history files it as ``local``, and no
GTM-snapshot or 2PC span or wait event is recorded for it.  The same
statement without a key is still a global transaction with all of those.
"""

import pytest

from repro.cluster.mpp import MppCluster
from repro.obs.waits import (WAIT_2PC_COMMIT, WAIT_2PC_PREPARE,
                             WAIT_DN_COMMIT, WAIT_GTM_GLOBAL)
from repro.sql.engine import SqlEngine

GLOBAL_ONLY_SPANS = {"txn.global", "gtm.snapshot", "2pc.prepare",
                     "2pc.gtm_commit", "2pc.confirm"}
GLOBAL_ONLY_WAITS = (WAIT_GTM_GLOBAL, WAIT_2PC_PREPARE, WAIT_2PC_COMMIT)


@pytest.fixture
def engine():
    eng = SqlEngine(MppCluster(num_dns=4), learning_enabled=False)
    eng.execute("create table t (id int primary key, v int)")
    eng.execute("insert into t values " + ", ".join(
        f"({i}, {i})" for i in range(40)))
    return eng


def _wait_counts(cluster):
    return {row[0]: row[1] for row in cluster.obs.waits.rows()}


def _trace_of_last_query(cluster):
    root = cluster.obs.tracer.finished_spans("query")[-1]
    return root, cluster.obs.tracer.spans_for_trace(root.trace_id)


class TestKeyedSelect:
    def test_query_span_stitches_a_local_transaction(self, engine):
        cluster = engine.cluster
        engine.execute("select v from t where id = 7")
        root, spans = _trace_of_last_query(cluster)
        names = [s.name for s in spans]
        assert "txn.local" in names
        assert not GLOBAL_ONLY_SPANS & set(names)
        local = next(s for s in spans if s.name == "txn.local")
        assert local.parent_id == root.span_id
        assert local.attributes["outcome"] == "committed"
        # the fragment's operators still stitch under the same root
        assert {s.node for s in spans if s.name == "op.KeyLookup"} == {"dn3"}

    def test_activity_and_waits(self, engine):
        cluster = engine.cluster
        before = _wait_counts(cluster)
        engine.execute("select v from t where id = 7")
        entry = cluster.obs.activity.completed()[-1]
        assert (entry.kind, entry.snapshot, entry.state) == (
            "local", "local", "committed")
        after = _wait_counts(cluster)
        for event in GLOBAL_ONLY_WAITS:
            assert after.get(event, 0) == before.get(event, 0), event
        assert after[WAIT_DN_COMMIT] == before.get(WAIT_DN_COMMIT, 0) + 1

    def test_unkeyed_select_is_still_global(self, engine):
        cluster = engine.cluster
        before = _wait_counts(cluster)
        engine.execute("select v from t where v = 7")
        _, spans = _trace_of_last_query(cluster)
        names = {s.name for s in spans}
        assert {"txn.global", "gtm.snapshot"} <= names
        assert "txn.local" not in names
        assert cluster.obs.activity.completed()[-1].kind == "global"
        after = _wait_counts(cluster)
        assert after[WAIT_GTM_GLOBAL] == before.get(WAIT_GTM_GLOBAL, 0) + 1


class TestKeyedWrites:
    @pytest.mark.parametrize("sql", [
        "update t set v = v + 1 where id = 7",
        "delete from t where id = 8",
        "insert into t values (100, 1)",
    ])
    def test_local_kind_no_gtm_no_2pc(self, engine, sql):
        cluster = engine.cluster
        before = _wait_counts(cluster)
        spans_before = len(cluster.obs.tracer.finished_spans())
        engine.execute(sql)
        entry = cluster.obs.activity.completed()[-1]
        assert (entry.kind, entry.state) == ("local", "committed")
        new = cluster.obs.tracer.finished_spans()[spans_before:]
        assert [s.name for s in new] == ["txn.local"]
        after = _wait_counts(cluster)
        for event in GLOBAL_ONLY_WAITS:
            assert after.get(event, 0) == before.get(event, 0), event

    def test_classical_mode_keeps_every_statement_global(self):
        from repro.cluster.txn import TxnMode

        eng = SqlEngine(MppCluster(num_dns=2, mode=TxnMode.CLASSICAL))
        eng.execute("create table t (id int primary key, v int)")
        eng.execute("insert into t values (1, 1)")
        eng.execute("update t set v = 2 where id = 1")
        assert eng.execute("select v from t where id = 1").rows == [(2,)]
        kinds = {e.kind for e in eng.cluster.obs.activity.completed()}
        assert kinds == {"global"}
