"""The ``sys.*`` views, end to end through parser → binder → executor."""

import pytest

from repro.cluster.mpp import MppCluster
from repro.common.errors import SqlAnalysisError
from repro.sql.engine import SqlEngine


@pytest.fixture
def engine():
    cluster = MppCluster(num_dns=2)
    eng = SqlEngine(cluster, learning_enabled=False)
    eng.execute("CREATE TABLE t (a int, b text)")
    eng.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
    return eng


class TestSysViewsBindAndExecute:
    def test_every_view_selects_star(self, engine):
        for view in ("sys.metrics", "sys.activity", "sys.wait_events",
                     "sys.slow_queries", "sys.spans", "sys.alerts"):
            result = engine.execute(f"SELECT * FROM {view}")
            assert result.columns, view
            # served through the standard physical pipeline
            assert "TableFunction" in result.plan_text, view

    def test_metrics_view_reflects_live_registry(self, engine):
        before = engine.cluster.obs.metrics.counter("txn.commit").value
        rows = engine.query(
            "SELECT value FROM sys.metrics WHERE name = 'txn.commit'")
        # the view snapshots at read time, inside the querying transaction —
        # so it sees every commit *before* this query, not its own
        assert rows[0]["value"] == before
        kinds = engine.query(
            "SELECT kind FROM sys.metrics WHERE name = 'gtm.active'")
        assert kinds[0]["kind"] == "gauge"
        hist = engine.query("SELECT kind FROM sys.metrics "
                            "WHERE name = 'gtm.snapshot_us.p95'")
        assert hist[0]["kind"] == "histogram"

    def test_wait_events_view_matches_recorder(self, engine):
        recorder_rows = engine.cluster.obs.waits.rows()
        sql_rows = engine.execute("SELECT * FROM sys.wait_events").rows
        # the SELECT itself runs in a transaction that adds waits, so the
        # recorder read *before* must be a prefix-wise subset by event name
        assert {r[0] for r in recorder_rows} <= {r[0] for r in sql_rows}
        assert [r[0] for r in sql_rows] == sorted(r[0] for r in sql_rows)

    def test_activity_shows_the_querying_transaction(self, engine):
        rows = engine.query("SELECT kind, state, snapshot FROM sys.activity")
        # exactly one open transaction: the one serving this query
        assert rows == [{"kind": "global", "state": "running",
                         "snapshot": "merged"}]

    def test_activity_where_state_waiting(self, engine):
        obs = engine.cluster.obs
        # hold a transaction open and mark it blocked, as an UPGRADE would
        session = engine.cluster.session()
        stalled = session.begin(multi_shard=True)
        obs.activity.enter_wait(stalled.activity_entry)
        rows = engine.query(
            "SELECT txn_id, kind FROM sys.activity WHERE state = 'waiting'")
        assert rows == [{"txn_id": stalled.gxid, "kind": "global"}]
        obs.activity.leave_wait(stalled.activity_entry)
        stalled.commit()

    def test_composition_filter_plus_aggregate(self, engine):
        rows = engine.query(
            "SELECT count(*) AS n, sum(total_us) AS w FROM sys.wait_events "
            "WHERE event LIKE 'gtm.%' AND total_us > 0")
        assert rows[0]["n"] >= 2          # gtm.global + gtm.local at least
        assert rows[0]["w"] > 0.0

    def test_composition_group_by_and_order(self, engine):
        rows = engine.query(
            "SELECT kind, count(*) AS n FROM sys.metrics "
            "GROUP BY kind ORDER BY n DESC")
        kinds = {r["kind"] for r in rows}
        assert {"counter", "histogram"} <= kinds

    def test_composition_join_with_user_table(self, engine):
        # joining a sys view against a user table goes through the normal
        # join operators — no special casing anywhere
        rows = engine.query(
            "SELECT t.a, w.event FROM t JOIN sys.wait_events w "
            "ON t.a = 1 WHERE w.event = 'gtm.global'")
        assert rows == [{"a": 1, "event": "gtm.global"}]

    def test_alias_binding(self, engine):
        rows = engine.query(
            "SELECT m.name FROM sys.metrics m WHERE m.name = 'txn.commit'")
        assert rows == [{"name": "txn.commit"}]

    def test_spans_view(self, engine):
        rows = engine.query(
            "SELECT count(*) AS n FROM sys.spans WHERE name = 'txn.global'")
        assert rows[0]["n"] > 0

    def test_unknown_sys_view_rejected(self, engine):
        with pytest.raises(SqlAnalysisError):
            engine.execute("SELECT * FROM sys.nonsense")

    def test_views_are_deterministic_between_identical_engines(self):
        def snapshot():
            cluster = MppCluster(num_dns=2)
            eng = SqlEngine(cluster, learning_enabled=False)
            eng.execute("CREATE TABLE t (a int)")
            eng.execute("INSERT INTO t VALUES (1), (2)")
            eng.query("SELECT * FROM t")
            return (eng.execute("SELECT * FROM sys.wait_events").rows,
                    eng.execute("SELECT * FROM sys.metrics").rows)
        assert snapshot() == snapshot()


class TestSlowQueryPipeline:
    def test_slow_query_lands_in_view(self):
        cluster = MppCluster(num_dns=2)
        cluster.obs.slowlog.threshold_us = 0.0      # everything is "slow"
        eng = SqlEngine(cluster, learning_enabled=False)
        eng.execute("CREATE TABLE t (a int)")
        eng.execute("INSERT INTO t VALUES (1), (2), (3)")
        eng.query("SELECT * FROM t WHERE a > 1")
        rows = eng.query(
            "SELECT sql, operators, top_operator FROM sys.slow_queries")
        assert any(r["sql"] == "SELECT * FROM t WHERE a > 1" for r in rows)
        slowest = rows[-1]
        assert slowest["operators"] > 0
        assert slowest["top_operator"]

    def test_alerts_queryable_after_burst(self):
        cluster = MppCluster(num_dns=2)
        cluster.obs.slowlog.threshold_us = 0.0
        eng = SqlEngine(cluster, learning_enabled=False)
        eng.execute("CREATE TABLE t (a int)")
        eng.execute("INSERT INTO t VALUES (1)")
        for _ in range(3):
            eng.query("SELECT * FROM t")
        cluster.obs.alerts.check_slow_queries(
            cluster.obs.slowlog, now_us=cluster.obs.clock.now_us + 1.0,
            window_us=1e12)
        rows = eng.query(
            "SELECT severity, source, count FROM sys.alerts "
            "WHERE source = 'slowlog'")
        assert rows and rows[0]["severity"] == "warning"


class TestSysFaultsView:
    def test_empty_without_injector(self, engine):
        result = engine.execute("SELECT * FROM sys.faults")
        assert result.rows == []
        assert result.columns == ["fault_id", "failpoint", "action",
                                  "target", "gxid", "t_us"]

    def test_injected_faults_queryable(self, engine):
        from repro.faults import ACT_TIMEOUT, FP_PREPARE_BEFORE, FaultInjector

        cluster = engine.cluster
        injector = FaultInjector(seed=3).bind(cluster)
        injector.arm(FP_PREPARE_BEFORE, ACT_TIMEOUT, times=1)
        # Not keyed, so the statement is a global transaction and commits
        # through 2PC (``WHERE a = 1`` would run single-shard, one-phase,
        # and never reach a prepare failpoint).
        engine.execute("UPDATE t SET b = 'w' WHERE b = 'x'")
        rows = engine.query(
            "SELECT failpoint, action, target FROM sys.faults")
        assert rows == [{"failpoint": "2pc.prepare.before",
                         "action": "timeout",
                         "target": "dn1"}]    # the row a = 1 lives on dn1
        count = engine.query("SELECT count(*) AS n FROM sys.faults")
        assert count[0]["n"] == 1
