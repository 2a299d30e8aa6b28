"""Tests for the learning optimizer: plan store, capture policy, reuse.

Includes the Table I scenario: the exact query from the paper
(``select * from olap.t1, olap.t2 where olap.t1.a1=olap.t2.a2 and
olap.t1.b1 > 10``) over *correlated* data that defeats the classical
estimator, so the producer captures the scan and join steps and the next
planning run consumes them.
"""

import pytest

from repro.cluster import MppCluster
from repro.learnopt.feedback import CaptureSettings, FeedbackLoop
from repro.learnopt.store import PlanStore, step_key
from repro.sql.engine import SqlEngine


class TestPlanStore:
    def test_md5_key_is_32_hex_chars(self):
        key = step_key("SCAN(OLAP.T1, PREDICATE(OLAP.T1.B1 > 10))")
        assert len(key) == 32
        int(key, 16)  # valid hex

    def test_put_lookup(self):
        store = PlanStore()
        store.put("STEP", estimated_rows=50, actual_rows=100)
        assert store.lookup("STEP") == 100
        assert store.lookup("OTHER") is None
        assert store.hits == 1 and store.lookups == 2

    def test_update_overwrites(self):
        store = PlanStore()
        store.put("STEP", 50, 100)
        store.put("STEP", 60, 120)
        assert store.lookup("STEP") == 120
        assert store.get_record("STEP").updates == 1

    def test_lru_eviction(self):
        store = PlanStore(capacity=2)
        store.put("A", 1, 1)
        store.put("B", 1, 1)
        store.lookup("A")        # A becomes most recent
        store.put("C", 1, 1)     # evicts B
        assert store.lookup("B") is None
        assert store.lookup("A") == 1

    def test_render_table(self):
        store = PlanStore()
        store.put("SCAN(OLAP.T1, PREDICATE(OLAP.T1.B1>10))", 50, 100)
        text = store.render_table()
        assert "Estimate" in text and "Actual" in text
        assert "SCAN(OLAP.T1" in text


class TestCapturePolicy:
    def _engine(self, **settings):
        cluster = MppCluster(num_dns=2)
        engine = SqlEngine(cluster,
                           capture_settings=CaptureSettings(**settings))
        engine.execute("create table olap.t1 (a1 int primary key, b1 int)")
        engine.execute("create table olap.t2 (a2 int primary key, b2 int)")
        # Correlated data: b1 = 0 for the first 90% of rows, then b1 = a1,
        # so "b1 > 10" selects far fewer rows than a uniform model thinks.
        rows1 = ",".join(
            f"({i}, {0 if i < 180 else i})" for i in range(200))
        rows2 = ",".join(f"({i}, {i})" for i in range(200))
        engine.execute(f"insert into olap.t1 values {rows1}")
        engine.execute(f"insert into olap.t2 values {rows2}")
        return engine

    TABLE1_QUERY = ("select * from olap.t1, olap.t2 "
                    "where olap.t1.a1 = olap.t2.a2 and olap.t1.b1 > 10")

    def test_misestimated_steps_are_captured(self):
        engine = self._engine()
        # No ANALYZE: the optimizer plans with defaults and is badly wrong.
        result = engine.execute(self.TABLE1_QUERY)
        assert result.capture is not None and result.capture.captured >= 2
        steps = [r.step_text for r in engine.plan_store.records()]
        assert any(s.startswith("SCAN(OLAP.T1, PREDICATE(OLAP.T1.B1>10")
                   for s in steps)
        assert any(s.startswith("JOIN(") for s in steps)

    def test_second_run_consumes_feedback(self):
        engine = self._engine()
        engine.execute(self.TABLE1_QUERY)
        engine.execute(self.TABLE1_QUERY)
        assert engine.plan_store.hits > 0

    def test_corrected_estimates_match_actuals(self):
        engine = self._engine()
        engine.execute(self.TABLE1_QUERY)
        result = engine.execute(self.TABLE1_QUERY)
        # find the scan on t1 in the second plan: estimate == observed actual
        lines = [l for l in result.plan_text.splitlines()
                 if "SeqScan olap.t1" in l]
        assert lines
        assert "est=19" in lines[0] or "est=20" in lines[0], lines[0]

    def test_capture_respects_threshold(self):
        engine = self._engine(error_threshold=1000.0)
        result = engine.execute(self.TABLE1_QUERY)
        assert result.capture.captured == 0

    def test_learning_can_be_disabled_engine_wide(self):
        cluster = MppCluster(num_dns=1)
        engine = SqlEngine(cluster, learning_enabled=False)
        engine.execute("create table t (a int primary key)")
        engine.execute("insert into t values (1), (2)")
        result = engine.execute("select * from t")
        assert result.capture is None

    def test_alias_does_not_fragment_store(self):
        """Canonical names use real table names, so aliased reruns hit."""
        engine = self._engine()
        engine.execute(self.TABLE1_QUERY)
        hits_before = engine.plan_store.hits
        engine.execute("select * from olap.t1 x, olap.t2 y "
                       "where x.a1 = y.a2 and x.b1 > 10")
        assert engine.plan_store.hits > hits_before

    def test_feedback_loop_direct_api(self):
        loop = FeedbackLoop(settings=CaptureSettings(error_threshold=0.5))
        assert loop.lookup("anything") is None
        loop.store.put("S", 10, 100)
        assert loop.lookup("S") == 100
