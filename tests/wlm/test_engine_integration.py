"""Engine-level workload management: queue time, views, and the
ungoverned-engine golden.

Regenerate the golden (a declared move of the simulated clock) with::

    PYTHONPATH=src python -m tests.wlm.test_engine_integration
"""

import json
import subprocess
from pathlib import Path

import pytest

from repro.cluster.mpp import MppCluster
from repro.common.errors import AdmissionRejected
from repro.sql.engine import SqlEngine
from repro.wlm import Priority, ResourceGroup, WlmConfig


def _engine(wlm_config=None, num_dns=2):
    cluster = MppCluster(num_dns=num_dns, wlm_config=wlm_config)
    engine = SqlEngine(cluster)
    engine.execute("create table t (id int, v int)")
    engine.execute(
        "insert into t values (1, 10), (2, 20), (3, 30), (4, 40), (5, 50)")
    return cluster, engine


class TestQueueTime:
    def test_sequential_queries_have_zero_queue_time(self):
        _, engine = _engine()
        result = engine.execute("select v from t")
        assert result.profile.queue_time_us == 0.0

    def test_burst_records_queue_time_on_profile(self):
        config = WlmConfig(groups=[ResourceGroup("narrow", slots=1)])
        cluster, engine = _engine(wlm_config=config)
        first = engine.execute("select v from t", group="narrow",
                               arrival_us=0.0)
        second = engine.execute("select v from t", group="narrow",
                                arrival_us=0.0)
        assert first.profile.queue_time_us == 0.0
        assert second.profile.queue_time_us > 0.0
        stats = cluster.obs.waits.stats("wlm_queue")
        assert stats.count == 1
        assert stats.total_us == second.profile.queue_time_us

    def test_queue_time_reaches_slow_query_log(self):
        config = WlmConfig(groups=[ResourceGroup("narrow", slots=1)])
        cluster, engine = _engine(wlm_config=config)
        cluster.obs.slowlog.threshold_us = 0.0   # retain everything
        engine.execute("select v from t", group="narrow", arrival_us=0.0)
        engine.execute("select v from t", group="narrow", arrival_us=0.0)
        entries = cluster.obs.slowlog.entries()
        selects = [e for e in entries if e.sql.startswith("select v")]
        assert len(selects) == 2
        assert selects[0].queue_us == 0.0
        assert selects[1].queue_us > 0.0
        # The threshold judged execution time, not execution + queue.
        assert selects[1].elapsed_us == pytest.approx(
            selects[0].elapsed_us)
        rows = engine.execute(
            "select queue_us from sys.slow_queries").column("queue_us")
        assert rows == [e.queue_us for e in entries]


class TestGroupRouting:
    def test_unknown_group_is_a_config_error(self):
        from repro.common.errors import ConfigError
        _, engine = _engine()
        with pytest.raises(ConfigError):
            engine.execute("select v from t", group="no-such-group")

    def test_priority_override_lands_in_queue_history(self):
        cluster, engine = _engine()
        engine.execute("select v from t", priority=Priority.HIGH)
        admitted = [e for e in cluster.wlm.events if e.event == "admitted"]
        assert admitted[-1].priority == "HIGH"

    def test_engine_sheds_when_external_driver_holds_all_slots(self):
        config = WlmConfig(groups=[ResourceGroup("narrow", slots=1)])
        cluster, engine = _engine(wlm_config=config)
        holder = cluster.wlm.submit(group="narrow")   # never released: the
        with pytest.raises(AdmissionRejected):        # engine cannot wait on
            engine.execute("select v from t", group="narrow")  # foreign slots
        assert cluster.wlm.queued_count("narrow") == 0
        cluster.wlm.release(holder, holder.admitted_us + 1.0)


class TestSystemViews:
    def test_wlm_views_queryable_via_sql(self):
        _, engine = _engine()
        engine.execute("select v from t")
        groups = engine.execute("select * from sys.wlm_groups")
        assert "default" in groups.column("group_name")
        queue = engine.execute("select * from sys.wlm_queue")
        assert queue.rowcount > 0
        events = queue.column("event")
        assert set(events) <= {"queued", "admitted", "done", "failed",
                               "rejected", "timeout", "cancelled"}


GOLDEN = Path(__file__).resolve().parent.parent / "goldens" / "wlm_ungoverned.json"
RECORD_COMMAND = "PYTHONPATH=src python -m tests.wlm.test_engine_integration"


def _plain(value):
    """JSON form of a telemetry value: tuples as lists, floats as ``repr``
    (so a 1-ulp drift is a diff, not a rounding)."""
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, float):
        return repr(value)
    return value


class TestDisabledParity:
    """A governed engine on the default group is telemetry-identical to the
    ungoverned engine WLM was added to.

    No ungoverned path remains to run, so the reference is a golden recorded
    from it: per statement the result rows, the operator profile and the
    simulated elapsed time, then the wait profile and the slow-query log.
    """

    WORKLOAD = [
        "select v from t where v > 10",
        "select v, count(*) from t group by v",
        "explain analyze select v from t order by v desc",
        "update t set v = v + 1 where id = 3",
        "select sum(v) from t",
    ]

    @classmethod
    def surfaces(cls):
        cluster, engine = _engine()
        cluster.obs.slowlog.threshold_us = 0.0
        statements = []
        for sql in cls.WORKLOAD:
            result = engine.execute(sql)
            profile = result.profile
            statements.append({
                "sql": sql,
                "rows": _plain(result.rows),
                "profile": (_plain(profile.rows_table())
                            if profile is not None else None),
                "elapsed_time_us": (_plain(profile.elapsed_time_us)
                                    if profile is not None else None),
            })
        return {
            "statements": statements,
            "waits": _plain(cluster.obs.waits.rows()),
            "slowlog": [_plain(e.as_row())
                        for e in cluster.obs.slowlog.entries()],
        }

    def test_disabled_cluster_matches_governed_default_group(self):
        golden = json.loads(GOLDEN.read_text())
        live = self.surfaces()
        assert len(live["statements"]) == len(golden["statements"])
        for ran, recorded in zip(live["statements"], golden["statements"]):
            assert ran == recorded, recorded["sql"]
        assert live["waits"] == golden["waits"]
        assert live["slowlog"] == golden["slowlog"]


def record_golden() -> None:
    """Rewrite :data:`GOLDEN` from the current engine."""
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    payload = {"generated_at": commit or "unknown",
               "command": RECORD_COMMAND}
    payload.update(TestDisabledParity.surfaces())
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    record_golden()
