"""Engine-level HTAP: SQL scans served from frozen chunks, sys views,
freshness under sustained writes, autonomous AIMD interval control.

``test_freshness_stays_bounded_under_sustained_writes`` doubles as the CI
freshness-regression gate: a ticking daemon must keep commit-to-column
visibility lag under the SLA while OLTP writes keep arriving.
"""

from repro.autonomous.adbms import AutonomousManager
from repro.cluster.mpp import MppCluster
from repro.htap.manager import HtapConfig, _row_bytes
from repro.sql.engine import SqlEngine
from repro.storage import colstore


def _engine(num_dns=2, htap_config=None, orientation="column"):
    cluster = MppCluster(num_dns=num_dns, htap_config=htap_config)
    engine = SqlEngine(cluster)
    engine.execute("create table t (id int primary key, v int) "
                   f"with (orientation = {orientation})")
    engine.execute(
        "insert into t values (1, 10), (2, 20), (3, 30), (4, 40), (5, 50)")
    return cluster, engine


def _counter(cluster, name):
    return cluster.obs.metrics.counter(name).value


class TestServedScans:
    def test_repeated_scans_stop_cold_rebuilding(self):
        cluster, engine = _engine()
        cluster.htap.tick()
        assert _counter(cluster, "htap.cold_rebuilds") == 0
        frozen_before = _counter(cluster, "htap.scans_frozen")
        for _ in range(4):
            result = engine.execute("select sum(v) from t")
            assert result.rows == [(150,)]
        assert _counter(cluster, "htap.cold_rebuilds") == 0
        assert _counter(cluster, "htap.scans_frozen") > frozen_before

    def test_scan_after_write_composes_not_rebuilds(self):
        cluster, engine = _engine()
        cluster.htap.tick()
        engine.execute("insert into t values (6, 60)")
        result = engine.execute("select sum(v) from t")
        assert result.rows == [(210,)]
        assert _counter(cluster, "htap.scans_composed") > 0
        assert _counter(cluster, "htap.cold_rebuilds") == 0

    def test_results_identical_with_htap_disabled(self):
        # The reference is a row-oriented twin: a row table gets no HTAP
        # state, so it runs the seed path.
        for orientation in ("column", "row"):
            cluster, engine = _engine(orientation=orientation)
            cluster.htap.tick()
            engine.execute("update t set v = 99 where id = 2")
            result = engine.execute("select id, v from t order by id")
            assert result.rows == [
                (1, 10), (2, 99), (3, 30), (4, 40), (5, 50)]


class TestSysViews:
    def test_htap_tables_view_reports_per_dn_state(self):
        cluster, engine = _engine()
        cluster.htap.tick()
        rows = engine.execute(
            "select dn, table_name, frozen_rows, delta_rows "
            "from sys.htap_tables order by dn").rows
        assert [r[1] for r in rows] == ["t"] * cluster.num_dns
        assert sum(r[2] for r in rows) == 5     # frozen rows cover the table
        assert all(r[3] == 0 for r in rows)     # delta fully drained

    def test_htap_merges_view_reports_history(self):
        cluster, engine = _engine()
        cluster.htap.tick()
        rows = engine.execute(
            "select table_name, delta_rows, bytes from sys.htap_merges").rows
        assert rows                                # at least one merge event
        assert all(r[0] == "t" for r in rows)
        assert sum(r[1] for r in rows) == 5
        assert all(r[2] > 0 for r in rows)

    def test_htap_merges_view_shows_a_merge_touches_only_the_delta(
            self, monkeypatch):
        # "A merge costs O(delta)" as a query: with 2-row chunks the five
        # seed rows on one DN are three chunks (2, 2, 1).
        monkeypatch.setattr(colstore, "DEFAULT_CHUNK_ROWS", 2)
        cluster, engine = _engine(num_dns=1)
        cluster.htap.tick()
        tail = cluster.dns[0].htap.tables["t"].frozen.chunks[2]
        engine.execute("insert into t values (6, 60)")
        cluster.htap.tick()
        engine.execute("update t set v = 11 where id = 1")
        cluster.htap.tick()
        rows = engine.execute(
            "select delta_rows, frozen_rows, chunks_rewritten, chunks_total, "
            "bytes from sys.htap_merges order by merge_id").rows
        row_bytes = _row_bytes(cluster.catalog.schema("t"))
        assert [r[:4] for r in rows] == [
            (5, 5, 3, 3),    # the first merge builds every chunk
            (1, 6, 1, 3),    # an insert only extends the last chunk ...
            (1, 6, 1, 3)]    # ... and an update only copies its own
        assert rows[1][4] <= 2 * 1 * row_bytes       # 2 x appended rows
        assert rows[2][4] == (1 + 2 + 2) * row_bytes  # entry + chunk in/out
        chunks = cluster.dns[0].htap.tables["t"].frozen.chunks
        assert [len(c.keys) for c in chunks] == [2, 2, 2]
        assert chunks[2] is not tail                 # extended by the insert
        assert _counter(cluster, "htap.chunks_rewritten") == 5
        # The update in chunk 0 left the tail untouched.
        before = chunks[2]
        engine.execute("update t set v = 12 where id = 1")
        cluster.htap.tick()
        assert cluster.dns[0].htap.tables["t"].frozen.chunks[2] is before


class TestFreshness:
    def test_freshness_stays_bounded_under_sustained_writes(self):
        config = HtapConfig(merge_interval_us=20_000.0,
                            freshness_sla_us=100_000.0)
        cluster, engine = _engine(htap_config=config)
        clock = cluster.obs.clock
        worst = 0.0
        for i in range(40):
            engine.execute(f"insert into t values ({100 + i}, {i})")
            clock.advance(10_000.0)
            cluster.htap.maybe_tick(clock.now_us)
            worst = max(worst, cluster.htap.max_freshness_lag_us(clock.now_us))
        # The regression gate: a paced daemon keeps lag under the SLA.
        assert worst <= config.freshness_sla_us
        assert cluster.htap.delta_rows() == 0 or \
            cluster.htap.max_freshness_lag_us(clock.now_us) <= config.freshness_sla_us

    def test_stalled_daemon_lag_is_visible(self):
        cluster, engine = _engine()
        clock = cluster.obs.clock
        engine.execute("insert into t values (100, 1)")
        clock.advance(500_000.0)
        lag = cluster.htap.max_freshness_lag_us(clock.now_us)
        assert lag >= 500_000.0    # no tick ran; the commit is still waiting


class TestAutonomousControl:
    def test_tick_drives_merges_and_relaxes_interval(self):
        cluster, engine = _engine()
        manager = AutonomousManager(cluster)
        clock = cluster.obs.clock
        engine.execute("insert into t values (100, 1)")
        clock.advance(100_000.0)
        manager.collect(clock.now_us)
        report = manager.tick(clock.now_us)
        assert report.htap_merges >= 1
        # Lag is now zero, so AIMD relaxed the interval multiplicatively.
        assert report.htap_interval_us > HtapConfig().merge_interval_us

    def test_sla_breach_tightens_interval_and_alerts(self):
        config = HtapConfig(merge_interval_us=400_000.0,
                            freshness_sla_us=50_000.0)
        cluster, engine = _engine(htap_config=config)
        manager = AutonomousManager(cluster)
        clock = cluster.obs.clock
        cluster.htap.maybe_tick(clock.now_us)   # start the pacing window
        engine.execute("insert into t values (100, 1)")
        clock.advance(200_000.0)                # < interval: no merge yet
        report = manager.tick(clock.now_us)
        assert report.htap_merges == 0
        assert report.htap_interval_us == 200_000.0    # halved
        assert "tighten htap merge interval" in report.healing_actions
        alerts = [a for a in cluster.obs.alerts.alerts()
                  if a.source == "htap"]
        assert len(alerts) == 1

    def test_collect_records_htap_series(self):
        cluster, engine = _engine()
        manager = AutonomousManager(cluster)
        engine.execute("insert into t values (100, 1)")
        manager.collect(0.0)
        # The 5 seed rows plus this insert all sit unmerged in the delta.
        assert manager.info.latest("htap.delta_rows") == 6.0
        assert manager.info.latest("htap.freshness_lag_us") is not None
