"""GeoCluster end-to-end: epoch commit, partial replication, 2PC baseline,
region failures, observability wiring, and the AIMD epoch-interval loop."""

import pytest

from repro.autonomous.adbms import AutonomousManager
from repro.common.errors import ConfigError
from repro.faults import FaultInjector
from repro.geo import (
    GEO_TRACE_BASE,
    GeoCluster,
    GeoConfig,
    GeoMode,
    load_tpcc_geo,
    warehouses_homed_at,
)
from repro.sql import SqlEngine
from repro.storage import Column, DataType, TableSchema
from repro.workloads.tpcc_lite import TpccLiteWorkload


def simple_schema():
    return TableSchema(
        "t", [Column("k", DataType.INT), Column("v", DataType.INT)], "k")


def build(num_regions=3, mode=GeoMode.GEOGAUSS, rf=None, **kw):
    geo = GeoCluster(GeoConfig(num_regions=num_regions, dns_per_region=1,
                               mode=mode, replication_factor=rf, **kw))
    geo.create_table(simple_schema())
    return geo


def key_homed_at(geo, region, start=0):
    k = start
    while geo.shard_map.home_region_of_value(k) != region:
        k += 1
    return k


class TestEpochCommit:
    def test_single_txn_commits_in_every_region(self):
        geo = build()
        session = geo.session(0)
        handle = session.run_transaction(
            lambda txn: txn.insert("t", {"k": 1, "v": 10}))
        assert handle.status == "pending"
        geo.drain()
        assert handle.status == "committed"
        assert handle.epoch is not None
        for r in range(3):
            reader = geo.regions[r].session().begin(multi_shard=True)
            assert reader.read("t", 1)["v"] == 10
            reader.commit()

    def test_commit_latency_is_epoch_plus_one_wan_leg(self):
        geo = build()
        cfg = geo.config
        handle = geo.session(0).run_transaction(
            lambda txn: txn.insert("t", {"k": 1, "v": 1}))
        geo.drain()
        # Seal at the first boundary, one one-way WAN hop for the slowest
        # peer batch, then certification — nowhere near a full 2PC's two
        # round trips.
        floor = cfg.epoch_interval_us + cfg.one_way_us
        assert floor <= handle.latency_us < cfg.wan_rtt_us * 2

    def test_cross_region_write_write_conflict_aborts_exactly_one(self):
        geo = build()
        geo.session(0).run_transaction(
            lambda txn: txn.insert("t", {"k": 7, "v": 0}))
        geo.drain()
        h0 = geo.session(0).run_transaction(
            lambda txn: txn.update("t", 7, {"v": 100}))
        h1 = geo.session(1).run_transaction(
            lambda txn: txn.update("t", 7, {"v": 200}))
        geo.drain()
        assert sorted([h0.status, h1.status]) == ["aborted", "committed"]
        winner = 100 if h0.status == "committed" else 200
        for r in range(3):
            reader = geo.regions[r].session().begin(multi_shard=True)
            assert reader.read("t", 7)["v"] == winner
            reader.commit()
        assert (geo.handle(h1.txn_id).reason
                if h1.status == "aborted" else h0.reason) \
            == "write-write conflict at certification"

    def test_sequential_session_writes_chain_and_all_commit(self):
        geo = build()
        session = geo.session(0)
        session.run_transaction(lambda txn: txn.insert("t", {"k": 3, "v": 1}))
        handles = []
        for _ in range(4):
            def bump(txn):
                row = txn.read("t", 3)
                txn.update("t", 3, {"v": row["v"] + 1})
            handles.append(session.run_transaction(bump))
        geo.drain()
        assert all(h.status == "committed" for h in handles)
        reader = geo.regions[0].session().begin(multi_shard=True)
        assert reader.read("t", 3)["v"] == 5
        reader.commit()

    def test_read_only_txn_acks_immediately_at_lan(self):
        geo = build()
        geo.session(0).run_transaction(
            lambda txn: txn.insert("t", {"k": 1, "v": 1}))
        geo.drain()
        session = geo.session(0)
        handle = session.run_transaction(lambda txn: txn.read("t", 1))
        assert handle.status == "committed"
        assert handle.kind == "read_only"
        assert handle.latency_us == 0.0
        assert handle.result["v"] == 1

    def test_regions_converge_on_identical_digests(self):
        geo = build()
        for r in range(3):
            session = geo.session(r)
            for i in range(5):
                session.run_transaction(
                    lambda txn, k=r * 100 + i: txn.insert(
                        "t", {"k": k, "v": k}))
        geo.drain()
        geo.assert_converged()
        assert len({geo.certified_epoch(r) for r in range(3)}) == 1
        for epoch in {row[0] for row in geo.epoch_rows()}:
            assert len(set(geo.epoch_digests(epoch).values())) == 1


class TestPartialReplication:
    def test_non_hosted_region_does_not_apply(self):
        geo = build(rf=1)
        k = key_homed_at(geo, 1)
        handle = geo.session(1).run_transaction(
            lambda txn: txn.insert("t", {"k": k, "v": 42}))
        geo.drain()
        assert handle.status == "committed"
        reader = geo.regions[1].session().begin(multi_shard=True)
        assert reader.read("t", k)["v"] == 42
        reader.commit()
        other = geo.regions[0].session().begin(multi_shard=True)
        assert other.read("t", k) is None      # region 0 hosts nothing here
        other.commit()

    def test_remote_read_routes_to_home_region_and_pays_wan(self):
        geo = build(rf=1)
        k = key_homed_at(geo, 1)
        geo.session(1).run_transaction(
            lambda txn: txn.insert("t", {"k": k, "v": 42}))
        geo.drain()
        session = geo.session(0)
        before = session.now_us
        handle = session.run_transaction(lambda txn: txn.read("t", k))
        assert handle.result["v"] == 42
        assert session.now_us - before >= geo.config.wan_rtt_us
        waits = geo.regions[0].obs.waits.stats("geo.remote_read")
        assert waits.count >= 1

    def test_write_from_non_hosting_region_settles_at_hosts(self):
        geo = build(rf=2)
        # Find a slot region 0 does NOT host: its home h has hosts (h, h+1).
        k = 0
        while geo.shard_map.hosts_value(0, k):
            k += 1
        handle = geo.session(0).run_transaction(
            lambda txn: txn.insert("t", {"k": k, "v": 9}))
        geo.drain()
        assert handle.status == "committed"
        for r in range(3):
            reader = geo.regions[r].session().begin(multi_shard=True)
            row = reader.read("t", k)
            reader.commit()
            if geo.shard_map.hosts_value(r, k):
                assert row["v"] == 9
            else:
                assert row is None


class TestGlobal2pcBaseline:
    def test_remote_txn_pays_two_wan_round_trips(self):
        geo = build(mode=GeoMode.GLOBAL_2PC, rf=2)
        handle = geo.session(0).run_transaction(
            lambda txn: txn.insert("t", {"k": 1, "v": 1}))
        # rf=2 means the write always involves a second region.
        assert handle.status == "committed"
        assert handle.latency_us >= 2 * geo.config.wan_rtt_us

    def test_concurrent_writers_conflict_and_abort(self):
        geo = build(mode=GeoMode.GLOBAL_2PC)
        s0, s1 = geo.session(0), geo.session(1)
        s0.run_transaction(lambda txn: txn.insert("t", {"k": 5, "v": 0}))
        h0 = s0.run_transaction(lambda txn: txn.update("t", 5, {"v": 1}))
        h1 = s1.run_transaction(lambda txn: txn.update("t", 5, {"v": 2}))
        assert h0.status == "committed"      # insert's lock belongs to s0
        assert h1.status == "aborted"
        assert h1.reason == "lock conflict during global prepare"

    def test_applies_only_at_hosting_regions(self):
        geo = build(mode=GeoMode.GLOBAL_2PC, rf=1)
        k = key_homed_at(geo, 2)
        geo.session(2).run_transaction(
            lambda txn: txn.insert("t", {"k": k, "v": 3}))
        reader = geo.regions[2].session().begin(multi_shard=True)
        assert reader.read("t", k)["v"] == 3
        reader.commit()
        other = geo.regions[0].session().begin(multi_shard=True)
        assert other.read("t", k) is None
        other.commit()


class TestRegionFailures:
    def test_crash_aborts_open_txns_and_stalls_peers(self):
        geo = build()
        h_sealed = geo.session(0).run_transaction(
            lambda txn: txn.insert("t", {"k": 1, "v": 1}))
        boundary = geo.epochs[0].seal_boundary_us(0)
        geo.step_to(boundary)                 # epoch 0 sealed everywhere
        late = geo.session(1)
        h_open = late.run_transaction(
            lambda txn: txn.insert("t", {"k": 2, "v": 2}))
        geo.crash_region(1)
        assert h_open.status == "aborted"
        assert "crashed" in h_open.reason
        geo.drain()
        # Epoch 0 was fully shipped pre-crash, so it certifies; nothing
        # beyond it can (region 1's later batches are missing).
        assert h_sealed.status == "committed"
        frontier = geo.certified_epoch(0)
        before = geo.session(0).run_transaction(
            lambda txn: txn.insert("t", {"k": 3, "v": 3}))
        geo.drain()
        assert before.status == "pending"
        assert geo.certified_epoch(0) == frontier

    def test_recover_reships_and_catches_up(self):
        geo = build()
        geo.session(0).run_transaction(
            lambda txn: txn.insert("t", {"k": 1, "v": 1}))
        geo.crash_region(2)
        stuck = geo.session(0).run_transaction(
            lambda txn: txn.insert("t", {"k": 4, "v": 4}))
        geo.drain()
        assert stuck.status == "pending"
        geo.recover_all()
        assert stuck.status == "committed"
        geo.assert_converged()
        assert len({geo.certified_epoch(r) for r in range(3)}) == 1

    def test_partition_stalls_then_heals(self):
        geo = build()
        geo.partition(0, 1)
        handle = geo.session(0).run_transaction(
            lambda txn: txn.insert("t", {"k": 1, "v": 1}))
        geo.drain()
        assert handle.status == "pending"     # region 1 can't receive/ship
        geo.heal(0, 1)
        geo.drain()
        assert handle.status == "committed"
        geo.assert_converged()

    def test_submitting_to_crashed_region_aborts_immediately(self):
        geo = build()
        session = geo.session(1)
        geo.crash_region(1)
        handle = session.run_transaction(
            lambda txn: txn.insert("t", {"k": 1, "v": 1}))
        assert handle.status == "aborted"
        assert handle.reason == "home region is down"


class TestFaultInjection:
    def test_ship_drop_defers_to_resend_queue(self):
        geo = build()
        injector = FaultInjector(seed=3).bind(geo)
        injector.arm("geo.ship", "drop", times=2)
        handle = geo.session(0).run_transaction(
            lambda txn: txn.insert("t", {"k": 1, "v": 1}))
        geo.drain()
        assert handle.status == "committed"   # resends win eventually
        geo.assert_converged()
        targets = {fault.target for fault in injector.history}
        assert targets and targets <= {"r0", "r1", "r2"}

    def test_ship_crash_takes_down_sending_region(self):
        geo = build()
        injector = FaultInjector(seed=5).bind(geo)
        injector.arm("geo.ship", "crash_coordinator", match={"region": 2})
        geo.session(0).run_transaction(
            lambda txn: txn.insert("t", {"k": 1, "v": 1}))
        geo.drain()
        assert 2 in geo.crashed_regions
        geo.recover_all()
        geo.assert_converged()


class TestObservability:
    def run_some_traffic(self, geo):
        for r in range(3):
            session = geo.session(r)
            for i in range(3):
                session.run_transaction(
                    lambda txn, k=r * 10 + i: txn.insert(
                        "t", {"k": k, "v": k}))
        geo.drain()

    def test_sys_geo_views_queryable(self):
        geo = build()
        self.run_some_traffic(geo)
        engine = SqlEngine(geo.regions[0], learning_enabled=False)
        regions = engine.query(
            "SELECT region, name, certified_epoch, commits, crashed "
            "FROM sys.geo_regions ORDER BY region")
        assert [row["name"] for row in regions] == ["r0", "r1", "r2"]
        assert all(row["crashed"] == 0 for row in regions)
        assert sum(row["commits"] for row in regions) == 9
        epochs = engine.query(
            "SELECT epoch, region, digest FROM sys.geo_epochs "
            "ORDER BY epoch, region")
        by_epoch = {}
        for row in epochs:
            by_epoch.setdefault(row["epoch"], set()).add(row["digest"])
        assert by_epoch and all(len(d) == 1 for d in by_epoch.values())
        slots = engine.query("SELECT count(*) AS n FROM sys.geo_shard_map")
        assert slots[0]["n"] == geo.shard_map.num_slots

    def test_geo_wait_events_recorded(self):
        geo = build()
        self.run_some_traffic(geo)
        engine = SqlEngine(geo.regions[0], learning_enabled=False)
        rows = engine.query(
            "SELECT event, total_us FROM sys.wait_events "
            "WHERE event LIKE 'geo.%' ORDER BY event")
        events = {row["event"] for row in rows}
        assert {"geo.epoch", "geo.ship", "geo.certify"} <= events
        ship = next(r for r in rows if r["event"] == "geo.ship")
        assert ship["total_us"] > 0.0

    def test_epoch_trace_stitches_across_regions(self):
        geo = build()
        self.run_some_traffic(geo)
        first_epoch = geo.epoch_rows()[0][0]
        trace_id = GEO_TRACE_BASE + first_epoch
        names_by_region = {}
        for r in range(3):
            engine = SqlEngine(geo.regions[r], learning_enabled=False)
            rows = engine.query(
                "SELECT name, node FROM sys.trace_spans "
                "WHERE trace_id = %d" % trace_id)
            names_by_region[r] = {row["name"] for row in rows}
            assert all(row["node"] == f"r{r}" or row["name"] == "geo.ship"
                       for row in rows)
        # Every region's tracer holds its slice of the SAME trace id:
        # the epoch root + certification, and the outbound ship legs.
        for r in range(3):
            assert {"geo.epoch", "geo.certify"} <= names_by_region[r]
            assert "geo.ship" in names_by_region[r]

    def test_commit_metrics_roll_up(self):
        geo = build()
        self.run_some_traffic(geo)
        engine = SqlEngine(geo.regions[0], learning_enabled=False)
        commits = engine.query(
            "SELECT value FROM sys.metrics WHERE name = 'geo.commits'")
        assert commits[0]["value"] == 3.0


class TestAutonomousAimd:
    def test_sla_breach_halves_epoch_interval(self):
        geo = build(commit_latency_sla_us=20_000.0)   # unmeetable: < WAN leg
        manager = AutonomousManager(geo.regions[0])
        geo.session(0).run_transaction(
            lambda txn: txn.insert("t", {"k": 1, "v": 1}))
        geo.drain()
        before = geo.epoch_interval_us
        report = manager.tick(geo.regions[0].obs.clock.now_us)
        assert report.geo_p95_commit_us > 20_000.0
        assert report.geo_epoch_interval_us == pytest.approx(before / 2)
        assert "tighten geo epoch interval" in report.healing_actions
        assert any(a.source == "geo" and "sla" in a.message
                   for a in geo.regions[0].obs.alerts.alerts())

    def test_met_sla_relaxes_interval_toward_cap(self):
        geo = build(commit_latency_sla_us=500_000.0)
        manager = AutonomousManager(geo.regions[0])
        geo.session(0).run_transaction(
            lambda txn: txn.insert("t", {"k": 1, "v": 1}))
        geo.drain()
        before = geo.epoch_interval_us
        report = manager.tick(geo.regions[0].obs.clock.now_us)
        assert report.geo_epoch_interval_us == pytest.approx(before * 1.25)

    def test_interval_clamps_to_config_band(self):
        geo = build(min_epoch_interval_us=5_000.0,
                    max_epoch_interval_us=20_000.0)
        assert geo.set_epoch_interval(1.0) == 5_000.0
        assert geo.set_epoch_interval(1e9) == 20_000.0

    def test_retune_mid_run_keeps_regions_converged(self):
        geo = build()
        geo.session(0).run_transaction(
            lambda txn: txn.insert("t", {"k": 1, "v": 1}))
        geo.drain()
        geo.set_epoch_interval(40_000.0)
        for r in range(3):
            geo.session(r).run_transaction(
                lambda txn, k=100 + r: txn.insert("t", {"k": k, "v": k}))
        geo.drain()
        geo.assert_converged()
        assert len({m.interval_us for m in geo.epochs}) == 1


class TestConfigValidation:
    def test_session_region_bounds(self):
        geo = build(num_regions=2)
        with pytest.raises(ConfigError):
            geo.session(2)


class TestTpccOnGeo:
    def test_contended_tpcc_lite_commits_with_low_abort_rate(self):
        geo = GeoCluster(GeoConfig(num_regions=3, dns_per_region=2,
                                   replication_factor=2))
        load_tpcc_geo(geo, num_warehouses=6)
        workload = TpccLiteWorkload(num_warehouses=6,
                                    multi_shard_fraction=0.2, seed=11)
        handles = []
        for r in range(3):
            session = geo.session(r)
            homes = warehouses_homed_at(geo, r, 6)
            stream = workload.stream(home_warehouse=homes[0], seed_offset=r)
            for _ in range(12):
                spec = next(stream)
                handles.append(session.run_transaction(
                    spec.body, multi_shard=spec.multi_shard))
        geo.drain()
        geo.assert_converged()
        statuses = [h.status for h in handles]
        assert "pending" not in statuses
        aborted = statuses.count("aborted")
        assert aborted / len(statuses) <= 0.10
