"""Online resharding: add/remove DNs under load, no reads blocked.

The acceptance bar from the issue: a 4-DN cluster gains a 5th DN (and
later loses one) fully online — writes keep committing through the move
windows, post-move scans are byte-identical to a never-moved control
cluster, and a flip invalidates cached fragment plans.
"""

import pytest

from repro.autonomous.adbms import AutonomousManager
from repro.cluster import MppCluster, TransactionPromotionRequired, TxnMode
from repro.cluster.ha import HaManager
from repro.cluster.rebalance import (
    ST_DONE,
    RebalanceCoordinator,
    RebalanceError,
)
from repro.common.errors import ConfigError
from repro.sql.engine import SqlEngine
from repro.storage import Column, DataType, Distribution, TableSchema

SEED_ROWS = 96


def key_of(i):
    """Spread logical row ``i`` across the whole slot space (13 is odd, so
    ``13 * i mod 256`` walks every residue class — sequential ids would pile
    into the low slots and leave the donors' high slots empty)."""
    return i * 13


def make_cluster(num_dns=4):
    cluster = MppCluster(num_dns=num_dns, mode=TxnMode.GTM_LITE)
    cluster.create_table(TableSchema(
        "t", [Column("k", DataType.INT), Column("v", DataType.INT)], "k"))
    cluster.create_table(TableSchema(
        "dim", [Column("k", DataType.INT), Column("label", DataType.TEXT)],
        "k", distribution=Distribution.REPLICATION))
    return cluster


def fill(cluster, start=0, count=SEED_ROWS):
    session = cluster.session()
    txn = session.begin(multi_shard=True)
    for i in range(start, start + count):
        txn.insert("t", {"k": key_of(i), "v": i * 7})
    txn.insert("dim", {"k": start, "label": f"batch-{start}"})
    txn.commit()


def mutate(cluster, n):
    """Round ``n`` of the mid-move workload: inserts, updates, a delete.

    Each round touches a distinct key range, so the callback can fire once
    per move batch and the control cluster can replay the same rounds.
    """
    session = cluster.session()
    txn = session.begin(multi_shard=True)
    base = SEED_ROWS + n * 16
    for i in range(base, base + 16):
        txn.insert("t", {"k": key_of(i), "v": -i})
    for i in range(n * 3, n * 3 + 3):
        txn.update("t", key_of(i), {"v": 999_000 + i})
    if n == 0:
        txn.delete("t", key_of(13))
    txn.commit()


def catchup_driver(cluster):
    """(callback, rounds) pair: the callback runs one fresh round per call."""
    rounds = []

    def callback():
        n = len(rounds)
        rounds.append(n)
        mutate(cluster, n)
    return callback, rounds


def table_state(cluster, table="t"):
    session = cluster.session()
    txn = session.begin(multi_shard=True)
    state = sorted((k, tuple(sorted(values.items())))
                   for k, values in txn.scan(table))
    txn.commit()
    return state


class TestAddDn:
    def test_add_fifth_dn_online_matches_never_moved_control(self):
        cluster = make_cluster()
        fill(cluster)
        coordinator = RebalanceCoordinator(cluster)
        callback, rounds = catchup_driver(cluster)
        index = coordinator.add_dn(on_catchup=callback)
        assert index == 4
        assert cluster.dn_indices() == (0, 1, 2, 3, 4)
        assert cluster.num_active_dns == 5
        assert rounds   # writes really did land inside the move windows

        # Oracle: the identical workload on a cluster that never moved.
        control = make_cluster()
        fill(control)
        for n in rounds:
            mutate(control, n)
        assert table_state(cluster) == table_state(control)
        assert table_state(cluster, "dim") == table_state(control, "dim")

        # The new DN actually carries data, and the map is flat again.
        shard_map = cluster.catalog.shard_map
        assert shard_map.slot_counts()[4] > 0
        assert shard_map.skew() <= 1.05
        assert not shard_map.has_moves()
        for dn in cluster.active_dns():
            assert shard_map.excluded_slots(dn.index) == frozenset()
        dn4_rows = sum(1 for _ in cluster.dns[4].scan(
            "t", cluster.dns[4].local_snapshot()))
        assert dn4_rows > 0

    def test_writes_after_expansion_route_by_new_map(self):
        cluster = make_cluster()
        fill(cluster, count=32)
        RebalanceCoordinator(cluster).add_dn()
        shard_map = cluster.catalog.shard_map
        session = cluster.session()
        txn = session.begin(multi_shard=True)
        for k in range(1000, 1064):
            txn.insert("t", {"k": k, "v": k})
        txn.commit()
        for k in range(1000, 1064):
            owner = cluster.dns[shard_map.owner_of_value(k)]
            assert owner.read("t", k, owner.local_snapshot()) is not None

    def test_new_dn_gets_replicated_tables_and_standby(self):
        cluster = make_cluster()
        fill(cluster, count=16)
        HaManager(cluster)
        coordinator = RebalanceCoordinator(cluster)
        coordinator.add_dn()
        dn4 = cluster.dns[4]
        assert dn4.read("dim", 0, dn4.local_snapshot()) is not None
        # Post-expansion writes ship to the new DN's standby like any other.
        session = cluster.session()
        txn = session.begin(multi_shard=True)
        for k in range(500, 540):
            txn.insert("t", {"k": k, "v": 1})
        txn.commit()
        standby = cluster.ha.standby(4)
        assert standby.row_count("t") == sum(
            1 for _ in dn4.scan("t", dn4.local_snapshot()))


class TestRemoveDn:
    def test_drain_and_retire_preserves_data(self):
        cluster = make_cluster()
        fill(cluster)
        coordinator = RebalanceCoordinator(cluster)
        callback, rounds = catchup_driver(cluster)
        moved = coordinator.remove_dn(2, on_catchup=callback)
        assert moved > 0
        assert rounds
        assert cluster.dn_indices() == (0, 1, 3)
        assert cluster.catalog.shard_map.skew() <= 1.05

        control = make_cluster()
        fill(control)
        for n in rounds:
            mutate(control, n)
        assert table_state(cluster) == table_state(control)
        # The retired node is empty and out of every maintenance loop.
        dn2 = cluster.dns[2]
        assert dn2.retired
        assert not list(dn2.scan("t", dn2.local_snapshot()))
        with pytest.raises(ConfigError):
            cluster.declare_node_dead(2, reason="should refuse")

    def test_remove_then_readd_cycle(self):
        cluster = make_cluster()
        fill(cluster, count=48)
        coordinator = RebalanceCoordinator(cluster)
        coordinator.add_dn()
        coordinator.remove_dn(1)
        assert cluster.dn_indices() == (0, 2, 3, 4)
        control = make_cluster()
        fill(control, count=48)
        assert table_state(cluster) == table_state(control)

    def test_remove_unknown_member_raises(self):
        cluster = make_cluster()
        coordinator = RebalanceCoordinator(cluster)
        with pytest.raises(RebalanceError):
            coordinator.remove_dn(9)


class TestDoubleWriteWindow:
    def _open_window(self):
        cluster = make_cluster(num_dns=2)
        fill(cluster, count=32)
        coordinator = RebalanceCoordinator(cluster)
        shard_map = cluster.catalog.shard_map
        slot = shard_map.slots_owned_by(1)[0]
        move = coordinator.begin([slot], target=0)
        coordinator.copy(move)
        # A key that hashes into the moving slot (slot s holds k where
        # k % num_slots == s, for non-negative ints).
        key = slot + shard_map.num_slots
        return cluster, coordinator, move, slot, key

    def test_write_in_window_lands_once_after_flip(self):
        cluster, coordinator, move, slot, key = self._open_window()
        session = cluster.session()
        txn = session.begin(multi_shard=True)
        txn.insert("t", {"k": key, "v": 4242})
        txn.commit()
        coordinator.flip(move)
        coordinator.truncate(move)
        assert move.state == ST_DONE
        state = table_state(cluster)
        assert sum(1 for k, _ in state if k == key) == 1
        dn0 = cluster.dns[0]
        assert dn0.read("t", key, dn0.local_snapshot())["v"] == 4242
        dn1 = cluster.dns[1]
        assert dn1.read("t", key, dn1.local_snapshot()) is None

    def test_local_write_to_moving_slot_promotes(self):
        cluster, coordinator, move, slot, key = self._open_window()
        session = cluster.session()
        local = session.begin(multi_shard=False)
        with pytest.raises(TransactionPromotionRequired):
            local.insert("t", {"k": key, "v": 1})
        local.abort()
        coordinator.flip(move)
        coordinator.truncate(move)

    def test_scans_never_see_double(self):
        cluster, coordinator, move, slot, key = self._open_window()
        # Mid-window: the slot's rows exist on both DNs, but the target's
        # partial copy is excluded, so the scan sees each key once.
        state = table_state(cluster)
        assert len(state) == len({k for k, _ in state})
        coordinator.flip(move)
        # Post-flip, pre-truncate: the stale source copy is excluded now.
        state = table_state(cluster)
        assert len(state) == len({k for k, _ in state})
        coordinator.truncate(move)

    def test_fragment_scans_never_see_double(self):
        cluster, coordinator, move, slot, key = self._open_window()
        txn = cluster.session().begin(multi_shard=True)
        txn.insert("t", {"k": key, "v": 4242})
        txn.commit()
        for dn in cluster.dns:             # double-written: on both nodes
            assert dn.read("t", key, dn.local_snapshot()) is not None
        expected = sorted([(key_of(i), i * 7) for i in range(32)]
                          + [(key, 4242)])

        def fragment_rows():
            # each node's slice as a plan fragment reads it: (k, v) tuples
            reader = cluster.session().begin(multi_shard=True)
            rows = [row for dn in cluster.dn_indices()
                    for row in reader.scan_shard("t", dn)]
            reader.commit()
            return sorted(rows)

        assert fragment_rows() == expected   # the target's copy is hidden
        coordinator.flip(move)
        assert fragment_rows() == expected   # now the source's copy is
        coordinator.truncate(move)
        assert fragment_rows() == expected


class TestPlanCacheStaleness:
    def test_flip_invalidates_cached_fragment_plan(self):
        engine = SqlEngine(MppCluster(num_dns=2), learning_enabled=False)
        engine.execute("create table t (id int primary key, v int)")
        engine.execute("insert into t values " + ", ".join(
            f"({i}, {i * 3})" for i in range(40)))
        engine.analyze()
        sql = "select count(*), sum(v) from t"
        first = engine.execute(sql)
        engine.execute(sql)
        assert engine.plan_cache.hits == 1

        RebalanceCoordinator(engine.cluster).add_dn()
        after = engine.execute(sql)
        # The expansion flipped slot owners (shard-map version moved), so
        # the cached two-DN fragment plan must not be reused ...
        assert engine.plan_cache.hits == 1
        # ... and the replanned query fans over all three DNs and still
        # sees every row exactly once.
        assert after.rows == first.rows

    def test_steady_state_still_hits_with_coordinator_attached(self):
        engine = SqlEngine(MppCluster(num_dns=2), learning_enabled=False)
        RebalanceCoordinator(engine.cluster)
        engine.execute("create table t (id int primary key, v int)")
        engine.execute("insert into t values (1, 1), (2, 2)")
        engine.analyze()
        sql = "select sum(v) from t"
        engine.execute(sql)
        engine.execute(sql)
        assert engine.plan_cache.hits == 1


class TestObservability:
    def test_sys_views_serve_map_and_moves(self):
        engine = SqlEngine(MppCluster(num_dns=2))
        engine.execute("create table t (id int primary key, v int)")
        engine.execute("insert into t values " + ", ".join(
            f"({i}, {i})" for i in range(24)))
        coordinator = RebalanceCoordinator(engine.cluster)
        coordinator.add_dn()
        slots = engine.execute("select count(*) from sys.shard_map")
        assert slots.rows[0][0] == engine.cluster.catalog.shard_map.num_slots
        owners = engine.execute(
            "select count(*) from sys.shard_map where owner = 2")
        assert owners.rows[0][0] > 0
        moves = engine.execute(
            "select state, count(*) from sys.rebalance group by state")
        assert dict(moves.rows).get("done", 0) >= 1

    def test_reset_telemetry_clears_move_history(self):
        cluster = make_cluster()
        fill(cluster, count=32)
        coordinator = RebalanceCoordinator(cluster)
        coordinator.add_dn()
        assert coordinator.moves and coordinator.slots_moved > 0
        cluster.reset_telemetry()
        assert coordinator.moves == []
        assert coordinator.slots_moved == 0
        assert coordinator.moves_completed == 0
        assert cluster.obs.rebalance.rows() == []
        # Replay identity: the same expansion telemetry can be re-recorded.
        coordinator.remove_dn(4)
        assert coordinator.moves_completed > 0

    def test_wait_events_attributed(self):
        cluster = make_cluster()
        fill(cluster)
        RebalanceCoordinator(cluster).add_dn()
        events = dict((row[0], row[1])
                      for row in cluster.obs.waits.rows())
        assert events.get("rebalance_copy", 0) > 0
        assert events.get("rebalance_truncate", 0) > 0


class TestAutonomousTrigger:
    def test_skew_above_threshold_triggers_rebalance(self):
        cluster = make_cluster()
        fill(cluster, count=48)
        RebalanceCoordinator(cluster)
        manager = AutonomousManager(cluster)
        manager.collect(0.0)
        # Provision the DN without rebalancing: skew jumps, the next tick
        # must flatten it autonomously.
        cluster.add_data_node()
        report = manager.tick(1_000_000.0)
        assert report.shard_skew > AutonomousManager.REBALANCE_SKEW_THRESHOLD
        assert report.rebalance_slots_moved > 0
        assert any("rebalance" in a for a in report.healing_actions)
        assert cluster.catalog.shard_map.skew() <= 1.05
        follow_up = manager.tick(2_000_000.0)
        assert follow_up.rebalance_slots_moved == 0
