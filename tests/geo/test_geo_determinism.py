"""Replay determinism: same seed, same epochs, same verdicts, same bytes.

The certifier is a pure function of the epoch's batch set and the epoch
machine runs on simulated time, so an identical submission schedule must
replay an identical ``sys.geo_epochs`` log — across 2- and 3-region
topologies.
"""

from repro.common.rng import make_rng
from repro.geo import GeoCluster, GeoConfig
from repro.sql.engine import SqlEngine
from repro.storage import Column, DataType, TableSchema


def _schema():
    return TableSchema(
        "t", [Column("k", DataType.INT), Column("v", DataType.INT)], "k")


def _run_geo(num_regions, seed):
    """A contended mixed workload with interleaved epoch advancement."""
    geo = GeoCluster(GeoConfig(
        num_regions=num_regions, dns_per_region=1,
        replication_factor=min(2, num_regions)))
    geo.create_table(_schema())
    rng = make_rng(seed)
    sessions = [geo.session(r) for r in range(num_regions)]
    seeder = geo.session(0)
    for k in range(8):
        seeder.run_transaction(
            lambda txn, k=k: txn.insert("t", {"k": k, "v": 0}))
    geo.drain()
    handles = []
    for i in range(30):
        region = rng.randrange(num_regions)
        key = rng.randrange(8)              # hot keyspace: real conflicts

        def bump(txn, k=key):
            row = txn.read("t", k)
            txn.update("t", k, {"v": row["v"] + 1})

        handles.append(sessions[region].run_transaction(bump))
        if i % 7 == 6:                      # ship/certify mid-run, not
            geo.step_to(geo._now_us + 25_000.0)   # only at the drain
    geo.drain()
    geo.assert_converged()
    return geo, handles


def _fingerprint(geo, handles):
    engine = SqlEngine(geo.regions[0], learning_enabled=False)
    return {
        "epoch_rows": list(geo.epoch_rows()),
        "sys.geo_epochs": engine.execute(
            "SELECT * FROM sys.geo_epochs").rows,
        "handles": [(h.txn_id, h.status, h.epoch, h.ack_us, h.reason)
                    for h in handles],
        "frontiers": [geo.certified_epoch(r)
                      for r in range(geo.num_regions)],
    }


class TestReplayDeterminism:
    def test_two_region_replay_is_byte_identical(self):
        a = _fingerprint(*_run_geo(2, seed=101))
        b = _fingerprint(*_run_geo(2, seed=101))
        assert a == b
        assert a["epoch_rows"], "workload produced no certified epochs"

    def test_three_region_replay_is_byte_identical(self):
        a = _fingerprint(*_run_geo(3, seed=202))
        b = _fingerprint(*_run_geo(3, seed=202))
        assert a == b
        committed = sum(1 for _, s, *_ in a["handles"] if s == "committed")
        assert committed > 0

    def test_different_seeds_differ(self):
        # Sanity check on the fingerprint itself: it must be sensitive to
        # the schedule, or the equality assertions above prove nothing.
        a = _fingerprint(*_run_geo(3, seed=1))
        b = _fingerprint(*_run_geo(3, seed=2))
        assert a != b
