"""The telemetry fast path: deterministic sampling, exact aggregates,
replay identity and full reset of the sampler/ring state.

The contract under test (ROADMAP item 2 / ISSUE 7):

* aggregates in ``sys.wait_events`` are exact regardless of the sampling
  mode — only per-observation *detail* (sample ring, reservoir, histogram
  feed) is sampled;
* sampling is deterministic: same seed + same workload ⇒ byte-identical
  sample sets, across fresh clusters and across ``reset_telemetry``;
* ``sys.obs_config`` tells the truth about the live telemetry mode.
"""

from repro.cluster.mpp import MppCluster
from repro.obs.config import ObsConfig
from repro.sql.engine import SqlEngine
from repro.storage.table import Column, TableSchema
from repro.storage.types import DataType
from repro.workloads.driver import run_oltp
from repro.workloads.tpcc_lite import TpccLiteWorkload, load_tpcc


def _run_workload(cluster):
    load_tpcc(cluster, num_warehouses=2)
    workload = TpccLiteWorkload(num_warehouses=2, multi_shard_fraction=0.3,
                                seed=11)
    return run_oltp(cluster, workload, clients_per_dn=2, txns_per_client=8)


def _telemetry(cluster):
    """Every surface the fast path rewrote, in comparable form."""
    obs = cluster.obs
    _, metrics = obs.metrics.snapshot()
    return {
        "metrics": metrics,
        "waits": obs.waits.rows(),
        "samples": obs.waits.sample_rows(),
        "sampling": obs.waits.sampling_rows(),
        "span_count": obs.tracer.spans_started,
    }


class TestDeterministicSampling:
    def test_same_seed_same_workload_identical_sample_sets(self):
        a = MppCluster(num_dns=2)
        b = MppCluster(num_dns=2)
        ra = _run_workload(a)
        rb = _run_workload(b)
        assert ra.as_dict() == rb.as_dict()
        ta, tb = _telemetry(a), _telemetry(b)
        assert ta["samples"] == tb["samples"]      # byte-identical detail
        assert ta == tb                            # ...and everything else

    def test_exact_aggregates_match_unsampled_totals(self):
        sampled = MppCluster(num_dns=2,
                             obs_config=ObsConfig(wait_sample_every=8))
        full = MppCluster(num_dns=2,
                          obs_config=ObsConfig(wait_sample_every=1))
        rs = _run_workload(sampled)
        rf = _run_workload(full)
        assert rs.as_dict() == rf.as_dict()
        # count/total/avg/max per event are exact under sampling: identical
        # to the unsampled run even though the detail streams differ.
        assert sampled.obs.waits.rows() == full.obs.waits.rows()
        # the sampled run actually sampled (fewer detail rows, same seen)
        for (ev_s, every_s, seen_s, taken_s), (ev_f, every_f, seen_f,
                                               taken_f) in zip(
                sampled.obs.waits.sampling_rows(),
                full.obs.waits.sampling_rows()):
            assert ev_s == ev_f and seen_s == seen_f
            if every_s > 1:
                assert taken_s < taken_f

    def test_high_frequency_events_are_strided(self):
        cluster = MppCluster(num_dns=2)
        _run_workload(cluster)
        strides = {event: every
                   for event, every, _seen, _taken
                   in cluster.obs.waits.sampling_rows()}
        config = cluster.obs.config
        for event in config.high_frequency_events:
            if event in strides:
                assert strides[event] == config.wait_sample_every
        assert any(every > 1 for every in strides.values())

    def test_sampled_detail_covers_every_high_frequency_event(self):
        cluster = MppCluster(num_dns=2)
        _run_workload(cluster)
        sampled_events = {row[0] for row in cluster.obs.waits.sample_rows()}
        recorded = {row[0] for row in cluster.obs.waits.rows()}
        for event in cluster.obs.config.high_frequency_events:
            if event in recorded:
                assert event in sampled_events


def _reset_load(cluster):
    cluster.create_table(TableSchema(
        "t", [Column("k", DataType.INT), Column("v", DataType.INT)],
        primary_key="k"))
    session = cluster.session()
    txn = session.begin(multi_shard=True)
    for k in range(8):
        txn.insert("t", {"k": k, "v": 0})
    txn.commit()


def _reset_workload(cluster):
    """Update/read mix heavy enough to trip the 1-in-8 detail samplers."""
    session = cluster.session()
    for rep in range(4):
        for k in range(8):
            txn = session.begin(multi_shard=(k % 2 == 0))
            txn.update("t", k, {"v": 8 * rep + k})
            txn.read("t", k)
            txn.commit()


class TestResetRegression:
    def test_reset_then_replay_matches_fresh_cluster_telemetry(self):
        """Satellite (a): reset + same workload == fresh cluster running
        that workload — including the sample rings and sampler state, which
        must restart from their seeded position, not continue mid-stream."""
        fresh = MppCluster(num_dns=2)
        _reset_load(fresh)
        fresh.reset_telemetry()          # discard the load's telemetry
        _reset_workload(fresh)

        reused = MppCluster(num_dns=2)
        _reset_load(reused)
        _reset_workload(reused)          # dirty the recorders and samplers
        reused.reset_telemetry()
        _reset_workload(reused)          # then replay the same workload

        tf, tr = _telemetry(fresh), _telemetry(reused)
        assert tf["samples"]             # samplers actually fired
        assert tf == tr

    def test_reset_clears_sample_rings_and_sampler_state(self):
        cluster = MppCluster(num_dns=2)
        _run_workload(cluster)
        obs = cluster.obs
        assert obs.waits.sample_rows()
        assert obs.waits.sampling_rows()
        cluster.reset_telemetry()
        assert obs.waits.sample_rows() == []
        assert obs.waits.sampling_rows() == []
        assert obs.waits.rows() == []
        assert obs.tracer.finished_spans() == []


class TestObsConfigView:
    def test_sys_obs_config_reflects_live_knobs(self):
        cluster = MppCluster(
            num_dns=2, obs_config=ObsConfig(wait_sample_every=4,
                                            wait_detail_capacity=512))
        load_tpcc(cluster, num_warehouses=2)
        engine = SqlEngine(cluster)
        settings = {row["setting"]: row["value"] for row in
                    engine.query("SELECT setting, value FROM sys.obs_config")}
        assert settings["wait_sample_every"] == "4"
        assert settings["wait_detail_capacity"] == "512"
        # One row per live knob, and only those.
        assert set(settings) == {
            "high_frequency_events", "max_spans", "wait_detail_capacity",
            "wait_reservoir_size", "wait_sample_every", "wait_sample_seed"}
        assert "dn.scan" in settings["high_frequency_events"]

    def test_sys_wait_sampling_queryable(self):
        cluster = MppCluster(num_dns=2)
        _run_workload(cluster)
        before = dict((row[0], row[1]) for row in cluster.obs.waits.rows())
        engine = SqlEngine(cluster)
        rows = engine.query(
            "SELECT event, every, seen, sampled FROM sys.wait_sampling")
        assert rows
        after = dict((row[0], row[1]) for row in cluster.obs.waits.rows())
        for row in rows:
            # the view query itself fires wait events, so `seen` (snapshotted
            # mid-query) sits between the pre- and post-query exact counts
            assert before.get(row["event"], 0) <= row["seen"]
            assert row["seen"] <= after[row["event"]]
            assert row["sampled"] <= row["seen"]

    def test_sys_wait_samples_queryable(self):
        cluster = MppCluster(num_dns=2)
        _run_workload(cluster)
        engine = SqlEngine(cluster)
        rows = engine.query(
            "SELECT event, wait_us, event_seq FROM sys.wait_samples")
        assert rows
        assert all(r["wait_us"] >= 0.0 for r in rows)
