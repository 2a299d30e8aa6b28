"""Replay identity: HTAP serving a column table is the seed path, byte for
byte.

The reference is a row-oriented twin: the same cluster, the same workload,
and a table ``t`` of the same name without ``orientation = column``.  A row
table gets no HTAP state, so its scans run exactly the seed path — the
heap walk into the node's column image.  Every query-visible surface —
result rows, operator row counts, simulated elapsed time, wait accounting,
the slow-query log — must match exactly.  The only permitted divergences
are the merge daemon's own bookkeeping (``htap.*`` counters, the
``htap_merge`` wait event) and the row twin's (``dn.image_*``, how its lane
scans kept the column image the column table never forms).

The workload deliberately mixes float aggregation (chunk-boundary
sensitive), updates, deletes and post-merge reads so the composed path is
exercised, not just the frozen fast path.
"""

from repro.cluster.mpp import MppCluster
from repro.sql.engine import SqlEngine


WORKLOAD = [
    "select id, v, w from t order by id",
    "select sum(w), avg(w) from t",
    "update t set v = v + 1 where id = 3",
    "select v, count(*) from t where v > 10 group by v",
    "delete from t where id = 5",
    "select sum(v) from t",
    "explain analyze select w from t order by w desc",
]


def _run(orientation):
    cluster = MppCluster(num_dns=2)
    engine = SqlEngine(cluster)
    cluster.obs.slowlog.threshold_us = 0.0
    engine.execute("create table t (id int primary key, v int, w double) "
                   f"with (orientation = {orientation})")
    engine.execute("insert into t values "
                   "(1, 10, 0.1), (2, 20, 0.2), (3, 30, 0.3), "
                   "(4, 40, 0.4), (5, 50, 0.5), (6, 60, 0.6)")
    results = []
    for i, sql in enumerate(WORKLOAD):
        # Merge mid-workload so later queries read frozen + delta, and the
        # identity claim covers the composed path, not just the heap walk.
        if i in (1, 4):
            cluster.htap.tick()
        results.append(engine.execute(sql))
    return cluster, results


def _query_waits(cluster):
    """Wait rows excluding the merge daemon's own charge."""
    return [row for row in cluster.obs.waits.rows()
            if row[0] != "htap_merge"]


def _query_metrics(cluster):
    """Metric snapshot excluding each access path's own counters."""
    _, flat = cluster.obs.metrics.snapshot()
    return {name: value for name, value in flat.items()
            if not name.startswith(("htap.", "wait.htap_merge",
                                    "dn.image_"))}


class TestReplayIdentity:
    def test_enabled_matches_disabled_byte_for_byte(self):
        enabled, enabled_results = _run("column")
        bare, bare_results = _run("row")
        assert all(dn.htap is None for dn in bare.dns)   # seed path only
        for served, plain in zip(enabled_results, bare_results):
            assert served.rows == plain.rows
            if served.profile is not None:
                assert (served.profile.rows_table()
                        == plain.profile.rows_table())
                assert (served.profile.elapsed_time_us
                        == plain.profile.elapsed_time_us)
        assert _query_waits(enabled) == _query_waits(bare)
        assert _query_metrics(enabled) == _query_metrics(bare)
        # Everything but the trailing trace_id: the merge daemon's tick
        # traces interleave with query traces in the shared id sequence,
        # so trace ids (and only they) legitimately differ with HTAP on.
        assert ([e.as_row()[:-1] for e in enabled.obs.slowlog.entries()]
                == [e.as_row()[:-1] for e in bare.obs.slowlog.entries()])

    def test_enabled_cluster_served_at_least_one_scan(self):
        # Guard the guard: the parity test is vacuous if HTAP never served.
        enabled, _ = _run("column")
        flat = dict(enabled.obs.metrics.snapshot()[1])
        served = (flat.get("htap.scans_frozen", 0.0)
                  + flat.get("htap.scans_composed", 0.0))
        assert served > 0
        assert flat.get("htap.cold_rebuilds", 0.0) == 0
