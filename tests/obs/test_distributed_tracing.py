"""Distributed query tracing: CN→DN span stitching end to end.

The acceptance criterion for ISSUE 7's tentpole: a fragmented TPC-C-lite
reporting query yields ONE stitched trace tree — coordinator query span at
the root, transaction/2PC edges and per-DN fragment execution as child
spans with per-node attribution — queryable through ``sys.trace_spans``,
and the per-DN fragment spans sum consistently with
``QueryProfile.elapsed_time_us`` (CN serial time + max across DNs per
fragment group).
"""

import pytest

from repro.cluster.mpp import MppCluster
from repro.obs.profiler import QueryProfile
from repro.sql.engine import SqlEngine
from repro.workloads.tpcc_lite import load_tpcc

REPORTING_QUERY = "select w_id, sum(d_ytd) from district group by w_id"


def _reporting_cluster(num_dns=4):
    cluster = MppCluster(num_dns=num_dns)
    load_tpcc(cluster, num_warehouses=num_dns)
    return cluster, SqlEngine(cluster)


def _last_query_trace(cluster):
    query_spans = cluster.obs.tracer.finished_spans("query")
    assert query_spans
    root = query_spans[-1]
    return root, cluster.obs.tracer.spans_for_trace(root.trace_id)


class TestStitchedTrace:
    def test_one_trace_tree_per_query(self):
        cluster, engine = _reporting_cluster()
        engine.execute(REPORTING_QUERY)
        root, spans = _last_query_trace(cluster)
        assert root.parent_id is None
        # every span of the query — txn, 2PC, operators — shares the trace
        names = {s.name for s in spans}
        assert "txn.global" in names
        assert "2pc.prepare" in names
        assert any(n.startswith("op.") for n in names)
        # and nothing in the trace dangles: each non-root span's parent is
        # a span of the same trace
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span is root:
                continue
            assert span.parent_id in by_id

    def test_fragment_spans_attributed_to_every_dn(self):
        cluster, engine = _reporting_cluster(num_dns=4)
        engine.execute(REPORTING_QUERY)
        _, spans = _last_query_trace(cluster)
        fragment_nodes = {s.node for s in spans
                          if s.name.startswith("op.") and s.node
                          and s.node.startswith("dn")}
        assert fragment_nodes == {"dn0", "dn1", "dn2", "dn3"}
        # coordinator-side spans carry the CN's identity
        cn_ops = [s for s in spans if s.name.startswith("op.")
                  and s.node and s.node.startswith("cn")]
        assert cn_ops
        for name in ("txn.global", "2pc.prepare"):
            for s in spans:
                if s.name == name:
                    assert s.node and s.node.startswith("cn")

    def test_fragment_crossing_preserves_parent_child_edge(self):
        cluster, engine = _reporting_cluster()
        engine.execute(REPORTING_QUERY)
        _, spans = _last_query_trace(cluster)
        by_id = {s.span_id: s for s in spans}
        crossings = 0
        for span in spans:
            if not (span.name.startswith("op.") and span.node
                    and span.node.startswith("dn")):
                continue
            parent = by_id[span.parent_id]
            if parent.node != span.node:
                # CN→DN boundary: parent ran on the coordinator
                assert parent.node.startswith("cn")
                crossings += 1
        assert crossings == 4      # one shipped fragment root per DN

    def test_elapsed_time_identity_cn_serial_plus_max_per_fragment(self):
        """The acceptance-criterion consistency check: per-DN fragment
        spans sum with the coordinator time to the profile's elapsed time
        as CN serial + max-across-DN per fragment group."""
        cluster, engine = _reporting_cluster()
        result = engine.execute(REPORTING_QUERY)
        profile = result.profile
        rows = profile.distributed_rows()
        assert rows[0][0] == "coordinator"
        cn_us = rows[0][5]
        groups = {}
        for fragment, node, _ops, _rows, _net, elapsed_us, _crit in rows[1:]:
            assert node.startswith("dn")
            groups.setdefault(fragment, []).append(elapsed_us)
        reconstructed = cn_us + sum(max(times) for times in groups.values())
        assert reconstructed == pytest.approx(profile.elapsed_time_us,
                                              rel=1e-9)

    def test_critical_flag_marks_slowest_instance_per_group(self):
        cluster, engine = _reporting_cluster()
        result = engine.execute(REPORTING_QUERY)
        rows = result.profile.distributed_rows()
        assert rows[0][6] is True             # coordinator always critical
        by_group = {}
        for row in rows[1:]:
            by_group.setdefault(row[0], []).append(row)
        for group_rows in by_group.values():
            slowest = max(r[5] for r in group_rows)
            for r in group_rows:
                assert r[6] == (r[5] >= slowest)


class TestExplainAnalyzeDistributed:
    def test_returns_per_fragment_rows(self):
        _, engine = _reporting_cluster()
        result = engine.execute(
            "explain analyze distributed " + REPORTING_QUERY)
        assert result.columns == list(QueryProfile.DIST_COLUMNS)
        fragments = [row[0] for row in result.rows]
        assert fragments[0] == "coordinator"
        assert len([f for f in fragments if f != "coordinator"]) == 4
        for _frag, node, ops, rows, net_rows, elapsed, critical in result.rows:
            assert ops >= 1 and rows >= 0 and net_rows >= 0
            assert elapsed >= 0.0
            assert isinstance(critical, bool)

    def test_pretty_rendering_marks_critical_path(self):
        _, engine = _reporting_cluster()
        result = engine.execute(
            "explain analyze distributed " + REPORTING_QUERY)
        assert "<-- critical" in result.plan_text
        assert "Critical path:" in result.plan_text

    def test_plain_explain_analyze_unchanged(self):
        _, engine = _reporting_cluster()
        result = engine.execute("explain analyze " + REPORTING_QUERY)
        assert result.columns == list(QueryProfile.COLUMNS)


class TestSysTraceSpans:
    def test_trace_tree_queryable_by_sql(self):
        cluster, engine = _reporting_cluster()
        engine.execute(REPORTING_QUERY)
        root, spans = _last_query_trace(cluster)
        rows = engine.query(
            "select trace_id, span_id, parent_id, depth, name, node "
            "from sys.trace_spans where trace_id = %d" % root.trace_id)
        assert len(rows) == len(spans)
        roots = [r for r in rows if r["depth"] == 0]
        assert len(roots) == 1
        assert roots[0]["name"] == "query"
        assert roots[0]["span_id"] == root.span_id
        assert roots[0]["node"].startswith("cn")
        # depth increments follow parent edges: pre-order listing
        depths = [r["depth"] for r in rows]
        assert all(b - a <= 1 for a, b in zip(depths, depths[1:]))

    def test_slowlog_entries_join_to_traces(self):
        cluster, engine = _reporting_cluster()
        cluster.obs.slowlog.threshold_us = 0.0
        engine.execute(REPORTING_QUERY)
        root, _ = _last_query_trace(cluster)
        entries = cluster.obs.slowlog.entries()
        assert entries
        assert entries[-1].trace_id == root.trace_id
        # as_row exposes it for sys.slow_queries consumers
        assert entries[-1].as_row()[-1] == root.trace_id


class TestBackgroundWorkTracing:
    def test_htap_merge_spans_stitch_under_tick(self):
        cluster = MppCluster(num_dns=2)
        engine = SqlEngine(cluster)
        engine.execute("create table r (id int primary key, v int) "
                       "with (orientation = column)")
        engine.execute("insert into r values (1, 10), (2, 20), (3, 30), "
                       "(4, 40)")
        cluster.htap.tick()
        tracer = cluster.obs.tracer
        ticks = tracer.finished_spans("htap.tick")
        merges = tracer.finished_spans("htap.merge")
        assert ticks and merges
        tick = ticks[-1]
        children = [m for m in merges if m.parent_id == tick.span_id]
        assert children
        for merge in children:
            assert merge.trace_id == tick.trace_id
            assert merge.node.startswith("dn")
            assert merge.get_attribute("table") == "r"

    def test_wlm_queue_span_child_of_query(self):
        cluster, engine = _reporting_cluster()
        engine.execute(REPORTING_QUERY)
        root, spans = _last_query_trace(cluster)
        queue = [s for s in spans if s.name == "wlm.queue"]
        if queue:                 # present only with WLM admission active
            assert queue[0].parent_id == root.span_id
