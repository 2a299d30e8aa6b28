"""A cached plan re-runs exactly as a freshly planned one runs.

A plan renders its scaffolding once: each operator's ``describe()`` text,
the flattened operator list with parents, depths and fragments, and the
single-site decision.  A plan-cache hit re-runs it as it is.  For every
text of the ``report_cached`` benchmark workload and twenty SELECTs of
``sql_adhoc`` (both built at smoke size), a fresh plan's run and a later
cached run of the same text must show the same rows, profile rows, plan
text, slow-query log entry and stitched spans (name, node, attributes),
and every cached operator's text must equal a fresh ``describe()``.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
for path in (ROOT / "benchmarks", ROOT / "benchmarks" / "e2e"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from workloads import ReportCached, SqlAdhoc  # noqa: E402

SMOKE = 0.05
SELECTS = 20


def _run(engine, sql):
    """One execution, seen through everything it leaves behind."""
    obs = engine.obs
    hits = engine.plan_cache.hits
    result = engine.execute(sql)
    query = obs.tracer.finished_spans("query")[-1]
    spans = [(s.name, s.node, sorted((k, v) for k, v in s.attributes.items()
                                     if k != "gxid"))
             for s in obs.tracer.finished_spans()
             if s.trace_id == query.trace_id]
    slow = obs.slowlog.entries()[-1]
    assert slow.trace_id == query.trace_id
    return engine.plan_cache.hits > hits, {
        "rows": result.rows,
        "profile": result.profile.rows_table(),
        "elapsed": result.profile.elapsed_time_us,
        "plan_text": result.plan_text,
        "slow": (slow.sql, slow.elapsed_us, slow.rows, slow.operators,
                 slow.top_operator, slow.top_operator_us, slow.queue_us),
        "spans": spans,
    }


def _check(engine, texts):
    engine.obs.slowlog.threshold_us = 0.0       # every statement logged
    runs_per_cn = engine.cluster.num_cns
    for sql in texts:
        # until the learning loop has nothing left to capture for it
        for _ in range(8):
            if _run(engine, sql)[0]:
                break
        engine.plan_cache.clear()
        hit, fresh = _run(engine, sql)
        assert not hit
        # ``num_cns`` runs later the statement is on the same coordinator
        for _ in range(runs_per_cn):
            hit, cached = _run(engine, sql)
            assert hit
        assert cached == fresh, sql
        entry = engine.plan_cache.lookup(
            engine.plan_cache.key_for(sql), engine.cluster.catalog.version,
            engine.stats.version, engine.cluster.catalog.shard_map_version)
        ops = entry.outline.ops
        assert [op.description for op in ops] == [op.describe() for op in ops]


def test_report_cached_texts():
    workload = ReportCached(777, SMOKE)
    workload.setup()
    assert len(workload.catalog) == 29
    _check(workload.engine, workload.catalog)


def test_sql_adhoc_selects():
    workload = SqlAdhoc(777, SMOKE)
    workload.setup()
    selects = [sql for _cls, sql in workload.statements
               if sql.lstrip().lower().startswith("select")][:SELECTS]
    assert len(selects) == SELECTS
    assert any(" join " in sql or "," in sql.split(" from ")[1].split(
        " where ")[0] for sql in selects), "no join among the selects"
    _check(workload.engine, selects)

