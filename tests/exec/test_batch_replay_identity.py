"""Replay identity: batch execution + plan cache vs the row bodies.

Mirrors tests/htap/test_replay_identity.py: the same TPC-C-lite + reporting
workload runs once as shipped (columnar batches, plan cache) and once as
the row reference — no plan cache and a no-op in place of
``repro.sql.engine.enable_batches``, so no plan is ever activated and every
operator runs its row body.  Every query-visible surface must match byte
for byte: result rows, per-operator profile row counts, simulated elapsed
time, wait accounting, metric counters, the
slow-query log, and the learning optimizer's plan-store contents (captured
step keys and observed cardinalities).

Batching only changes *wall-clock*; every simulated quantity is a pure
function of row counts, which the batch pipeline reproduces exactly.
"""

import pytest

import repro.sql.engine as engine_mod
from repro.cluster.mpp import MppCluster
from repro.exec.operators import walk_physical
from repro.sql.engine import SqlEngine
from repro.workloads.tpcc_lite import TpccLiteWorkload, load_tpcc


REPORTING = [
    # simple vector-spec predicate (spec masks, bridged in the reference)
    "select count(*) from order_line where ol_quantity >= 5",
    # complex predicate: only the batch path vectorizes this scan
    "select w_id, sum(ol_amount), count(*) from order_line "
    "where ol_quantity > 2 or ol_amount > 50 group by w_id order by w_id",
    # join + aggregation over the replicated dimension
    "select i.i_name, sum(ol.ol_quantity) from order_line ol, item i "
    "where ol.i_id = i.i_id and ol.ol_amount > 20 "
    "group by i.i_name order by i.i_name limit 5",
    # full sort, no limit (batch sort kernel)
    "select o_key, o_ol_cnt from orders where o_ol_cnt > 0 order by "
    "o_entry_ts desc, o_key",
    # arithmetic projection + filter
    "select ol_key, ol_amount * 2 from order_line "
    "where ol_amount - ol_quantity > 10 order by ol_key",
    "explain analyze select d_id, sum(d_ytd) from district group by d_id "
    "order by d_id",
]

MUTATIONS = [
    "update district set d_ytd = d_ytd + 1 where d_id = 3",
    "insert into item values (990, 'late-item', 9.99)",
    "delete from orders where o_ol_cnt = 0",
]


def _run(fast: bool):
    if fast:
        return _run_workload(plan_cache_size=64)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_mod, "enable_batches", lambda root: None)
        return _run_workload(plan_cache_size=0)


def _run_workload(plan_cache_size: int):
    cluster = MppCluster(num_dns=2)
    engine = SqlEngine(cluster, plan_cache_size=plan_cache_size)
    cluster.obs.slowlog.threshold_us = 0.0
    load_tpcc(cluster, num_warehouses=2,
              column_oriented=("orders", "order_line"))
    # drive some TPC-C-lite transactions so orders/order_line have data
    workload = TpccLiteWorkload(num_warehouses=2, multi_shard_fraction=0.1)
    session = cluster.session()
    for spec in (s for s, _ in zip(workload.stream(), range(40))):
        txn = session.begin(multi_shard=spec.multi_shard)
        spec.body(txn)
        txn.commit()
    engine.analyze()
    results = []
    # two passes: the second pass is where the plan cache serves hits, and
    # identity must hold there too
    for _ in range(2):
        for sql in REPORTING:
            results.append(engine.execute(sql))
        for sql in MUTATIONS[:1]:
            results.append(engine.execute(sql))
    for sql in MUTATIONS[1:]:
        results.append(engine.execute(sql))
    for sql in REPORTING:
        results.append(engine.execute(sql))
    return cluster, engine, results


def _query_metrics(cluster):
    """Metric snapshot minus access-path bookkeeping.

    ``htap.scans_*`` counts which storage path served a scan; the batch
    executor deliberately routes *more* scans through the column store
    (complex predicates included), so that counter legitimately grows.
    ``dn.image_*`` counts how lane scans kept row tables' column images,
    which the row reference never reads.  Everything query-visible — rows,
    times, waits — must still match.
    """
    _, flat = cluster.obs.metrics.snapshot()
    return {name: value for name, value in flat.items()
            if not name.startswith(("htap.scans_", "dn.image_"))}


def _store_rows(engine):
    return [(r.key, r.step_text, r.estimated_rows, r.actual_rows, r.updates)
            for r in engine.plan_store.records()]


class TestBatchReplayIdentity:
    def test_fast_path_matches_seed_byte_for_byte(self):
        fast_cluster, fast_engine, fast_results = _run(fast=True)
        seed_cluster, seed_engine, seed_results = _run(fast=False)
        assert len(fast_results) == len(seed_results)
        for fast, seed in zip(fast_results, seed_results):
            assert fast.columns == seed.columns
            assert fast.rows == seed.rows
            if fast.profile is not None:
                assert (fast.profile.rows_table()
                        == seed.profile.rows_table())
                assert (fast.profile.elapsed_time_us
                        == seed.profile.elapsed_time_us)
        assert (fast_cluster.obs.waits.rows()
                == seed_cluster.obs.waits.rows())
        assert _query_metrics(fast_cluster) == _query_metrics(seed_cluster)
        # the batch path must have used the column store at least as much
        fast_flat = dict(fast_cluster.obs.metrics.snapshot()[1])
        seed_flat = dict(seed_cluster.obs.metrics.snapshot()[1])
        assert (fast_flat.get("htap.scans_composed", 0.0)
                + fast_flat.get("htap.scans_frozen", 0.0)
                >= seed_flat.get("htap.scans_composed", 0.0)
                + seed_flat.get("htap.scans_frozen", 0.0))
        assert ([e.as_row() for e in fast_cluster.obs.slowlog.entries()]
                == [e.as_row() for e in seed_cluster.obs.slowlog.entries()])
        # the learning loop saw identical plans and actuals: same captured
        # step keys, same observed cardinalities, same update counts
        assert _store_rows(fast_engine) == _store_rows(seed_engine)

    def test_fast_run_actually_batched_and_cached(self):
        # Guard the guard: the identity test is vacuous if the fast run
        # never exercised the fast path.
        cluster, engine, _ = _run(fast=True)
        assert engine.plan_cache.hits > 0
        assert engine.plan_cache.hit_rate > 0.3
        # a representative reporting plan activates batch mode on its scans
        from repro.exec import operators as ops
        from repro.exec.batch import enable_batches
        from repro.sql.parser import parse
        txn = cluster.session().begin(multi_shard=True)
        try:
            physical = engine.plan_select(parse(REPORTING[1]), txn)
        finally:
            txn.commit()
        enable_batches(physical)
        scans = [op for op in walk_physical(physical)
                 if isinstance(op, ops.PScan)]
        assert scans and all(op.batch_mode for op in scans)

    def test_seed_engine_never_builds_batches(self):
        _, engine, results = _run(fast=False)
        assert engine.plan_cache.probes == 0
        assert all(r.rows is not None for r in results)
