"""Spill identity: batch bodies charge memory entry by entry, like rows.

Under a per-query budget far below what a sort, a hash join's build side or
an aggregate holds, the shipped engine (batch bodies) and the row reference
(a no-op in place of ``repro.sql.engine.enable_batches``, so every
operator runs its row body) must spill the same bytes at the same moments.
Compared exactly: rows, every operator's profile row (``spilled_bytes``
included), ``elapsed_time_us`` and the ``wlm_spill`` wait (count, total,
max).  A batch charged as one lump, or memory released before the parent
has pulled the last row, spills a different amount.  The aggregates fold
(and the final aggregate merges) a batch's new groups at once, so their
cases run over a thousand groups and over TEXT keys.
"""

import pytest

import repro.sql.engine as engine_mod
from repro.cluster.mpp import MppCluster
from repro.exec import operators as ops
from repro.exec.batch import enable_batches
from repro.sql.engine import SqlEngine
from repro.sql.parser import parse

BUDGET = 20_000
ROWS = 3_000

#: name -> (statement, the batched operators that must spill)
STATEMENTS = {
    "sort": ("select id, v from facts order by v desc, id", (ops.PSort,)),
    "join_build": ("select d.label, f.v from dims d, facts f "
                   "where d.k = f.k", (ops.PHashJoin,)),
    # the final aggregate spills too, while the partials still hold theirs
    "aggregate": ("select v, count(*), sum(k) from facts group by v",
                  (ops.PPartialAgg, ops.PFinalAgg)),
    # the build side is a final aggregate, which itself holds memory,
    # released only after the join's last charge
    "row_build_side": ("select g.c, f.id from (select k, count(*) c "
                       "from facts group by k) g, facts f where g.k = f.k",
                       (ops.PHashJoin,)),
    # 3 000 groups, each folded and merged in lanes
    "many_groups": ("select id, count(*), min(v), max(v), avg(v) "
                    "from facts group by id",
                    (ops.PPartialAgg, ops.PFinalAgg)),
    # 1 100 TEXT groups: codes on a column table, objects on a row table
    "text_groups": ("select tag, count(*), sum(v), min(k) from facts "
                    "group by tag", (ops.PPartialAgg, ops.PFinalAgg)),
}


def _engine(orientation):
    cluster = MppCluster(num_dns=2)
    engine = SqlEngine(cluster, plan_cache_size=0)
    with_clause = (" with (orientation = column)"
                   if orientation == "column" else "")
    engine.execute("create table facts (id int primary key, k int, "
                   "v double, tag text)" + with_clause)
    engine.execute("create table dims (k int primary key, label text)"
                   + with_clause)
    engine.execute("insert into facts values " + ", ".join(
        f"({i}, {i % 500}, {(i * 37) % 1000 / 8}, 't{i * 7 % 1100}')"
        for i in range(ROWS)))
    engine.execute("insert into dims values " + ", ".join(
        f"({k}, 'd{k % 7}')" for k in range(500)))
    engine.analyze()
    cluster.wlm.set_memory("default", BUDGET)
    return engine


def _run(orientation, sql, batched):
    with pytest.MonkeyPatch.context() as patch:
        engine = _engine(orientation)
        if not batched:
            patch.setattr(engine_mod, "enable_batches", lambda root: None)
        result = engine.execute(sql)
    spill = engine.cluster.obs.waits.stats("wlm_spill")
    return engine, result, (spill.count, spill.total_us, spill.max_us)


@pytest.mark.parametrize("orientation", ["row", "column"])
@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_batch_spills_like_the_row_reference(orientation, name):
    sql, spillers = STATEMENTS[name]
    engine, batch, batch_spill = _run(orientation, sql, batched=True)
    _, row, row_spill = _run(orientation, sql, batched=False)
    assert batch.rows == row.rows
    assert batch.profile.rows_table() == row.profile.rows_table()
    assert batch.profile.elapsed_time_us == row.profile.elapsed_time_us
    assert batch_spill == row_spill
    # guard the guard: the operator in question batched, and spilled
    txn = engine.cluster.session().begin(multi_shard=True)
    try:
        physical = engine.plan_select(parse(sql), txn)
    finally:
        txn.commit()
    enable_batches(physical)
    for spiller in spillers:
        assert any(isinstance(op, spiller) and op.batch_mode
                   for op in ops.walk_physical(physical))
        kind = {ops.PPartialAgg: "PartialAggregate",
                ops.PFinalAgg: "FinalAggregate"}.get(spiller,
                                                     spiller.__name__[1:])
        assert any(line[0].strip().startswith(kind) and line[-1] > 0
                   for line in batch.profile.rows_table())
