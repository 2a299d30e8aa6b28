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
cases run over a thousand groups and over TEXT keys.  A row table's lane
scan reuses its data nodes' column images, so a join whose build side is
one must spill as the reference does, and an image hit must charge and
count exactly as the fresh walk it replaces.
"""

import pytest

import repro.sql.engine as engine_mod
from repro.cluster.mpp import MppCluster
from repro.cluster.txn import GlobalTransaction
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


def _run(orientation, sql, batched, warm=False):
    """``warm`` runs ``sql`` once first: the run measured then reads the
    images the first one left."""
    with pytest.MonkeyPatch.context() as patch:
        engine = _engine(orientation)
        if not batched:
            patch.setattr(engine_mod, "enable_batches", lambda root: None)
        if warm:
            engine.execute(sql)
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


def _images(engine):
    return [dict(dn._images) for dn in engine.cluster.dns]


@pytest.mark.parametrize("name", ["join_build", "row_build_side"])
def test_image_build_side_spills_like_the_row_reference(name):
    sql, _ = STATEMENTS[name]
    engine, batch, batch_spill = _run("row", sql, batched=True, warm=True)
    _, row, row_spill = _run("row", sql, batched=False, warm=True)
    assert batch.rows == row.rows
    assert batch.profile.rows_table() == row.profile.rows_table()
    assert batch.profile.elapsed_time_us == row.profile.elapsed_time_us
    assert batch_spill == row_spill and batch_spill[0] > 0
    # guard the guard: the measured run read the images the warm run left
    images = _images(engine)
    assert all(images) and engine.execute(sql).rows == batch.rows
    assert _images(engine) == images


@pytest.mark.parametrize("sql", [
    STATEMENTS["join_build"][0],
    "select d.label, count(*), sum(f.v) from dims d, facts f "
    "where d.k = f.k and d.label <> 'd3' group by d.label",
    "select tag, count(*) from facts where id > 100 group by tag",
])
def test_an_image_hit_charges_and_counts_as_a_fresh_walk(sql):
    def measured(fresh):
        engine = _engine("row")
        engine.execute(sql)                     # leaves the images
        images = _images(engine)
        if fresh:
            for dn in engine.cluster.dns:
                dn._images.clear()
        metrics = engine.cluster.obs.metrics
        before = [metrics.value(name) for name in ("dn.scan", "exec.rows")]
        scans = []
        finish = GlobalTransaction._finish_span

        def finish_span(txn, outcome):
            scans.append(txn._nw_scan)
            finish(txn, outcome)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(GlobalTransaction, "_finish_span", finish_span)
            result = engine.execute(sql)
        # a hit keeps every image; a fresh walk leaves new ones
        kept = [image is images[i].get(table)
                for i, dn in enumerate(engine.cluster.dns)
                for table, image in dn._images.items()]
        assert kept and all(kept) != fresh and any(kept) != fresh
        return (result.rows, result.profile.rows_table(),
                result.profile.elapsed_time_us,
                engine.cluster.obs.waits.rows(),
                [metrics.value(name) - was for name, was
                 in zip(("dn.scan", "exec.rows"), before)], scans)

    assert measured(fresh=False) == measured(fresh=True)
