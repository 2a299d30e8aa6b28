"""A statement leaves no reference cycles behind.

The profiler and the WLM context both point back at the operators of the
plan they serve; left attached, every plan the plan cache drops (and every
plan it never kept) would be cyclic garbage that lingers until the cycle
collector runs.  Each statement below must leave none.
"""

import gc

import pytest

from repro.cluster.mpp import MppCluster
from repro.sql.engine import SqlEngine

#: Templates: round ``n`` of each is a statement text of its own.
STATEMENTS = [
    "select id, v, {n} from facts where id = 7",
    "select d.label, count(*), sum(f.v) + {n} from facts f, dims d "
    "where f.k = d.k group by d.label",
    "select k, count(*) + {n} from facts group by k order by k",
    "select id, {n} from facts order by v desc, id limit 3",
    "select id, {n} from facts where v > 10 limit 2",
    "explain analyze select count(*) + {n} from facts where v < 50",
    "insert into facts values ({n} + 1000, 3, 1.5)",
    "update facts set v = v + {n} where id = 5",
    "update facts set v = v + {n} where k = 4",
    "delete from facts where id = {n} + 150",
]


@pytest.fixture(scope="module")
def engine():
    # one cached plan: every new text evicts the previous statement's plan
    engine = SqlEngine(MppCluster(num_dns=2), plan_cache_size=1)
    engine.execute("create table facts (id int primary key, k int, v double)")
    engine.execute("create table dims (k int primary key, label text)")
    engine.execute("insert into facts values " + ", ".join(
        f"({i}, {i % 10}, {i * 0.5})" for i in range(200)))
    engine.execute("insert into dims values " + ", ".join(
        f"({k}, 'd{k % 3}')" for k in range(10)))
    engine.analyze()
    return engine


def _cyclic_garbage(run) -> list:
    """Type names of the objects only the cycle collector would free
    after ``run()``."""
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = sorted({type(obj).__name__ for obj in gc.garbage})
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        gc.collect()
        if enabled:
            gc.enable()
    return found


@pytest.mark.parametrize("template", STATEMENTS)
def test_statement_leaves_no_cycles(engine, template):
    engine.execute(template.format(n=0))   # warm first-use caches
    assert _cyclic_garbage(
        lambda: engine.execute(template.format(n=1))) == []
    # the next text evicts that statement's plan from the cache
    assert _cyclic_garbage(
        lambda: engine.execute(STATEMENTS[0].format(n=2))) == []
