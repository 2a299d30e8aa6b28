"""Figure 5 — the statistics-learning loop on a canned reporting workload.

The paper's premise: "reporting workloads (canned queries) are the most
common in real life OLAP workloads", and exact-match logical-step feedback
fixes their estimates.  We run a canned workload over data with correlated
columns (which defeats the independence assumption), measure per-step
estimation error (q-error) on the first pass, then re-run with the plan
store populated and measure again.

Expected shape: large q-errors before learning, near-1 after; the plan
store hit rate climbs to ~100% for repeated queries.
"""

import pytest

from repro.cluster import MppCluster
from repro.exec.operators import walk_physical
from repro.sql.engine import SqlEngine

ROWS = 3000

# A canned reporting workload: the same query shapes re-run with the same
# parameters (the paper's exact-match sweet spot).
CANNED = [
    "select count(*) from sales where region = 'north' and status = 'gold'",
    ("select region, count(*) n from sales "
     "where status = 'gold' group by region"),
    ("select count(*) from sales s, customers c "
     "where s.cust_id = c.cust_id and s.region = 'north' "
     "and c.segment = 'vip'"),
    ("select c.segment, sum(s.amount) total from sales s, customers c "
     "where s.cust_id = c.cust_id and s.status = 'gold' "
     "group by c.segment"),
]


def build_engine():
    from repro.learnopt.feedback import CaptureSettings

    cluster = MppCluster(num_dns=2)
    # A reporting system tightens the capture threshold: even 1.5x step
    # errors are worth fixing for queries that run every day.
    engine = SqlEngine(cluster,
                       capture_settings=CaptureSettings(error_threshold=0.25))
    engine.execute("create table sales (sale_id int primary key, cust_id int,"
                   " region text, status text, amount double)")
    engine.execute("create table customers (cust_id int primary key,"
                   " segment text)")
    # Correlation: 'north' sales are almost always 'gold'; elsewhere gold is
    # rare.  Independence-based estimation is off by a large factor.
    sales = []
    for i in range(ROWS):
        region = "north" if i % 4 == 0 else ("south", "east", "west")[i % 3]
        if region == "north":
            status = "gold" if i % 10 != 0 else "silver"
        else:
            status = "gold" if i % 50 == 0 else "silver"
        sales.append(f"({i}, {i % 300}, '{region}', '{status}', {i % 97}.0)")
    engine.execute("insert into sales values " + ",".join(sales))
    customers = [f"({i}, '{'vip' if i % 20 == 0 else 'mass'}')"
                 for i in range(300)]
    engine.execute("insert into customers values " + ",".join(customers))
    engine.execute("analyze")
    return engine


def qerrors(engine, sql):
    """Max per-step q-error of one execution.

    Steps are the logical steps the plan store learns, measured as the
    capture producer measures them: the per-DN clones of one step are
    summed into one estimate and one actual.  A clone on its own compares
    a uniform share of the estimate with one shard's rows, and this data
    puts every gold sale (an even ``sale_id``) on one of the two shards;
    physical operators (exchanges, partial aggregates) have no step."""
    executed = []
    capture = engine.feedback.capture

    def recording(root):
        executed.append(root)
        return capture(root)

    engine.feedback.capture = recording
    try:
        engine.execute(sql)
    finally:
        del engine.feedback.capture
    steps = {}
    for op in walk_physical(executed[0]):
        if op.step_text is None:
            continue
        key = id(op) if op.capture_group is None else (op.capture_group,
                                                       op.step_text)
        sums = steps.setdefault(key, [0.0, 0.0])
        sums[0] += op.estimated_rows
        sums[1] += op.actual_rows
    worst = 1.0
    for est, actual in steps.values():
        if actual > 0 and est > 0:
            worst = max(worst, est / actual, actual / est)
    return worst


def run_loop():
    engine = build_engine()
    before = {sql: qerrors(engine, sql) for sql in CANNED}   # pass 1: capture
    after = {sql: qerrors(engine, sql) for sql in CANNED}    # pass 2: consume
    return engine, before, after


def render(before, after):
    lines = [f"{'query':8} {'q-error before':>16} {'q-error after':>16}",
             "-" * 44]
    for i, sql in enumerate(CANNED):
        lines.append(f"Q{i + 1:<7} {before[sql]:>16.1f} {after[sql]:>16.1f}")
    return "\n".join(lines)


def test_fig5_learning_loop(benchmark, artifact):
    engine, before, after = benchmark.pedantic(run_loop, rounds=1,
                                               iterations=1)
    artifact("fig5_learning_loop", render(before, after))
    # Before learning at least one canned query is badly mis-estimated.
    assert max(before.values()) > 3.0
    # After learning every canned query's worst step is nearly exact.
    assert all(err <= 1.5 for err in after.values()), after
    # And improvements are monotone: learning never makes a query worse.
    for sql in CANNED:
        assert after[sql] <= before[sql] * 1.01


class TestLearningDynamics:
    def test_hit_rate_grows(self):
        engine = build_engine()
        for sql in CANNED:
            engine.execute(sql)
        hits_first = engine.plan_store.hits
        for sql in CANNED:
            engine.execute(sql)
        assert engine.plan_store.hits > hits_first

    def test_store_is_bounded_work(self):
        engine = build_engine()
        for _ in range(3):
            for sql in CANNED:
                engine.execute(sql)
        # Re-running canned queries must not grow the store unboundedly.
        assert len(engine.plan_store) <= 16
