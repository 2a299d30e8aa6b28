"""Fragmented execution end-to-end: the ISSUE's acceptance criteria.

A filtered aggregate over a hash-distributed, column-oriented table on a
multi-DN cluster must plan into per-DN fragments (filter + partial
aggregate below the gather), move only group-grain rows through the
exchange, and report a simulated elapsed time of max-across-DNs fragment
time plus the exchange's network cost.
"""

import pytest

from repro.cluster import MppCluster
from repro.exec.operators import (
    PExchange,
    PFragment,
    PPartialAgg,
    PScan,
    walk_physical,
)
from repro.net.costing import exchange_cost_us, row_width_bytes
from repro.sql.engine import SqlEngine

NUM_DNS = 3
AGG_SQL = ("select grp, count(*), sum(val) from m.sales "
           "where id >= 10 group by grp")


def build_engine(fragmented=True, orientation="column"):
    cluster = MppCluster(num_dns=NUM_DNS)
    eng = SqlEngine(cluster, fragmented=fragmented)
    eng.execute(
        "create table m.sales (id int primary key, grp int not null, "
        f"val double not null) distribute by hash(id) "
        f"with (orientation = {orientation})")
    eng.execute("insert into m.sales values " + ",".join(
        f"({i}, {i % 4}, {i * 1.5})" for i in range(100)))
    eng.execute("analyze")
    return eng


@pytest.fixture
def engine():
    return build_engine()


def expected_groups():
    exp = {}
    for i in range(10, 100):
        count, total = exp.get(i % 4, (0, 0.0))
        exp[i % 4] = (count + 1, total + i * 1.5)
    return sorted((g, c, pytest.approx(s)) for g, (c, s) in exp.items())


class TestAcceptance:
    def test_results_are_correct(self, engine):
        result = engine.execute(AGG_SQL)
        assert sorted(result.rows) == expected_groups()

    def test_explain_analyze_shows_fragments(self, engine):
        profile = engine.execute(AGG_SQL).profile
        frag_rows = [op for op in profile.operators if op.fragment is not None]
        dns = {op.fragment[1] for op in frag_rows}
        assert len(dns) >= 2, "at least two per-DN fragments"
        text = profile.pretty()
        assert "Fragment dn0" in text and "Fragment dn1" in text

    def test_filter_and_partial_agg_below_exchange(self, engine):
        profile = engine.execute(AGG_SQL).profile
        for dn in range(NUM_DNS):
            inside = [op.operator for op in profile.operators
                      if op.fragment is not None and op.fragment[1] == dn]
            assert any(op.startswith("PartialAggregate") for op in inside)
            # The filter was pushed into the scan: its predicate shows in
            # the scan's describe(), below the exchange.
            assert any("SeqScan" in op and "ID>=10" in op for op in inside)
        above = [op.operator for op in profile.operators if op.fragment is None]
        assert any(op.startswith("FinalAggregate") for op in above)
        assert any(op.startswith("Exchange gather") for op in above)

    def test_gather_rows_equal_partial_groups(self, engine):
        plan_profile = engine.execute(AGG_SQL).profile
        gather = [op for op in plan_profile.operators
                  if op.operator.startswith("Exchange gather")][0]
        partial_rows = sum(op.rows for op in plan_profile.operators
                           if op.operator.lstrip().startswith("PartialAggregate"))
        # Only group-grain rows cross the CN/DN boundary: 4 groups per DN.
        assert gather.rows == partial_rows == 4 * NUM_DNS

    def test_elapsed_is_max_fragment_plus_exchange(self, engine):
        profile = engine.execute(AGG_SQL).profile
        serial = sum(op.time_us for op in profile.operators
                     if op.fragment is None)
        per_dn = {}
        for op in profile.operators:
            if op.fragment is not None:
                per_dn[op.fragment] = per_dn.get(op.fragment, 0.0) + op.time_us
        assert len(per_dn) == NUM_DNS
        assert profile.elapsed_time_us == pytest.approx(
            serial + max(per_dn.values()))
        # Parallelism is real: the serial sum across all operators is
        # strictly larger than the elapsed wall-clock.
        assert profile.total_time_us > profile.elapsed_time_us

    def test_exchange_charges_network_cost(self, engine):
        session = engine.cluster.session()
        txn = session.begin(multi_shard=True)
        from repro.sql.parser import parse
        plan = engine.plan_select(parse(AGG_SQL), txn)
        list(plan.execute())
        txn.commit()
        gather = [op for op in walk_physical(plan)
                  if isinstance(op, PExchange)][0]
        width = row_width_bytes(c.data_type for c in gather.schema)
        expected = exchange_cost_us(engine.cluster.profile.mpp,
                                    gather.actual_rows, width, edges=NUM_DNS)
        assert gather.sim_self_time_us(0, gather.actual_rows, 1) == pytest.approx(
            expected)


class TestVectorizedPath:
    def test_row_oriented_table_matches(self):
        row_eng = build_engine(orientation="row")
        col_eng = build_engine(orientation="column")
        got = sorted(col_eng.execute(AGG_SQL).rows)
        want = sorted(row_eng.execute(AGG_SQL).rows)
        for g, w in zip(got, want):
            assert g == pytest.approx(w)

    def test_vector_scan_preserves_nulls(self):
        eng = build_engine()
        eng.execute("create table m.n (id int primary key, x int) "
                    "distribute by hash(id) with (orientation = column)")
        eng.execute("insert into m.n values (1, 10), (2, null), (3, 30), "
                    "(4, null), (5, 50)")
        rows = eng.execute("select id, x from m.n where id >= 2 order by id").rows
        assert rows == [(2, None), (3, 30), (4, None), (5, 50)]

    def test_nullable_agg_column_falls_back_correctly(self):
        eng = build_engine()
        eng.execute("create table m.n (id int primary key, x int) "
                    "distribute by hash(id) with (orientation = column)")
        eng.execute("insert into m.n values (1, 10), (2, null), (3, 30), "
                    "(4, null), (5, 50)")
        # SQL semantics: NULLs are ignored by COUNT(x)/SUM(x)/AVG(x).
        rows = eng.execute(
            "select count(x), sum(x), avg(x), count(*) from m.n").rows
        assert rows == [(3, 90, 30.0, 5)]


class TestTwoPhaseSemantics:
    def test_avg_min_max_merge_across_dns(self, engine):
        rows = engine.execute(
            "select avg(val), min(val), max(val), min(id), max(id) "
            "from m.sales where id >= 10").rows
        vals = [i * 1.5 for i in range(10, 100)]
        assert rows[0][0] == pytest.approx(sum(vals) / len(vals))
        assert rows[0][1:] == (pytest.approx(15.0), pytest.approx(148.5), 10, 99)

    def test_global_agg_over_zero_rows(self, engine):
        rows = engine.execute(
            "select count(*), sum(val), min(val) from m.sales "
            "where id >= 1000").rows
        assert rows == [(0, None, None)]

    def test_distinct_agg_single_phase(self, engine):
        result = engine.execute("select count(distinct grp) from m.sales")
        assert result.rows == [(4,)]
        assert "PartialAggregate" not in result.plan_text

    def test_group_by_distribution_key_still_correct(self, engine):
        rows = engine.execute(
            "select id, count(*) from m.sales where id < 6 "
            "group by id order by id").rows
        assert rows == [(i, 1) for i in range(6)]


class TestFragmentIsolation:
    def test_each_fragment_scans_only_its_shard(self, engine):
        session = engine.cluster.session()
        txn = session.begin(multi_shard=True)
        from repro.sql.parser import parse
        plan = engine.plan_select(parse("select * from m.sales"), txn)
        list(plan.execute())
        txn.commit()
        frags = [op for op in walk_physical(plan) if isinstance(op, PFragment)]
        assert len(frags) == NUM_DNS
        scan_rows = [
            [s.actual_rows for s in walk_physical(f) if isinstance(s, PScan)][0]
            for f in frags
        ]
        assert sum(scan_rows) == 100
        assert all(rows < 100 for rows in scan_rows), \
            "no fragment saw the whole table"

    def test_partial_states_not_leaked_to_client(self, engine):
        result = engine.execute(AGG_SQL)
        # Client rows are finalized values, never (count,total,min,max)
        # state tuples.
        for row in result.rows:
            assert len(row) == 3
            assert not any(isinstance(v, tuple) for v in row)
