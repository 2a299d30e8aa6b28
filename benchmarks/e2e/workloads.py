"""The five closed-loop workloads.

Each workload is built from ``--seed`` alone (the program only ever sees
the generated inputs), and has the same life cycle::

    w = SomeWorkload(seed, scale)   # generate inputs
    w.setup()                       # build + load + analyze + warm-up
    w.run(timer)                    # the timed region, one op at a time
    w.check()                       # oracles, outside the timed region
    w.counts()                      # per-layer counts over the timed region

One OS thread, no sockets; "terminals" are simulated cursors, and every
workload is a closed loop: a terminal issues its next op only after the
previous one returned, earliest simulated cursor first.

Sizes: one ``run`` is 4-22 s of CPU on a quiet core at ``scale=1`` and
never fewer than 1 000 ops; ``--smoke`` runs ``scale=0.05``.
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.mpp import MppCluster
from repro.common.errors import SerializationConflict
from repro.geo import (GeoCluster, GeoConfig, GeoMode, load_tpcc_geo,
                       warehouses_homed_at, warehouses_hosted_at)
from repro.htap.manager import HtapConfig
from repro.sql.engine import SqlEngine
from repro.wlm import Priority, ResourceGroup, WlmConfig
from repro.workloads.reporting import REGIONS, ReportingWorkload
from repro.workloads.tpcc_lite import TpccLiteWorkload, load_tpcc

# The second half of ``report_cached``'s catalog: the predicate, sort and
# join shapes of ``benchmarks/bench_exec_speedup.py`` (read, never run).
from bench_exec_speedup import QUERIES as EXEC_QUERIES

import oracle

NUM_DNS = 4
#: TPC-C's own Payment share.  At the workload's default of 0.5 the median
#: op sits on the edge between Payment (~100 us) and NewOrder (~270 us).
PAYMENT_WEIGHT = 0.43

#: Eight more report shapes, bringing the catalog to 29 distinct texts.  With an odd
#: number of equally repeated texts, p50, p95 and p99 each fall inside one
#: text's block of the sorted latencies (the 15th, 28th and 29th), at least
#: 1.5% of the ops away from its edge; with 22 texts p95 sat 0.45% from the
#: edge between a 14 ms report and a 34 ms one and flipped from run to run.
MORE_REPORTS = (
    "select status, count(*), sum(amount) from sales "
    "group by status order by status",
    "select region, status, count(*) from sales "
    "group by region, status order by region, status",
    "select count(*) from sales where amount > 250",
    "select cust_id, count(*) n from sales where region = 'south' "
    "group by cust_id order by n desc, cust_id limit 5",
    "select c.segment, count(*) from sales s, customers c "
    "where s.cust_id = c.cust_id and s.amount > 400 "
    "group by c.segment order by c.segment",
    "select region, min(amount), max(amount) from sales "
    "group by region order by region",
    "select sale_id, amount from sales "
    "where status = 'gold' and amount > 480 order by sale_id",
    "select region, count(*) from sales where amount > 400 "
    "group by region order by region",
)


class OpTimer:
    """Per-op host-clock timing, plus the op's root span when tracing.

    Host time is ``process_time_ns`` of the single driver thread: wall
    clock on a shared box swings with the neighbours, CPU time does not.
    """

    def __init__(self, rec=None):
        self.rec = rec
        self.classes: List[str] = []
        self.host_ns: List[int] = []
        self.sim_us: List[Optional[float]] = []
        self._t0 = 0

    def begin(self, op_id: Optional[int] = None) -> None:
        rec = self.rec
        if rec is not None:
            rec.op_id = len(self.classes) if op_id is None else op_id
            rec.enter("driver")
        self._t0 = time.process_time_ns()

    def elapsed(self) -> int:
        """Close the op opened by :meth:`begin`; returns its CPU ns."""
        ns = time.process_time_ns() - self._t0
        if self.rec is not None:
            self.rec.leave()
        return ns

    def background(self) -> None:
        """Close timed work that belongs to no single op (the geo epoch
        machine's steps): in ops_per_s, in no op's latency."""
        self.elapsed()

    def end(self, cls: str, sim_us: Optional[float]) -> None:
        ns = self.elapsed()
        self.classes.append(cls)
        self.host_ns.append(ns)
        self.sim_us.append(sim_us)


@dataclass
class RunResult:
    """What one timed region produced, beyond the per-op log."""

    sim_makespan_us: float
    sim_ops: int                 # ops counted against the makespan
    failed: int = 0              # ops that raised, were refused or gave up
    freshness_lag_max_us: Optional[float] = None     # htap_mixed only


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale

    def n(self, full: int) -> int:
        return max(1, round(full * self.scale))

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, timer: OpTimer) -> RunResult:
        raise NotImplementedError

    def check(self) -> List[str]:
        raise NotImplementedError

    def result_digest(self) -> object:
        """Deterministic summary of the program's outputs (fingerprint)."""
        raise NotImplementedError

    def counts(self) -> Dict[str, object]:
        raise NotImplementedError


# -- shared pieces ------------------------------------------------------------

def _flat(cluster: MppCluster) -> Dict[str, float]:
    return dict(cluster.obs.metrics.snapshot()[1])


def _cluster_counters(cluster: MppCluster) -> Dict[str, float]:
    """Counters read from one cluster's public state."""
    flat = _flat(cluster)
    keys = ("htap.merges", "htap.merge_rows", "htap.merge_bytes",
            "htap.scans_frozen", "htap.scans_composed", "htap.cold_rebuilds",
            "snapshot.upgrades", "snapshot.downgrades", "txn.commit",
            "txn.commit.multi_shard", "txn.abort", "wlm.admitted",
            "exec.rows")
    out = {key: flat.get(key, 0.0) for key in keys}
    out["gtm.requests"] = float(cluster.gtm.stats.total_requests)
    out["wlm.queue_wait_us"] = (cluster.obs.waits.total_us("wlm_queue")
                                if cluster.wlm is not None else 0.0)
    return out


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0.0) for key in after}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _cluster_counts(delta: Dict[str, float], cluster: MppCluster,
                    horizon_us: float) -> Dict[str, object]:
    """The per-layer counts every single-cluster workload reports, plus
    the name of the busiest simulated resource under ``net.bottleneck``."""
    utilization = cluster.resources.report(horizon_us) if horizon_us > 0 else {}
    busiest = max(utilization, key=utilization.get, default="")
    return {
        "net.bottleneck": busiest,
        "htap.merges": delta["htap.merges"],
        "htap.merge_rows": delta["htap.merge_rows"],
        "htap.merge_bytes_per_row": _ratio(delta["htap.merge_bytes"],
                                           delta["htap.merge_rows"]),
        "htap.scans_frozen": delta["htap.scans_frozen"],
        "htap.scans_composed": delta["htap.scans_composed"],
        "htap.cold_rebuilds": delta["htap.cold_rebuilds"],
        "core.gtm.requests_per_txn": _ratio(delta["gtm.requests"],
                                            delta["txn.commit"]),
        "core.merge.upgrades": delta["snapshot.upgrades"],
        "core.merge.downgrades": delta["snapshot.downgrades"],
        "cluster.txn.multi_shard_frac": _ratio(
            delta["txn.commit.multi_shard"], delta["txn.commit"]),
        "cluster.txn.conflict_retries": delta["txn.abort"],
        "wlm.admitted": delta["wlm.admitted"],
        "wlm.queue_wait_us": delta["wlm.queue_wait_us"],
        "net.bottleneck_util": max(utilization.values(), default=0.0),
    }


def _load(cluster: MppCluster, table: str, rows: Sequence[dict]) -> None:
    """Bulk load through the Session API (the cheap, honest path: SQL
    ``INSERT ... VALUES`` costs ~15x more per row and measures the parser)."""
    txn = cluster.session().begin(multi_shard=True)
    for row in rows:
        txn.insert(table, row)
    txn.commit()


def _tpcc_class(spec) -> str:
    if spec.kind == "payment":
        return "payment"
    return "new_order_ms" if spec.multi_shard else "new_order"


class _Terminal:
    """A pre-generated TPC-C-lite transaction stream for one terminal."""

    def __init__(self, workload: TpccLiteWorkload, home: int, offset: int,
                 count: int):
        stream = workload.stream(home_warehouse=home, seed_offset=offset)
        self.home = home
        self.specs = [next(stream) for _ in range(count)]
        self.facts = [oracle.probe_spec(spec) for spec in self.specs]
        self.next = 0

    def take(self):
        index = self.next
        self.next += 1
        return self.specs[index], self.facts[index]


def _run_tpcc(session, spec) -> bool:
    """One transaction with the Session API's conflict retry."""
    try:
        session.run_transaction(spec.body, multi_shard=spec.multi_shard)
        return True
    except SerializationConflict:
        return False


# -- oltp_tpcc ----------------------------------------------------------------

class OltpTpcc(Workload):
    name = "oltp_tpcc"
    why = ("the paper's Fig. 3 traffic: TPC-C-lite through Session.begin/"
           "commit at 10% multi-shard; txn, 2PC, GTM, merge and storage do "
           "all the work and no SQL layer runs")

    WAREHOUSES = 16
    TERMINALS = 16
    TXNS_PER_TERMINAL = 1000
    WARMUP_PER_TERMINAL = 20
    MULTI_SHARD_FRACTION = 0.1

    def __init__(self, seed: int, scale: float = 1.0, obs_enabled: bool = True):
        super().__init__(seed, scale)
        self.obs_enabled = obs_enabled
        self.per_terminal = self.n(self.TXNS_PER_TERMINAL)
        workload = TpccLiteWorkload(
            num_warehouses=self.WAREHOUSES,
            multi_shard_fraction=self.MULTI_SHARD_FRACTION, seed=seed,
            payment_weight=PAYMENT_WEIGHT)
        self.terminals = [
            _Terminal(workload, i % self.WAREHOUSES, i,
                      self.WARMUP_PER_TERMINAL + self.per_terminal)
            for i in range(self.TERMINALS)]
        self.committed: List[oracle.TxnFacts] = []

    def setup(self) -> None:
        self.cluster = MppCluster(num_dns=NUM_DNS,
                                  obs_enabled=self.obs_enabled)
        load_tpcc(self.cluster, num_warehouses=self.WAREHOUSES,
                  seed=self.seed)
        self.sessions = [self.cluster.session(track_costs=True)
                         for _ in self.terminals]
        self._drive(OpTimer(), self.WARMUP_PER_TERMINAL)

    def _horizon_us(self) -> float:
        return max(self.cluster.resources.max_busy_us(),
                   max(s.now_us for s in self.sessions))

    def _drive(self, timer: OpTimer, per_terminal: int) -> int:
        """Earliest-cursor-first over the terminals; returns failed ops."""
        obs = self.cluster.obs
        failed = 0
        heap = [(session.now_us, i, per_terminal)
                for i, session in enumerate(self.sessions)]
        heapq.heapify(heap)
        while heap:
            timer.begin()       # scheduling is the driver's share of the op
            _, index, remaining = heapq.heappop(heap)
            session = self.sessions[index]
            spec, facts = self.terminals[index].take()
            start_us = session.now_us
            ok = _run_tpcc(session, spec)
            if obs is not None:
                obs.advance_to(session.now_us)
            timer.end(_tpcc_class(spec), session.now_us - start_us)
            if ok:
                self.committed.append(facts)
            else:
                failed += 1
            if remaining > 1:
                heapq.heappush(heap, (session.now_us, index, remaining - 1))
        return failed

    def run(self, timer: OpTimer) -> RunResult:
        self._before = (_cluster_counters(self.cluster)
                        if self.obs_enabled else None)
        start_us = self._horizon_us()
        failed = self._drive(timer, self.per_terminal)
        self._makespan_us = self._horizon_us() - start_us
        return RunResult(self._makespan_us, len(timer.classes) - failed,
                         failed)

    def check(self) -> List[str]:
        return oracle.check_tpcc(oracle.cluster_reader(self.cluster),
                                 self.committed, range(self.WAREHOUSES))

    def result_digest(self) -> object:
        read = oracle.cluster_reader(self.cluster)
        return [oracle.canonical(tuple(row[c] for c in sorted(row))
                                 for row in read(table))
                for table in ("warehouse", "district", "orders")]

    def counts(self) -> Dict[str, object]:
        if not self.obs_enabled:
            return {}           # the counters live in the telemetry
        delta = _delta(_cluster_counters(self.cluster), self._before)
        return _cluster_counts(delta, self.cluster, self._horizon_us())


# -- SQL workloads --------------------------------------------------------------

class _EngineTally:
    """What the SQL engine's public results and plan cache say about the
    statements run since the tally was made."""

    def __init__(self, engine: SqlEngine):
        self.engine = engine
        cache = engine.plan_cache
        self._cache_before = (cache.hits, cache.probes)
        self.captures = 0
        self.rows_out = 0
        self.batches = 0

    def add(self, result) -> None:
        profile = result.profile
        if profile is not None:
            self.rows_out += profile.output_rows
            self.batches += profile.total_batches
        else:
            self.rows_out += result.rowcount
        if result.capture is not None:
            self.captures += result.capture.captured

    def counts(self) -> Dict[str, float]:
        cache = self.engine.plan_cache
        hits = cache.hits - self._cache_before[0]
        probes = cache.probes - self._cache_before[1]
        return {
            "sql.plancache.hit_rate": _ratio(hits, probes),
            "learnopt.captures": float(self.captures),
            "learnopt.store_entries": float(len(self.engine.plan_store)),
            "exec.rows_out": float(self.rows_out),
            "exec.batches": float(self.batches),
        }


class _SqlWorkload(Workload):
    """Shared by the two workloads that go through ``SqlEngine.execute``."""

    #: (table, sqlite column definitions) for the mirror.
    MIRROR_TABLES: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()

    #: The program's own DDL for the same tables.
    DDL: Tuple[str, ...] = ()

    def _build(self) -> None:
        """Create ``DDL``, load ``self.data`` (table -> rows), analyze."""
        self.cluster = MppCluster(num_dns=NUM_DNS)
        self.engine = SqlEngine(self.cluster)
        for statement in self.DDL:
            self.engine.execute(statement)
        for table, rows in self.data.items():
            _load(self.cluster, table, rows)
        self.engine.analyze()
        #: (sql, class, answer) for every statement run, warm-up included:
        #: the mirror has to replay state changes in order.
        self.history: List[Tuple[str, str, object]] = []
        self.tally = _EngineTally(self.engine)

    def _execute(self, timer: OpTimer, sql: str, cls: str) -> bool:
        """One statement as one op; False when the program raised."""
        timer.begin()
        try:
            result = self.engine.execute(sql)
        except Exception as exc:  # the op failed; the run goes on
            timer.end(cls, None)
            self.history.append((sql, cls, f"raised {exc!r}"))
            return False
        profile = result.profile
        sim_us = (profile.elapsed_time_us + profile.queue_time_us
                  if profile is not None else None)
        timer.end(cls, sim_us)
        self.history.append(
            (sql, cls, result.rows if profile is not None else result.rowcount))
        self.tally.add(result)
        return True

    def _run_statements(self, timer: OpTimer,
                        statements: Sequence[Tuple[str, str]]) -> RunResult:
        self._before = _cluster_counters(self.cluster)
        self.tally = _EngineTally(self.engine)
        failed = 0
        for cls, sql in statements:
            if not self._execute(timer, sql, cls):
                failed += 1
        simulated = [s for s in timer.sim_us if s is not None]
        self._makespan_us = sum(simulated)
        return RunResult(self._makespan_us, len(simulated), failed)

    def _mirror(self) -> oracle.SqliteMirror:
        mirror = oracle.SqliteMirror()
        for table, columns in self.MIRROR_TABLES:
            mirror.create(table, columns)
            mirror.load(table, [tuple(row.values())
                                for row in self.data[table]])
        return mirror

    def _check_history(self, cache: Optional[dict]) -> List[str]:
        mirror = self._mirror()
        try:
            wrong = oracle.check_sql(
                mirror, [sql for sql, _cls, _got in self.history],
                [got for _sql, _cls, got in self.history], cache)
        finally:
            mirror.close()
        return [f"statement {i} disagrees with sqlite: {self.history[i][0]}"
                for i in wrong]

    def result_digest(self) -> object:
        return [got if isinstance(got, (int, str)) else oracle.canonical(got)
                for _sql, _cls, got in self.history]

    def counts(self) -> Dict[str, object]:
        delta = _delta(_cluster_counters(self.cluster), self._before)
        out = _cluster_counts(delta, self.cluster, self._makespan_us)
        out.update(self.tally.counts())
        out["exec.rows_examined_per_row_out"] = _ratio(delta["exec.rows"],
                                                       self.tally.rows_out)
        return out


class SqlAdhoc(_SqlWorkload):
    name = "sql_adhoc"
    why = ("every statement text is unique, so lexer, parser, binder and "
           "planner run on every op and the plan cache only costs; point "
           "reads sit beside inserts, updates and deletes on one row table")

    ACCT_ROWS = 2000
    OWNERS = 200
    #: Exact class counts per run (not sampled), so the percentiles fall in
    #: the same class on every seed: p50 in the point statements, p95 and
    #: p99 in the joins (8% of the ops; at 5% p95 would sit on the edge).
    MIX = (("point_select", 420), ("insert", 228), ("update", 228),
           ("delete", 228), ("adhoc_join", 96))
    WARMUP = (("point_select", 6), ("insert", 4), ("update", 4),
              ("delete", 4), ("adhoc_join", 2))
    MIRROR_TABLES = (
        ("acct", ("id integer primary key", "owner_id integer",
                  "branch text", "balance double")),
        ("owners", ("owner_id integer primary key", "tier text")),
    )
    DDL = (
        "create table acct (id int primary key, owner_id int, branch text, "
        "balance double)",
        "create table owners (owner_id int primary key, tier text)",
    )

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        rng = random.Random(seed)
        self.data = {
            "acct": [{"id": i, "owner_id": rng.randrange(self.OWNERS),
                      "branch": f"b{rng.randrange(8)}",
                      "balance": round(rng.uniform(0.0, 1000.0), 2)}
                     for i in range(self.ACCT_ROWS)],
            "owners": [{"owner_id": i,
                        "tier": "gold" if rng.random() < 0.1 else "std"}
                       for i in range(self.OWNERS)],
        }
        self._live = list(range(self.ACCT_ROWS))
        self._next_id = self.ACCT_ROWS
        self._serial = 0
        self.warmup = self._generate(rng, self.WARMUP)
        self.statements = self._generate(
            rng, [(cls, self.n(count)) for cls, count in self.MIX])

    def _generate(self, rng: random.Random, mix) -> List[Tuple[str, str]]:
        """Statements over a model of the table: reads, updates and deletes
        always name a live id, so no op fails and none is a no-op."""
        classes = [cls for cls, count in mix for _ in range(count)]
        rng.shuffle(classes)
        live = self._live
        out = []
        for cls in classes:
            self._serial += 1
            tag = self._serial
            if cls == "insert":
                new_id = self._next_id
                self._next_id += 1
                live.append(new_id)
                sql = (f"insert into acct values ({new_id}, "
                       f"{rng.randrange(self.OWNERS)}, "
                       f"'b{rng.randrange(8)}', "
                       f"{round(rng.uniform(0.0, 1000.0), 2)})")
            elif cls == "adhoc_join":
                sql = ("select o.tier, count(*), sum(a.balance) "
                       "from acct a, owners o "
                       "where a.owner_id = o.owner_id "
                       f"and a.balance > {100 + rng.randrange(300)}.{tag:05d} "
                       "group by o.tier order by o.tier")
            else:
                slot = rng.randrange(len(live))
                key = live[slot]
                if cls == "point_select":
                    sql = (f"select id, owner_id, balance, {tag} "
                           f"from acct where id = {key}")
                elif cls == "update":
                    sql = (f"update acct set balance = balance + {tag}.25 "
                           f"where id = {key}")
                else:
                    live[slot] = live[-1]
                    live.pop()
                    sql = f"delete from acct where id = {key}"
            out.append((cls, sql))
        return out

    def setup(self) -> None:
        self._build()
        timer = OpTimer()
        for cls, sql in self.warmup:
            self._execute(timer, sql, cls)

    def run(self, timer: OpTimer) -> RunResult:
        return self._run_statements(timer, self.statements)

    def check(self) -> List[str]:
        return self._check_history(cache=None)


class ReportCached(_SqlWorkload):
    name = "report_cached"
    why = ("canned reports (Sec. II-C): 29 texts repeated, so the working "
           "set fits the plan cache and parser, binder and planner are "
           "bypassed; exec and frozen column scans do the work")

    SALES_ROWS = 32_000
    CUSTOMERS = 1600
    REPEATS = 35                 # x 29 texts = 1 015 queries
    WARMUP_ROUNDS = 2
    MIRROR_TABLES = (
        ("sales", ("sale_id integer primary key", "cust_id integer",
                   "region text", "status text", "amount double")),
        ("customers", ("cust_id integer primary key", "segment text")),
    )
    DDL = (
        "create table sales (sale_id int primary key, cust_id int, "
        "region text, status text, amount double) "
        "with (orientation = column)",
        "create table customers (cust_id int primary key, segment text)",
    )

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        rng = random.Random(seed)
        customers = self.n(self.CUSTOMERS)
        sales = []
        for i in range(self.n(self.SALES_ROWS)):
            region = REGIONS[i % len(REGIONS)]
            gold = rng.random() < (0.9 if region == "north" else 0.02)
            sales.append({
                "sale_id": i, "cust_id": rng.randrange(customers),
                "region": region, "status": "gold" if gold else "silver",
                "amount": round(rng.uniform(1.0, 500.0), 2)})
        self.data = {
            "sales": sales,
            "customers": [{"cust_id": i,
                           "segment": "vip" if i % 20 == 0 else "mass"}
                          for i in range(customers)],
        }
        # One text is in both of the first two sets.
        self.catalog = list(dict.fromkeys(
            ReportingWorkload().instances() + EXEC_QUERIES
            + list(MORE_REPORTS)))
        # Every text the same number of times, in seeded order: a sampled
        # stream would make the share of the 30x-heavier join reports, and
        # with it ops_per_s, a property of the seed.
        stream = self.catalog * self.n(self.REPEATS)
        rng.shuffle(stream)
        self.statements = [("report", sql) for sql in stream]

    def setup(self) -> None:
        self._build()
        # Fold the load into frozen column chunks, as a nightly merge would
        # have: the read-only stream then scans them as they are.
        self.cluster.htap.tick()
        timer = OpTimer()
        for _ in range(self.WARMUP_ROUNDS):
            for sql in self.catalog:
                self._execute(timer, sql, "report")

    def run(self, timer: OpTimer) -> RunResult:
        return self._run_statements(timer, self.statements)

    def check(self) -> List[str]:
        return self._check_history(cache={})


# -- htap_mixed -----------------------------------------------------------------

class HtapMixed(Workload):
    name = "htap_mixed"
    why = ("TPC-C-lite writes and reporting scans hit the same delta/merge/"
           "compose state, so a scan-side gain that slows merges or commits "
           "(or the reverse) shows in one run")

    WAREHOUSES = 8
    TXNS = 2400
    WARMUP_TXNS = 40
    SCAN_EVERY = 8
    MERGE_INTERVAL_US = 30_000.0
    COLUMN_TABLES = ("orders", "order_line")
    SCANS = (
        "select count(*) from order_line",
        "select w_id, count(*), sum(ol_amount) from order_line group by w_id",
        "select w_id, sum(o_ol_cnt) from orders group by w_id",
        "select d_id, count(*), sum(ol_amount) from orders, order_line "
        "where orders.o_key = order_line.o_key group by d_id",
    )

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.txns = self.n(self.TXNS)
        workload = TpccLiteWorkload(num_warehouses=self.WAREHOUSES,
                                    multi_shard_fraction=0.1, seed=seed,
                                    payment_weight=PAYMENT_WEIGHT)
        total = self.WARMUP_TXNS + self.txns
        per_stream = -(-total // self.WAREHOUSES)
        self.streams = [_Terminal(workload, w, w, per_stream)
                        for w in range(self.WAREHOUSES)]
        #: ("txn", facts) and ("scan", which, rows), in issue order.
        self.events: List[tuple] = []
        self._issued = 0

    def setup(self) -> None:
        config = WlmConfig(groups=[
            ResourceGroup("oltp", slots=16, priority=Priority.HIGH,
                          queue_limit=4096),
            ResourceGroup("olap", slots=2, priority=Priority.LOW,
                          queue_limit=4096),
        ])
        self.cluster = MppCluster(
            num_dns=NUM_DNS, wlm_config=config,
            htap_config=HtapConfig(merge_interval_us=self.MERGE_INTERVAL_US))
        self.engine = SqlEngine(self.cluster)
        load_tpcc(self.cluster, num_warehouses=self.WAREHOUSES,
                  seed=self.seed, column_oriented=self.COLUMN_TABLES)
        self.session = self.cluster.session(track_costs=True)
        self.worst_lag_us = 0.0
        self.scan_sim_us = 0.0
        self.tally = _EngineTally(self.engine)
        self._drive(OpTimer(), self.WARMUP_TXNS)

    def _drive(self, timer: OpTimer, txns: int) -> int:
        cluster, session, engine = self.cluster, self.session, self.engine
        failed = 0
        for _ in range(txns):
            timer.begin()
            t = self._issued
            self._issued += 1
            spec, facts = self.streams[t % self.WAREHOUSES].take()
            start_us = session.now_us
            ticket = cluster.wlm.submit(group="oltp", now_us=start_us,
                                        tag=spec.kind)
            ok = _run_tpcc(session, spec)
            cluster.wlm.release(ticket, session.now_us)
            # The merge daemon runs on the terminal's thread: a tick is a
            # stall of the op it follows, which is how a slower merge shows
            # in lat_p95_us.
            cluster.obs.advance_to(session.now_us)
            now_us = cluster.obs.clock.now_us
            cluster.htap.maybe_tick(now_us)
            timer.end(_tpcc_class(spec), session.now_us - start_us)
            self.worst_lag_us = max(
                self.worst_lag_us, cluster.htap.max_freshness_lag_us(now_us))
            if ok:
                self.events.append(("txn", facts))
            else:
                failed += 1
            if (t + 1) % self.SCAN_EVERY == 0:
                which = (t // self.SCAN_EVERY) % len(self.SCANS)
                timer.begin()
                try:
                    result = engine.execute(self.SCANS[which], group="olap",
                                            arrival_us=now_us)
                except Exception as exc:  # the op failed; the run goes on
                    timer.end("scan", None)
                    self.events.append(("scan", which, f"raised {exc!r}"))
                    failed += 1
                    continue
                sim_us = (result.profile.elapsed_time_us
                          + result.profile.queue_time_us)
                timer.end("scan", sim_us)
                self.tally.add(result)
                self.scan_sim_us += sim_us
                self.events.append(("scan", which, result.rows))
        return failed

    def run(self, timer: OpTimer) -> RunResult:
        self._before = _cluster_counters(self.cluster)
        self.tally = _EngineTally(self.engine)
        self.worst_lag_us = 0.0
        self.scan_sim_us = 0.0
        start_us = self.session.now_us
        failed = self._drive(timer, self.txns)
        # Two simulated terminals, the oltp cursor and the olap one, run
        # side by side; the later of the two ends the run.
        self._makespan_us = max(self.session.now_us - start_us,
                                self.scan_sim_us)
        return RunResult(self._makespan_us, len(timer.classes) - failed,
                         failed, self.worst_lag_us)

    def check(self) -> List[str]:
        """Each mid-run scan against what the driver had committed by then,
        then the TPC-C conditions on the final state."""
        bad: List[str] = []
        orders = [0] * self.WAREHOUSES
        lines = [0] * self.WAREHOUSES
        committed = []
        for position, event in enumerate(self.events):
            if event[0] == "txn":
                facts = event[1]
                committed.append(facts)
                if facts.kind == "new_order":
                    orders[facts.w_id] += 1
                    lines[facts.w_id] += facts.lines
                continue
            _, which, rows = event
            if isinstance(rows, str):
                bad.append(f"scan at {position}: {rows}")
            elif not self._scan_ok(which, rows, orders, lines):
                bad.append(f"scan at {position} ({self.SCANS[which]!r}) "
                           f"returned {rows!r} with {sum(lines)} lines "
                           "committed")
        bad += oracle.check_tpcc(oracle.cluster_reader(self.cluster),
                                 committed, range(self.WAREHOUSES))
        cold = _flat(self.cluster).get("htap.cold_rebuilds", 0.0)
        if cold:
            bad.append(f"htap.cold_rebuilds = {cold:.0f}, expected 0")
        return bad

    @staticmethod
    def _scan_ok(which: int, rows, orders, lines) -> bool:
        if which == 0:
            return rows == [(sum(lines),)]
        if which == 1:
            return ({row[0]: row[1] for row in rows}
                    == {w: n for w, n in enumerate(lines) if n})
        if which == 2:
            return ({row[0]: row[1] for row in rows}
                    == {w: n for w, n in enumerate(lines) if orders[w]})
        return sum(row[1] for row in rows) == sum(lines)

    def result_digest(self) -> object:
        return [event[2] if isinstance(event[2], str)
                else oracle.canonical(event[2])
                for event in self.events if event[0] == "scan"]

    def counts(self) -> Dict[str, object]:
        delta = _delta(_cluster_counters(self.cluster), self._before)
        out = _cluster_counts(delta, self.cluster, self.session.now_us)
        out["freshness_lag_max_us"] = self.worst_lag_us
        # No exec.rows_examined_per_row_out here: the transactions' point
        # reads count into the data nodes' row counter beside the scans'.
        out.update(self.tally.counts())
        return out


# -- geo_commit -----------------------------------------------------------------

@dataclass
class _GeoOp:
    spec: object
    facts: oracle.TxnFacts
    index: int
    tries: int = 0
    host_ns: float = 0.0
    submit_us: Optional[float] = None
    handle: object = None
    sim_us: Optional[float] = None


class _GeoTerminal:
    """One client session homed at a warehouse's region, one op in flight."""

    def __init__(self, session, stream: _Terminal):
        self.session = session
        self.stream = stream
        self.op: Optional[_GeoOp] = None


class GeoCommit(Workload):
    name = "geo_commit"
    why = ("the only traffic through repro.geo: epoch-based multi-master "
           "commit over 3 regions with partial replication; every non-geo "
           "change must leave it unmoved")

    REGIONS = 3
    DNS_PER_REGION = 2
    REPLICATION_FACTOR = 2
    WAREHOUSES = 12              # one terminal each, 4 homed per region
    TXNS_PER_REGION = 1200
    WARMUP_PER_REGION = 16
    STEP_US = 20_000.0
    MAX_RETRIES = 3
    MULTI_SHARD_FRACTION = 0.2

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.per_region = self.n(self.TXNS_PER_REGION)
        workload = TpccLiteWorkload(
            num_warehouses=self.WAREHOUSES,
            multi_shard_fraction=self.MULTI_SHARD_FRACTION, seed=seed,
            payment_weight=PAYMENT_WEIGHT)
        # Each stream is long enough to serve its whole region alone;
        # setup asks the program which region homes which warehouse.
        count = self.per_region + self.WARMUP_PER_REGION
        self.streams = [_Terminal(workload, w, w, count)
                        for w in range(self.WAREHOUSES)]
        self.ops: List[_GeoOp] = []

    def setup(self) -> None:
        self.geo = GeoCluster(GeoConfig(
            num_regions=self.REGIONS, dns_per_region=self.DNS_PER_REGION,
            mode=GeoMode.GEOGAUSS,
            replication_factor=self.REPLICATION_FACTOR))
        load_tpcc_geo(self.geo, num_warehouses=self.WAREHOUSES,
                      seed=self.seed)
        self.terminals = [
            [_GeoTerminal(self.geo.session(region), self.streams[w])
             for w in warehouses_homed_at(self.geo, region, self.WAREHOUSES)]
            for region in range(self.REGIONS)]
        self.now_us = 0.0
        self._drive(OpTimer(), self.WARMUP_PER_REGION)

    def _drive(self, timer: OpTimer, per_region: int) -> None:
        """Closed loop per terminal: a terminal submits its next transaction
        (or retries an aborted one) only once its previous one has settled,
        then the epoch machine steps 20 ms.

        Not the pipelined batches of ``bench_geo_commit.py``: a session
        that submits while its previous transaction is pending reads that
        pending write, and if the earlier one then aborts at certification
        the later one commits with the aborted amount in it (w_ytd !=
        sum(d_ytd)); this benchmark's oracle caught exactly that.
        """
        geo = self.geo
        left = [per_region] * self.REGIONS
        flying: List[_GeoTerminal] = []
        rounds = 0
        while any(left) or flying:
            rounds += 1
            if rounds > 8 * per_region + 64:
                break                       # stalled: check() reports it
            for region, terminals in enumerate(self.terminals):
                for terminal in terminals:
                    op = terminal.op
                    if op is None:
                        if not left[region]:
                            continue
                        left[region] -= 1
                        spec, facts = terminal.stream.take()
                        op = terminal.op = _GeoOp(spec, facts, len(self.ops))
                        self.ops.append(op)
                    elif op.handle.status != "aborted":
                        continue            # still in flight
                    session = terminal.session
                    timer.begin(op.index)
                    if op.submit_us is None:
                        op.submit_us = session.now_us
                    op.handle = session.run_transaction(
                        op.spec.body, multi_shard=op.spec.multi_shard)
                    op.host_ns += timer.elapsed()
                    if terminal not in flying:
                        flying.append(terminal)
            timer.begin(len(self.ops) - 1)
            self.now_us += self.STEP_US
            geo.step_to(self.now_us)
            for terminals in self.terminals:
                for terminal in terminals:
                    terminal.session.wait_until(self.now_us)
            # A step serves every terminal at once: its CPU is in ops_per_s,
            # not in any one op's latency.
            timer.background()
            still = []
            for terminal in flying:
                op = terminal.op
                status = op.handle.status
                if status == "committed":
                    op.sim_us = op.handle.ack_us - op.submit_us
                    terminal.op = None
                elif status == "aborted" and op.tries >= self.MAX_RETRIES:
                    terminal.op = None      # gave up: sim_us stays None
                else:
                    if status == "aborted":
                        op.tries += 1
                    still.append(terminal)
            flying = still
        timer.begin(len(self.ops) - 1)
        self.now_us = max(self.now_us, geo.drain())
        timer.background()

    def run(self, timer: OpTimer) -> RunResult:
        self._before = self._geo_counters()
        start_us = self.now_us
        first = len(self.ops)
        self._drive(timer, self.per_region)
        ops = self.ops[first:]
        for op in ops:
            timer.classes.append("geo_txn")
            timer.host_ns.append(int(op.host_ns))
            timer.sim_us.append(op.sim_us)
        failed = sum(1 for op in ops if op.sim_us is None)
        self._makespan_us = self.now_us - start_us
        self._retried = sum(1 for op in ops if op.tries)
        self._timed_ops = len(ops)
        return RunResult(self._makespan_us, len(ops) - failed, failed)

    def check(self) -> List[str]:
        bad: List[str] = []
        try:
            self.geo.assert_converged()
        except AssertionError as exc:
            bad.append(str(exc))
        pending = sum(1 for op in self.ops if op.handle.status == "pending")
        if pending:
            bad.append(f"{pending} geo transactions left pending")
        committed = [op.facts for op in self.ops
                     if op.handle.status == "committed"]
        for region in range(self.REGIONS):
            hosted = warehouses_hosted_at(self.geo, region, self.WAREHOUSES)
            bad += oracle.check_tpcc(
                oracle.cluster_reader(self.geo.regions[region]), committed,
                hosted, where=f"region {region}: ")
        return bad

    def result_digest(self) -> object:
        return [(op.handle.status, op.tries) for op in self.ops]

    def _geo_counters(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for region in self.geo.regions:
            for key, value in _cluster_counters(region).items():
                out[key] = out.get(key, 0.0) + value
        out["geo.wan_messages"] = float(self.geo.fabric.messages_sent)
        out["geo.wan_bytes"] = float(self.geo.fabric.bytes_sent)
        out["geo.certified_epochs"] = float(
            len({row[0] for row in self.geo.epoch_rows()}))
        return out

    def counts(self) -> Dict[str, object]:
        delta = _delta(self._geo_counters(), self._before)
        utilization = {
            f"region{index}.{name}": value
            for index, region in enumerate(self.geo.regions)
            for name, value in region.resources.report(self.now_us).items()}
        out = _cluster_counts(delta, self.geo.regions[0], 0.0)
        out.update({
            "net.bottleneck": max(utilization, key=utilization.get),
            "net.bottleneck_util": max(utilization.values()),
            "geo.wan_messages": delta["geo.wan_messages"],
            "geo.wan_bytes": delta["geo.wan_bytes"],
            "geo.certified_epochs": delta["geo.certified_epochs"],
            "geo.retry_frac": _ratio(self._retried, self._timed_ops),
        })
        return out


WORKLOADS = {cls.name: cls for cls in
             (OltpTpcc, SqlAdhoc, ReportCached, HtapMixed, GeoCommit)}
