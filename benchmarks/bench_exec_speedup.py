"""Executor speedup: batches + column store + plan cache vs row bodies.

The same canned reporting stream (the paper's Sec. II-C workload shape:
repeated template instances over a fact table) runs on two engines —

* **fast**: the engine as shipped: ``sales`` is column-oriented, every
  operator that has a batch body streams numpy column batches, and the
  prepared-statement plan cache lets repeats skip lexer/parser/binder/
  planner;
* **base**: the row reference: ``sales`` is row-oriented (the paper's
  row-store side), a no-op stands in for ``repro.sql.engine.
  enable_batches`` so no plan is activated and every operator runs its
  row-at-a-time body (row tables batch too once activated), and
  ``plan_cache_size=0`` replans every statement.

Query results are identical either way (columns, rows, simulated elapsed
time) — asserted on every run.  The headline is real wall-clock (process
CPU) throughput; CI gates both the speedup floor and the plan cache's
steady-state hit rate.

Methodology mirrors bench_obs_overhead.py: process_time, GC pinned outside
timed regions, strictly interleaved fast/base runs, ratio of minimums.

Run:  PYTHONPATH=src python benchmarks/bench_exec_speedup.py
Writes ``BENCH_exec_speedup.json`` next to this file (under ``out/``).
"""

import contextlib
import gc
import json
import statistics
import time
from pathlib import Path

import repro.sql.engine as engine_mod
from repro.cluster.mpp import MppCluster
from repro.common.rng import make_rng
from repro.sql.engine import SqlEngine

NUM_DNS = 2
SALES_ROWS = 8000
CUSTOMERS = 400
#: Untimed rounds first: the learning loop converges (captures stop, plans
#: pin in the cache) and both code paths warm up.
WARMUP_ROUNDS = 2
TIMED_ROUNDS = 10
PAIRS = 5
#: CI gates (ISSUE: >= 5x throughput at >= 90% steady-state hit rate).
MIN_SPEEDUP = 5.0
MIN_HIT_RATE = 0.9

OUT_PATH = Path(__file__).parent / "out" / "BENCH_exec_speedup.json"

REGIONS = ("north", "south", "east", "west")

#: The canned catalog.  Deliberately mixed: simple column-vs-constant
#: predicates, complex OR/arithmetic ones (all compiled batch
#: expressions), group-bys, a full no-limit sort, and a fact-dimension join.
QUERIES = [
    "select region, count(*), sum(amount) from sales "
    "where status = 'gold' group by region order by region",
    "select count(*) from sales where region = 'north' and status = 'gold'",
    "select region, sum(amount) from sales "
    "where amount > 50 or status = 'gold' group by region order by region",
    "select status, count(*) from sales "
    "where amount * 2 > 100 and region <> 'east' "
    "group by status order by status",
    "select sale_id, amount from sales where amount - cust_id > 400 "
    "order by amount desc, sale_id",
    "select c.segment, sum(s.amount) from sales s, customers c "
    "where s.cust_id = c.cust_id and s.amount > 450 "
    "group by c.segment order by c.segment",
]


def build_engine(fast: bool) -> SqlEngine:
    cluster = MppCluster(num_dns=NUM_DNS)
    engine = SqlEngine(cluster, plan_cache_size=64 if fast else 0)
    rng = make_rng(31)
    engine.execute(
        "create table sales (sale_id int primary key, cust_id int, "
        "region text, status text, amount double)"
        + (" with (orientation = column)" if fast else ""))
    engine.execute(
        "create table customers (cust_id int primary key, segment text)")
    values = []
    for i in range(SALES_ROWS):
        region = REGIONS[i % len(REGIONS)]
        gold = rng.random() < (0.9 if region == "north" else 0.02)
        values.append(
            f"({i}, {rng.randrange(CUSTOMERS)}, '{region}', "
            f"'{'gold' if gold else 'silver'}', {rng.uniform(1, 500):.2f})")
    engine.execute("insert into sales values " + ",".join(values))
    engine.execute("insert into customers values " + ",".join(
        f"({i}, '{'vip' if i % 20 == 0 else 'mass'}')"
        for i in range(CUSTOMERS)))
    engine.analyze()
    # Merge the load into frozen column chunks: the read-only timed stream
    # then scans the frozen store as-is instead of recomposing the full
    # delta on every query (which would dominate both modes).
    cluster.htap.tick()
    return engine


def _round(engine: SqlEngine):
    """One pass over the catalog; returns the simulation fingerprint."""
    fingerprint = []
    for sql in QUERIES:
        result = engine.execute(sql)
        fingerprint.append((
            tuple(result.columns),
            tuple(result.rows),
            result.profile.elapsed_time_us
            if result.profile is not None else None,
        ))
    return fingerprint


@contextlib.contextmanager
def row_reference():
    """No plan is activated inside: every operator runs its row body."""
    activate = engine_mod.enable_batches
    engine_mod.enable_batches = lambda root: None
    try:
        yield
    finally:
        engine_mod.enable_batches = activate


def one_run(fast: bool):
    with contextlib.nullcontext() if fast else row_reference():
        engine = build_engine(fast)
        for _ in range(WARMUP_ROUNDS):
            fingerprint = _round(engine)
        hits0, probes0 = engine.plan_cache.hits, engine.plan_cache.probes
        gc.collect()
        gc.disable()
        try:
            t0 = time.process_time()
            for _ in range(TIMED_ROUNDS):
                timed_fingerprint = _round(engine)
            elapsed_s = time.process_time() - t0
        finally:
            gc.enable()
    assert timed_fingerprint == fingerprint, \
        "read-only rounds diverged within one engine"
    probes = engine.plan_cache.probes - probes0
    hit_rate = ((engine.plan_cache.hits - hits0) / probes) if probes else 0.0
    return elapsed_s, fingerprint, hit_rate


def main() -> None:
    _, warm_fast, _ = one_run(True)
    _, warm_base, _ = one_run(False)
    assert warm_fast == warm_base, \
        "the shipped engine and the row reference disagree"
    baseline = warm_base

    timings = {"fast": [], "base": []}
    hit_rates = []
    for _ in range(PAIRS):
        for key, fast in (("fast", True), ("base", False)):
            elapsed_s, fingerprint, hit_rate = one_run(fast)
            timings[key].append(elapsed_s)
            assert fingerprint == baseline, \
                "the shipped engine and the row reference disagree"
            if fast:
                hit_rates.append(hit_rate)

    fast_min = min(timings["fast"])
    base_min = min(timings["base"])
    fast_med = statistics.median(timings["fast"])
    base_med = statistics.median(timings["base"])
    speedup = base_min / fast_min
    hit_rate = min(hit_rates)
    queries = TIMED_ROUNDS * len(QUERIES)
    report = {
        "benchmark": "exec_speedup",
        "config": {
            "num_dns": NUM_DNS,
            "sales_rows": SALES_ROWS,
            "queries_per_round": len(QUERIES),
            "timed_rounds": TIMED_ROUNDS,
            "warmup_rounds": WARMUP_ROUNDS,
            "pairs": PAIRS,
            "timer": "process_time",
        },
        "queries_timed": queries,
        "min_s_fast": fast_min,
        "min_s_base": base_min,
        "median_s_fast": fast_med,
        "median_s_base": base_med,
        "speedup_ratio": speedup,
        "speedup_ratio_medians": base_med / fast_med,
        "fast_qps": queries / fast_min,
        "base_qps": queries / base_min,
        "plan_cache_hit_rate": hit_rate,
        "min_speedup": MIN_SPEEDUP,
        "min_hit_rate": MIN_HIT_RATE,
        "sim_results_identical": True,
    }
    OUT_PATH.parent.mkdir(exist_ok=True)
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"fast: {fast_min * 1e3:8.1f} ms min, {fast_med * 1e3:8.1f} ms "
          f"median ({report['fast_qps']:.0f} q/s)")
    print(f"base: {base_min * 1e3:8.1f} ms min, {base_med * 1e3:8.1f} ms "
          f"median ({report['base_qps']:.0f} q/s)")
    print(f"speedup: {speedup:.2f}x (mins), "
          f"{report['speedup_ratio_medians']:.2f}x (medians); "
          f"plan cache hit rate {hit_rate:.3f}")
    print(f"wrote {OUT_PATH}")
    assert speedup >= MIN_SPEEDUP, (
        f"executor speedup {speedup:.2f}x is below the {MIN_SPEEDUP}x gate")
    assert hit_rate >= MIN_HIT_RATE, (
        f"plan cache hit rate {hit_rate:.3f} is below {MIN_HIT_RATE}")


if __name__ == "__main__":
    main()
