"""Ablation — hybrid row-column storage and compression.

FI-MPPDB "supports both row and columnar storage formats" with "data
compression" and a "vectorized execution engine".  This ablation runs one
scan-heavy reporting aggregate through ``SqlEngine`` on the same rows held
two ways, and measures:

* wall-clock speedup of the column table's lane path — the compressed
  frozen chunks' decoded vectors, filtered and folded by the lane kernels
  of :mod:`repro.exec.batch`, plan cache warm — over the row reference on
  a row table (every operator runs its row body; see
  ``bench_exec_speedup.row_reference``): the vectorization claim;
* the compression ratio of the frozen chunks' codecs against plain rows ×
  columns (the compression claim), and that both paths return the same
  sum to the bit.
"""

import time

import pytest

from benchmarks.bench_exec_speedup import row_reference
from repro.cluster.mpp import MppCluster
from repro.common.rng import ZipfGenerator, make_rng
from repro.sql.engine import SqlEngine

ROWS = 60_000
NUM_DNS = 2
COLUMNS = ("id int primary key, ts timestamp, region text, status text, "
           "amount double")
QUERY = ("select sum(amount) from {} "
         "where region = 'north' and amount >= 100.0")
#: Best of this many warm runs per path.
REPEATS = 3


def generate_rows():
    rng = make_rng(41)
    zipf = ZipfGenerator(make_rng(42), n=6, theta=1.1)
    regions = ["north", "south", "east", "west", "apac", "emea"]
    rows = []
    for i in range(ROWS):
        rows.append({
            "id": i,
            "ts": 1_600_000_000_000 + i * 1000 + rng.randint(0, 99),
            "region": regions[zipf.next()],
            "status": "ok" if rng.random() < 0.97 else "error",
            "amount": round(rng.uniform(0, 500), 2),
        })
    return rows


def build_engine(rows):
    """``events`` is column-oriented and merged once, so it is served from
    compressed frozen chunks; ``events_row`` holds the same rows."""
    cluster = MppCluster(num_dns=NUM_DNS)
    engine = SqlEngine(cluster)
    engine.execute(f"create table events ({COLUMNS}) "
                   "with (orientation = column)")
    engine.execute(f"create table events_row ({COLUMNS})")
    for table in ("events", "events_row"):
        txn = cluster.session().begin(multi_shard=True)
        for row in rows:
            txn.insert(table, row)
        txn.commit()
    cluster.htap.tick()
    return engine


def timed(engine, sql):
    """The result and best wall-clock time of ``REPEATS`` runs after one
    warm-up run."""
    result = engine.execute(sql).rows
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        assert engine.execute(sql).rows == result
        best = min(best, time.perf_counter() - t0)
    return result, best


def run_ablation():
    rows = generate_rows()
    engine = build_engine(rows)
    metrics = engine.cluster.obs.metrics
    before = metrics.value("htap.scans_frozen") or 0.0
    lane_result, lane_s = timed(engine, QUERY.format("events"))
    frozen_scans = (metrics.value("htap.scans_frozen") or 0.0) - before
    with row_reference():
        row_result, row_s = timed(engine, QUERY.format("events_row"))
    stores = [dn.htap.tables["events"].frozen.store
              for dn in engine.cluster.dns]
    return {
        "lane_s": lane_s,
        "row_s": row_s,
        "speedup": row_s / lane_s,
        "lane_result": lane_result,
        "row_result": row_result,
        "fold": sum(r["amount"] for r in rows
                    if r["region"] == "north" and r["amount"] >= 100.0),
        "frozen_scans": frozen_scans,
        "compressed_units": sum(s.compressed_footprint() for s in stores),
        "plain_units": ROWS * len(COLUMNS.split(",")),
    }


def render(r):
    lines = [
        f"rows scanned:            {ROWS}",
        f"row reference (row tbl): {r['row_s'] * 1000:8.1f} ms",
        f"lane path (column tbl):  {r['lane_s'] * 1000:8.1f} ms",
        f"vectorization speedup:   {r['speedup']:8.1f}x",
        f"plain footprint:         {r['plain_units']:8d} units",
        f"compressed footprint:    {r['compressed_units']:8d} units",
        f"compression ratio:       {r['plain_units'] / r['compressed_units']:8.2f}x",
    ]
    return "\n".join(lines)


def test_ablation_storage(benchmark, artifact):
    result = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    artifact("ablation_storage", render(result))
    assert result["frozen_scans"] > 0, "the lane path must scan frozen chunks"
    assert result["lane_result"] == result["row_result"]
    assert result["lane_result"][0][0] == pytest.approx(result["fold"])
    assert result["speedup"] > 3.0, "vectorized scans must clearly win"
    ratio = result["plain_units"] / result["compressed_units"]
    assert ratio > 1.5, f"compression ratio only {ratio:.2f}"
