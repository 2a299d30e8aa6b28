"""HTAP mixed workload: TPC-C-lite OLTP against reporting scans, one store.

The dual-format promise (paper §III: "a data organization enabling both
OLTP and OLAP without application-visible ETL") is only worth having if
(a) analytic scans stop rebuilding column stores from the row heap, (b)
column freshness stays bounded while writes keep arriving, and (c) the
reporting side does not wreck OLTP latency.  This benchmark measures all
three on the same cluster:

* **oltp-only baseline**: TPC-C-lite NewOrder/Payment transactions (the
  ``oltp`` resource group) with the merge daemon ticking, no scans.
* **mixed**: the same OLTP schedule with periodic reporting aggregates
  over the column-oriented ``orders``/``order_line`` tables, fenced into
  the low-priority ``olap`` resource group.

Asserted gates (CI fails on regression):

* mixed OLTP p95 latency within ``OLTP_P95_BOUND``x of the baseline,
* every reporting scan served from HTAP storage — zero cold rebuilds,
* worst observed commit-to-column freshness lag under twice the merge
  interval,
* storage I/O charged per merged row at most ``MERGE_BYTES_BOUND``x the
  row's own bytes — a merge costs what its delta touches, not the table
  (the column tables here only ever see NewOrder's inserts, which extend
  the last chunk: one row read from the delta, one written).

Run:  PYTHONPATH=src python benchmarks/bench_htap_mixed.py
Writes ``BENCH_htap_mixed.json`` next to this file (under ``out/``).
"""

import json
from pathlib import Path

from repro.cluster.mpp import MppCluster
from repro.htap.manager import HtapConfig, _row_bytes
from repro.sql.engine import SqlEngine
from repro.wlm import Priority, ResourceGroup, WlmConfig
from repro.wlm.driver import percentile
from repro.workloads.tpcc_lite import TpccLiteWorkload, load_tpcc

OUT_PATH = Path(__file__).parent / "out" / "BENCH_htap_mixed.json"

NUM_DNS = 2
WAREHOUSES = 2
OLTP_TXNS = 240           # per run; retries included in latency
SCAN_EVERY = 8            # mixed mode: one reporting scan per 8 OLTP txns
MERGE_INTERVAL_US = 30_000.0
OLTP_P95_BOUND = 1.5      # mixed p95 must stay within 1.5x of baseline
MERGE_BYTES_BOUND = 4.0   # charged merge bytes per merged row, in row sizes
COLUMN_TABLES = ("orders", "order_line")

REPORTS = (
    "select w_id, count(*), sum(ol_amount) from order_line group by w_id",
    "select w_id, sum(o_ol_cnt) from orders group by w_id",
    "select count(*) from order_line where ol_quantity > 5",
    "select d_id, count(*), sum(ol_amount) from orders, order_line "
    "where orders.o_key = order_line.o_key group by d_id",
)


def run(mixed: bool):
    config = WlmConfig(groups=[
        ResourceGroup("oltp", slots=16, priority=Priority.HIGH,
                      queue_limit=4096),
        ResourceGroup("olap", slots=2, priority=Priority.LOW,
                      queue_limit=4096),
    ])
    cluster = MppCluster(
        num_dns=NUM_DNS, wlm_config=config,
        htap_config=HtapConfig(merge_interval_us=MERGE_INTERVAL_US))
    engine = SqlEngine(cluster)
    load_tpcc(cluster, num_warehouses=WAREHOUSES,
              column_oriented=COLUMN_TABLES)
    workload = TpccLiteWorkload(num_warehouses=WAREHOUSES,
                                multi_shard_fraction=0.1, seed=3)
    session = cluster.session(track_costs=True)
    streams = [workload.stream(home_warehouse=w, seed_offset=w)
               for w in range(WAREHOUSES)]

    latencies, scan_latencies = [], []
    worst_lag_us = 0.0
    for t in range(OLTP_TXNS):
        spec = next(streams[t % WAREHOUSES])
        start_us = session.now_us
        ticket = cluster.wlm.submit(group="oltp", now_us=start_us,
                                    tag=spec.kind)
        txn = session.begin(multi_shard=spec.multi_shard)
        spec.body(txn)
        txn.commit()
        cluster.wlm.release(ticket, session.now_us)
        latencies.append(session.now_us - start_us)

        cluster.obs.advance_to(session.now_us)
        now_us = cluster.obs.clock.now_us
        cluster.htap.maybe_tick(now_us)
        worst_lag_us = max(worst_lag_us,
                           cluster.htap.max_freshness_lag_us(now_us))
        if mixed and (t + 1) % SCAN_EVERY == 0:
            result = engine.execute(REPORTS[(t // SCAN_EVERY) % len(REPORTS)],
                                    group="olap", arrival_us=now_us)
            scan_latencies.append(result.profile.elapsed_time_us
                                  + result.profile.queue_time_us)
    return cluster, engine, latencies, scan_latencies, worst_lag_us


def freshness_rows(engine):
    return engine.execute(
        "select dn, table_name, frozen_rows, delta_rows, merges, "
        "freshness_lag_us, max_lag_us from sys.htap_tables order by dn",
        group="olap").rows


def main() -> None:
    _, _, base_latencies, _, base_lag = run(mixed=False)
    cluster, engine, mixed_latencies, scan_latencies, mixed_lag = run(
        mixed=True)

    flat = dict(cluster.obs.metrics.snapshot()[1])
    scans_frozen = flat.get("htap.scans_frozen", 0.0)
    scans_composed = flat.get("htap.scans_composed", 0.0)
    cold_rebuilds = flat.get("htap.cold_rebuilds", 0.0)
    merge_stats = cluster.obs.waits.stats("htap_merge")
    merges = cluster.htap.history
    merged_row_bytes = sum(
        e.delta_rows * _row_bytes(cluster.catalog.schema(e.table))
        for e in merges)
    merge_amplification = sum(e.bytes for e in merges) / merged_row_bytes

    base_p95 = percentile(base_latencies, 95)
    mixed_p95 = percentile(mixed_latencies, 95)
    ratio = mixed_p95 / base_p95 if base_p95 > 0 else 1.0

    assert scan_latencies, "mixed mode ran no reporting scans"
    assert scans_frozen + scans_composed > 0, \
        "reporting scans never hit HTAP storage"
    assert cold_rebuilds == 0, \
        f"HTAP tables fell back to cold rebuilds {cold_rebuilds:.0f} times"
    assert ratio <= OLTP_P95_BOUND, (
        f"mixed OLTP p95 {mixed_p95:.0f}us exceeds {OLTP_P95_BOUND}x "
        f"baseline {base_p95:.0f}us")
    lag_bound_us = 2 * MERGE_INTERVAL_US
    assert mixed_lag <= lag_bound_us, (
        f"freshness lag {mixed_lag:.0f}us exceeded {lag_bound_us:.0f}us "
        f"with a {MERGE_INTERVAL_US:.0f}us merge interval")
    assert merge_amplification <= MERGE_BYTES_BOUND, (
        f"merges charged {merge_amplification:.1f}x the bytes of the rows "
        f"they folded (bound {MERGE_BYTES_BOUND}x): a merge is rewriting "
        "more than its delta")

    report = {
        "benchmark": "htap_mixed",
        "config": {
            "num_dns": NUM_DNS, "warehouses": WAREHOUSES,
            "oltp_txns": OLTP_TXNS, "scan_every": SCAN_EVERY,
            "merge_interval_us": MERGE_INTERVAL_US,
            "oltp_p95_bound": OLTP_P95_BOUND,
            "merge_bytes_bound": MERGE_BYTES_BOUND,
            "column_tables": list(COLUMN_TABLES),
        },
        "oltp_only": {
            "p50_us": percentile(base_latencies, 50),
            "p95_us": base_p95,
            "worst_freshness_lag_us": base_lag,
        },
        "mixed": {
            "p50_us": percentile(mixed_latencies, 50),
            "p95_us": mixed_p95,
            "scan_count": len(scan_latencies),
            "scan_p95_us": percentile(scan_latencies, 95),
            "worst_freshness_lag_us": mixed_lag,
            "freshness_lag_bound_us": lag_bound_us,
        },
        "oltp_p95_ratio": ratio,
        "htap": {
            "scans_frozen": scans_frozen,
            "scans_composed": scans_composed,
            "cold_rebuilds": cold_rebuilds,
            "merges": merge_stats.count,
            "merge_io_us": merge_stats.total_us,
            "merge_rows": sum(e.delta_rows for e in merges),
            "merge_bytes": sum(e.bytes for e in merges),
            "merge_bytes_per_row_bytes": merge_amplification,
            "chunks_rewritten": sum(e.chunks_rewritten for e in merges),
            "tables": [list(row) for row in freshness_rows(engine)],
        },
    }
    OUT_PATH.parent.mkdir(exist_ok=True)
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"{'':10s} {'oltp p50':>12s} {'oltp p95':>12s} "
          f"{'worst lag':>12s} {'scans':>7s}")
    for mode in ("oltp_only", "mixed"):
        m = report[mode]
        print(f"{mode:10s} {m['p50_us']:10.0f}us {m['p95_us']:10.0f}us "
              f"{m['worst_freshness_lag_us']:10.0f}us "
              f"{m.get('scan_count', 0):7d}")
    print(f"mixed/baseline OLTP p95 ratio: {ratio:.2f}x "
          f"(bound {OLTP_P95_BOUND}x)")
    print(f"merge bytes per merged row: {merge_amplification:.2f}x the row "
          f"(bound {MERGE_BYTES_BOUND}x)")
    print(f"served scans: {scans_frozen:.0f} frozen, "
          f"{scans_composed:.0f} composed, {cold_rebuilds:.0f} cold rebuilds")
    print(f"wrote {OUT_PATH}")


if __name__ == "__main__":
    main()
