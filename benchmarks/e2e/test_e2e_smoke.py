"""Self-test of the end-to-end benchmark, at smoke size.

Run with ``python -m pytest benchmarks/e2e -q`` (outside the tier-1
``testpaths``; about 30 s).
"""

import json

import pytest

import run  # first: it puts src/ on the path for the modules below
import measure
import oracle
import workloads

WORKLOADS = list(workloads.WORKLOADS)
SCALE = run.SMOKE_SCALE

#: Per-layer metrics that may be non-zero only on the named workloads.
ONLY_ON = {
    "geo.": {"geo_commit"},
    "sql.": {"sql_adhoc", "report_cached", "htap_mixed"},
    "optimizer.": {"sql_adhoc", "report_cached", "htap_mixed"},
    "learnopt.": {"sql_adhoc", "report_cached", "htap_mixed"},
    "exec.": {"sql_adhoc", "report_cached", "htap_mixed"},
    "wlm.": {"sql_adhoc", "report_cached", "htap_mixed"},
    "htap.": {"report_cached", "htap_mixed"},
    "freshness_lag_max_us": {"htap_mixed"},
    "obs.overhead_ratio": {"oltp_tpcc"},
    "class.payment.": {"oltp_tpcc", "htap_mixed"},
    "class.new_order.": {"oltp_tpcc", "htap_mixed"},
    "class.new_order_ms.": {"oltp_tpcc", "htap_mixed"},
    "class.point_select.": {"sql_adhoc"},
    "class.insert.": {"sql_adhoc"},
    "class.update.": {"sql_adhoc"},
    "class.delete.": {"sql_adhoc"},
    "class.adhoc_join.": {"sql_adhoc"},
    "class.report.": {"report_cached"},
    "class.scan.": {"htap_mixed"},
    "class.geo_txn.": {"geo_commit"},
}


def parse_table(text):
    """``{name: (value, unit, clock)}`` from the printed metric tables."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 5 and parts[0] in run.DECLARED:
            out[parts[0]] = (None if parts[1] == "null" else float(parts[1]),
                             parts[2], parts[3])
    return out


@pytest.fixture(scope="module")
def printed():
    """Both modes of every workload, run once for the whole module."""
    import contextlib
    import io

    out = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                status = run.main(["--workload", name, "--smoke",
                                   "--trace", str(trace)])
            out[name, trace] = (status, buffer.getvalue())
    return out


@pytest.mark.parametrize("name", WORKLOADS)
def test_names_units_and_clocks_match_the_manifest(printed, name):
    declared = {kind: {m["name"]: m for m in run.MANIFEST[kind]}
                for kind in ("end_to_end", "per_layer")}
    seen = {}
    for trace in (0, 1):
        status, text = printed[name, trace]
        assert status == 0, text
        seen.update(parse_table(text))
        result = json.loads(text.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        kind = "per_layer" if trace else "end_to_end"
        assert set(result["metrics"]) == set(declared[kind])
        for metric, entry in result["metrics"].items():
            assert entry["unit"] == declared[kind][metric]["unit"]
            assert isinstance(entry["value"], (int, float))
    assert set(seen) == set(run.DECLARED)
    assert set(run.END_TO_END) <= set(seen)
    for metric, (_value, unit, clock) in seen.items():
        assert unit == run.DECLARED[metric]["unit"]
        assert clock == run.clock_of(unit) and clock in ("host", "sim", "-")


@pytest.mark.parametrize("name", WORKLOADS)
def test_no_metric_where_it_does_not_apply(printed, name):
    seen = {}
    for trace in (0, 1):
        seen.update(parse_table(printed[name, trace][1]))
    for prefix, allowed in ONLY_ON.items():
        if name in allowed:
            continue
        for metric, (value, _unit, _clock) in seen.items():
            if metric.startswith(prefix):
                assert not value, f"{metric} = {value} on {name}"


def test_layers_separate_the_workloads(printed):
    """What the workloads were built for, at smoke size."""
    report = parse_table(printed["report_cached", 1][1])
    assert report["sql.parser.calls"][0] == 0
    assert report["sql.plancache.hit_rate"][0] >= 0.99
    adhoc = parse_table(printed["sql_adhoc", 1][1])
    assert adhoc["sql.parser.calls"][0] > 0
    assert adhoc["sql.plancache.hit_rate"][0] <= 0.05
    oltp = parse_table(printed["oltp_tpcc", 1][1])
    assert oltp["htap.calls"][0] == 0 and oltp["cluster.2pc.calls"][0] > 0
    geo = parse_table(printed["geo_commit", 1][1])
    assert geo["geo.certify.calls"][0] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_fingerprint_other_seed_other(name):
    cls = workloads.WORKLOADS[name]
    first = measure.run_once(cls, 7, SCALE)
    again = measure.run_once(cls, 7, SCALE)
    other = measure.run_once(cls, 8, SCALE)
    assert not first.violations
    assert first.fingerprint == again.fingerprint
    assert first.sim_metrics() == again.sim_metrics()
    assert first.counts == again.counts
    assert first.fingerprint != other.fingerprint


def test_selfcheck_gives_a_verdict_at_smoke_size(capsys):
    """At 1/20 size the tail percentiles are null on both sides."""
    status = run.main(["--workload", "sql_adhoc", "--smoke", "--selfcheck",
                       "--reps", "2"])
    text = capsys.readouterr().out
    assert status == 0, text
    assert "lat_p99_us" in text and "EXCEEDED" not in text


def test_host_metrics_are_the_median_of_the_runs():
    runs = [measure.run_once(workloads.OltpTpcc, 7, SCALE) for _ in range(3)]
    stats = measure.host_metrics(runs, [run.setup_s for run in runs])
    per_run = sorted(run.ops_per_s for run in runs)
    assert stats["ops_per_s"].value == per_run[1]
    assert stats["ops_per_s"].q1 <= per_run[1] <= stats["ops_per_s"].q3


def _finished(name):
    workload = workloads.WORKLOADS[name](7, SCALE)
    workload.setup()
    workload.run(workloads.OpTimer())
    assert workload.check() == []
    return workload


@pytest.mark.parametrize("name", ["sql_adhoc", "report_cached"])
def test_sqlite_oracle_catches_a_corrupted_row(name):
    workload = _finished(name)
    index, (sql, cls, rows) = next(
        (i, entry) for i, entry in enumerate(workload.history)
        if isinstance(entry[2], list) and entry[2])
    corrupted = [tuple(rows[0][:-1]) + (rows[0][-1] + 1,)] + rows[1:]
    workload.history[index] = (sql, cls, corrupted)
    assert any(f"statement {index} " in line for line in workload.check())


def test_sqlite_oracle_catches_a_wrong_row_count():
    workload = _finished("sql_adhoc")
    index, (sql, cls, count) = next(
        (i, entry) for i, entry in enumerate(workload.history)
        if isinstance(entry[2], int))
    workload.history[index] = (sql, cls, count + 1)
    assert any(f"statement {index} " in line for line in workload.check())


def test_tpcc_oracle_catches_a_lost_payment_and_a_lost_order():
    workload = _finished("oltp_tpcc")
    for kind in ("payment", "new_order"):
        kept = list(workload.committed)
        lost = next(f for f in kept if f.kind == kind)
        kept.remove(lost)
        bad = oracle.check_tpcc(oracle.cluster_reader(workload.cluster),
                                kept, range(workload.WAREHOUSES))
        assert bad and any(f"{lost.w_id}" in line for line in bad)


def test_htap_oracle_catches_a_corrupted_scan():
    workload = _finished("htap_mixed")
    index, event = next((i, e) for i, e in enumerate(workload.events)
                        if e[0] == "scan" and e[1] == 0)
    workload.events[index] = ("scan", 0, [(event[2][0][0] + 1,)])
    assert any(f"scan at {index} " in line for line in workload.check())


def test_geo_oracle_catches_a_lost_commit():
    workload = _finished("geo_commit")
    lost = next(op for op in workload.ops if op.facts.kind == "payment")
    workload.ops.remove(lost)
    assert workload.check()
