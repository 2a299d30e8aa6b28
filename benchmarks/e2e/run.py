"""The repo's end-to-end benchmark: five workloads on two clocks.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds N]
        [--reps N] [--trace [0|1]] [--smoke] [--selfcheck]

Prints every metric by name with its unit and clock, checks every output
against an oracle, and ends with one JSON line (``correct``, ``attempted``,
``failed``, ``metrics``).  Without ``--workload`` each workload runs in a
process of its own.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE.parent))    # bench_exec_speedup's query catalog

import measure  # noqa: E402  (needs src/ on the path)
from measure import Run, Stat  # noqa: E402
from workloads import WORKLOADS, OltpTpcc  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT_DIR = HERE / "out"

DEFAULT_SEED = 20190408
SMOKE_SCALE = 0.05
MAX_RERUNS = 1        # noisy runs repeated per invocation, at most
MIN_SETUPS = 3        # set-ups behind setup_s, at least
SELFCHECK_RUNS = 5

#: The twelve end-to-end names every workload prints.  BENCHMARK.json lists
#: under ``end_to_end`` the ones that are a number on every workload; the
#: rest (``null`` on some workload, or 0 when all is well) are per-layer.
END_TO_END = ("setup_s", "ops_per_s", "lat_p50_us", "lat_p95_us",
              "lat_p99_us", "sim_ops_per_s", "sim_lat_p50_us",
              "sim_lat_p95_us", "sim_lat_p99_us", "failed_frac",
              "peak_rss_mb", "freshness_lag_max_us")

DECLARED = {m["name"]: m for kind in ("end_to_end", "per_layer")
            for m in MANIFEST[kind]}


def clock_of(unit: str) -> str:
    """Every number names its clock; the unit carries it."""
    if "sim" in unit:
        return "sim"
    return "-" if unit in ("count", "ratio") else "host"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- measuring ----------------------------------------------------------------

def measure_runs(cls, seed: int, scale: float, seconds: float,
                 reps: Optional[int]) -> Tuple[List[Run], List[Run]]:
    """``reps`` untraced runs on fresh state (by default as many as fit
    ``seconds`` of timed region, going by the first run, and at least one),
    as (kept, set aside).  A run whose calibration kernel was more than 15%
    off the best seen is set aside and made again, at most ``MAX_RERUNS``
    times, and not where one run fills ``seconds`` by itself: there a re-run
    would double the invocation.  A noisy run beyond that is kept."""
    runs: List[Run] = []
    while True:
        runs.append(measure.run_once(cls, seed, scale))
        if reps is None:
            reps = max(1, round(seconds / runs[0].region_s))
        noisy = measure.noisy_runs(runs)[:MAX_RERUNS if reps > 1 else 0]
        if len(runs) - len(noisy) >= reps:
            return [run for run in runs if run not in noisy], noisy


def determinism_violations(runs: Sequence[Run]) -> List[str]:
    """Every run of one seed must agree exactly on the simulated clock, the
    program's outputs and (where telemetry is on) every count."""
    first = runs[0]
    bad = []
    for index, run in enumerate(runs[1:], start=1):
        same = (run.fingerprint == first.fingerprint
                and run.sim_metrics() == first.sim_metrics()
                and (not run.counts or run.counts == first.counts))
        if not same:
            bad.append(f"run {index} of seed {run.seed} differs from run 0: "
                       f"fingerprint {run.fingerprint:#010x} vs "
                       f"{first.fingerprint:#010x}")
    return bad


def end_to_end(runs: Sequence[Run], setups: Sequence[float]) -> Dict[str, Stat]:
    out = measure.host_metrics(runs, setups)
    ops = runs[0].ops
    for name, value in runs[0].sim_metrics().items():
        out[name] = Stat(value, n=ops)
    attempted = sum(run.ops for run in runs)
    out["failed_frac"] = Stat(sum(run.failed for run in runs) / attempted,
                              n=attempted)
    out["peak_rss_mb"] = Stat(peak_rss_mb(), n=1)
    return out


def traced_pass(cls, seed: int,
                scale: float) -> Tuple[Dict[str, Stat], List[Run]]:
    """One untraced and one traced run on the same inputs; on ``oltp_tpcc``
    two more pairs with observability off and on."""
    untraced = measure.run_once(cls, seed, scale)
    OUT_DIR.mkdir(exist_ok=True)
    traced = measure.run_once(cls, seed, scale, traced=True,
                              spans_path=OUT_DIR / f"spans-{cls.name}.jsonl")
    runs = [untraced, traced]
    out = measure.layer_metrics(traced)
    out.update(measure.class_metrics(untraced))
    for name, value in traced.counts.items():
        if name in DECLARED:
            out[name] = Stat(value, n=1)
    for name in ("sim_lat_p50_us", "sim_lat_p95_us", "sim_lat_p99_us",
                 "freshness_lag_max_us"):
        out[name] = Stat(untraced.sim_metrics()[name], n=untraced.ops)
    out["trace.overhead_ratio"] = Stat(
        untraced.ops_per_s / traced.ops_per_s, n=2)
    out["trace.spans"] = Stat(float(traced.spans), n=1)
    if cls is OltpTpcc:
        # Interleaved off/on/off against the untraced (on) run above.
        off = [measure.run_once(cls, seed, scale, obs_enabled=False)]
        on = [untraced, measure.run_once(cls, seed, scale)]
        off.append(measure.run_once(cls, seed, scale, obs_enabled=False))
        runs += [on[1]] + off
        out["obs.overhead_ratio"] = Stat(
            min(r.region_s for r in on) / min(r.region_s for r in off), n=4)
    out["host.calib_s"] = Stat(min(run.calib_best_s for run in runs),
                               n=len(runs))
    out["host.noisy_reps"] = Stat(float(len(measure.noisy_runs(runs))),
                                  n=len(runs))
    attempted = sum(run.ops for run in runs)
    out["failed_frac"] = Stat(sum(run.failed for run in runs) / attempted,
                              n=attempted)
    return out, runs


# -- printing -----------------------------------------------------------------

def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def print_metrics(title: str, names: Sequence[str],
                  stats: Dict[str, Stat]) -> None:
    print(title)
    print(f"  {'metric':34s} {'value':>12s} {'unit':9s} {'clock':5s} "
          f"{'n':>6s}  quartiles")
    for name in names:
        stat = stats.get(name, Stat(None))
        unit = DECLARED[name]["unit"]
        spread = (f"[{_fmt(stat.q1)} .. {_fmt(stat.q3)}]"
                  if stat.q1 is not None else "")
        print(f"  {name:34s} {_fmt(stat.value):>12s} {unit:9s} "
              f"{clock_of(unit):5s} {stat.n:6d}  {spread}")


def print_layer_shares(stats: Dict[str, Stat], covered: float) -> None:
    total = sum(stats[f"{layer}.self_s"].value for layer in measure.LAYERS)
    print(f"  layer shares of the traced total ({total:.3f} s, {covered:.1%} "
          "of the traced region), largest first:")
    shares = sorted(((stats[f"{layer}.self_s"].value / total, layer)
                     for layer in measure.LAYERS), reverse=True)
    for share, layer in shares:
        if share > 0:
            print(f"    {layer:14s} {share:7.2%} "
                  f"{int(stats[f'{layer}.calls'].value):9d} calls")


def result_line(names: Sequence[str], stats: Dict[str, Stat],
                runs: Sequence[Run], correct: bool) -> str:
    """The contract's last line.  It carries numbers only: a per-layer
    metric that does not apply to this workload reads 0 there (and ``null``
    in the table above)."""
    metrics = {}
    for name in names:
        stat = stats.get(name, Stat(None))
        metrics[name] = {"value": 0.0 if stat.value is None else stat.value,
                         "unit": DECLARED[name]["unit"]}
    return json.dumps({
        "correct": correct,
        "attempted": sum(run.ops for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": metrics,
    })


# -- modes --------------------------------------------------------------------

def run_workload(args) -> int:
    cls = WORKLOADS[args.workload]
    scale = SMOKE_SCALE if args.smoke else 1.0
    reps = 1 if args.smoke and args.reps is None else args.reps
    print(f"workload {cls.name}  seed={args.seed}  scale={scale}  "
          f"-- {cls.why}")
    if args.trace:
        stats, runs = traced_pass(cls, args.seed, scale)
        names = [m["name"] for m in MANIFEST["per_layer"]]
        print_metrics(f"per-layer metrics ({cls.name}, traced pass)",
                      names, stats)
        print("  busiest simulated resource (net.bottleneck_util): "
              f"{runs[1].counts['net.bottleneck']}")
        print_layer_shares(stats, runs[1].covered)
    else:
        kept, noisy = measure_runs(cls, args.seed, scale, args.seconds, reps)
        runs = kept + noisy
        # An invocation of one or two runs has too few set-ups for a
        # median: set up (and drop) fresh state until there are three.
        setups = [run.setup_s for run in runs]
        while len(setups) < MIN_SETUPS:
            setups.append(measure.set_up(cls, args.seed, scale)[1])
        stats = end_to_end(kept, setups)
        names = [m["name"] for m in MANIFEST["end_to_end"]]
        print_metrics(f"end-to-end metrics ({cls.name}, median of {len(kept)} "
                      f"runs of {kept[0].ops} ops and {len(setups)} set-ups; "
                      f"noisy runs: {len(noisy)} made again, "
                      f"{len(measure.noisy_runs(runs)) - len(noisy)} kept)",
                      END_TO_END, stats)
    violations = determinism_violations(runs) + [
        v for r in runs for v in r.violations]
    print(f"sim_fingerprint {cls.name} {runs[0].fingerprint:#010x}")
    for line in violations[:20]:
        print(f"ORACLE: {line}", file=sys.stderr)
    print(result_line(names, stats, runs, correct=not violations))
    return 1 if violations else 0


def selfcheck(args) -> int:
    """A/A: two interleaved sets of runs of the same code must agree within
    the benchmark's own bounds on the host clock, and exactly on everything
    else (the sim clock, ``failed_frac``)."""
    cls = WORKLOADS[args.workload]
    scale = SMOKE_SCALE if args.smoke else 1.0
    count = args.reps or SELFCHECK_RUNS
    sets: Tuple[List[Run], List[Run]] = ([], [])
    for _ in range(count):
        for side in sets:
            side.append(measure.run_once(cls, args.seed, scale))
    stats = [end_to_end(side, [run.setup_s for run in side]) for side in sets]
    status = 0
    print(f"selfcheck {cls.name}: two interleaved sets of {count} runs")
    print(f"  {'metric':22s} {'median A':>12s} {'median B':>12s} "
          f"{'gap':>8s} {'bound':>6s}   [quartiles A] [quartiles B]")
    for name in END_TO_END:
        if name == "peak_rss_mb":
            continue              # one process: both sets share the peak
        a, b = stats[0][name], stats[1][name]
        metric = DECLARED[name]
        if clock_of(metric["unit"]) == "host" and None not in (a.value, b.value):
            gap, bound = abs(a.value - b.value) / a.value, metric["bound"]
        else:                     # a percentile with too few samples is null
            gap, bound = (0.0 if a.value == b.value else float("inf")), 0.0
        spread = (f"   [{_fmt(a.q1)} .. {_fmt(a.q3)}] "
                  f"[{_fmt(b.q1)} .. {_fmt(b.q3)}]" if a.q1 is not None else "")
        print(f"  {name:22s} {_fmt(a.value):>12s} {_fmt(b.value):>12s} "
              f"{gap:8.4f} {bound:6.2f}{spread}"
              f"{'' if gap <= bound else '  EXCEEDED'}")
        status |= gap > bound
    runs = sets[0] + sets[1]
    violations = determinism_violations(runs) + [
        v for r in runs for v in r.violations]
    for line in violations[:20]:
        print(f"ORACLE: {line}", file=sys.stderr)
    print(f"  sim_fingerprint {runs[0].fingerprint:#010x}, simulated "
          f"metrics and counts equal on all {len(runs)} runs: "
          f"{not violations}; host.noisy_reps "
          f"{len(measure.noisy_runs(runs))}")
    return 1 if status or violations else 0


def run_all(argv: Sequence[str]) -> int:
    """One process per workload, so ``peak_rss_mb`` is the workload's own."""
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, *argv])
        status |= done.returncode
        print()
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(MANIFEST["run_seconds"]),
                        help="timed seconds to measure: as many runs as fit, "
                             "at least one")
    parser.add_argument("--reps", type=int,
                        help="exactly this many runs instead")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/20 size, one run")
    parser.add_argument("--selfcheck", action="store_true",
                        help="A/A: two interleaved sets of runs must agree")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(argv)
    if args.selfcheck:
        return selfcheck(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
