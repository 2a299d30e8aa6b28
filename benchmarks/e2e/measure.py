"""One run of one workload, and the statistics over several.

A *run* (``run_once``) is: generate inputs from the seed, set up fresh
state, warm up untimed, then the timed region, then the oracles.  The
end-to-end numbers always come from runs with tracing off; a traced run is
a separate pass over fresh state with the wrap table installed around the
timed region only.

Clocks.  *host* is ``time.process_time_ns`` of the one driver thread.
*sim* is the program's cost model in simulated microseconds, a pure
function of the seed.
"""

from __future__ import annotations

import contextlib
import gc
import math
import statistics
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from trace import LAYERS, Tracer
from workloads import OpTimer, RunResult, Workload

#: A percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10
#: A run whose calibration kernel ran this much slower than the best seen
#: in the process had a noisy neighbour.
NOISY_CALIBRATION = 1.15

OP_CLASSES = ("payment", "new_order", "new_order_ms", "point_select",
              "insert", "update", "delete", "adhoc_join", "report", "scan",
              "geo_txn")


class _Cell:
    __slots__ = ("weight", "tag")

    def __init__(self, weight: int, tag: tuple):
        self.weight = weight
        self.tag = tag

    def add_to(self, totals: dict, key: int) -> tuple:
        totals[key] = totals.get(key, 0) + self.weight
        return self.tag


_CALIBRATION_VALUES = np.arange(100_000, dtype=np.float64)
_CALIBRATION_BUFFER = np.empty_like(_CALIBRATION_VALUES)


def _kernel() -> float:
    """CPU seconds of a fixed kernel (~12 ms): an integer loop, the
    object / dict / method-call mix the program is made of, and a numpy
    pass like the batch executor's.  It is there to time the box, not the
    heap the last run left behind: the collector is off inside it (a
    collection walks that heap) and the numpy pass works in place (800 KB
    temporaries come from mmap or from freed heap, a third apart in time)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        acc = 0
        for i in range(40_000):
            acc += (i * i) % 7
        totals: dict = {}
        kept: list = []
        for i in range(20_000):
            kept.append(_Cell(i, (i, "x")).add_to(totals, i % 977))
            if len(kept) > 500:
                kept = []
        values, buffer = _CALIBRATION_VALUES, _CALIBRATION_BUFFER
        for _ in range(8):
            np.multiply(values, values, out=buffer)
            np.add(buffer, 1.0, out=buffer)
            acc += float(np.sqrt(buffer, out=buffer).sum())
        return time.process_time() - start
    finally:
        if was_enabled:
            gc.enable()


def calibrate() -> float:
    """The fastest of three kernel passes: one pass alone jitters by ~10%."""
    return min(_kernel() for _ in range(3))


def percentile(ordered: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile of a sorted sample, or ``None`` when fewer
    than ``MIN_TAIL_SAMPLES`` samples lie beyond it."""
    n = len(ordered)
    rank = math.ceil(q * n)
    if rank < 1 or n - rank < MIN_TAIL_SAMPLES:
        return None
    return ordered[rank - 1]


@dataclass(eq=False)
class Run:
    """Everything measured in one run."""

    seed: int
    setup_s: float
    region_s: float                  # host CPU seconds of the timed region
    timer: OpTimer
    result: RunResult
    violations: List[str]
    fingerprint: int
    counts: Dict[str, object]
    calib_s: float = 0.0             # the slower of the two brackets
    calib_best_s: float = 0.0        # ... and the faster
    layer_calls: Dict[str, int] = field(default_factory=dict)
    layer_self_s: Dict[str, float] = field(default_factory=dict)
    spans: int = 0
    covered: float = 0.0             # sum of self times / traced region

    @property
    def ops(self) -> int:
        return len(self.timer.classes)

    @property
    def failed(self) -> int:
        """Ops that did not commit, raised, or failed their oracle."""
        return min(self.ops, self.result.failed + len(self.violations))

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.region_s

    def host_us(self) -> List[float]:
        return sorted(ns / 1000.0 for ns in self.timer.host_ns)

    def sim_us(self) -> List[float]:
        return sorted(s for s in self.timer.sim_us if s is not None)

    def sim_metrics(self) -> Dict[str, Optional[float]]:
        """The deterministic half: identical for every run of one seed."""
        sim = self.sim_us()
        makespan_s = self.result.sim_makespan_us / 1e6
        return {
            "sim_ops_per_s": (self.result.sim_ops / makespan_s
                              if makespan_s > 0 else None),
            "sim_lat_p50_us": percentile(sim, 0.50),
            "sim_lat_p95_us": percentile(sim, 0.95),
            "sim_lat_p99_us": percentile(sim, 0.99),
            "freshness_lag_max_us": self.result.freshness_lag_max_us,
        }


def _fingerprint(timer: OpTimer, workload: Workload) -> int:
    """crc32 over the program's outputs and every op's simulated time."""
    crc = zlib.crc32(repr(list(zip(timer.classes, timer.sim_us))).encode())
    return zlib.crc32(repr(workload.result_digest()).encode(), crc)


def set_up(cls, seed: int, scale: float = 1.0, **options):
    """Generate the inputs and build fresh state: (workload, CPU seconds of
    build + load + analyze + warm-up)."""
    workload = cls(seed, scale, **options)
    start = time.process_time()
    workload.setup()
    return workload, time.process_time() - start


def run_once(cls, seed: int, scale: float = 1.0, traced: bool = False,
             spans_path=None, **options) -> Run:
    """Set up fresh state, warm up, time the region, check the outputs.
    The calibration kernel brackets the run."""
    gc.collect()
    calib_before = calibrate()
    workload, setup_s = set_up(cls, seed, scale, **options)

    tracer = Tracer() if traced else None
    timer = OpTimer(tracer.rec if tracer else None)
    gc.collect()
    with tracer or contextlib.nullcontext():
        wall0 = time.perf_counter_ns()
        cpu0 = time.process_time_ns()
        result = workload.run(timer)
        region_ns = time.process_time_ns() - cpu0
        wall_ns = time.perf_counter_ns() - wall0

    violations = workload.check()
    run = Run(seed, setup_s, region_ns / 1e9, timer, result, violations,
              _fingerprint(timer, workload), workload.counts())
    if tracer:
        rec = tracer.rec
        run.layer_calls = dict(rec.calls)
        run.layer_self_s = {k: v / 1e9 for k, v in rec.self_ns.items()}
        run.spans = len(rec.spans)
        # One scheduler hiccup between two spans is a few ms of wall clock
        # no span can cover, which is more than 2% of a smoke-sized region.
        run.covered = rec.total_self_ns() / wall_ns
        if abs(wall_ns - rec.total_self_ns()) > max(0.02 * wall_ns, 5e6):
            run.violations.append(
                f"self times sum to {run.covered:.3f} of the traced region "
                "(must be within 2%)")
        if spans_path is not None:
            rec.write_jsonl(spans_path)
    calib_after = calibrate()
    run.calib_s = max(calib_before, calib_after)
    run.calib_best_s = min(calib_before, calib_after)
    return run


# -- statistics over runs -------------------------------------------------------

@dataclass
class Stat:
    """A metric over several runs: median and quartiles."""

    value: Optional[float]
    q1: Optional[float] = None
    q3: Optional[float] = None
    n: int = 0                   # samples behind the value (ops or runs)

    @classmethod
    def of(cls, values: Sequence[Optional[float]], n: int) -> "Stat":
        values = [v for v in values if v is not None]
        if not values:
            return cls(None, n=n)
        if len(values) == 1:
            return cls(values[0], n=n)
        q1, _, q3 = statistics.quantiles(values, n=4)
        return cls(statistics.median(values), q1, q3, n)


def _percentiles(ordered: Sequence[float]) -> Dict[str, Optional[float]]:
    return {"lat_p50_us": percentile(ordered, 0.50),
            "lat_p95_us": percentile(ordered, 0.95),
            "lat_p99_us": percentile(ordered, 0.99)}


def host_metrics(runs: Sequence[Run],
                 setups: Sequence[float]) -> Dict[str, Stat]:
    """Host-clock end-to-end metrics: the median, with quartiles, of each
    run's own value (``setup_s`` over every set-up made, which may be more
    than the runs)."""
    per_run = [dict(_percentiles(run.host_us()), ops_per_s=run.ops_per_s)
               for run in runs]
    out = {name: Stat.of([one[name] for one in per_run], runs[0].ops)
           for name in per_run[0]}
    out["setup_s"] = Stat.of(setups, len(setups))
    return out


def class_metrics(run: Run) -> Dict[str, Stat]:
    out: Dict[str, Stat] = {}
    for cls in OP_CLASSES:
        sample = [ns / 1000.0 for ns, c in zip(run.timer.host_ns,
                                               run.timer.classes) if c == cls]
        out[f"class.{cls}.count"] = Stat(float(len(sample)), n=len(sample))
        out[f"class.{cls}.lat_p50_us"] = Stat(
            statistics.median(sample) if sample else None, n=len(sample))
    return out


def layer_metrics(run: Run) -> Dict[str, Stat]:
    out: Dict[str, Stat] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = Stat(float(run.layer_calls[layer]), n=1)
        out[f"{layer}.self_s"] = Stat(run.layer_self_s[layer], n=1)
    return out


def noisy_runs(runs: Sequence[Run]) -> List[Run]:
    """Runs that had a noisy neighbour: the calibration kernel ran more
    than 15% slower before or after them than the best seen beside any."""
    best = min(run.calib_best_s for run in runs)
    return [run for run in runs if run.calib_s > NOISY_CALIBRATION * best]
