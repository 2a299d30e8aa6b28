"""Telemetry-mode configuration: sampling rates, ring sizes, enable flags.

One :class:`ObsConfig` travels with an :class:`~repro.obs.Observability`
and is introspectable at runtime through the ``sys.obs_config`` system
view, so dashboards and tests can tell *which* telemetry mode produced the
numbers they are looking at (fully recorded vs sampled detail, trace
capture on or off, buffer capacities).

The defaults encode the fast-path contract from ROADMAP item 2: exact
counters always, detailed samples for the high-frequency wait events at a
deterministic 1-in-``wait_sample_every`` rate, everything timestamped off
the shared sim clock so replays sample identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.common.errors import ConfigError

#: Wait events fired per *statement* under OLTP load — the ones whose
#: histogram/detail recording dominates telemetry cost.  Their exact
#: aggregates (count/total/max in ``sys.wait_events``) are never sampled;
#: only the per-observation detail (histogram buckets, sample ring,
#: reservoir) is.
HIGH_FREQUENCY_WAIT_EVENTS: Tuple[str, ...] = (
    "dn.apply", "dn.scan", "dn.commit", "gtm.local",
)


@dataclass
class ObsConfig:
    """Knobs for the telemetry fast path.

    * ``wait_sample_every`` — record full detail for 1 in N observations
      of a high-frequency wait event (1 = unsampled).  Aggregates stay
      exact regardless.
    * ``wait_sample_seed`` — seeds the deterministic samplers; same seed,
      same workload ⇒ byte-identical sample sets.
    * ``wait_detail_capacity`` — slots in the preallocated wait-sample
      ring buffer behind ``sys.wait_samples``.
    * ``wait_reservoir_size`` — per-event reservoir of raw wait values
      (exact percentiles over a bounded uniform sample).
    * ``max_spans`` — slots in the tracer's finished-span ring buffer.
    """

    wait_sample_every: int = 8
    wait_sample_seed: int = 0
    wait_detail_capacity: int = 4096
    wait_reservoir_size: int = 256
    max_spans: int = 10_000
    high_frequency_events: Tuple[str, ...] = field(
        default=HIGH_FREQUENCY_WAIT_EVENTS)

    def __post_init__(self) -> None:
        if self.wait_sample_every < 1:
            raise ConfigError("wait_sample_every must be >= 1")
        if self.wait_detail_capacity <= 0:
            raise ConfigError("wait_detail_capacity must be positive")
        if self.wait_reservoir_size <= 0:
            raise ConfigError("wait_reservoir_size must be positive")
        if self.max_spans <= 0:
            raise ConfigError("max_spans must be positive")

    def sample_every_for(self, event: str) -> int:
        """The detail-sampling stride for one wait event."""
        if event in self.high_frequency_events:
            return self.wait_sample_every
        return 1

    def rows(self) -> List[Tuple[str, str]]:
        """``sys.obs_config`` rows: (setting, value) as text."""
        return [
            ("high_frequency_events", ",".join(self.high_frequency_events)),
            ("max_spans", str(self.max_spans)),
            ("wait_detail_capacity", str(self.wait_detail_capacity)),
            ("wait_reservoir_size", str(self.wait_reservoir_size)),
            ("wait_sample_every", str(self.wait_sample_every)),
            ("wait_sample_seed", str(self.wait_sample_seed)),
        ]
