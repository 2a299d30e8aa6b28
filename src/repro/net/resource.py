"""Serial-resource accounting for the performance simulation.

The paper's Figure 3 is, at bottom, a queueing phenomenon: the classical GTM
is a *serial* resource sitting on every transaction's critical path, so adding
data nodes stops helping; GTM-lite takes single-shard transactions off that
path, so the system scales with the number of data nodes.

We reproduce this with a deterministic trace-driven simulation.  Every
hardware component (each DN, each CN, the GTM) is a :class:`Resource` — a
FIFO server with a ``busy_until`` horizon.  Simulated clients run transactions
whose steps *acquire* resources for a service time; a step cannot start
before the resource is free.  Throughput is work divided by makespan.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class Resource:
    """A serial FIFO server with utilization accounting."""

    def __init__(self, name: str, speedup: float = 1.0):
        if speedup <= 0:
            raise ValueError("speedup must be positive")
        self.name = name
        self.speedup = speedup
        self.busy_until_us = 0.0
        self.total_busy_us = 0.0
        self.requests = 0

    def acquire(self, ready_us: float, service_us: float) -> Tuple[float, float]:
        """Serve a request that arrives at ``ready_us`` and needs ``service_us``.

        Returns ``(start_us, end_us)``: service begins when both the caller is
        ready and the resource is free, and occupies the resource until
        ``end_us``.  Use for strictly time-ordered request streams.
        """
        if service_us < 0:
            raise ValueError("service time must be non-negative")
        scaled = service_us / self.speedup
        start = max(ready_us, self.busy_until_us)
        end = start + scaled
        self.busy_until_us = end
        self.total_busy_us += scaled
        self.requests += 1
        return start, end

    def occupy(self, service_us: float) -> float:
        """Accumulate busy time without a timeline position.

        Used by the bottleneck-law accounting mode: clients advance their own
        cursors by latency+service, while each resource independently sums the
        service demand placed on it.  The simulation's makespan is then
        ``max(slowest client, busiest resource)`` — the classic operational
        bound that determines where throughput saturates.
        """
        if service_us < 0:
            raise ValueError("service time must be non-negative")
        scaled = service_us / self.speedup
        self.total_busy_us += scaled
        self.requests += 1
        return scaled

    def utilization(self, horizon_us: float) -> float:
        """Fraction of ``[0, horizon_us]`` this resource spent busy."""
        if horizon_us <= 0:
            return 0.0
        return min(1.0, self.total_busy_us / horizon_us)

    def reset(self) -> None:
        self.busy_until_us = 0.0
        self.total_busy_us = 0.0
        self.requests = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Resource({self.name!r}, busy={self.total_busy_us:.0f}us, n={self.requests})"


class ResourcePool:
    """A named collection of resources with aggregate reporting."""

    def __init__(self) -> None:
        self._resources: Dict[str, Resource] = {}

    def add(self, name: str, speedup: float = 1.0) -> Resource:
        if name in self._resources:
            raise ValueError(f"duplicate resource {name!r}")
        res = Resource(name, speedup)
        self._resources[name] = res
        return res

    def get(self, name: str) -> Resource:
        try:
            return self._resources[name]
        except KeyError:
            raise KeyError(f"unknown resource {name!r}") from None

    def names(self) -> List[str]:
        return sorted(self._resources)

    def reset(self) -> None:
        for res in self._resources.values():
            res.reset()

    def makespan_us(self) -> float:
        """Latest time any resource is busy until."""
        if not self._resources:
            return 0.0
        return max(r.busy_until_us for r in self._resources.values())

    def max_busy_us(self) -> float:
        """Total busy time of the busiest resource (the bottleneck bound)."""
        if not self._resources:
            return 0.0
        return max(r.total_busy_us for r in self._resources.values())

    def busiest(self) -> Optional[Resource]:
        """The resource with the highest total busy time (the bottleneck)."""
        if not self._resources:
            return None
        return max(self._resources.values(), key=lambda r: r.total_busy_us)

    def report(self, horizon_us: Optional[float] = None) -> Dict[str, float]:
        """Per-resource utilization over ``horizon_us`` (default: makespan)."""
        horizon = horizon_us if horizon_us is not None else self.makespan_us()
        return {name: res.utilization(horizon) for name, res in sorted(self._resources.items())}
