"""Cost context: threads a simulated-time cursor through cluster operations.

A :class:`CostContext` represents one simulated client's point in time.  As
the client's transaction steps acquire serial resources (the GTM, data
nodes), the cursor advances: each step begins no earlier than both the
cursor and the resource allow, mirroring an RPC to a busy server.

Correctness code never depends on a context — every cluster operation
accepts ``ctx=None`` and simply skips accounting.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.net.latency import MppCostModel
from repro.net.resource import Resource, ResourcePool
from repro.storage.types import DataType

#: Wire width (bytes) per column type for exchange costing.  Fixed-width
#: types serialize as their storage width; TEXT uses a typical short-string
#: estimate; unknown/untyped columns fall back to 8 bytes.
_TYPE_WIDTH_BYTES = {
    DataType.INT: 8,
    DataType.BIGINT: 8,
    DataType.DOUBLE: 8,
    DataType.TIMESTAMP: 8,
    DataType.BOOL: 1,
    DataType.TEXT: 32,
}
_DEFAULT_WIDTH_BYTES = 8


def row_width_bytes(types: Iterable[Optional[DataType]]) -> int:
    """Estimated serialized width of one row with the given column types."""
    return sum(_TYPE_WIDTH_BYTES.get(t, _DEFAULT_WIDTH_BYTES) for t in types)


def exchange_cost_us(model: MppCostModel, rows: int, width_bytes: int,
                     edges: int = 1, hop_us: Optional[float] = None) -> float:
    """Simulated cost of moving ``rows`` through one exchange operator.

    Each of the ``edges`` sender streams pays a startup cost plus a network
    hop pair; the data itself pays a per-byte wire cost over
    ``rows * width_bytes`` (rows are whatever actually crossed the exchange,
    so a partial aggregate that collapses a million rows into fifty groups
    moves fifty rows' worth of bytes).

    ``hop_us`` is the one-way hop latency the exchange's streams actually
    cross.  Callers that know their topology resolve it through
    :meth:`repro.net.fabric.Fabric.hop_us` (LAN within a region, WAN
    across regions); ``None`` falls back to the cost model's LAN hop, the
    single-region behavior.
    """
    edges = max(1, int(edges))
    if hop_us is None:
        hop_us = model.lan_hop_us
    startup = edges * (model.exchange_startup_us + 2 * hop_us)
    return startup + model.wire_byte_us * float(rows) * float(width_bytes)


class CostContext:
    """One client's simulated-time cursor plus the shared cost model."""

    def __init__(self, pool: ResourcePool, model: MppCostModel, start_us: float = 0.0):
        self.pool = pool
        self.model = model
        self.t_us = float(start_us)

    def charge(self, resource: Resource, service_us: float, hops: int = 1) -> float:
        """RPC to ``resource``: pay network hops plus service.

        The client's cursor advances by the round trip and the service time;
        the resource accumulates the service demand.  Queueing is accounted
        at the simulation level by the bottleneck law — the run's makespan is
        ``max(slowest client cursor, busiest resource demand)`` — rather than
        per-request, because the driver replays whole transactions and a
        per-request FIFO horizon would falsely serialize concurrent
        transactions around network gaps.  Returns the new cursor time.
        """
        scaled = resource.occupy(service_us)
        self.t_us += 2 * hops * self.model.lan_hop_us + scaled
        return self.t_us

    def charge_local(self, service_us: float) -> float:
        """Client-side (or CN-side) work that occupies no shared resource."""
        self.t_us += service_us
        return self.t_us

    def wait_until(self, t_us: float) -> float:
        if t_us > self.t_us:
            self.t_us = t_us
        return self.t_us
