"""The HTAP merge daemon: pacing, failpoints, I/O charging, freshness.

The daemon runs on simulated time.  :meth:`HtapManager.maybe_tick` is the
pacing entry point (the autonomous manager drives it and adjusts
``merge_interval_us``); :meth:`HtapManager.tick` force-merges every table
with pending deltas.  Each merge:

* fires the ``htap.freshness`` failpoint per node (a timeout stalls that
  node's merges for the tick) and the ``htap.merge`` failpoint per table
  (a crash mid-merge must lose nothing — the swap in
  :meth:`HtapTableStore.merge` is atomic);
* charges storage I/O the way WLM spill does — bytes×``SPILL_BYTE_US``
  recorded as the ``htap_merge`` wait event against ``dn{i}`` — for the
  entries folded, chunks rewritten and rows appended, not for the table;
* records a :class:`MergeEvent` and per-table freshness lag, surfaced
  through ``sys.htap_tables`` / ``sys.htap_merges``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.faults.injector import (FP_HTAP_FRESHNESS, FP_HTAP_MERGE,
                                   InjectedTimeout)
from repro.htap.store import HtapNodeState, HtapTableStore
from repro.obs.waits import WAIT_HTAP_MERGE
from repro.storage.table import Orientation, TableSchema
from repro.storage.types import DataType
from repro.wlm.memory import SPILL_BYTE_US

#: Charged bytes per row and column: numeric columns as fixed-width words,
#: text as a short-string estimate, plus a per-row header.
_TEXT_BYTES = 24
_WORD_BYTES = 8
_ROW_HEADER_BYTES = 8


def _row_bytes(schema: TableSchema) -> int:
    total = _ROW_HEADER_BYTES
    for column in schema.columns:
        total += _TEXT_BYTES if column.data_type is DataType.TEXT else _WORD_BYTES
    return total


@dataclass
class HtapConfig:
    """Merge daemon tuning knobs."""

    #: Pacing for :meth:`HtapManager.maybe_tick`; the autonomous manager
    #: tightens/relaxes this between ``min``/``max`` to chase the SLA.
    merge_interval_us: float = 50_000.0
    min_interval_us: float = 5_000.0
    max_interval_us: float = 400_000.0
    #: Freshness SLA: commit-to-column-visibility lag the autonomous
    #: manager defends (alert + interval tightening beyond it).
    freshness_sla_us: float = 250_000.0


@dataclass(frozen=True)
class MergeEvent:
    """One completed merge, as surfaced through ``sys.htap_merges``."""

    merge_id: int
    dn: int
    table: str
    t_us: float
    delta_rows: int      # delta entries folded in
    frozen_rows: int     # rows in the new chunk set
    bytes: int           # charged storage I/O volume
    io_us: float         # charged storage I/O time
    max_lag_us: float    # worst commit-to-merge lag among folded entries
    chunks_rewritten: int   # chunks of the new set not shared with the old
    chunks_total: int       # chunks in the new set


class HtapManager:
    """Cluster-wide owner of per-node HTAP state and the merge daemon."""

    def __init__(self, cluster, config: Optional[HtapConfig] = None):
        self.cluster = cluster
        self.config = config if config is not None else HtapConfig()
        self.history: List[MergeEvent] = []
        self._schemas: Dict[str, TableSchema] = {}
        self._next_merge_id = 0
        self._last_tick_us: Optional[float] = None
        # The current tick's root span, created lazily on the tick's first
        # accounted merge (empty ticks trace nothing) and ended when the
        # tick returns.  Per-node merge spans stitch under it by trace
        # context — the daemon's CN-side tick handing work to DNs crosses
        # the same kind of boundary a fragmented query does.
        self._tick_span = None
        self._in_tick = False

    # -- registration ------------------------------------------------------

    def register_table(self, schema: TableSchema) -> None:
        """Enable HTAP for a column-oriented table on every node."""
        if schema.orientation is not Orientation.COLUMN:
            return
        self._schemas[schema.name] = schema
        for dn in self.cluster.dns:
            if not dn.retired:
                self._attach_table(dn, schema)

    def unregister_table(self, name: str) -> None:
        self._schemas.pop(name, None)
        for dn in self.cluster.dns:
            if dn.htap is not None:
                dn.htap.tables.pop(name, None)

    def ensure_node(self, dn) -> None:
        """(Re-)attach HTAP state after failover replaced a node."""
        if dn.htap is not None:
            return
        for schema in self._schemas.values():
            self._attach_table(dn, schema)
            self._count("htap.reseeds")

    def _attach_table(self, dn, schema: TableSchema) -> None:
        if dn.htap is None:
            dn.htap = HtapNodeState()
        store = HtapTableStore(schema)
        dn.htap.tables[schema.name] = store
        # Seed immediately so scans are servable from the start.  At table
        # creation the heap is empty and this is free; after failover it
        # rebuilds the chunk set from the promoted heap and is charged.
        result = store.merge(dn, self._now_us())
        if result is not None:
            self._account(dn, store, result, self._now_us())

    # -- the daemon --------------------------------------------------------

    def maybe_tick(self, now_us: Optional[float] = None) -> int:
        """Run a tick if ``merge_interval_us`` elapsed since the last."""
        now = now_us if now_us is not None else self._now_us()
        if (self._last_tick_us is not None
                and now - self._last_tick_us < self.config.merge_interval_us):
            return 0
        return self.tick(now)

    def tick(self, now_us: Optional[float] = None) -> int:
        """Merge every table with pending deltas; returns merges done."""
        now = now_us if now_us is not None else self._now_us()
        self._last_tick_us = now
        merges = 0
        self._in_tick = True
        faults = getattr(self.cluster, "faults", None)
        try:
            for dn in self.cluster.dns:
                if dn.crashed or dn.retired:
                    continue
                self.ensure_node(dn)
                if dn.htap is None:
                    continue   # no HTAP tables exist yet
                delay_us = 0.0
                if faults is not None:
                    try:
                        outcome = faults.fire(FP_HTAP_FRESHNESS, dn=dn.index)
                    except InjectedTimeout:
                        self._count("htap.daemon_stalls")
                        continue
                    if outcome.dropped:
                        self._count("htap.daemon_stalls")
                        continue
                    delay_us = outcome.delay_us
                for name in sorted(dn.htap.tables):
                    if dn.crashed:
                        break
                    merges += self._merge_one(dn, dn.htap.tables[name], now,
                                              delay_us)
                    delay_us = 0.0   # charged once per node per tick
        finally:
            # On an exception out of a merge body too: a later merge
            # outside any tick (failover re-seed) must not parent to this one.
            self._in_tick = False
            if self._tick_span is not None:
                self._tick_span.set_attribute("merges", merges)
                self.cluster.obs.tracer.end_span(self._tick_span)
                self._tick_span = None
        return merges

    def _merge_one(self, dn, store: HtapTableStore, now_us: float,
                   delay_us: float) -> int:
        faults = getattr(self.cluster, "faults", None)
        if store.frozen is not None and not store.delta.entries:
            return 0
        if faults is not None:
            try:
                outcome = faults.fire(FP_HTAP_MERGE, dn=dn.index,
                                      table=store.schema.name)
            except InjectedTimeout:
                # The merge died before publishing; frozen + delta intact.
                self._count("htap.merges_aborted")
                return 0
            if outcome.dropped:
                self._count("htap.merges_aborted")
                return 0
            delay_us += outcome.delay_us
        result = store.merge(dn, now_us)
        if result is None:
            return 0
        self._account(dn, store, result, now_us, delay_us)
        return 1

    def _account(self, dn, store: HtapTableStore, result, now_us: float,
                 delay_us: float = 0.0) -> None:
        rows_moved, applied, rewritten = result
        if rows_moved == 0 and applied == 0:
            return   # the free table-creation seed
        volume = rows_moved * _row_bytes(store.schema)
        io_us = volume * SPILL_BYTE_US + delay_us
        event = MergeEvent(
            merge_id=self._next_merge_id, dn=dn.index,
            table=store.schema.name, t_us=now_us, delta_rows=applied,
            frozen_rows=store.frozen.row_count, bytes=volume, io_us=io_us,
            max_lag_us=store.max_lag_us, chunks_rewritten=rewritten,
            chunks_total=len(store.frozen.chunks))
        self._next_merge_id += 1
        self.history.append(event)
        obs = self.cluster.obs
        if obs is not None:
            obs.metrics.counter("htap.merges").inc()
            obs.metrics.counter("htap.merge_rows").inc(float(applied))
            obs.metrics.counter("htap.merge_bytes").inc(float(volume))
            obs.metrics.counter("htap.chunks_rewritten").inc(float(rewritten))
            obs.waits.record(WAIT_HTAP_MERGE, io_us,
                             session=f"dn{dn.index}")
            tracer = obs.tracer
            parent_ctx = None
            if self._in_tick:
                tick_span = self._tick_span
                if tick_span is None:
                    tick_span = self._tick_span = tracer.start_span(
                        "htap.tick", parent=None, node="cn")
                # Only the tick's wire identity reaches the data node.
                parent_ctx = tick_span.context()
            span = tracer.start_span(
                "htap.merge", parent_ctx=parent_ctx, node=f"dn{dn.index}",
                table=store.schema.name, delta_rows=applied, bytes=volume)
            tracer.end_span(span, end_us=span.start_us + io_us)

    def _count(self, metric: str) -> None:
        if self.cluster.obs is not None:
            self.cluster.obs.metrics.counter(metric).inc()

    def _now_us(self) -> float:
        return self.cluster.obs.clock.now_us if self.cluster.obs else 0.0

    # -- tuning (autonomous manager) ---------------------------------------

    def set_interval(self, interval_us: float) -> float:
        """Clamp and apply a new merge interval; returns the applied value."""
        clamped = min(self.config.max_interval_us,
                      max(self.config.min_interval_us, interval_us))
        self.config.merge_interval_us = clamped
        return clamped

    # -- introspection -----------------------------------------------------

    def max_freshness_lag_us(self, now_us: Optional[float] = None) -> float:
        now = now_us if now_us is not None else self._now_us()
        lag = 0.0
        for dn in self.cluster.dns:
            if dn.htap is None or dn.retired:
                continue
            for store in dn.htap.tables.values():
                lag = max(lag, store.freshness_lag_us(now))
        return lag

    def delta_rows(self) -> int:
        return sum(len(store.delta)
                   for dn in self.cluster.dns
                   if dn.htap is not None and not dn.retired
                   for store in dn.htap.tables.values())

    def table_rows(self) -> List[tuple]:
        """Feed for ``sys.htap_tables``."""
        now = self._now_us()
        rows = []
        for dn in self.cluster.dns:
            if dn.htap is None or dn.retired:
                continue
            for name in sorted(dn.htap.tables):
                store = dn.htap.tables[name]
                frozen = store.frozen
                rows.append((
                    dn.index, name,
                    frozen.row_count if frozen is not None else 0,
                    frozen.store.chunk_count if frozen is not None else 0,
                    frozen.store.compressed_footprint()
                    if frozen is not None else 0,
                    len(store.delta),
                    frozen.merged_seq if frozen is not None else 0,
                    store.merges,
                    store.last_merge_us,
                    store.freshness_lag_us(now),
                    store.max_lag_us,
                ))
        return rows

    def merge_rows(self) -> List[tuple]:
        """Feed for ``sys.htap_merges``."""
        return [(e.merge_id, e.dn, e.table, e.t_us, e.delta_rows,
                 e.frozen_rows, e.bytes, e.io_us, e.max_lag_us,
                 e.chunks_rewritten, e.chunks_total)
                for e in self.history]

    def reset_history(self) -> None:
        self.history.clear()
