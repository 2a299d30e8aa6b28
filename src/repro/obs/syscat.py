"""The ``sys`` schema: SQL-queryable system views over live engine state.

Production MPP systems expose engine internals through catalog views
(Greenplum's ``gp_stat_*`` / ``pg_stat_activity`` family); this module is
that surface for the reproduction.  Each view implements the binder's
:class:`~repro.sql.binder.TableFunctionImpl` protocol, so a plain

    SELECT * FROM sys.activity WHERE state = 'waiting'

binds to a ``LogicalTableFunction``, lowers to the standard
``PTableFunction`` physical operator, and composes with filters, joins and
aggregates exactly like a user table — no side channel, no special executor.
Rows are produced at *execution* time, straight out of the live
:class:`~repro.obs.Observability` state, so a view read mid-run sees the
engine as it is at that simulated instant.

Views:

* ``sys.metrics``      — the flattened metric registry (name, kind, value).
* ``sys.activity``     — open transactions: state, snapshot kind, waits.
* ``sys.wait_events``  — aggregated wait-event accounting.
* ``sys.slow_queries`` — the slow-query ring buffer with profile summaries.
* ``sys.spans``        — recently finished tracer spans.
* ``sys.alerts``       — live alerts, severity-ranked.
* ``sys.faults``       — injected-fault history (``repro.faults``).
* ``sys.wlm_groups``   — resource groups: config plus live/lifetime counters.
* ``sys.wlm_queue``    — the admission event history (``repro.wlm``).
* ``sys.htap_tables``  — per-DN dual-format table state: frozen chunks,
  pending delta rows, merge watermark, freshness lag (``repro.htap``).
* ``sys.htap_merges``  — the delta-merge history: rows folded, storage I/O
  charged, worst commit-to-merge lag and chunks rewritten (of how many)
  per merge.
* ``sys.trace_spans``  — finished spans stitched into trace trees: one row
  per span with its trace id, tree depth and executing node.
* ``sys.shard_map``    — the versioned slot table: one row per hash slot
  with its owner, in-flight move target and scan exclusions
  (``repro.cluster.shardmap``).
* ``sys.rebalance``    — online-resharding move history: state, rows
  copied/truncated, begin/flip/end timestamps (``repro.cluster.rebalance``).
* ``sys.wait_samples`` — the sampled wait-event detail ring (deterministic
  1-in-N capture of the high-frequency events; see ``sys.obs_config``).
* ``sys.wait_sampling``— per-event sampling accounting: stride, events
  seen, detail samples taken (exact aggregates are never sampled).
* ``sys.obs_config``   — the live telemetry-mode knobs (sampling rates,
  ring capacities, enable flags).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.storage.types import DataType

if TYPE_CHECKING:  # pragma: no cover - only for annotations
    from repro.obs import Observability

SYS_SCHEMA = "sys"

Columns = List[Tuple[str, DataType]]


class SystemView:
    """One virtual table, backed by a row-producing callable."""

    def __init__(self, name: str, columns: Columns,
                 producer: Callable[[], Iterable[tuple]]):
        self.name = name
        self.columns = columns
        self._producer = producer

    # -- TableFunctionImpl protocol ---------------------------------------

    def output_schema(self, args: Sequence[object]) -> Columns:
        return list(self.columns)

    def rows(self, args: Sequence[object]) -> Iterable[tuple]:
        return self._producer()

    def estimated_rows(self, args: Sequence[object]) -> int:
        # Virtual tables are small; a fixed modest guess keeps the planner
        # from broadcasting real tables against them.
        return 64


class SystemCatalog:
    """The registry of ``sys.*`` views for one cluster's observability."""

    def __init__(self, obs: "Observability"):
        self.obs = obs
        self.views: Dict[str, SystemView] = {}
        self._register(
            "metrics",
            [("name", DataType.TEXT), ("kind", DataType.TEXT),
             ("value", DataType.DOUBLE)],
            self._metrics_rows,
        )
        self._register(
            "activity",
            [("activity_id", DataType.BIGINT), ("txn_id", DataType.BIGINT),
             ("session", DataType.BIGINT), ("cn", DataType.BIGINT),
             ("kind", DataType.TEXT), ("state", DataType.TEXT),
             ("snapshot", DataType.TEXT), ("start_us", DataType.DOUBLE),
             ("elapsed_us", DataType.DOUBLE), ("wait_us", DataType.DOUBLE),
             ("last_wait", DataType.TEXT)],
            self._activity_rows,
        )
        self._register(
            "wait_events",
            [("event", DataType.TEXT), ("count", DataType.BIGINT),
             ("total_us", DataType.DOUBLE), ("avg_us", DataType.DOUBLE),
             ("max_us", DataType.DOUBLE)],
            self._wait_rows,
        )
        self._register(
            "slow_queries",
            [("query_id", DataType.BIGINT), ("sql", DataType.TEXT),
             ("start_us", DataType.DOUBLE), ("elapsed_us", DataType.DOUBLE),
             ("rows", DataType.BIGINT), ("operators", DataType.BIGINT),
             ("top_operator", DataType.TEXT),
             ("top_operator_us", DataType.DOUBLE),
             ("queue_us", DataType.DOUBLE)],
            self._slow_query_rows,
        )
        self._register(
            "spans",
            [("span_id", DataType.BIGINT), ("parent_id", DataType.BIGINT),
             ("name", DataType.TEXT), ("start_us", DataType.DOUBLE),
             ("end_us", DataType.DOUBLE), ("duration_us", DataType.DOUBLE),
             ("trace_id", DataType.BIGINT), ("node", DataType.TEXT)],
            self._span_rows,
        )
        self._register(
            "trace_spans",
            [("trace_id", DataType.BIGINT), ("span_id", DataType.BIGINT),
             ("parent_id", DataType.BIGINT), ("depth", DataType.BIGINT),
             ("name", DataType.TEXT), ("node", DataType.TEXT),
             ("start_us", DataType.DOUBLE), ("end_us", DataType.DOUBLE),
             ("duration_us", DataType.DOUBLE)],
            self._trace_span_rows,
        )
        self._register(
            "wait_samples",
            [("event", DataType.TEXT), ("session", DataType.TEXT),
             ("wait_us", DataType.DOUBLE), ("t_us", DataType.DOUBLE),
             ("event_seq", DataType.BIGINT)],
            self._wait_sample_rows,
        )
        self._register(
            "wait_sampling",
            [("event", DataType.TEXT), ("every", DataType.BIGINT),
             ("seen", DataType.BIGINT), ("sampled", DataType.BIGINT)],
            self._wait_sampling_rows,
        )
        self._register(
            "obs_config",
            [("setting", DataType.TEXT), ("value", DataType.TEXT)],
            self._obs_config_rows,
        )
        self._register(
            "alerts",
            [("alert_id", DataType.BIGINT), ("severity", DataType.TEXT),
             ("source", DataType.TEXT), ("message", DataType.TEXT),
             ("first_us", DataType.DOUBLE), ("last_us", DataType.DOUBLE),
             ("count", DataType.BIGINT)],
            self._alert_rows,
        )
        self._register(
            "faults",
            [("fault_id", DataType.BIGINT), ("failpoint", DataType.TEXT),
             ("action", DataType.TEXT), ("target", DataType.TEXT),
             ("gxid", DataType.BIGINT), ("t_us", DataType.DOUBLE)],
            self._fault_rows,
        )
        # "group" is a SQL keyword, so the group column is group_name.
        self._register(
            "wlm_groups",
            [("group_name", DataType.TEXT), ("slots", DataType.BIGINT),
             ("memory_per_query", DataType.BIGINT),
             ("priority", DataType.TEXT), ("timeout_us", DataType.DOUBLE),
             ("queue_limit", DataType.BIGINT), ("running", DataType.BIGINT),
             ("queued", DataType.BIGINT), ("admitted", DataType.BIGINT),
             ("rejected", DataType.BIGINT), ("cancelled", DataType.BIGINT),
             ("spills", DataType.BIGINT),
             ("spilled_bytes", DataType.BIGINT)],
            self._wlm_group_rows,
        )
        self._register(
            "wlm_queue",
            [("event_id", DataType.BIGINT), ("query_id", DataType.BIGINT),
             ("group_name", DataType.TEXT), ("priority", DataType.TEXT),
             ("event", DataType.TEXT), ("t_us", DataType.DOUBLE),
             ("wait_us", DataType.DOUBLE)],
            self._wlm_queue_rows,
        )
        # "table" is a SQL keyword, so the table column is table_name.
        self._register(
            "htap_tables",
            [("dn", DataType.BIGINT), ("table_name", DataType.TEXT),
             ("frozen_rows", DataType.BIGINT),
             ("frozen_chunks", DataType.BIGINT),
             ("footprint", DataType.BIGINT),
             ("delta_rows", DataType.BIGINT),
             ("merged_seq", DataType.BIGINT), ("merges", DataType.BIGINT),
             ("last_merge_us", DataType.DOUBLE),
             ("freshness_lag_us", DataType.DOUBLE),
             ("max_lag_us", DataType.DOUBLE)],
            self._htap_table_rows,
        )
        self._register(
            "shard_map",
            [("slot", DataType.BIGINT), ("owner", DataType.BIGINT),
             ("moving_to", DataType.BIGINT),
             ("excluded_on", DataType.TEXT)],
            self._shard_map_rows,
        )
        self._register(
            "rebalance",
            [("move_id", DataType.BIGINT), ("source", DataType.BIGINT),
             ("target", DataType.BIGINT), ("slots", DataType.BIGINT),
             ("state", DataType.TEXT), ("rows_copied", DataType.BIGINT),
             ("rows_truncated", DataType.BIGINT),
             ("t_begin_us", DataType.DOUBLE), ("t_flip_us", DataType.DOUBLE),
             ("t_end_us", DataType.DOUBLE)],
            self._rebalance_rows,
        )
        self._register(
            "geo_regions",
            [("region", DataType.BIGINT), ("name", DataType.TEXT),
             ("priority", DataType.BIGINT), ("dns", DataType.BIGINT),
             ("hosted_slots", DataType.BIGINT),
             ("certified_epoch", DataType.BIGINT),
             ("commits", DataType.BIGINT), ("aborts", DataType.BIGINT),
             ("open_txns", DataType.BIGINT), ("crashed", DataType.BIGINT)],
            self._geo_region_rows,
        )
        self._register(
            "geo_epochs",
            [("epoch", DataType.BIGINT), ("region", DataType.BIGINT),
             ("txns", DataType.BIGINT), ("committed", DataType.BIGINT),
             ("aborted", DataType.BIGINT),
             ("applied_ops", DataType.BIGINT),
             ("seal_us", DataType.DOUBLE), ("certify_us", DataType.DOUBLE),
             ("apply_us", DataType.DOUBLE), ("digest", DataType.BIGINT)],
            self._geo_epoch_rows,
        )
        self._register(
            "geo_shard_map",
            [("slot", DataType.BIGINT), ("home_region", DataType.BIGINT),
             ("subscribers", DataType.TEXT)],
            self._geo_shard_map_rows,
        )
        self._register(
            "htap_merges",
            [("merge_id", DataType.BIGINT), ("dn", DataType.BIGINT),
             ("table_name", DataType.TEXT), ("t_us", DataType.DOUBLE),
             ("delta_rows", DataType.BIGINT),
             ("frozen_rows", DataType.BIGINT), ("bytes", DataType.BIGINT),
             ("io_us", DataType.DOUBLE), ("max_lag_us", DataType.DOUBLE),
             ("chunks_rewritten", DataType.BIGINT),
             ("chunks_total", DataType.BIGINT)],
            self._htap_merge_rows,
        )

    def _register(self, short_name: str, columns: Columns,
                  producer: Callable[[], Iterable[tuple]]) -> None:
        name = f"{SYS_SCHEMA}.{short_name}"
        self.views[name] = SystemView(name, columns, producer)

    def get(self, name: str):
        return self.views.get(name.lower())

    def names(self) -> List[str]:
        return sorted(self.views)

    # -- row producers -----------------------------------------------------

    def _metrics_rows(self) -> Iterable[tuple]:
        _, flat = self.obs.metrics.snapshot()
        kind_of = self.obs.metrics.kind_of
        return [(name, kind_of(name) or "", value)
                for name, value in sorted(flat.items())]

    def _activity_rows(self) -> Iterable[tuple]:
        now_us = self.obs.clock.now_us
        return [
            (e.activity_id, e.txn_id, e.session, e.cn, e.kind, e.state,
             e.snapshot, e.start_us, e.elapsed_us(now_us), e.wait_us,
             e.last_wait)
            for e in self.obs.activity.open_entries()
        ]

    def _wait_rows(self) -> Iterable[tuple]:
        return self.obs.waits.rows()

    def _slow_query_rows(self) -> Iterable[tuple]:
        return [entry.as_row() for entry in self.obs.slowlog.entries()]

    def _span_rows(self) -> Iterable[tuple]:
        return [
            (s.span_id, s.parent_id, s.name, s.start_us, s.end_us,
             s.duration_us, s.trace_id, s.node)
            for s in self.obs.tracer.finished_spans()
        ]

    def _trace_span_rows(self) -> Iterable[tuple]:
        tracer = self.obs.tracer
        rows = []
        for trace_id in tracer.trace_ids():
            for span, depth in tracer.trace_tree(trace_id):
                rows.append((
                    trace_id, span.span_id, span.parent_id, depth,
                    span.name, span.node, span.start_us, span.end_us,
                    span.duration_us,
                ))
        return rows

    def _wait_sample_rows(self) -> Iterable[tuple]:
        return [
            (event, str(session) if session is not None else None,
             wait_us, t_us, seq)
            for event, session, wait_us, t_us, seq
            in self.obs.waits.sample_rows()
        ]

    def _wait_sampling_rows(self) -> Iterable[tuple]:
        return self.obs.waits.sampling_rows()

    def _obs_config_rows(self) -> Iterable[tuple]:
        return self.obs.config.rows()

    def _alert_rows(self) -> Iterable[tuple]:
        return [alert.as_row() for alert in self.obs.alerts.alerts()]

    def _fault_rows(self) -> Iterable[tuple]:
        if self.obs.faults is None:
            return []
        return self.obs.faults.rows()

    def _wlm_group_rows(self) -> Iterable[tuple]:
        if self.obs.wlm is None:
            return []
        return self.obs.wlm.group_rows()

    def _wlm_queue_rows(self) -> Iterable[tuple]:
        if self.obs.wlm is None:
            return []
        return self.obs.wlm.queue_rows()

    def _shard_map_rows(self) -> Iterable[tuple]:
        if self.obs.shard_map is None:
            return []
        return self.obs.shard_map.rows()

    def _geo_region_rows(self) -> Iterable[tuple]:
        if self.obs.geo is None:
            return []
        return self.obs.geo.region_rows()

    def _geo_epoch_rows(self) -> Iterable[tuple]:
        if self.obs.geo is None:
            return []
        return self.obs.geo.epoch_rows()

    def _geo_shard_map_rows(self) -> Iterable[tuple]:
        if self.obs.geo is None:
            return []
        return self.obs.geo.shard_rows()

    def _rebalance_rows(self) -> Iterable[tuple]:
        if self.obs.rebalance is None:
            return []
        return self.obs.rebalance.rows()

    def _htap_table_rows(self) -> Iterable[tuple]:
        if self.obs.htap is None:
            return []
        return self.obs.htap.table_rows()

    def _htap_merge_rows(self) -> Iterable[tuple]:
        if self.obs.htap is None:
            return []
        return self.obs.htap.merge_rows()
