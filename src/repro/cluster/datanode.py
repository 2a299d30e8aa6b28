"""Data nodes (DNs).

A data node owns one shard of every hash-distributed table (and a full copy
of replicated tables), a local transaction manager, and the MVCC heaps.  It
"maintains the local ACID properties" (paper, Sec. II): all tuple-level
reads and writes happen here under a snapshot supplied by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.common.errors import CatalogError, ShardReadOnly, StorageError
from repro.storage.heap import MvccHeap
from repro.storage.table import TableSchema
from repro.txn.manager import LocalTransactionManager
from repro.txn.snapshot import Snapshot
from repro.txn.status import TxnStatus
from repro.txn.xid import INVALID_XID


@dataclass(frozen=True)
class RedoOp:
    """One logical write, as shipped to a standby replica on commit."""

    op: str                      # 'insert' | 'update' | 'delete'
    table: str
    key: object
    values: Optional[Dict[str, object]] = None


class _Image:
    """A row table's visible rows under its last walk, as one typed batch:
    the column image a lane scan reuses while it is exact.

    It is exact for a later scan of the same heap, while the heap's
    mutation count is unchanged, under a snapshot that decides every xid
    in ``decisions`` as the walk did (``MvccHeap.visible``)."""

    __slots__ = ("heap", "mutations", "decisions", "batch")

    def __init__(self, heap: MvccHeap, decisions: Dict[int, bool], batch):
        self.heap = heap
        self.mutations = heap.mutations
        self.decisions = decisions
        #: ``None`` when no row is visible
        self.batch = batch

    def serves(self, heap: MvccHeap, snapshot: Snapshot, clog,
               xid: int) -> bool:
        if heap is not self.heap or heap.mutations != self.mutations:
            return False
        xid_visible = snapshot.xid_visible
        return all(xid_visible(x, clog, xid) == ok
                   for x, ok in self.decisions.items())


class DataNode:
    """One shard server: local XIDs, local clog, local heaps."""

    def __init__(self, node_id: str, index: int, obs=None):
        self.node_id = node_id
        self.index = index
        self.ltm = LocalTransactionManager(node_id)
        self._heaps: Dict[str, MvccHeap] = {}
        self._schemas: Dict[str, TableSchema] = {}
        self._redo: Dict[int, List[RedoOp]] = {}
        #: table -> the column image of its last lane scan (:meth:`scan_lanes`)
        self._images: Dict[str, _Image] = {}
        #: Invoked with a committed transaction's redo ops (HA log shipping).
        self.replication_hook: Optional[Callable[[List[RedoOp]], None]] = None
        #: Invoked with (gxid, redo) at prepare time — 2PC's durability point.
        #: The standby stages the redo so a GTM-committed-but-unconfirmed
        #: write survives this node's crash.  May raise to veto the prepare.
        self.prepare_hook: Optional[Callable[[int, List[RedoOp]], None]] = None
        #: Invoked with (gxid, 'commit'|'abort') when a *prepared* global
        #: transaction resolves, so the standby applies or drops its staged
        #: redo instead of receiving a duplicate commit shipment.
        self.resolve_hook: Optional[Callable[[int, str], None]] = None
        #: Set by the fault injector's ``crash_dn`` action: a crashed node
        #: answers no RPC until failover replaces it.
        self.crashed = False
        #: Set by graceful degradation when this shard's node died with no
        #: promotable standby: reads keep working, writes are refused.
        self.read_only = False
        #: Set when the node is drained and removed from the shard map's
        #: active membership (scale-in retires indices in place rather than
        #: renumbering survivors); routing/scans/HTAP/chaos all skip it.
        self.retired = False
        #: Optional :class:`repro.obs.Observability` (set by the cluster);
        #: tuple reads, writes and scan rows are counted into it.
        self.obs = obs
        #: Interned counter objects, resolved from the registry once per
        #: metric name; every later ``_note`` is a dict probe + ``inc``.
        self._counters: Dict[str, object] = {}
        # Per-statement tuple counts are kept as plain integers on the node
        # (a bump is one attribute increment, obs on or off) and folded into
        # the registry's dn.read / exec.rows / dn.apply / dn.scan counters
        # by a scrape-time collector — so ``sys.metrics`` and snapshots stay
        # exact while tuple access never touches a metric object.
        self._n_read = 0
        self._n_rows = 0
        self._n_apply = 0
        self._n_scan = 0
        if obs is not None:
            metrics = obs.metrics
            self._c_read = metrics.counter("dn.read")
            self._c_rows = metrics.counter("exec.rows")
            self._c_apply = metrics.counter("dn.apply")
            self._c_scan = metrics.counter("dn.scan")
            metrics.add_collector(self._flush_tuple_counts)
        else:
            self._c_read = self._c_rows = None
            self._c_apply = self._c_scan = None
        #: Optional :class:`repro.htap.store.HtapNodeState` (attached by
        #: the cluster's HtapManager): per-table delta stores + frozen
        #: column chunks.  ``None`` until the node holds a column table, and
        #: on replacement nodes until the merge daemon re-seeds them.
        self.htap = None

    def _flush_tuple_counts(self) -> None:
        """Scrape-time collector: pending tuple counts → registry counters.

        Registry resets zero the counter objects in place (the refs stay
        valid), and ``MetricsRegistry.reset`` drains collectors first, so
        pendings never leak across ``reset_telemetry``.
        """
        n = self._n_read
        if n:
            self._c_read._value += n
            self._n_read = 0
        n = self._n_rows
        if n:
            self._c_rows._value += n
            self._n_rows = 0
        n = self._n_apply
        if n:
            self._c_apply._value += n
            self._n_apply = 0
        n = self._n_scan
        if n:
            self._c_scan._value += n
            self._n_scan = 0

    def _note(self, metric: str, amount: float = 1.0) -> None:
        obs = self.obs
        if obs is None:
            return
        counter = self._counters.get(metric)
        if counter is None:
            counter = self._counters[metric] = obs.metrics.counter(metric)
        # Counter.inc minus the call and the can't-decrease guard: every
        # amount noted here is a non-negative row/tuple count.
        counter._value += amount

    # -- DDL ---------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        if schema.name in self._heaps:
            raise CatalogError(f"{self.node_id}: table {schema.name} already exists")
        self._heaps[schema.name] = MvccHeap(f"{self.node_id}.{schema.name}")
        self._schemas[schema.name] = schema

    def drop_table(self, name: str) -> None:
        self._heaps.pop(name, None)
        self._schemas.pop(name, None)
        self._images.pop(name, None)

    def heap(self, table: str) -> MvccHeap:
        try:
            return self._heaps[table]
        except KeyError:
            raise CatalogError(f"{self.node_id}: no table {table!r}") from None

    def has_table(self, table: str) -> bool:
        return table in self._heaps

    # -- transaction control ------------------------------------------------

    def begin(self, gxid: Optional[int] = None) -> int:
        return self.ltm.begin(gxid)

    def local_snapshot(self) -> Snapshot:
        return self.ltm.local_snapshot()

    def prepare(self, xid: int) -> None:
        # Stage the redo on the standby *before* the local prepare record:
        # prepare is 2PC's durability promise, so once this node votes yes
        # the write must survive its crash.  A failed shipment (standby
        # partitioned) propagates as the node voting no.
        gxid = self.ltm.gxid_for(xid)
        if gxid is not None and self.prepare_hook is not None:
            self.prepare_hook(gxid, list(self._redo.get(xid, [])))
        self.ltm.prepare(xid)

    def commit(self, xid: int) -> None:
        was_prepared = self.ltm.clog.get(xid) is TxnStatus.PREPARED
        gxid = self.ltm.gxid_for(xid)
        self.ltm.commit(xid)
        redo = self._redo.pop(xid, None)
        if redo and self.htap is not None:
            # Committed writes (and only those) feed the HTAP delta store,
            # in commit order — the merge daemon's input stream.
            now_us = self.obs.clock.now_us if self.obs is not None else 0.0
            self.htap.capture_commit(self, xid, redo, now_us)
        if was_prepared and gxid is not None and self.resolve_hook is not None:
            # The standby already holds this transaction's redo (staged at
            # prepare); resolving the stage replaces the commit shipment.
            self.resolve_hook(gxid, "commit")
        elif redo and self.replication_hook is not None:
            self.replication_hook(redo)

    def abort(self, xid: int) -> None:
        was_prepared = self.ltm.clog.get(xid) is TxnStatus.PREPARED
        gxid = self.ltm.gxid_for(xid)
        # Eagerly roll back heap writes so aborted versions never linger;
        # the transaction's write set pinpoints exactly what to undo.
        for table, key in self.ltm.write_set(xid).frozen():
            self.heap(table).abort_key(key, xid)
        self.ltm.abort(xid)
        self._redo.pop(xid, None)
        if was_prepared and gxid is not None and self.resolve_hook is not None:
            self.resolve_hook(gxid, "abort")

    # -- tuple access ---------------------------------------------------------

    def read(self, table: str, key: object, snapshot: Snapshot,
             xid: int = INVALID_XID) -> Optional[Dict[str, object]]:
        row = self.heap(table).read(key, snapshot, self.ltm.clog, xid)
        self._n_read += 1
        if row is not None:
            self._n_rows += 1
        return row

    def scan_position(self, table: str, key: object) -> int:
        """Where a live ``key`` sits in this node's scan order (the heap's
        arrival stamp), so point reads can be returned as a scan would."""
        return self.heap(table).stamp_of(key)

    def _require_writable(self) -> None:
        if self.read_only:
            raise ShardReadOnly(
                f"{self.node_id} is degraded to read-only (no standby)")

    def insert(self, table: str, row: Dict[str, object], xid: int,
               snapshot: Snapshot) -> None:
        """Insert a *typed* row: every column of the table's schema, each
        value ``None`` or of its column's Python type, as
        :meth:`TableSchema.coerce_row` returns it or a heap stored it.  It is
        stored and shipped as given, with no second check; callers with a
        row from outside type it first (``Transaction.insert``)."""
        self._require_writable()
        key = self._schemas[table].key_of(row)
        self.heap(table).insert(key, row, xid, snapshot, self.ltm.clog)
        self.ltm.record_write(xid, table, key)
        self._n_apply += 1
        self._redo.setdefault(xid, []).append(
            RedoOp("insert", table, key, row))

    def update(self, table: str, key: object, values: Dict[str, object],
               xid: int, snapshot: Snapshot) -> None:
        """Assign ``values`` to the visible row of ``key``.  Only the
        assigned columns are checked (:meth:`TableSchema.coerce_values`):
        the rest of the row is typed already."""
        self._require_writable()
        heap = self.heap(table)
        current = heap.read(key, snapshot, self.ltm.clog, xid)
        if current is None:
            raise StorageError(f"{self.node_id}.{table}: key {key!r} not visible")
        current.update(self._schemas[table].coerce_values(values))
        heap.update(key, current, xid, snapshot, self.ltm.clog)
        self.ltm.record_write(xid, table, key)
        self._n_apply += 1
        self._redo.setdefault(xid, []).append(
            RedoOp("update", table, key, current))

    def delete(self, table: str, key: object, xid: int, snapshot: Snapshot) -> None:
        self._require_writable()
        self.heap(table).delete(key, xid, snapshot, self.ltm.clog)
        self.ltm.record_write(xid, table, key)
        self._n_apply += 1
        self._redo.setdefault(xid, []).append(RedoOp("delete", table, key))

    def scan(self, table: str, snapshot: Snapshot,
             xid: int = INVALID_XID) -> Iterator[Tuple[object, Dict[str, object]]]:
        """Every visible ``(key, values)`` of ``table``, in heap order.

        ``values`` is the stored row itself (:meth:`MvccHeap.visible`):
        copy it before changing it."""
        self._n_scan += 1
        for item in self.heap(table).visible(snapshot, self.ltm.clog, xid):
            self._n_rows += 1
            yield item

    def scan_lanes(self, table: str, snapshot: Snapshot,
                   xid: int = INVALID_XID):
        """:meth:`scan` as typed read-only batches in table-column order,
        counted as the walk counts them.

        A table with HTAP state is served from its frozen chunks patched
        with the snapshot-visible delta (``HtapTableStore.compose``): one
        batch per composed chunk, the decoded vectors themselves, with no
        heap walk.  When ``compose`` declines, the scan is counted as
        ``htap.cold_rebuilds`` and reads the image instead; the next scan
        ``compose`` serves drops that image.

        Any other table is read from its column image in batches of
        ``DEFAULT_BATCH_SIZE`` rows; the image is walked again only when
        it no longer is exact for ``snapshot`` (:class:`_Image`).  Its
        arrays are shared by every scan it serves.
        """
        from repro.exec import batch as batch_mod

        self._n_scan += 1
        state = self.htap
        if state is not None and table in state.tables:
            store = state.tables[table].compose(self, snapshot, xid)
            if store is not None:
                self._images.pop(table, None)
                self._n_rows += store.row_count
                names = self._schemas[table].column_names
                for chunk in store.scan_chunks(names):
                    yield batch_mod.Batch([chunk[name] for name in names],
                                          len(chunk[names[0]]))
                return
            self._note("htap.cold_rebuilds")
        heap = self.heap(table)
        clog = self.ltm.clog
        image = self._images.get(table)
        if image is None or not image.serves(heap, snapshot, clog, xid):
            schema = self._schemas[table]
            decisions: Dict[int, bool] = {}
            rows = list(schema.rows_of(
                heap.visible(snapshot, clog, xid, decisions)))
            image = self._images[table] = _Image(
                heap, decisions, batch_mod.batch_of_rows(
                    rows, [c.data_type for c in schema.columns]).read_only()
                if rows else None)
        whole = image.batch
        if whole is None:
            return
        size = batch_mod.DEFAULT_BATCH_SIZE
        for start in range(0, whole.n, size):
            part = whole.slice(start, size)
            self._n_rows += part.n
            yield part

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DataNode({self.node_id!r}, tables={sorted(self._heaps)})"
