"""Data nodes (DNs).

A data node owns one shard of every hash-distributed table (and a full copy
of replicated tables), a local transaction manager, and the MVCC heaps.  It
"maintains the local ACID properties" (paper, Sec. II): all tuple-level
reads and writes happen here under a snapshot supplied by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

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
    """A row table's visible rows under one snapshot's decisions, as one
    typed read-only batch: the column image a lane scan reuses while it is
    exact and patches while it is a few writes behind.

    ``decisions`` holds the verdict of every xid a fresh walk of these rows
    consults (``MvccHeap.visible``) and no other, ``refs`` how many chain
    steps consult each, ``stamps`` the rows' arrival stamps (heap order),
    and ``touched`` the heap's record of the keys written since
    (``MvccHeap.touched``), bounded by the image's row count."""

    __slots__ = ("heap", "mutations", "touched", "decisions", "refs",
                 "stamps", "batch")

    def __init__(self, heap: MvccHeap, decisions: Dict[int, bool],
                 refs: Dict[int, int], stamps: np.ndarray, batch):
        self.heap = heap
        self.mutations = heap.mutations
        self.touched = heap.track(len(stamps))
        self.decisions = decisions
        self.refs = refs
        self.stamps = stamps
        #: ``None`` when no row is visible
        self.batch = batch

    @classmethod
    def of(cls, heap: MvccHeap, schema: TableSchema,
           decisions: Dict[int, bool], refs: Dict[int, int],
           items: List[tuple]) -> "_Image":
        """The image of walked ``(key, values)`` items, in heap order."""
        batch = None
        if items:
            from repro.exec.batch import batch_of_rows

            batch = batch_of_rows(list(schema.rows_of(items)),
                                  [c.data_type for c in schema.columns])
            batch.read_only()
        return cls(heap, decisions, refs, _stamps(heap, items), batch)

    @classmethod
    def walk(cls, heap: MvccHeap, schema: TableSchema, snapshot: Snapshot,
             clog, xid: int) -> "_Image":
        """The image of a fresh walk of ``heap``."""
        decisions: Dict[int, bool] = {}
        refs: Dict[int, int] = {}
        return cls.of(heap, schema, decisions, refs, list(
            heap.visible(snapshot, clog, xid, decisions, refs)))

    def decides(self, snapshot: Snapshot, clog, xid: int) -> bool:
        """Whether ``snapshot`` decides every recorded xid as recorded."""
        xid_visible = snapshot.xid_visible
        return all(xid_visible(x, clog, xid) == ok
                   for x, ok in self.decisions.items())

    def patched(self, schema: TableSchema, snapshot: Snapshot, clog,
                xid: int) -> Optional["_Image"]:
        """This image caught up with the keys written since it was taken,
        as a fresh walk under ``snapshot`` would see them; ``None`` when
        only a walk can tell (the record overflowed, a recorded decision
        flipped, or a numeric lane holds an unfit value).

        The touched keys' old chains stop counting in ``refs`` first, so
        the decisions checked are exactly those the untouched rows rest
        on; the touched keys' chains are then decided again and their rows
        typed and inserted at their stamps.  This image's records are
        reused: it must not be served again either way."""
        heap, touched = self.heap, self.touched
        if heap.touched is not touched:
            return None
        decisions, refs = self.decisions, self.refs
        dropped = []
        for prior in touched.values():
            if prior is None:
                continue
            stamp, headers = prior
            dropped.append(stamp)
            for x in heap.consulted(headers, decisions):
                left = refs[x] - 1
                if left:
                    refs[x] = left
                else:
                    del refs[x], decisions[x]
        if not self.decides(snapshot, clog, xid):
            return None
        stamp_of = heap.stamp_of
        items = sorted(heap.visible(snapshot, clog, xid, decisions, refs,
                                    touched),
                       key=lambda item: stamp_of(item[0]))
        stamps = self.stamps
        n = len(stamps)
        keep = np.ones(n, dtype=bool)
        if dropped and n:
            at = np.searchsorted(stamps, dropped)
            keep[at[stamps.take(at, mode="clip") == dropped]] = False
        kept = np.flatnonzero(keep)
        if not len(kept):
            return _Image.of(heap, schema, decisions, refs, items)
        merged = np.concatenate((stamps[kept], _stamps(heap, items)))
        order = np.argsort(merged, kind="stable")
        take = np.concatenate((kept, np.arange(n, n + len(items))))[order]
        from repro.exec.batch import patched_batch

        batch = patched_batch(self.batch, list(schema.rows_of(items)), take,
                              [c.data_type for c in schema.columns])
        if batch is None:
            return None
        return _Image(heap, decisions, refs, merged[order], batch.read_only())


def _stamps(heap: MvccHeap, items: List[tuple]) -> np.ndarray:
    """The arrival stamps of walked ``(key, values)`` items."""
    stamp_of = heap.stamp_of
    return np.fromiter((stamp_of(key) for key, _ in items), dtype=np.int64,
                       count=len(items))


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
        # (and dn.image_walks / dn.image_patches, how lane scans of row
        # tables kept their column images) by a scrape-time collector — so
        # ``sys.metrics`` and snapshots stay exact while tuple access never
        # touches a metric object.
        self._n_read = 0
        self._n_rows = 0
        self._n_apply = 0
        self._n_scan = 0
        self._n_walks = 0
        self._n_patches = 0
        if obs is not None:
            metrics = obs.metrics
            self._c_read = metrics.counter("dn.read")
            self._c_rows = metrics.counter("exec.rows")
            self._c_apply = metrics.counter("dn.apply")
            self._c_scan = metrics.counter("dn.scan")
            self._c_walks = metrics.counter("dn.image_walks")
            self._c_patches = metrics.counter("dn.image_patches")
            metrics.add_collector(self._flush_tuple_counts)
        else:
            self._c_read = self._c_rows = None
            self._c_apply = self._c_scan = None
            self._c_walks = self._c_patches = None
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
        n = self._n_walks
        if n:
            self._c_walks._value += n
            self._n_walks = 0
        n = self._n_patches
        if n:
            self._c_patches._value += n
            self._n_patches = 0

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
        ``DEFAULT_BATCH_SIZE`` rows (:class:`_Image`).  An image of the
        unmutated heap is served as it is when ``snapshot`` decides every
        recorded xid as recorded.  An image the heap's writes left behind
        is patched (:meth:`_Image.patched`): one check of its decisions,
        then only the written keys' chains are decided again, and new
        lanes replace the old.  Anything else walks the heap again:
        ``dn.image_walks`` and ``dn.image_patches`` count the two.  An
        image's arrays are read-only and shared by every scan it serves.
        """
        from repro.exec import batch as batch_mod

        self._n_scan += 1
        state = self.htap
        if state is not None and table in state.tables:
            store = state.tables[table].compose(self, snapshot, xid)
            if store is not None:
                if self._images.pop(table, None) is not None:
                    self.heap(table).touched = None
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
        if image is None or image.heap is not heap:
            image = None
        elif heap.mutations == image.mutations:
            if not image.decides(snapshot, clog, xid):
                image = None
        else:
            del self._images[table]
            image = image.patched(self._schemas[table], snapshot, clog, xid)
            if image is not None:
                self._images[table] = image
                self._n_patches += 1
        if image is None:
            image = self._images[table] = _Image.walk(
                heap, self._schemas[table], snapshot, clog, xid)
            self._n_walks += 1
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
