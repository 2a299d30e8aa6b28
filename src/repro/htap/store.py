"""Per-table dual-format state: frozen column chunks + delta composition.

A :class:`HtapTableStore` is one table's HTAP state on one data node:

* ``frozen`` — a :class:`FrozenChunkSet`: immutable :class:`FrozenChunk`
  slices in heap arrival-stamp order, the
  :class:`~repro.storage.colstore.ColumnStore` that serves them, the
  merge-time snapshot (the *merged-past-xid watermark*) and the key index
  needed to patch them;
* ``delta`` — the committed writes that arrived since that merge.

The merge daemon and analytic reads share :func:`overlay`, which lays
per-key final states over a chunk list and reuses every chunk it did not
have to touch:

* :meth:`HtapTableStore.merge` overlays *every* committed delta entry and
  publishes the result as the new frozen set;
* :meth:`HtapTableStore.compose` overlays the entries the query's snapshot
  sees and serves the result from chunk references — or, when it sees
  none, the frozen store **as is**: zero rebuild, the whole point of the
  subsystem.  ``DataNode.scan_lanes`` hands the executor one batch per
  served chunk, its decoded vectors as they are;
* when the snapshot cannot be served soundly (classical mode, UPGRADE-d
  merged snapshots, readers with their own uncommitted writes, snapshots
  older than the watermark), ``compose`` returns ``None`` and the caller
  falls back to the heap walk, counting the reason.

Boundary invariant: chunk *i* of every served store holds rows
``[DEFAULT_CHUNK_ROWS * i, DEFAULT_CHUNK_ROWS * (i + 1))`` of arrival-stamp
order — the boundaries the heap walk's column store produces.  It keeps a
key's row position (``pos_by_key``) the address of its chunk and offset,
so an overlay patches only what it must and shares every other chunk,
decoded vectors included, between the frozen set and the stores composed
over it.  An insert lands in the last chunk, a same-stamp update copies
only its own chunk, and only a delete or a key that vacuum moved
re-chunks the suffix from the first disturbed chunk on.  (Float
aggregates do not depend on the boundaries: the lane fold adds lane by
lane in row order.)

A chunk that an overlay copies from one chunk — patched, or the last one
with rows appended — derives its decoded vectors from that chunk's
instead of decoding its value lists again (:meth:`FrozenChunk.sealed`),
so a tail that grows by a few rows per merge is decoded once, not once
per merge and per composed read.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import count
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.common.errors import InvalidTransactionState
from repro.htap.delta import DeltaStore
from repro.storage import colstore
from repro.storage.colstore import ColumnChunk, ColumnStore
from repro.storage.table import TableSchema
from repro.txn.snapshot import Snapshot
from repro.txn.xid import INVALID_XID


class FrozenChunk:
    """One horizontal slice of a frozen set; immutable once built."""

    __slots__ = ("keys", "stamps", "columns", "origin", "_sealed")

    def __init__(self, keys: List[object], stamps: List[int],
                 columns: Dict[str, list]):
        self.keys = keys
        self.stamps = stamps
        #: Per-column value lists — the patching working copy, so neither
        #: merge nor compose decodes (or round-trips values through) the
        #: encoded chunk.
        self.columns = columns
        #: ``(source chunk, patched offsets)`` when :func:`overlay` built
        #: this chunk as a copy of one chunk, patched and possibly with
        #: rows appended after it; dropped once sealed.
        self.origin: Optional[Tuple["FrozenChunk", List[int]]] = None
        self._sealed: Optional[Dict[str, ColumnChunk]] = None

    def sealed(self, schema: TableSchema,
               compress: bool) -> Dict[str, ColumnChunk]:
        """The scannable form, built by the first caller and then shared
        (it carries the decode-once cache).  Only a full chunk is ever
        compressed: the last one grows with every merge, so it stays
        ``plain`` until it fills and is encoded once.

        A chunk with an ``origin`` does not decode its columns again where
        it can derive them from the source's decoded vectors
        (:meth:`~repro.storage.colstore.ColumnChunk.derive_decoded`).
        """
        if self._sealed is None:
            full = len(self.keys) >= colstore.DEFAULT_CHUNK_ROWS
            sealed = colstore.seal_columns(schema, self.columns,
                                           compress and full)
            if self.origin is not None:
                # A source is a published frozen chunk: sealed already.
                source, offsets = self.origin
                self.origin = None
                for name, chunk in sealed.items():
                    chunk.derive_decoded(source._sealed[name],
                                         len(source.keys), offsets)
            self._sealed = sealed
        return self._sealed


def overlay(names: List[str], chunks: List[FrozenChunk],
            pos_by_key: Dict[object, int],
            finals: Dict[object, Tuple[int, Optional[Dict[str, object]]]]
            ) -> Tuple[List[FrozenChunk], int, int]:
    """Lay each key's final state over ``chunks``, sharing what it can.

    ``finals`` maps a key to ``(arrival stamp, coerced row)``, the row
    ``None`` when the key ends up deleted.  Returns ``(new_chunks, first,
    rows_moved)``: ``new_chunks[:first]`` keep their row positions (the
    input's own chunks, but for the copies a same-stamp update forced)
    and ``new_chunks[first:]`` were re-chunked.  ``rows_moved`` is chunk
    rows read plus rows written: whole chunks where one was rewritten,
    only the new rows where the last chunk was appended to.
    """
    size = colstore.DEFAULT_CHUNK_ROWS
    patched: Dict[int, Dict[int, Dict[str, object]]] = {}   # chunk: offset
    deleted: List[int] = []                                 # row positions
    fresh: List[Tuple[int, object, Dict[str, object]]] = []
    for key, (stamp, values) in finals.items():
        pos = pos_by_key.get(key)
        if pos is not None:
            index, offset = divmod(pos, size)
            if values is not None and stamp == chunks[index].stamps[offset]:
                patched.setdefault(index, {})[offset] = values
                continue
            # Deleted — or its chain was dropped (vacuum) and re-created,
            # so the key now lives at a new heap position.
            deleted.append(pos)
        if values is not None:
            fresh.append((stamp, key, values))
    fresh.sort(key=itemgetter(0))
    first = len(chunks)
    disturbed = [pos // size for pos in deleted]
    if fresh and chunks:
        if len(chunks[-1].keys) < size:
            first -= 1   # new rows go into the last chunk's free room
        if fresh[0][0] < chunks[-1].stamps[-1]:
            # A key that arrived in the heap before rows already frozen
            # (its transaction outlived theirs) lands mid-set.
            disturbed.append(bisect_left(
                [chunk.stamps[-1] for chunk in chunks], fresh[0][0]))
    # Appending: rows from ``first`` on stay as they are, new ones follow.
    appended = not disturbed and max(patched, default=-1) < first
    first = min([first] + disturbed)

    def rewrite(lo, hi, drop=(), add=()):
        keys, stamps = [], []
        columns: Dict[str, list] = {name: [] for name in names}
        for index in range(lo, hi):
            start = len(keys)
            keys.extend(chunks[index].keys)
            stamps.extend(chunks[index].stamps)
            for name in names:
                columns[name].extend(chunks[index].columns[name])
            for offset, values in patched.get(index, {}).items():
                for name in names:
                    columns[name][start + offset] = values[name]
        for at in sorted((pos - lo * size for pos in drop), reverse=True):
            del keys[at], stamps[at]
            for name in names:
                del columns[name][at]
        for stamp, key, values in add:
            at = bisect_left(stamps, stamp)   # the end, for an append
            keys.insert(at, key)
            stamps.insert(at, stamp)
            for name in names:
                columns[name].insert(at, values[name])
        out = [FrozenChunk(keys[at:at + size], stamps[at:at + size],
                           {name: columns[name][at:at + size]
                            for name in names})
               for at in range(0, len(keys), size)]
        if hi - lo == 1 and not drop and (
                not add or add[0][0] > chunks[lo].stamps[-1]):
            # One source chunk, patched and appended to: lanes derive.
            out[0].origin = chunks[lo], list(patched.get(lo, ()))
        return out

    out = chunks[:first]
    moved = 0
    for index in patched:
        if index < first:
            out[index], = rewrite(index, index + 1)
            moved += 2 * len(out[index].keys)
    suffix = rewrite(first, len(chunks), deleted, fresh)
    old_rows = sum(len(chunk.keys) for chunk in chunks[first:])
    moved += (sum(len(chunk.keys) for chunk in suffix)
              + (-old_rows if appended else old_rows))
    return out + suffix, first, moved


class FrozenChunkSet:
    """The output of one merge: served chunks plus patching metadata."""

    def __init__(self, schema: TableSchema, chunks: List[FrozenChunk],
                 pos_by_key: Dict[object, int], snapshot: Snapshot,
                 merged_seq: int):
        self.chunks = chunks
        #: Key -> row position in stamp order (chunk ``pos // size``).
        self.pos_by_key = pos_by_key
        self.store = ColumnStore.from_chunks(
            schema, [chunk.sealed(schema, compress=True) for chunk in chunks])
        #: The merge-time snapshot: the watermark every served query
        #: snapshot must dominate.
        self.snapshot = snapshot
        #: First delta ``seq`` *not* folded into this chunk set.
        self.merged_seq = merged_seq

    @property
    def row_count(self) -> int:
        return self.store.row_count


class HtapTableStore:
    """One table's delta + frozen chunk state on one data node."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self.delta = DeltaStore()
        self.frozen: Optional[FrozenChunkSet] = None
        self.merges = 0
        self.last_merge_us = 0.0
        self.max_lag_us = 0.0

    # -- write path (called from DataNode.commit) --------------------------

    def capture(self, dn, xid: int, op, now_us: float) -> None:
        """Record one committed redo op (``op`` is a ``RedoOp``)."""
        stamp = dn.heap(op.table).stamp_of(op.key)
        self.delta.append(xid, op.op, op.key, op.values, stamp, now_us)

    # -- merge -------------------------------------------------------------

    def merge(self, dn, now_us: float) -> Optional[Tuple[int, int, int]]:
        """Fold committed deltas into the frozen chunk set.

        Returns ``(rows_moved, entries_applied, chunks_rewritten)`` —
        rows read (delta entries or heap rows, rewritten chunks) plus rows
        written — or ``None`` when there was nothing to do.  The new chunk
        list and key index are built aside and published by one
        assignment: a crash mid-merge (fault injection) leaves the old
        frozen state and the delta intact, so no row is ever lost or
        duplicated and a later merge simply redoes the work.
        """
        cutoff = len(self.delta.entries)
        if self.frozen is not None and cutoff == 0:
            return None
        merged_seq = self.delta.next_seq
        snapshot = dn.ltm.local_snapshot()
        entries = self.delta.entries[:cutoff]
        if self.frozen is None:
            # Seed merge: overlay a full heap scan on nothing (table
            # registration, or re-attachment after failover rebuilt the
            # node).  The heap already reflects every committed delta entry.
            heap = dn.heap(self.schema.name)
            old, pos_by_key = [], {}
            finals = {key: (heap.stamp_of(key), values)
                      for key, values in heap.scan(snapshot, dn.ltm.clog)}
            rows_read = len(finals)
        else:
            old, pos_by_key = self.frozen.chunks, dict(self.frozen.pos_by_key)
            finals = {entry.key: (entry.stamp, entry.values)
                      for entry in entries}
            rows_read = cutoff
        chunks, first, moved = overlay(
            self.schema.column_names, old, pos_by_key, finals)
        for key, (_stamp, values) in finals.items():
            if values is None:
                pos_by_key.pop(key, None)
        for index in range(first, len(chunks)):
            pos_by_key.update(zip(chunks[index].keys, count(
                index * colstore.DEFAULT_CHUNK_ROWS)))
        rewritten = sum(1 for i, chunk in enumerate(chunks)
                        if i >= len(old) or chunk is not old[i])
        self.frozen = FrozenChunkSet(self.schema, chunks, pos_by_key,
                                     snapshot, merged_seq)
        for entry in entries:
            self.max_lag_us = max(self.max_lag_us,
                                  now_us - entry.commit_t_us)
        self.delta.truncate(cutoff)
        self.merges += 1
        self.last_merge_us = now_us
        return moved + rows_read, cutoff, rewritten

    # -- read path ---------------------------------------------------------

    def compose(self, dn, snapshot, own_xid: int = INVALID_XID):
        """A ColumnStore for this table under ``snapshot``, or ``None``.

        ``None`` means the snapshot cannot be served from frozen + delta
        and the caller must walk the heap; the reason is counted.
        """
        reason = self._unservable_reason(dn, snapshot, own_xid)
        if reason is not None:
            dn._note(f"htap.fallback.{reason}")
            return None
        frozen = self.frozen
        clog = dn.ltm.clog
        # Last *visible* entry per key wins.  Sound because same-key
        # commits are serialized (first-updater-wins) and GTM-lite's
        # dependency taint hides dependent commits together, so the
        # visible entries of a key always form a prefix of its stream.
        finals = {entry.key: (entry.stamp, entry.values)
                  for entry in self.delta.entries
                  if snapshot.xid_visible(entry.xid, clog, own_xid)}
        if not finals:
            dn._note("htap.scans_frozen")
            return frozen.store
        chunks = overlay(self.schema.column_names, frozen.chunks,
                         frozen.pos_by_key, finals)[0]
        # New chunks stay uncompressed, like the heap walk's: a composed
        # store lives for one query.
        store = ColumnStore.from_chunks(self.schema, [
            chunk.sealed(self.schema, compress=False) for chunk in chunks])
        dn._note("htap.scans_composed")
        return store

    def _unservable_reason(self, dn, snapshot, own_xid: int) -> Optional[str]:
        if self.frozen is None:
            return "cold"
        if not isinstance(snapshot, Snapshot):
            # Classical central-snapshot mode ships its own snapshot type.
            return "classical"
        if getattr(snapshot, "forced_committed", None):
            # UPGRADE revealed a PREPARED write that no delta entry holds.
            return "upgraded"
        watermark = self.frozen.snapshot
        if snapshot.xmax < watermark.xmax:
            return "stale_snapshot"
        forced_active = getattr(snapshot, "forced_active", None) or frozenset()
        for xid in set(snapshot.active) | set(forced_active):
            if xid < watermark.xmax and xid not in watermark.active:
                # The merge may have folded a commit this reader must not
                # see (DOWNGRADE re-hid it).  Conservative: walk the heap.
                return "hidden_commit"
        if own_xid != INVALID_XID:
            try:
                write_set = dn.ltm.write_set(own_xid)
            except InvalidTransactionState:
                write_set = None
            if write_set is not None and any(
                    table == self.schema.name
                    for table, _key in write_set.frozen()):
                # The reader's own uncommitted writes live only in the heap.
                return "own_writes"
        return None

    # -- introspection -----------------------------------------------------

    def freshness_lag_us(self, now_us: float) -> float:
        """Sim time the oldest committed write has waited for its merge."""
        oldest = self.delta.oldest_commit_us()
        return max(0.0, now_us - oldest) if oldest is not None else 0.0


class HtapNodeState:
    """All HTAP table stores on one data node."""

    def __init__(self) -> None:
        self.tables: Dict[str, HtapTableStore] = {}

    def capture_commit(self, dn, xid: int, redo, now_us: float) -> None:
        """Feed one committed transaction's redo ops into the deltas."""
        for op in redo:
            store = self.tables.get(op.table)
            if store is not None:
                store.capture(dn, xid, op, now_us)
