"""MVCC row store (the per-DN heap).

Tuples carry PostgreSQL-style ``xmin``/``xmax`` headers exactly like the
visibility table in the paper's Anomaly 2 discussion:

========  ======  ======  =========
tuple     Xmin    Xmax    meaning
========  ======  ======  =========
tuple1    —       T1      existed before T1, deleted by T1
tuple2    T1      T3      inserted by T1, superseded by T3
tuple3    T3      —       inserted by T3, current
========  ======  ======  =========

A *version chain* per primary key records history newest-last.  Visibility
of a version under a snapshot ``s``:

* the inserting ``xmin`` must be visible to ``s``; and
* the deleting ``xmax`` must be absent or *not* visible to ``s``.

Updates use first-updater-wins: writing a key whose newest version was
created or deleted by a concurrent (or snapshot-invisible committed)
transaction raises :class:`SerializationConflict`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import DuplicateKeyError, SerializationConflict, StorageError
from repro.txn.snapshot import Snapshot
from repro.txn.status import StatusLog, TxnStatus
from repro.txn.xid import INVALID_XID


@dataclass
class TupleVersion:
    """One version of one logical row."""

    xmin: int
    values: Dict[str, object]
    xmax: int = INVALID_XID

    def header(self) -> Tuple[int, int]:
        return self.xmin, self.xmax


class MvccHeap:
    """Version-chained key/value heap with snapshot visibility."""

    def __init__(self, name: str):
        self.name = name
        self._chains: Dict[object, List[TupleVersion]] = {}
        # Arrival stamps: a monotone per-key stamp assigned when a chain is
        # created and retired when the chain is deleted.  Because chains are
        # only ever appended or removed (never reordered), ascending stamp
        # order equals dict insertion order equals :meth:`scan` order — the
        # invariant the HTAP column path relies on to reproduce heap scan
        # output byte-for-byte from frozen chunks plus delta entries.
        self._stamps: Dict[object, int] = {}
        self._next_stamp = 0
        #: Bumped by every change to ``_chains`` or to a version's ``xmax``
        #: (nothing outside this class writes either): while it holds, a
        #: walk under snapshots that decide the same xids the same way
        #: yields the same rows.
        self.mutations = 0
        #: What a live column image needs to catch up with this heap: each
        #: key written since :meth:`track` began the record, mapped to its
        #: chain as the image saw it (``(stamp, headers)``, ``None`` for a
        #: key that had no chain).  ``None`` while no image is live, and
        #: once more keys were written than :meth:`track`'s bound (the
        #: image's row count, past which a walk is no dearer than a patch).
        self.touched: Optional[Dict[object, Optional[tuple]]] = None
        self._touch_bound = 0

    def track(self, bound: int) -> Dict[object, Optional[tuple]]:
        """Begin a new record of the keys written from now on (see
        :attr:`touched`), dropped once it would hold more than ``bound``."""
        self.touched = {}
        self._touch_bound = bound
        return self.touched

    def _touch(self, key: object) -> None:
        """Note ``key`` in :attr:`touched` before its chain changes."""
        touched = self.touched
        if key in touched:
            return
        if len(touched) >= self._touch_bound:
            self.touched = None
            return
        chain = self._chains.get(key)
        touched[key] = None if chain is None else (
            self._stamps[key], tuple([(v.xmin, v.xmax) for v in chain]))

    # -- write path -------------------------------------------------------

    def insert(self, key: object, values: Dict[str, object], xid: int,
               snapshot: Snapshot, clog: StatusLog) -> None:
        """Insert a new row; the key must not be visibly or concurrently alive."""
        self.mutations += 1
        if self.touched is not None:
            self._touch(key)
        if key not in self._chains:
            self._stamps[key] = self._next_stamp
            self._next_stamp += 1
        chain = self._chains.setdefault(key, [])
        newest = chain[-1] if chain else None
        if newest is not None:
            if self._version_alive(newest, xid, snapshot, clog):
                raise DuplicateKeyError(f"{self.name}: key {key!r} already exists")
            if self._in_doubt_by_other(newest.xmin, xid, clog) and newest.xmax == INVALID_XID:
                raise SerializationConflict(
                    f"{self.name}: key {key!r} being inserted by concurrent txn"
                )
        chain.append(TupleVersion(xmin=xid, values=dict(values)))

    def update(self, key: object, values: Dict[str, object], xid: int,
               snapshot: Snapshot, clog: StatusLog) -> None:
        """Replace the visible version of ``key`` with new values."""
        old = self._writable_version(key, xid, snapshot, clog)
        self.mutations += 1
        if self.touched is not None:
            self._touch(key)
        old.xmax = xid
        self._chains[key].append(TupleVersion(xmin=xid, values=dict(values)))

    def delete(self, key: object, xid: int, snapshot: Snapshot, clog: StatusLog) -> None:
        old = self._writable_version(key, xid, snapshot, clog)
        self.mutations += 1
        if self.touched is not None:
            self._touch(key)
        old.xmax = xid

    def abort_writes(self, xid: int) -> int:
        """Physically undo ``xid``'s insertions and xmax marks (rollback).

        The simulation applies rollback eagerly instead of leaving dead
        versions for vacuum; returns the number of versions touched.
        Prefer :meth:`abort_key` driven by the transaction's write set —
        this full-heap sweep exists as a fallback and for tests.
        """
        undone = 0
        for key in list(self._chains):
            undone += self.abort_key(key, xid)
        return undone

    def abort_key(self, key: object, xid: int) -> int:
        """Undo ``xid``'s effects on one key's version chain."""
        chain = self._chains.get(key)
        if chain is None:
            return 0
        self.mutations += 1
        if self.touched is not None:
            self._touch(key)
        undone = 0
        kept = []
        for version in chain:
            if version.xmin == xid:
                undone += 1
                continue
            if version.xmax == xid:
                version.xmax = INVALID_XID
                undone += 1
            kept.append(version)
        if kept:
            self._chains[key] = kept
        else:
            del self._chains[key]
            del self._stamps[key]
        return undone

    # -- read path ----------------------------------------------------------

    def read(self, key: object, snapshot: Snapshot, clog: StatusLog,
             own_xid: int = INVALID_XID) -> Optional[Dict[str, object]]:
        """Return the visible values for ``key`` or None."""
        version = self._visible_version(key, snapshot, clog, own_xid)
        return dict(version.values) if version is not None else None

    def visible(self, snapshot: Snapshot, clog: StatusLog,
                own_xid: int = INVALID_XID,
                seen: Optional[Dict[int, bool]] = None,
                refs: Optional[Dict[int, int]] = None,
                keys: Optional[Iterable[object]] = None
                ) -> Iterator[Tuple[object, Dict[str, object]]]:
        """Yield every visible (key, values) pair, in key insertion order.

        ``values`` is the stored version's dict itself, not a copy: read
        it, and copy it before changing it.  No code changes a stored dict
        in place (a write appends a new version), so keeping one is safe.

        Each xid's visibility is decided once per walk and remembered.  It
        is a function of the snapshot, which is frozen (a
        ``MergedSnapshot``'s forced sets included), and of the xid's clog
        status, which only ever moves from in-doubt to COMMITTED or
        ABORTED, both terminal.  Walks are drained inside one statement,
        where no transaction resolves; and inserting a new key mid-walk
        raises (the chain dict changes size).

        ``seen`` is where the decisions are kept, xid -> visible, in the
        order they were made; pass a dict to hold them after the walk (or
        decisions made earlier under a snapshot that decides them the
        same way).  The walk consults only these xids, so while
        :attr:`mutations` holds, a snapshot deciding each of them the same
        way yields the same rows.  ``refs``, when given, counts each
        consultation of an xid, as :meth:`consulted` lists them per chain.
        ``keys`` walks only those keys' chains, in that order.
        """
        if seen is None:
            seen = {}
        chains = self._chains
        items = chains.items() if keys is None else [
            (key, chains[key]) for key in keys if key in chains]
        xid_visible = snapshot.xid_visible
        for key, chain in items:
            # Newest-first, as _pick_visible: at most one version is visible.
            i = len(chain)
            while i:
                i -= 1
                version = chain[i]
                xmin = version.xmin
                ok = seen.get(xmin)
                if ok is None:
                    ok = seen[xmin] = xid_visible(xmin, clog, own_xid)
                if refs is not None:
                    refs[xmin] = refs.get(xmin, 0) + 1
                if not ok:
                    continue
                xmax = version.xmax
                if xmax != INVALID_XID:
                    gone = seen.get(xmax)
                    if gone is None:
                        gone = seen[xmax] = xid_visible(xmax, clog, own_xid)
                    if refs is not None:
                        refs[xmax] = refs.get(xmax, 0) + 1
                    if gone:
                        continue
                yield key, version.values
                break

    @staticmethod
    def consulted(headers: Sequence[Tuple[int, int]],
                  seen: Dict[int, bool]) -> List[int]:
        """The xids :meth:`visible` consults on a chain of these ``(xmin,
        xmax)`` headers when it decides as ``seen`` did, once per
        consultation: what it counted into ``refs`` for that chain."""
        out = []
        for xmin, xmax in reversed(headers):
            out.append(xmin)
            if not seen[xmin]:
                continue
            if xmax != INVALID_XID:
                out.append(xmax)
                if seen[xmax]:
                    continue
            break
        return out

    def scan(self, snapshot: Snapshot, clog: StatusLog,
             own_xid: int = INVALID_XID) -> Iterator[Tuple[object, Dict[str, object]]]:
        """:meth:`visible` with each values dict copied, for callers that
        keep and change the rows they read."""
        for key, values in self.visible(snapshot, clog, own_xid):
            yield key, dict(values)

    def version_chain(self, key: object) -> List[TupleVersion]:
        """Raw version chain for ``key`` (introspection / tests)."""
        return list(self._chains.get(key, []))

    def stamp_of(self, key: object) -> int:
        """Arrival stamp for ``key`` (see ``_stamps``); key must be live."""
        return self._stamps[key]

    def vacuum(self, oldest_snapshot: Snapshot, clog: StatusLog) -> int:
        """Remove versions dead to every possible present or future snapshot."""
        removed = 0
        for key in list(self._chains):
            chain = self._chains[key]
            kept = []
            for version in chain:
                dead = (
                    version.xmax != INVALID_XID
                    and not oldest_snapshot.sees_as_running(version.xmax)
                    and clog.knows(version.xmax)
                    and clog.is_committed(version.xmax)
                )
                aborted_insert = (
                    clog.knows(version.xmin) and clog.is_aborted(version.xmin)
                )
                if dead or aborted_insert:
                    removed += 1
                else:
                    kept.append(version)
            if len(kept) == len(chain):
                continue
            self.mutations += 1
            if self.touched is not None:
                self._touch(key)
            if kept:
                self._chains[key] = kept
            else:
                del self._chains[key]
                del self._stamps[key]
        return removed

    def __len__(self) -> int:
        """Number of keys with at least one version (any visibility)."""
        return len(self._chains)

    # -- internals -----------------------------------------------------------

    def _visible_version(self, key: object, snapshot: Snapshot, clog: StatusLog,
                         own_xid: int) -> Optional[TupleVersion]:
        chain = self._chains.get(key)
        if not chain:
            return None
        return self._pick_visible(chain, snapshot, clog, own_xid)

    @staticmethod
    def _pick_visible(chain: List[TupleVersion], snapshot: Snapshot,
                      clog: StatusLog, own_xid: int) -> Optional[TupleVersion]:
        # Newest-first: at most one version of a key is visible per snapshot.
        for version in reversed(chain):
            if not snapshot.xid_visible(version.xmin, clog, own_xid):
                continue
            if version.xmax != INVALID_XID and snapshot.xid_visible(version.xmax, clog, own_xid):
                continue
            return version
        return None

    def _writable_version(self, key: object, xid: int, snapshot: Snapshot,
                          clog: StatusLog) -> TupleVersion:
        chain = self._chains.get(key)
        if not chain:
            raise StorageError(f"{self.name}: key {key!r} does not exist")
        newest = chain[-1]
        visible = self._pick_visible(chain, snapshot, clog, xid)
        if visible is None:
            raise StorageError(f"{self.name}: key {key!r} not visible to txn {xid}")
        if visible is not newest or self._modified_by_other(newest, xid, snapshot, clog):
            # First-updater-wins under snapshot isolation.
            raise SerializationConflict(
                f"{self.name}: concurrent update of key {key!r} (txn {xid})"
            )
        return visible

    def _modified_by_other(self, newest: TupleVersion, xid: int,
                           snapshot: Snapshot, clog: StatusLog) -> bool:
        if newest.xmax != INVALID_XID and newest.xmax != xid:
            blocker = newest.xmax
            if clog.knows(blocker) and clog.is_aborted(blocker):
                return False
            return True
        if newest.xmin != xid and not snapshot.xid_visible(newest.xmin, clog, xid):
            # The newest version itself came from a transaction we can't see.
            return not (clog.knows(newest.xmin) and clog.is_aborted(newest.xmin))
        return False

    def _version_alive(self, version: TupleVersion, xid: int,
                       snapshot: Snapshot, clog: StatusLog) -> bool:
        if not snapshot.xid_visible(version.xmin, clog, xid):
            return False
        if version.xmax == INVALID_XID:
            return True
        return not snapshot.xid_visible(version.xmax, clog, xid)

    @staticmethod
    def _in_doubt_by_other(xid: int, me: int, clog: StatusLog) -> bool:
        return xid != me and clog.knows(xid) and clog.is_in_doubt(xid)
