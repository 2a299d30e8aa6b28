"""Per-data-node local transaction management.

Each data node owns a :class:`LocalTransactionManager`: a local XID space,
a status log, the set of in-flight local transactions, the **local commit
order (LCO)** of the transactions that wrote here, which Algorithm 1
traverses, and the **xidMap** from global XIDs to local XIDs for
multi-shard transactions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.common.errors import InvalidTransactionState
from repro.txn.snapshot import Snapshot
from repro.txn.status import StatusLog, TxnStatus
from repro.txn.writeset import WriteSet
from repro.txn.xid import INVALID_XID, XidAllocator


@dataclass
class LcoEntry:
    """One local commit, in commit order.

    ``gxid`` is the transaction's global XID if it was multi-shard (None for
    purely local transactions); ``write_set`` is what it wrote on this node.
    """

    local_xid: int
    gxid: Optional[int]
    write_set: WriteSet
    seqno: int


class LocalTransactionManager:
    """Local XIDs, snapshots, commit order and GXID mapping for one DN."""

    def __init__(self, node_id: str):
        self.node_id = node_id
        self._alloc = XidAllocator()
        self.clog = StatusLog()
        self._active: Dict[int, WriteSet] = {}
        self._gxid_of: Dict[int, int] = {}       # local xid -> gxid
        self.xid_map: Dict[int, int] = {}         # gxid -> local xid
        self.lco: Deque[LcoEntry] = deque()
        self._commit_seq = 0

    # -- lifecycle ------------------------------------------------------

    def begin(self, gxid: Optional[int] = None) -> int:
        """Start a local transaction; register the gxid mapping if global."""
        xid = self._alloc.allocate()
        self.clog.begin(xid)
        self._active[xid] = WriteSet()
        if gxid is not None:
            if gxid in self.xid_map:
                raise InvalidTransactionState(
                    f"gxid {gxid} already mapped on node {self.node_id}"
                )
            self.xid_map[gxid] = xid
            self._gxid_of[xid] = gxid
        return xid

    def record_write(self, xid: int, table: str, key: object) -> None:
        try:
            self._active[xid].add(table, key)
        except KeyError:
            raise InvalidTransactionState(f"xid {xid} not active on {self.node_id}") from None

    def write_set(self, xid: int) -> WriteSet:
        try:
            return self._active[xid]
        except KeyError:
            raise InvalidTransactionState(f"xid {xid} not active on {self.node_id}") from None

    def prepare(self, xid: int) -> None:
        """2PC phase one: the transaction can no longer unilaterally abort."""
        self.clog.set(xid, TxnStatus.PREPARED)

    def commit(self, xid: int) -> None:
        """Local commit: flip the clog bit and, if the transaction wrote
        here, append it to the LCO.

        A commit that wrote nothing leaves no entry, and no merged
        snapshot hides a version differently for it: re-hiding it would
        hide no version, its empty write set cannot taint a later entry,
        and without it ``prune_lco`` only advances further.
        """
        self.clog.set(xid, TxnStatus.COMMITTED)
        write_set = self._active.pop(xid)
        if write_set:
            self.lco.append(LcoEntry(xid, self._gxid_of.get(xid), write_set,
                                     self._commit_seq))
            self._commit_seq += 1

    def abort(self, xid: int) -> None:
        self.clog.set(xid, TxnStatus.ABORTED)
        self._active.pop(xid, None)
        gxid = self._gxid_of.pop(xid, None)
        if gxid is not None:
            self.xid_map.pop(gxid, None)

    # -- snapshots --------------------------------------------------------

    def local_snapshot(self) -> Snapshot:
        """Capture (xmin, xmax, active).  PREPARED counts as active."""
        xmax = self._alloc.next_xid
        running = frozenset(
            xid for xid in self._active
            if self.clog.get(xid) in (TxnStatus.IN_PROGRESS, TxnStatus.PREPARED)
        )
        xmin = min(running) if running else xmax
        return Snapshot(xmin=xmin, xmax=xmax, active=running)

    def prepared_xids(self) -> List[int]:
        return sorted(
            xid for xid in self._active if self.clog.get(xid) is TxnStatus.PREPARED
        )

    def in_progress_xids(self) -> List[int]:
        """Active local transactions that never reached prepare.

        In-doubt resolution skips these (nothing voted, presumed abort is
        trivial), but maintenance work that must make progress against
        their uncommitted versions — e.g. a rebalance truncate after a
        coordinator crash mid-statement — needs to find and expel them.
        """
        return sorted(
            xid for xid in self._active
            if self.clog.get(xid) is TxnStatus.IN_PROGRESS
        )

    def gxid_for(self, local_xid: int) -> Optional[int]:
        return self._gxid_of.get(local_xid)

    # -- maintenance --------------------------------------------------------

    def truncate_lco(self, keep_last: int) -> int:
        """Drop the oldest LCO entries, keeping ``keep_last`` newest.

        Safe once no reader can hold a global snapshot old enough to need the
        dropped entries.  Returns the number of entries removed.
        """
        if keep_last < 0:
            raise ValueError("keep_last must be non-negative")
        excess = max(0, len(self.lco) - keep_last)
        for _ in range(excess):
            self.lco.popleft()
        return excess

    def prune_lco(self, horizon_gxid: int) -> int:
        """Garbage-collect the LCO front up to a global snapshot horizon.

        A front entry may go when no live or future merge can downgrade it:
        pure-local entries at the front have nothing earlier to depend on,
        and multi-shard entries whose GXID is below ``horizon_gxid`` are
        resolved in every snapshot any live reader could hold.  Pruning
        stops at the first entry that must stay, preserving the commit-order
        prefix property the taint walk relies on.
        """
        removed = 0
        while self.lco:
            entry = self.lco[0]
            if entry.gxid is None or entry.gxid < horizon_gxid:
                self.lco.popleft()
                removed += 1
            else:
                break
        return removed

    @property
    def active_count(self) -> int:
        return len(self._active)
