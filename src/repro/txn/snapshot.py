"""MVCC snapshots.

A snapshot captures "which transactions were in flight when I started
looking" in the PostgreSQL style the paper's systems inherit from
Postgres-XC:

* ``xmin`` — the lowest XID that was still active (everything below is
  resolved: committed or aborted),
* ``xmax`` — the next XID to be assigned (everything at or above started
  *after* the snapshot and is invisible),
* ``active`` — XIDs in ``[xmin, xmax)`` that were in flight.

:class:`MergedSnapshot` extends this with the two adjustments of the paper's
Algorithm 1: *forced-active* XIDs (the DOWNGRADE set — locally committed but
globally invisible) and *forced-committed* XIDs (the UPGRADE set — locally
prepared but globally committed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet

from repro.txn.status import StatusLog
from repro.txn.xid import INVALID_XID


@dataclass(frozen=True)
class Snapshot:
    """An immutable MVCC snapshot over one XID space."""

    xmin: int
    xmax: int
    active: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        if self.xmin > self.xmax:
            raise ValueError(f"snapshot xmin {self.xmin} > xmax {self.xmax}")
        for xid in self.active:
            if not (self.xmin <= xid < self.xmax):
                raise ValueError(f"active xid {xid} outside [{self.xmin}, {self.xmax})")

    def sees_as_running(self, xid: int) -> bool:
        """True if the snapshot considers ``xid`` in flight or in the future."""
        if xid >= self.xmax:
            return True
        return xid in self.active

    def xid_visible(self, xid: int, clog: StatusLog, own_xid: int = INVALID_XID) -> bool:
        """Did ``xid``'s work happen, as far as this snapshot is concerned?

        Visible iff the transaction committed *and* was already resolved when
        the snapshot was taken.  A transaction always sees its own writes.
        """
        if xid == INVALID_XID:
            return False
        if xid == own_xid:
            return True
        if self.sees_as_running(xid):
            return False
        return clog.knows(xid) and clog.is_committed(xid)


@dataclass(frozen=True)
class MergedSnapshot(Snapshot):
    """The GTM-lite merged snapshot (output of Algorithm 1).

    ``forced_active`` re-hides locally committed transactions whose global
    counterpart had not committed when the global snapshot was taken
    (DOWNGRADE, resolving Anomaly 2).  ``forced_committed`` reveals locally
    prepared transactions whose global counterpart already committed
    (UPGRADE, resolving Anomaly 1) — safe because after 2PC prepare plus a
    GTM commit the local commit is inevitable.
    """

    forced_active: FrozenSet[int] = frozenset()
    forced_committed: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        if self.xmin > self.xmax:
            raise ValueError(f"snapshot xmin {self.xmin} > xmax {self.xmax}")
        overlap = self.forced_active & self.forced_committed
        if overlap:
            raise ValueError(f"xids both upgraded and downgraded: {sorted(overlap)}")

    def sees_as_running(self, xid: int) -> bool:
        if xid in self.forced_committed:
            return False
        if xid in self.forced_active:
            return True
        return super().sees_as_running(xid)

    def xid_visible(self, xid: int, clog: StatusLog, own_xid: int = INVALID_XID) -> bool:
        if xid == own_xid:
            return True
        if xid in self.forced_committed:
            # UPGRADE: the reader has (conceptually) waited for the local
            # commit confirmation, so the write is visible even though the
            # local clog may still say PREPARED.
            return True
        if xid in self.forced_active:
            return False
        return super().xid_visible(xid, clog, own_xid)
