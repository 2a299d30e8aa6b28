"""Transaction status log ("clog").

Each data node keeps a :class:`StatusLog` mapping local XIDs to their state;
the GTM keeps one for GXIDs.  The PREPARED state is the 2PC window between
phase one and phase two — the window in which the paper's Anomaly 1 lives.
"""

from __future__ import annotations

import enum
from typing import Dict

from repro.common.errors import InvalidTransactionState
from repro.txn.xid import FIRST_XID, INVALID_XID


class TxnStatus(enum.Enum):
    IN_PROGRESS = "in_progress"
    PREPARED = "prepared"      # 2PC phase one done, awaiting phase two
    COMMITTED = "committed"
    ABORTED = "aborted"


# Module-level aliases: reading a member off an Enum class costs a metaclass
# attribute lookup, a module global does not.
_IN_PROGRESS = TxnStatus.IN_PROGRESS
_PREPARED = TxnStatus.PREPARED
_COMMITTED = TxnStatus.COMMITTED
_ABORTED = TxnStatus.ABORTED


class StatusLog:
    """Maps XIDs to transaction status with legal-transition checking."""

    def __init__(self) -> None:
        self._status: Dict[int, TxnStatus] = {}

    def begin(self, xid: int) -> None:
        if xid < FIRST_XID:
            raise InvalidTransactionState(f"illegal xid {xid}")
        if xid in self._status:
            raise InvalidTransactionState(f"xid {xid} already began")
        self._status[xid] = _IN_PROGRESS

    def get(self, xid: int) -> TxnStatus:
        if xid == INVALID_XID:
            raise InvalidTransactionState("status of INVALID_XID requested")
        try:
            return self._status[xid]
        except KeyError:
            raise InvalidTransactionState(f"unknown xid {xid}") from None

    def knows(self, xid: int) -> bool:
        return xid in self._status

    def set(self, xid: int, status: TxnStatus) -> None:
        current = self.get(xid)
        # A running transaction may prepare or end; a prepared one may only
        # end; an ended one never changes.  Identity tests, not a set
        # lookup: hashing an enum member costs a call on every change.
        ends = status is _COMMITTED or status is _ABORTED
        if current is _IN_PROGRESS:
            legal = ends or status is _PREPARED
        else:
            legal = ends and current is _PREPARED
        if not legal:
            raise InvalidTransactionState(
                f"xid {xid}: illegal transition {current.value} -> {status.value}"
            )
        self._status[xid] = status

    def is_committed(self, xid: int) -> bool:
        return self.get(xid) is _COMMITTED

    def is_aborted(self, xid: int) -> bool:
        return self.get(xid) is _ABORTED

    def is_in_doubt(self, xid: int) -> bool:
        """True while the transaction is running or prepared."""
        status = self.get(xid)
        return status is _IN_PROGRESS or status is _PREPARED

    def forget(self, xid: int) -> None:
        """Drop a resolved xid (log truncation); in-doubt xids are kept."""
        status = self._status.get(xid)
        if status in (TxnStatus.IN_PROGRESS, TxnStatus.PREPARED):
            raise InvalidTransactionState(f"cannot truncate in-doubt xid {xid}")
        self._status.pop(xid, None)

    def __len__(self) -> int:
        return len(self._status)
