"""Every (from, to) pair of ``StatusLog.set``: accepted or refused exactly as
the transition table says, with the same message, and without hashing a
``TxnStatus`` member."""

import itertools

import pytest

from repro.common.errors import InvalidTransactionState
from repro.txn.status import StatusLog, TxnStatus

IN_PROGRESS = TxnStatus.IN_PROGRESS
PREPARED = TxnStatus.PREPARED
COMMITTED = TxnStatus.COMMITTED
ABORTED = TxnStatus.ABORTED

LEGAL = {
    (IN_PROGRESS, PREPARED), (IN_PROGRESS, COMMITTED), (IN_PROGRESS, ABORTED),
    (PREPARED, COMMITTED), (PREPARED, ABORTED),
}
PAIRS = list(itertools.product(TxnStatus, repeat=2))
XID = 10


def log_at(status):
    log = StatusLog()
    log.begin(XID)
    if status is not IN_PROGRESS:
        log.set(XID, status)
    return log


def test_sixteen_pairs():
    assert len(PAIRS) == 16 and len(LEGAL) == 5


@pytest.mark.parametrize("current,target", PAIRS,
                         ids=[f"{a.value}->{b.value}" for a, b in PAIRS])
def test_transition(current, target):
    log = log_at(current)
    if (current, target) in LEGAL:
        log.set(XID, target)
        assert log.get(XID) is target
        return
    with pytest.raises(InvalidTransactionState) as err:
        log.set(XID, target)
    assert str(err.value) == (
        f"xid {XID}: illegal transition {current.value} -> {target.value}")
    assert log.get(XID) is current


def test_set_hashes_no_status(monkeypatch):
    logs = [log_at(current) for current, _ in PAIRS]
    calls = []

    def counting_hash(member):
        calls.append(member)
        return object.__hash__(member)

    monkeypatch.setattr(TxnStatus, "__hash__", counting_hash)
    for log, (_, target) in zip(logs, PAIRS):
        try:
            log.set(XID, target)
        except InvalidTransactionState:
            pass
    assert calls == []
