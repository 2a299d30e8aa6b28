"""Algorithm 1's DOWNGRADE walk skips the dependency test until something
is tainted.

``_merge`` walks the local commit order (LCO) and re-hides an entry whose
global transaction the reader's global snapshot still sees running, or
whose write set meets what an earlier re-hidden entry wrote.  Before the
first re-hidden entry nothing is tainted, so the write-set test cannot be
true and is not run.  Here the merged snapshot (``forced_active`` and the
merged ``xmin``) is compared with the walk that tests every entry, on LCOs
where taint starts mid-walk.

A commit that wrote nothing leaves no LCO entry.  The last search puts such
entries back into random histories and checks that no written version's
visibility under the merged snapshot depends on them.
"""

import pytest

from repro.core.gtm import GlobalTransactionManager
from repro.core.merge import merge_snapshots
from repro.txn.manager import LcoEntry, LocalTransactionManager
from repro.txn.snapshot import Snapshot
from repro.txn.status import StatusLog, TxnStatus
from repro.txn.writeset import WriteSet

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover - the container ships hypothesis
    given = None

LOCAL = Snapshot(xmin=50, xmax=1000)


def _unshortened(global_snapshot, lco):
    """Every entry's write set tested against the taint, as the walk read
    before the fast path."""
    forced, tainted = set(), WriteSet()
    for entry in lco:
        if ((entry.gxid is not None
             and global_snapshot.sees_as_running(entry.gxid))
                or entry.write_set.intersects(tainted)):
            forced.add(entry.local_xid)
            tainted.merge(entry.write_set)
    return forced, min([LOCAL.xmin, *forced])


def _merged(global_snapshot, lco):
    ltm = LocalTransactionManager("dn0")
    ltm.lco.extend(lco)
    outcome = merge_snapshots(global_snapshot, LOCAL, ltm,
                              GlobalTransactionManager())
    return set(outcome.snapshot.forced_active), outcome.snapshot.xmin


def _lco(entries):
    """``entries``: ``(gxid or None, keys written)`` in commit order; local
    xids count up from 10."""
    return [LcoEntry(10 + i, gxid, WriteSet(("t", k) for k in keys), i)
            for i, (gxid, keys) in enumerate(entries)]


def test_taint_starting_mid_walk(monkeypatch):
    # gxid 7 is running in the reader's global snapshot; the entries
    # before it are not tested at all, the ones after it are
    global_snapshot = Snapshot(xmin=1, xmax=20, active=frozenset({7}))
    lco = _lco([(None, "ab"), (3, "c"), (None, "a"), (7, "cd"),
                (None, "ab"), (None, "d"), (5, "dx"), (None, "x"),
                (None, "q")])
    calls = []
    monkeypatch.setattr(WriteSet, "intersects",
                        lambda self, other: calls.append(self)
                        or bool(self._items & other._items))
    forced, xmin = _merged(global_snapshot, lco)
    monkeypatch.undo()
    assert (forced, xmin) == _unshortened(global_snapshot, lco)
    # the re-hidden gxid 7, then what wrote d after it and what wrote x
    # after that; the walk tested only the entries after the first taint
    assert forced == {13, 15, 16, 17}
    assert xmin == 13
    assert len(calls) == len(lco) - 4


def test_nothing_running_tests_nothing(monkeypatch):
    global_snapshot = Snapshot(xmin=1, xmax=20)
    lco = _lco([(None, "a"), (3, "a"), (None, "ab")])
    monkeypatch.setattr(WriteSet, "intersects",
                        lambda self, other: pytest.fail("tested"))
    assert _merged(global_snapshot, lco) == (set(), LOCAL.xmin)


if given is not None:
    @settings(max_examples=300, deadline=None)
    @given(entries=st.lists(
               st.tuples(st.one_of(st.none(), st.integers(1, 12)),
                         st.sets(st.sampled_from("abcdef"), max_size=3)),
               max_size=25),
           running=st.sets(st.integers(1, 12), max_size=4),
           xmax=st.integers(1, 14))
    def test_matches_the_unshortened_walk(entries, running, xmax):
        global_snapshot = Snapshot(
            xmin=1, xmax=xmax,
            active=frozenset(x for x in running if x < xmax))
        lco = _lco(entries)
        assert _merged(global_snapshot, lco) == _unshortened(global_snapshot,
                                                             lco)

    @settings(max_examples=300, deadline=None)
    @given(entries=st.lists(
               st.tuples(st.one_of(st.none(), st.integers(1, 12)),
                         st.sets(st.sampled_from("abcdef"), max_size=3)),
               max_size=25),
           readers=st.lists(st.tuples(st.integers(0, 25),
                                      st.one_of(st.none(),
                                                st.integers(1, 12))),
                            max_size=10),
           running=st.sets(st.integers(1, 12), max_size=4),
           xmax=st.integers(1, 14))
    def test_read_only_commits_change_no_visibility(entries, readers,
                                                    running, xmax):
        # ``readers``: (position in the history, gxid or None) of commits
        # with an empty write set, as they would sit in the LCO if they
        # left an entry
        global_snapshot = Snapshot(
            xmin=1, xmax=xmax,
            active=frozenset(x for x in running if x < xmax))
        history = [(gxid, keys) for gxid, keys in entries if keys]
        for position, gxid in sorted(readers, key=lambda r: r[0]):
            history.insert(min(position, len(history)), (gxid, ""))
        with_readers = _lco(history)
        writers = [entry for entry in with_readers if entry.write_set]
        clog = StatusLog()
        for entry in with_readers:
            clog.begin(entry.local_xid)
            clog.set(entry.local_xid, TxnStatus.COMMITTED)

        def visible(lco):
            ltm = LocalTransactionManager("dn0")
            ltm.lco.extend(lco)
            merged = merge_snapshots(global_snapshot, LOCAL, ltm,
                                     GlobalTransactionManager()).snapshot
            return [merged.xid_visible(entry.local_xid, clog)
                    for entry in writers]

        assert visible(with_readers) == visible(writers)
