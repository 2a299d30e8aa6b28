"""Online resharding: move hash slots between DNs while writes continue.

The coordinator drives the shard map's slot state machine through the
Greenplum-expansion-style move protocol the issue describes:

1. **begin** — mark each moving slot in the shard map.  From this commit
   on, every transaction that writes the slot *double-writes* source and
   target (2PC makes the pair atomic; single-shard writes promote), and
   the target's partial copy of the slot is hidden from scans.
2. **copy** — snapshot-copy the slot's rows from the source heap to the
   target through the normal insert/commit path, so the copy ships to the
   target's standby and feeds its HTAP delta like any other write.  Keys
   already visible on the target (landed by a double-write) are skipped.
3. **catch-up** — the double-write window stays open while the caller's
   workload keeps committing (``on_catchup``); nothing else to replay.
4. **flip** — atomically re-own the slots (one shard-map version bump, so
   cached fragment plans that baked the old DN targets are invalidated)
   and swap the scan exclusion to the source's now-stale copy.
5. **truncate** — delete the source copy through the normal delete path
   (ships to the source's standby, folds out of its HTAP store) and
   re-open the fast scan paths.

Every phase runs on simulated time with storage I/O charged as
``rebalance_copy`` / ``rebalance_truncate`` wait events, and the
``rebalance.copy`` / ``rebalance.flip`` failpoints sit exactly where a
coordinator death hurts: mid-copy (recovery must roll the move *back*)
and pre-flip (copy complete — recovery rolls the move *forward*).  A
slot's owner is a single shard-map cell either way, so ownership is
never ambiguous.

``sys.rebalance`` serves the move history; ``sys.shard_map`` the live
slot table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faults.injector import (
    FP_REBALANCE_COPY,
    FP_REBALANCE_FLIP,
    CoordinatorCrash,
    InjectedTimeout,
)
from repro.htap.manager import _row_bytes
from repro.obs.waits import WAIT_REBALANCE_COPY, WAIT_REBALANCE_TRUNCATE
from repro.storage.table import Distribution
from repro.wlm.memory import SPILL_BYTE_US

# Move lifecycle (sys.rebalance "state" column).
ST_COPYING = "copying"
ST_CATCHUP = "catchup"
ST_FLIPPED = "flipped"
ST_DONE = "done"
ST_ABORTED = "aborted"

#: States recovery must resolve after a coordinator crash.
_UNSETTLED = (ST_COPYING, ST_CATCHUP, ST_FLIPPED)


class RebalanceError(Exception):
    """Invalid rebalance request (unknown DN, overlapping move, ...)."""


@dataclass
class Move:
    """One batched slot move: ``slots`` from ``source`` to ``target``."""

    move_id: int
    source: int
    target: int
    slots: Tuple[int, ...]
    state: str = ST_COPYING
    rows_copied: int = 0
    rows_truncated: int = 0
    t_begin_us: float = 0.0
    t_flip_us: float = 0.0
    t_end_us: float = 0.0
    #: Slots whose double-write window is still open (shrinks at flip).
    pending: Tuple[int, ...] = field(default_factory=tuple)


class RebalanceCoordinator:
    """Adds/removes DNs online by moving shard-map slots between them."""

    def __init__(self, cluster):
        self.cluster = cluster
        cluster.rebalance = self
        if cluster.obs is not None:
            cluster.obs.bind_rebalance(self)
        self.moves: List[Move] = []
        self._next_move_id = 0
        self.slots_moved = 0
        self.moves_completed = 0
        self.moves_aborted = 0

    # ------------------------------------------------------------------
    # high-level operations

    def add_dn(self, on_catchup=None) -> int:
        """Provision a new DN and rebalance slots onto it, fully online."""
        index = self.cluster.add_data_node()
        self.rebalance(on_catchup=on_catchup)
        return index

    def remove_dn(self, dn_index: int, on_catchup=None) -> int:
        """Drain every slot off a DN, then retire it from membership."""
        shard_map = self._shard_map()
        if dn_index not in shard_map.members():
            raise RebalanceError(f"dn{dn_index} is not an active member")
        survivors = [dn for dn in shard_map.members() if dn != dn_index]
        if not survivors:
            raise RebalanceError("cannot drain the last DN")
        # Spread the drained slots to keep the survivors balanced: fill
        # each survivor up to its post-removal fair share, lowest index
        # first (deterministic).
        counts = shard_map.slot_counts()
        base, extra = divmod(shard_map.num_slots, len(survivors))
        desired = {dn: base + (1 if i < extra else 0)
                   for i, dn in enumerate(survivors)}
        plan: Dict[int, List[int]] = {}
        targets = [dn for dn in survivors
                   for _ in range(max(0, desired[dn] - counts[dn]))]
        for slot, target in zip(shard_map.slots_owned_by(dn_index), targets):
            plan.setdefault(target, []).append(slot)
        moved = 0
        for target in sorted(plan):
            moved += self.move_slots(plan[target], target,
                                     on_catchup=on_catchup)
        self.cluster.retire_data_node(dn_index)
        return moved

    def rebalance(self, on_catchup=None) -> int:
        """Move slots until every member owns its fair share."""
        shard_map = self._shard_map()
        desired = shard_map.balanced_assignment()
        counts = shard_map.slot_counts()
        receivers = [dn for dn in shard_map.members()
                     for _ in range(max(0, desired[dn] - counts[dn]))]
        donors = [dn for dn in shard_map.members()
                  if counts[dn] > desired[dn]]
        # Each donor sheds an evenly *strided* subset of its owned slots
        # (deterministic): real keys cluster in the low slots (small ints
        # hash by modulo), so shedding a spread — rather than the top of
        # the slot range — keeps the post-move row balance close to the
        # slot balance.  The quarter-step offset keeps every donor from
        # leading with its lowest slot, which would pile the dense low
        # slots onto the receiver.  Moves are batched per (source, target).
        plan: Dict[Tuple[int, int], List[int]] = {}
        cursor = 0
        for source in donors:
            surplus = counts[source] - desired[source]
            owned = shard_map.slots_owned_by(source)
            step = len(owned) / surplus
            for j in range(surplus):
                if cursor >= len(receivers):
                    break
                slot = owned[int((j + 0.25) * step)]
                plan.setdefault((source, receivers[cursor]), []).append(slot)
                cursor += 1
        moved = 0
        for (_source, target) in sorted(plan):
            moved += self.move_slots(plan[(_source, target)], target,
                                     on_catchup=on_catchup)
        return moved

    def move_slots(self, slots, target: int, on_catchup=None) -> int:
        """Run one move end to end: begin, copy, catch-up, flip, truncate.

        ``on_catchup`` (no-arg callable) runs inside the double-write
        window, after the snapshot copy — benchmarks and tests use it to
        keep OLTP committing mid-move.  Returns the slots moved.
        """
        move = self.begin(slots, target)
        self.copy(move)
        if on_catchup is not None:
            on_catchup()
        self.flip(move)
        self.truncate(move)
        return len(move.slots)

    # ------------------------------------------------------------------
    # stepwise protocol (chaos tests drive these directly)

    def begin(self, slots, target: int) -> Move:
        """Open the double-write window for a batch of same-source slots."""
        shard_map = self._shard_map()
        slots = sorted(set(int(s) for s in slots))
        if not slots:
            raise RebalanceError("no slots to move")
        sources = {shard_map.owner_of_slot(s) for s in slots}
        if len(sources) != 1:
            raise RebalanceError(
                f"slots {slots} span sources {sorted(sources)}; "
                "batch one source per move")
        source = sources.pop()
        if target == source:
            raise RebalanceError(f"slots already live on dn{target}")
        for slot in slots:
            shard_map.begin_move(slot, target)
        move = Move(move_id=self._next_move_id, source=source, target=target,
                    slots=tuple(slots), state=ST_COPYING,
                    t_begin_us=self._now_us(), pending=tuple(slots))
        self._next_move_id += 1
        self.moves.append(move)
        self._count("rebalance.moves_started")
        return move

    def copy(self, move: Move) -> None:
        """Snapshot-copy the moving slots' rows onto the target."""
        self._require_state(move, ST_COPYING)
        cluster = self.cluster
        shard_map = self._shard_map()
        source = cluster.dns[move.source]
        target = cluster.dns[move.target]
        moving = frozenset(move.slots)
        faults = getattr(cluster, "faults", None)
        for table in cluster.catalog.tables():
            schema = cluster.catalog.schema(table)
            if schema.distribution is Distribution.REPLICATION:
                continue
            delay_us = 0.0
            if faults is not None:
                # A coordinator crash propagates with the move left in
                # copying state (recovery rolls it back); timeouts and
                # drops abort this move cleanly.
                try:
                    outcome = faults.fire(FP_REBALANCE_COPY, dn=move.target,
                                          table=table)
                except (InjectedTimeout, CoordinatorCrash):
                    self._count("rebalance.copy_faults")
                    raise
                if outcome.dropped:
                    self._count("rebalance.copy_faults")
                    raise InjectedTimeout(
                        f"rebalance copy shipment dropped at {table}",
                        dn_index=move.target)
                delay_us = outcome.delay_us
            column = schema.distribution_column
            slot_of = shard_map.slot_of_value
            rows = [(key, values) for key, values
                    in source.scan(table, source.local_snapshot())
                    if slot_of(values[column]) in moving]
            copied = 0
            if rows:
                xid = target.begin()
                snapshot = target.local_snapshot()
                for key, values in rows:
                    if target.read(table, key, snapshot, xid) is not None:
                        continue   # a double-write already landed it
                    # A copy of a heap's row: typed already
                    # (DataNode.insert).
                    target.insert(table, dict(values), xid, snapshot)
                    copied += 1
                target.commit(xid)
            move.rows_copied += copied
            self._charge(WAIT_REBALANCE_COPY, move.target,
                         copied * _row_bytes(schema), delay_us)
        move.state = ST_CATCHUP
        self._count("rebalance.slots_copied", float(len(move.slots)))

    def flip(self, move: Move) -> None:
        """Atomically re-own the slots; double-write window closes."""
        self._require_state(move, ST_CATCHUP)
        faults = getattr(self.cluster, "faults", None)
        if faults is not None:
            try:
                outcome = faults.fire(FP_REBALANCE_FLIP, dn=move.target)
            except (InjectedTimeout, CoordinatorCrash):
                self._count("rebalance.flip_faults")
                raise
            if outcome.dropped:
                self._count("rebalance.flip_faults")
                raise InjectedTimeout("rebalance flip request dropped",
                                      dn_index=move.target)
        self._shard_map().flip(move.slots)
        move.pending = ()
        move.state = ST_FLIPPED
        move.t_flip_us = self._now_us()
        self.slots_moved += len(move.slots)
        self._count("rebalance.slots_flipped", float(len(move.slots)))
        if self.cluster.obs is not None:
            self.cluster.obs.alerts.raise_alert(
                source="rebalance", severity="info",
                message=(f"{len(move.slots)} slots flipped "
                         f"dn{move.source}->dn{move.target}"),
                t_us=self._now_us(),
                key=f"rebalance.flip:{move.move_id}")

    def truncate(self, move: Move) -> None:
        """Delete the source's stale copy and re-open fast scans."""
        self._require_state(move, ST_FLIPPED)
        removed = self._purge(move.source, move.slots,
                              WAIT_REBALANCE_TRUNCATE)
        move.rows_truncated = removed
        shard_map = self._shard_map()
        for slot in move.slots:
            shard_map.clear_excluded(move.source, slot)
        move.state = ST_DONE
        move.t_end_us = self._now_us()
        self.moves_completed += 1

    def abort(self, move: Move) -> None:
        """Roll a not-yet-flipped move back: drop the target's partial copy."""
        if move.state not in (ST_COPYING, ST_CATCHUP):
            raise RebalanceError(
                f"move {move.move_id} is {move.state}; only unflipped moves "
                "can abort")
        self._purge(move.target, move.slots, WAIT_REBALANCE_COPY)
        shard_map = self._shard_map()
        for slot in move.slots:
            shard_map.abort_move(slot)
            shard_map.clear_excluded(move.target, slot)
        move.pending = ()
        move.state = ST_ABORTED
        move.t_end_us = self._now_us()
        self.moves_aborted += 1
        self._count("rebalance.moves_aborted")

    def recover(self) -> int:
        """Resolve moves a crashed coordinator left behind.

        * ``copying`` — the target copy may be partial: roll *back*.
        * ``catchup`` — copy complete, flip not issued: roll *forward*.
        * ``flipped`` — owner already flipped: finish the truncate.

        The slot owner is a single shard-map cell throughout, so there is
        never an ambiguous-ownership window to resolve.  Returns the
        number of moves settled.
        """
        settled = 0
        for move in self.moves:
            if move.state not in _UNSETTLED:
                continue
            if move.state == ST_COPYING:
                self.abort(move)
            else:
                if move.state == ST_CATCHUP:
                    self.flip(move)
                self.truncate(move)
            settled += 1
        if settled:
            self._count("rebalance.moves_recovered", float(settled))
        return settled

    def active_moves(self) -> List[Move]:
        return [m for m in self.moves if m.state in _UNSETTLED]

    # ------------------------------------------------------------------
    # internals

    def _purge(self, dn_index: int, slots, wait_event: str) -> int:
        """Delete every row of ``slots`` on one node via the normal path."""
        cluster = self.cluster
        shard_map = self._shard_map()
        node = cluster.dns[dn_index]
        doomed = frozenset(slots)
        removed = 0
        for table in cluster.catalog.tables():
            schema = cluster.catalog.schema(table)
            if schema.distribution is Distribution.REPLICATION:
                continue
            column = schema.distribution_column
            slot_of = shard_map.slot_of_value
            keys = [key for key, values
                    in node.scan(table, node.local_snapshot())
                    if slot_of(values[column]) in doomed]
            if not keys:
                continue
            self._expel_abandoned_writers(node, table, keys)
            xid = node.begin()
            snapshot = node.local_snapshot()
            try:
                for key in keys:
                    node.delete(table, key, xid, snapshot)
            except Exception:
                # A purge that trips over an unresolved writer (e.g. a
                # PREPARED transaction a dead coordinator left behind) must
                # not leave its own half-done deletes active — roll back so
                # recovery's retry starts clean after in-doubt resolution.
                node.abort(xid)
                raise
            node.commit(xid)
            removed += len(keys)
            self._charge(wait_event, dn_index,
                         len(keys) * _row_bytes(schema), 0.0)
        return removed

    def _expel_abandoned_writers(self, node, table: str, keys) -> None:
        """Abort zombie writers whose uncommitted versions block a purge.

        A coordinator that died mid-statement leaves its local
        transactions ACTIVE — never prepared, so in-doubt resolution
        skips them — yet their heap versions still win first-updater-wins
        against the truncate's deletes.  Any such writer whose global
        transaction is not committed at the GTM is presumed dead: decide
        abort at the GTM first (so a late coordinator cannot still
        commit), roll the local writes back, and seal the coordinator
        handle.  Purely local in-progress transactions are left alone —
        they belong to a live session, not a dead coordinator.
        """
        gtm = self.cluster.gtm
        registry = getattr(self.cluster, "_inflight_globals", None)
        doomed = {(table, key) for key in keys}
        for local_xid in node.ltm.in_progress_xids():
            gxid = node.ltm.gxid_for(local_xid)
            if gxid is None or gtm.is_committed(gxid):
                continue
            if not any(item in doomed
                       for item in node.ltm.write_set(local_xid).frozen()):
                continue
            if gtm.clog.is_in_doubt(gxid):
                gtm.abort(gxid)
            node.abort(local_xid)
            if registry:
                txn = registry.get(gxid)
                if txn is not None:
                    txn.mark_recovery_aborted()
            self._count("rebalance.writers_expelled")

    def _charge(self, event: str, dn_index: int, volume: int,
                delay_us: float) -> None:
        obs = self.cluster.obs
        if obs is None or (volume <= 0 and delay_us <= 0.0):
            return
        io_us = volume * SPILL_BYTE_US + delay_us
        obs.metrics.counter("rebalance.bytes").inc(float(volume))
        obs.waits.record(event, io_us, session=f"dn{dn_index}")

    def _shard_map(self):
        shard_map = self.cluster.catalog.shard_map
        if shard_map is None:
            raise RebalanceError("cluster has no shard map")
        return shard_map

    @staticmethod
    def _require_state(move: Move, state: str) -> None:
        if move.state != state:
            raise RebalanceError(
                f"move {move.move_id} is {move.state}, expected {state}")

    def _count(self, metric: str, amount: float = 1.0) -> None:
        if self.cluster.obs is not None:
            self.cluster.obs.metrics.counter(metric).inc(amount)

    def _now_us(self) -> float:
        return self.cluster.obs.clock.now_us if self.cluster.obs else 0.0

    # ------------------------------------------------------------------
    # introspection

    def rows(self) -> List[tuple]:
        """Feed for ``sys.rebalance``."""
        return [(m.move_id, m.source, m.target, len(m.slots), m.state,
                 m.rows_copied, m.rows_truncated, m.t_begin_us, m.t_flip_us,
                 m.t_end_us)
                for m in self.moves]

    def reset_history(self) -> None:
        """Drop settled-move history/counters (replay-identity path).

        Active moves survive — they are cluster state, not telemetry.
        """
        self.moves = self.active_moves()
        self.slots_moved = 0
        self.moves_completed = 0
        self.moves_aborted = 0
