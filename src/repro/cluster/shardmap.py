"""Versioned hash-slot shard map: placement decoupled from cluster size.

The seed wired placement directly as ``hash(key) % num_dns`` inside every
layer that needed a DN index (txn routing, fragment scheduling, HTAP
reseed, chaos helpers), which froze the cluster size at construction.
This module is the single source of truth the issue asked for: a fixed
number of hash slots, each slot owned by exactly one DN, with a version
counter that every consumer (plan cache, fragment lowering) can pin.

Placement compatibility
-----------------------

Values hash to a *slot* with the same function the seed used for DNs
(:func:`repro.storage.table.shard_of_value` — ints by modulo, everything
else by crc32), just with ``num_slots`` as the modulus.  ``num_slots`` is
chosen as a multiple of the initial DN count (``num_dns * 64``, i.e. 256
slots for the canonical 4-DN cluster) and the initial assignment is
``slot s -> s % num_dns``.  Because ``(x mod m) mod d == x mod d``
whenever ``d`` divides ``m``, a freshly built map places every row on
exactly the DN the seed's ``% num_dns`` placement chose — replay and the
placement-sensitive test suites are byte-identical until the first
rebalance actually moves a slot.

Online moves
------------

:class:`~repro.cluster.rebalance.RebalanceCoordinator` drives the slot
state machine through this map:

* ``begin_move(slot, target)`` marks the slot as double-written and hides
  the target's partially-copied rows from scans (``excluded_slots``);
* ``flip(slots)`` atomically re-owns the slots (one version bump per
  flip, so cached plans that baked the old DN targets are invalidated)
  and swaps the scan exclusion from the target to the not-yet-truncated
  source;
* ``clear_excluded`` re-opens the fast scan path once the source copy is
  truncated.

Membership (active DN indices) also lives here: removing a DN retires
its index from ``members()`` without renumbering the survivors, so HA
fabric names, resource queues and telemetry labels stay stable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.storage.table import shard_of_value

#: Default slots allocated per initial DN.  The product is the fixed slot
#: count for the cluster's lifetime (4 DNs -> 256 slots).
SLOTS_PER_DN = 64


class ShardMapError(Exception):
    """Invalid slot-map operation (bad member, conflicting move, ...)."""


class ShardMap:
    """Fixed hash slots -> DN owner, with versioning and move tracking."""

    def __init__(self, num_dns: int, num_slots: Optional[int] = None):
        if num_dns <= 0:
            raise ShardMapError("shard map needs at least one DN")
        if num_slots is None:
            num_slots = num_dns * SLOTS_PER_DN
        if num_slots < num_dns or num_slots % num_dns != 0:
            # Divisibility is what keeps a fresh map's placement identical
            # to the seed's direct `% num_dns` (see module docstring).
            raise ShardMapError(
                f"num_slots ({num_slots}) must be a positive multiple of "
                f"num_dns ({num_dns})")
        self.num_slots = int(num_slots)
        self._owners: List[int] = [s % num_dns for s in range(num_slots)]
        self._members: List[int] = list(range(num_dns))
        #: slot -> target DN while a move's copy/catch-up window is open.
        self._moving: Dict[int, int] = {}
        #: dn_index -> slots whose rows on that DN are hidden from scans
        #: (partial copies on a move target; stale copies on a flipped
        #: source awaiting truncation).
        self._excluded: Dict[int, Set[int]] = {}
        #: Bumped on every ownership flip and membership change; pinned by
        #: the plan cache next to catalog/stats versions.
        self.version = 1
        self.flips = 0

    # ------------------------------------------------------------------
    # routing

    def slot_of_value(self, value) -> int:
        """Hash a distribution value to its slot."""
        return shard_of_value(value, self.num_slots)

    def owner_of_slot(self, slot: int) -> int:
        return self._owners[slot]

    def owner_of_value(self, value) -> int:
        """The DN that owns a distribution value right now."""
        return self._owners[shard_of_value(value, self.num_slots)]

    def route(self, value) -> Tuple[int, Optional[int]]:
        """``(owner, move target or None)`` of a distribution value: one
        call per routed statement (an int hashes by modulo, as in
        :func:`shard_of_value`)."""
        slot = (value % self.num_slots if value.__class__ is int
                else shard_of_value(value, self.num_slots))
        return self._owners[slot], self._moving.get(slot)

    def moving_target(self, slot: int) -> Optional[int]:
        """Target DN if the slot is mid-move (double-write window)."""
        return self._moving.get(slot)

    def has_moves(self) -> bool:
        return bool(self._moving)

    # ------------------------------------------------------------------
    # membership

    def members(self) -> Tuple[int, ...]:
        """Active DN indices, ascending (retired DNs are absent)."""
        return tuple(self._members)

    def add_member(self, dn_index: int) -> None:
        """Admit a new DN (owning zero slots until a rebalance)."""
        if dn_index in self._members:
            raise ShardMapError(f"dn{dn_index} is already a member")
        self._members.append(dn_index)
        self._members.sort()
        self.version += 1

    def remove_member(self, dn_index: int) -> None:
        """Retire a drained DN.  It must own no slots and host no moves."""
        if dn_index not in self._members:
            raise ShardMapError(f"dn{dn_index} is not a member")
        if len(self._members) == 1:
            raise ShardMapError("cannot retire the last DN")
        if any(owner == dn_index for owner in self._owners):
            raise ShardMapError(
                f"dn{dn_index} still owns slots; rebalance before retiring")
        if dn_index in self._moving.values():
            raise ShardMapError(f"dn{dn_index} is a move target")
        self._members.remove(dn_index)
        self.version += 1

    # ------------------------------------------------------------------
    # moves

    def begin_move(self, slot: int, target: int) -> int:
        """Open the double-write window for one slot; returns the source."""
        if not 0 <= slot < self.num_slots:
            raise ShardMapError(f"slot {slot} out of range")
        if target not in self._members:
            raise ShardMapError(f"move target dn{target} is not a member")
        if slot in self._moving:
            raise ShardMapError(f"slot {slot} is already moving")
        source = self._owners[slot]
        if source == target:
            raise ShardMapError(f"slot {slot} already lives on dn{target}")
        self._moving[slot] = target
        self.exclude(target, slot)
        return source

    def flip(self, slots: Iterable[int]) -> None:
        """Atomically re-own moving slots to their targets.

        One version bump covers the whole batch; scan exclusion swaps
        from the (now authoritative) target to the stale source, which
        the coordinator truncates next.
        """
        slots = list(slots)
        for slot in slots:
            if slot not in self._moving:
                raise ShardMapError(f"slot {slot} is not moving")
        for slot in slots:
            source = self._owners[slot]
            target = self._moving.pop(slot)
            self._owners[slot] = target
            self.clear_excluded(target, slot)
            self.exclude(source, slot)
            self.flips += 1
        self.version += 1

    def abort_move(self, slot: int) -> Optional[int]:
        """Close a move window without flipping; returns the target."""
        target = self._moving.pop(slot, None)
        if target is not None:
            self.clear_excluded(target, slot)
        return target

    # ------------------------------------------------------------------
    # scan exclusions

    def exclude(self, dn_index: int, slot: int) -> None:
        self._excluded.setdefault(dn_index, set()).add(slot)

    def clear_excluded(self, dn_index: int, slot: int) -> None:
        slots = self._excluded.get(dn_index)
        if slots is not None:
            slots.discard(slot)
            if not slots:
                del self._excluded[dn_index]

    def excluded_slots(self, dn_index: int) -> frozenset:
        """Slots whose rows on this DN must be skipped by scans.

        Empty (the overwhelmingly common case) means the DN's fast scan
        paths run unfiltered, exactly as before this refactor.
        """
        slots = self._excluded.get(dn_index)
        return frozenset(slots) if slots else frozenset()

    # ------------------------------------------------------------------
    # balance accounting

    def slots_owned_by(self, dn_index: int) -> List[int]:
        return [s for s, owner in enumerate(self._owners)
                if owner == dn_index]

    def slot_counts(self) -> Dict[int, int]:
        """Owned-slot count per active member (zero-filled)."""
        counts = {dn: 0 for dn in self._members}
        for owner in self._owners:
            counts[owner] = counts.get(owner, 0) + 1
        return counts

    def skew(self) -> float:
        """max/mean owned-slot ratio across members (1.0 = balanced)."""
        counts = [self.slot_counts()[dn] for dn in self._members]
        mean = sum(counts) / len(counts)
        if mean == 0:
            return 1.0
        return max(counts) / mean

    def balanced_assignment(self) -> Dict[int, int]:
        """Target per-member slot counts for a balanced map.

        ``num_slots // n`` each, with the remainder spread over the
        lowest member indices — deterministic, so every rebalance run
        computes the same plan.
        """
        members = self._members
        base, extra = divmod(self.num_slots, len(members))
        return {dn: base + (1 if i < extra else 0)
                for i, dn in enumerate(members)}

    # ------------------------------------------------------------------
    # introspection

    def rows(self) -> List[tuple]:
        """(slot, owner, moving_to, excluded_on) rows for sys.shard_map."""
        out = []
        for slot, owner in enumerate(self._owners):
            moving_to = self._moving.get(slot, -1)
            excluded_on = ",".join(
                f"dn{dn}" for dn in sorted(self._excluded)
                if slot in self._excluded[dn])
            out.append((slot, owner, moving_to, excluded_on))
        return out
