"""Per-query memory budgets with simulated spill-to-disk.

Pipeline-breaking operators (hash aggregate, hash join build, sort,
partial/final aggregation) hold state proportional to their input; this
module is how that state is charged against the query's resource-group
budget.  Each operator obtains an :class:`OperatorMemory` tracker from its
query's :class:`~repro.wlm.governor.WlmQueryContext` and calls
:meth:`OperatorMemory.grow` per hash-table entry / build row / sorted row
(:meth:`OperatorMemory.grow_entries` for a batch of them, spill for spill
the same).
When the *query-wide* reservation exceeds the group budget, the growing
operator spills part of its partition: the bytes leave memory, the operator
is charged simulated storage I/O time (write plus the eventual read-back),
and the event lands in telemetry as ``wait.wlm_spill_us`` plus a
``spilled_bytes`` profile column.

Results are unaffected — spill here is an *accounting* path, matching how
the rest of the simulator charges time without re-implementing disks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.wlm.governor import WlmQueryContext

#: Simulated storage cost per spilled byte (write + eventual read-back).
#: 0.002 us/B ≈ 2 ms per spilled megabyte round trip — the same order as
#: the network wire cost, so spilling is visible but not catastrophic.
SPILL_BYTE_US = 0.002

#: Fixed per-entry bookkeeping overhead (hash bucket / row header) added to
#: the serialized row width when estimating operator state growth.
ENTRY_OVERHEAD_BYTES = 48


class MemoryBudget:
    """One query's shared memory reservation against its group's cap."""

    __slots__ = ("cap_bytes", "reserved_bytes", "peak_bytes")

    def __init__(self, cap_bytes: int):
        self.cap_bytes = int(cap_bytes)
        self.reserved_bytes = 0
        self.peak_bytes = 0

    @property
    def over(self) -> bool:
        return self.reserved_bytes > self.cap_bytes

    def grow(self, nbytes: int) -> None:
        self.reserved_bytes += nbytes
        if self.reserved_bytes > self.peak_bytes:
            self.peak_bytes = self.reserved_bytes

    def shrink(self, nbytes: int) -> None:
        self.reserved_bytes = max(0, self.reserved_bytes - nbytes)


class OperatorMemory:
    """One operator's slice of its query's budget.

    ``grow`` reserves; if the query-wide reservation tops the cap, this
    operator spills roughly half of what it holds (never less than the
    triggering growth) until the budget fits again or it holds nothing —
    other operators keep their residency and spill on their own next grow.
    """

    __slots__ = ("ctx", "op", "budget", "held_bytes")

    def __init__(self, ctx: "WlmQueryContext", op: object,
                 budget: MemoryBudget):
        self.ctx = ctx
        self.op = op
        self.budget = budget
        self.held_bytes = 0

    def grow(self, nbytes: int) -> None:
        nbytes = int(nbytes)
        if nbytes <= 0:
            return
        self.held_bytes += nbytes
        self.budget.grow(nbytes)
        while self.budget.over and self.held_bytes > 0:
            freed = max(self.held_bytes // 2, min(nbytes, self.held_bytes))
            self.held_bytes -= freed
            self.budget.shrink(freed)
            self.ctx.note_spill(self.op, freed)

    def grow_entries(self, nbytes: int, count: int) -> None:
        """Exactly ``count`` successive ``grow(nbytes)`` calls — the same
        spills, in the same order — for a batch of entries.  The entries
        that fit under the cap are reserved at once; only an entry that
        would overflow it goes through ``grow``."""
        nbytes = int(nbytes)
        if nbytes <= 0:
            return
        budget = self.budget
        while count > 0:
            fit = min(count, max(0, budget.cap_bytes - budget.reserved_bytes)
                      // nbytes)
            if fit:
                self.held_bytes += fit * nbytes
                budget.grow(fit * nbytes)
                count -= fit
            if count:
                self.grow(nbytes)
                count -= 1

    def finish(self) -> None:
        """Release this operator's residency back to the query budget."""
        self.budget.shrink(self.held_bytes)
        self.held_bytes = 0
