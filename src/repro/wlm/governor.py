"""The workload governor: deterministic admission control over resource groups.

Every statement the SQL engine executes asks this governor for a *ticket*
before touching the cluster, and returns it on every exit path — success,
error, timeout, cancellation, injected crash.  The governor enforces each
:class:`~repro.wlm.groups.ResourceGroup`'s concurrency slots, queue-depth
cap (overload shedding with :class:`~repro.common.errors.AdmissionRejected`)
and per-statement timeout, and owns the telemetry for all of it: the
``sys.wlm_queue`` event history, ``wait.wlm_queue_us`` / ``wait.wlm_spill_us``
wait events, ``wlm.*`` counters and cancellation alerts.

Two usage modes share one code path:

* **Sequential replay** (the synchronous SQL engine): each query is
  submitted, executed and released before the next submission.  Slots are a
  pool of *free-at times* (a min-heap): admission time is
  ``max(arrival, earliest free slot)``, so a burst of explicit
  ``arrival_us`` submissions queues exactly as it would on a live system —
  while default submissions (arrival = the governor's completion cursor)
  are admitted instantly and leave telemetry untouched.
* **Concurrent driving** (the benchmark driver, the autonomous workload
  manager): tickets stay in flight with unknown completion times, so
  later submissions park in a priority-ordered queue and are promoted,
  highest priority first, when a release or cancellation frees a slot.

All times are simulated microseconds; the same submission schedule against
the same group config yields a byte-identical event history.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.clock import SimClock
from repro.common.errors import (
    AdmissionRejected,
    QueryCancelled,
    QueryTimeout,
)
from repro.wlm.groups import Priority, ResourceGroup, WlmConfig
from repro.wlm.memory import MemoryBudget, OperatorMemory, SPILL_BYTE_US

#: Simulated cost charged per cooperative cancellation checkpoint (one per
#: row flowing through each operator) when accruing a query's progress
#: against its group timeout.  Matches the profiler's fallback row cost.
CHECKPOINT_COST_US = 0.1

#: Failpoint names fired through the cluster's ``repro.faults`` injector.
#: String literals (not imports) keep ``repro.wlm`` free of a faults
#: dependency; :mod:`repro.faults.injector` registers the same names.
FP_WLM_ADMIT = "wlm.admit"
FP_WLM_SPILL = "wlm.spill"


@dataclass
class Ticket:
    """One admitted (or queued) statement's claim on its group."""

    query_id: int
    group: str
    priority: Priority
    submitted_us: float
    budget: MemoryBudget
    tag: str = ""
    admitted_us: Optional[float] = None
    end_us: Optional[float] = None
    #: Cooperative-cancellation flag; the executor's next checkpoint raises.
    cancel_requested: Optional[str] = None

    @property
    def queued(self) -> bool:
        return self.admitted_us is None

    @property
    def finished(self) -> bool:
        return self.end_us is not None

    @property
    def wait_us(self) -> float:
        if self.admitted_us is None:
            return 0.0
        return max(0.0, self.admitted_us - self.submitted_us)


@dataclass(frozen=True)
class QueueEvent:
    """One row of the ``sys.wlm_queue`` admission history."""

    event_id: int
    query_id: int
    group: str
    priority: str
    event: str      # queued | admitted | rejected | done | failed
                    # | cancelled | timeout
    t_us: float
    wait_us: float

    def as_row(self) -> Tuple[int, int, str, str, str, float, float]:
        return (self.event_id, self.query_id, self.group, self.priority,
                self.event, self.t_us, self.wait_us)


class _GroupState:
    """Mutable runtime state for one resource group."""

    __slots__ = ("group", "free_at", "running", "queue", "admit_log",
                 "admitted", "rejected", "cancelled", "spills",
                 "spilled_bytes")

    def __init__(self, group: ResourceGroup):
        self.group = group
        #: One entry per unoccupied slot: the time it became free.
        self.free_at: List[float] = [0.0] * group.slots
        heapq.heapify(self.free_at)
        self.running: Dict[int, Ticket] = {}
        #: Waiting tickets, kept sorted by (-priority, submitted, id).
        self.queue: List[Ticket] = []
        #: Admission times of future-dated admissions (sequential-replay
        #: bursts): entries > the current arrival are queries "ahead of" it.
        self.admit_log: List[float] = []
        self.admitted = 0
        self.rejected = 0
        self.cancelled = 0
        self.spills = 0
        self.spilled_bytes = 0

    def backlog_at(self, t_us: float) -> int:
        """Queue depth seen by an arrival at ``t_us``."""
        while self.admit_log and self.admit_log[0] <= t_us:
            heapq.heappop(self.admit_log)
        return len(self.queue) + len(self.admit_log)

    def enqueue(self, ticket: Ticket) -> None:
        self.queue.append(ticket)
        self.queue.sort(key=lambda t: (-t.priority, t.submitted_us,
                                       t.query_id))

    def remove_queued(self, ticket: Ticket) -> bool:
        try:
            self.queue.remove(ticket)
            return True
        except ValueError:
            return False


class WlmGovernor:
    """Admission control, memory budgets and cancellation for one cluster."""

    def __init__(self, config: Optional[WlmConfig] = None,
                 clock: Optional[SimClock] = None,
                 metrics=None, waits=None, alerts=None,
                 faults_fn: Optional[Callable[[], object]] = None,
                 fast_forward: bool = True):
        self.config = config if config is not None else WlmConfig()
        self.clock = clock if clock is not None else SimClock()
        #: Sequential-replay semantics: a submission whose slot frees later
        #: is admitted *at* that future sim time (the query "waited").
        #: Off, a free slot admits at the arrival time regardless — the
        #: wall-clock semantics the autonomous workload manager drives with.
        self.fast_forward = fast_forward
        #: Duck-typed observability sinks (``repro.obs`` types in practice);
        #: all optional so the governor runs standalone.
        self.metrics = metrics
        self.waits = waits
        self.alerts = alerts
        #: Late-bound accessor for the cluster's fault injector, so
        #: ``repro.wlm`` never imports ``repro.faults``.
        self.faults_fn = faults_fn
        self._groups: Dict[str, _GroupState] = {
            name: _GroupState(group)
            for name, group in self.config.groups.items()
        }
        self.events: List[QueueEvent] = []
        self._next_query_id = 1
        self._next_event_id = 1
        #: Latest known completion time: the default arrival for sequential
        #: replay, so back-to-back queries never contend with their past.
        self.cursor_us = 0.0

    # -- configuration -----------------------------------------------------

    def group(self, name: Optional[str] = None) -> ResourceGroup:
        return self.config.get(name)

    def set_slots(self, name: str, slots: int,
                  now_us: Optional[float] = None) -> List[Ticket]:
        """Retune a group's concurrency live; growth promotes waiters."""
        state = self._state(name)
        old = state.group.slots
        slots = max(1, int(slots))
        state.group.slots = slots
        promoted: List[Ticket] = []
        if slots > old:
            t = now_us if now_us is not None else self.cursor_us
            for _ in range(slots - old):
                heapq.heappush(state.free_at, t)
            promoted = self._drain_queue(state)
        # Shrinking is lazy: surplus freed slots are dropped on release.
        while len(state.free_at) + len(state.running) > state.group.slots \
                and state.free_at:
            # Drop the latest-free surplus slots immediately where possible.
            state.free_at.remove(max(state.free_at))
            heapq.heapify(state.free_at)
        return promoted

    def set_memory(self, name: str, memory_per_query_bytes: int) -> None:
        """Retune a group's per-query budget; applies to new admissions."""
        self._state(name).group.memory_per_query_bytes = \
            max(1, int(memory_per_query_bytes))

    # -- admission ---------------------------------------------------------

    def submit(self, group: Optional[str] = None,
               now_us: Optional[float] = None,
               priority: Optional[Priority] = None,
               tag: str = "") -> Ticket:
        """Ask for a slot.  Returns an admitted ticket (possibly with a
        future ``admitted_us``, meaning the query waited), or a queued one
        (``admitted_us is None``) when in-flight occupants make the wait
        unresolvable; raises :class:`AdmissionRejected` past the queue cap.
        """
        state = self._state(group)
        grp = state.group
        self._fire_failpoint(FP_WLM_ADMIT, group=grp.name)
        arrival = now_us if now_us is not None \
            else max(self.clock.now_us, self.cursor_us)
        prio = priority if priority is not None else grp.priority
        query_id = self._next_query_id
        self._next_query_id += 1
        if state.backlog_at(arrival) >= grp.queue_limit:
            state.rejected += 1
            self._count("wlm.rejected")
            self._event(query_id, grp.name, prio, "rejected", arrival, 0.0)
            if self.alerts is not None:
                self.alerts.raise_alert(
                    source="wlm", severity="warning",
                    message=(f"group {grp.name!r} shedding load: queue depth"
                             f" {grp.queue_limit} reached"),
                    t_us=arrival, key=f"wlm.shed:{grp.name}")
            raise AdmissionRejected(
                f"resource group {grp.name!r} queue full "
                f"({grp.queue_limit}); shedding load",
                group=grp.name, queue_depth=grp.queue_limit)
        ticket = Ticket(
            query_id=query_id, group=grp.name, priority=prio,
            submitted_us=arrival,
            budget=MemoryBudget(grp.memory_per_query_bytes), tag=tag)
        if state.free_at:
            free = heapq.heappop(state.free_at)
            self._admit(state, ticket,
                        max(arrival, free) if self.fast_forward else arrival)
        else:
            # Every slot is held by an in-flight query with an unknown end:
            # park in the priority queue until a release promotes us.
            self._count("wlm.queued")
            self._event(query_id, grp.name, prio, "queued", arrival, 0.0)
            state.enqueue(ticket)
        return ticket

    def _admit(self, state: _GroupState, ticket: Ticket,
               admitted_us: float) -> None:
        ticket.admitted_us = admitted_us
        state.running[ticket.query_id] = ticket
        state.admitted += 1
        self._count("wlm.admitted")
        wait = ticket.wait_us
        if wait > 0:
            if self.fast_forward:
                heapq.heappush(state.admit_log, admitted_us)
            self._event(ticket.query_id, ticket.group, ticket.priority,
                        "queued", ticket.submitted_us, 0.0)
            if self.waits is not None:
                self.waits.record("wlm_queue", wait)
        self._event(ticket.query_id, ticket.group, ticket.priority,
                    "admitted", admitted_us, wait)

    # -- completion --------------------------------------------------------

    def release(self, ticket: Ticket, end_us: Optional[float] = None,
                event: str = "done") -> List[Ticket]:
        """Return a slot; promotes queued waiters.  Safe to call once per
        ticket on any exit path (double release is a no-op)."""
        if ticket.finished or ticket.admitted_us is None:
            return []
        end = end_us if end_us is not None else ticket.admitted_us
        end = max(end, ticket.admitted_us)
        ticket.end_us = end
        state = self._state(ticket.group)
        state.running.pop(ticket.query_id, None)
        if end > self.cursor_us:
            self.cursor_us = end
        self._event(ticket.query_id, ticket.group, ticket.priority,
                    event, end, ticket.wait_us)
        return self._free_slot(state, end)

    def cancel(self, ticket: Ticket, now_us: Optional[float] = None,
               reason: str = "cancelled") -> bool:
        """Cancel a statement.  Queued: removed immediately (returns True).
        Running: flags the ticket; the executor's next checkpoint raises
        :class:`QueryCancelled` and the driver calls
        :meth:`finish_cancelled`.  Returns False for the cooperative case.
        """
        state = self._state(ticket.group)
        if ticket.queued and state.remove_queued(ticket):
            t = now_us if now_us is not None else ticket.submitted_us
            ticket.end_us = t
            state.cancelled += 1
            self._count("wlm.cancelled")
            self._event(ticket.query_id, ticket.group, ticket.priority,
                        "cancelled", t, max(0.0, t - ticket.submitted_us))
            return True
        if not ticket.finished:
            ticket.cancel_requested = reason
        return False

    def finish_cancelled(self, ticket: Ticket, end_us: float,
                         kind: str = "cancelled") -> List[Ticket]:
        """A running statement stopped at a checkpoint: free its slot at
        ``end_us`` (head of the queue inherits it), alert, count."""
        if ticket.finished:
            return []
        if ticket.queued:
            self.cancel(ticket, now_us=end_us)
            return []
        state = self._state(ticket.group)
        end = max(end_us, ticket.admitted_us)
        ticket.end_us = end
        state.running.pop(ticket.query_id, None)
        state.cancelled += 1
        self._count("wlm.timeouts" if kind == "timeout" else "wlm.cancelled")
        if end > self.cursor_us:
            self.cursor_us = end
        self._event(ticket.query_id, ticket.group, ticket.priority,
                    kind, end, ticket.wait_us)
        if self.alerts is not None:
            self.alerts.raise_alert(
                source="wlm", severity="warning",
                message=(f"query {ticket.query_id} in group "
                         f"{ticket.group!r} {kind}"),
                t_us=end, key=f"wlm.{kind}:{ticket.group}")
        return self._free_slot(state, end)

    def _free_slot(self, state: _GroupState, t_us: float) -> List[Ticket]:
        if len(state.free_at) + len(state.running) >= state.group.slots:
            return []     # lazy shrink: the slot was retired by set_slots
        if state.queue:
            head = state.queue.pop(0)
            self._admit(state, head, max(t_us, head.submitted_us))
            return [head]
        heapq.heappush(state.free_at, t_us)
        return []

    def _drain_queue(self, state: _GroupState) -> List[Ticket]:
        promoted: List[Ticket] = []
        while state.queue and state.free_at:
            free = heapq.heappop(state.free_at)
            head = state.queue.pop(0)
            self._admit(state, head, max(free, head.submitted_us))
            promoted.append(head)
        return promoted

    # -- per-query execution context ---------------------------------------

    def context(self, ticket: Ticket) -> "WlmQueryContext":
        return WlmQueryContext(self, ticket)

    def note_spill(self, ticket: Ticket, nbytes: int,
                   dn: Optional[int] = None) -> float:
        """Account one spill: storage sim-time, wait event, counters,
        failpoint.  Returns the simulated I/O time charged."""
        self._fire_failpoint(FP_WLM_SPILL, dn=dn, group=ticket.group,
                             query=ticket.query_id)
        spill_us = nbytes * SPILL_BYTE_US
        state = self._state(ticket.group)
        state.spills += 1
        state.spilled_bytes += nbytes
        self._count("wlm.spills")
        self._count("wlm.spilled_bytes", nbytes)
        if self.waits is not None:
            session = f"dn{dn}" if dn is not None else None
            self.waits.record("wlm_spill", spill_us, session=session)
        return spill_us

    # -- introspection -----------------------------------------------------

    def running_count(self, group: Optional[str] = None) -> int:
        return len(self._state(group).running)

    def queued_count(self, group: Optional[str] = None) -> int:
        return len(self._state(group).queue)

    def queue_rows(self) -> List[Tuple[int, int, str, str, str, float, float]]:
        """``sys.wlm_queue`` rows, in event order."""
        return [event.as_row() for event in self.events]

    def group_rows(self) -> List[tuple]:
        """``sys.wlm_groups`` rows."""
        rows = []
        for name in sorted(self._groups):
            state = self._groups[name]
            grp = state.group
            rows.append((
                name, grp.slots, grp.memory_per_query_bytes,
                grp.priority.name, grp.timeout_us, grp.queue_limit,
                len(state.running), len(state.queue),
                state.admitted, state.rejected, state.cancelled,
                state.spills, state.spilled_bytes,
            ))
        return rows

    def reset_history(self) -> None:
        """Telemetry reset: forget every ticket, event and counter while
        keeping the group configuration (mirrors ``reset_telemetry``)."""
        self.events.clear()
        self._next_query_id = 1
        self._next_event_id = 1
        self.cursor_us = 0.0
        for state in self._groups.values():
            state.free_at = [0.0] * state.group.slots
            heapq.heapify(state.free_at)
            state.running.clear()
            state.queue.clear()
            state.admit_log = []
            state.admitted = state.rejected = state.cancelled = 0
            state.spills = state.spilled_bytes = 0

    # -- internals ---------------------------------------------------------

    def _state(self, name: Optional[str]) -> _GroupState:
        group = self.config.get(name)
        return self._groups[group.name]

    def _event(self, query_id: int, group: str, priority: Priority,
               event: str, t_us: float, wait_us: float) -> None:
        self.events.append(QueueEvent(
            event_id=self._next_event_id, query_id=query_id, group=group,
            priority=priority.name, event=event, t_us=t_us,
            wait_us=wait_us))
        self._next_event_id += 1

    def _count(self, name: str, n: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(n)

    def _fire_failpoint(self, failpoint: str, **ctx) -> None:
        if self.faults_fn is None:
            return
        injector = self.faults_fn()
        if injector is not None:
            injector.fire(failpoint, **ctx)


class WlmQueryContext:
    """Per-statement runtime handle the executor cooperates with.

    Attached to every operator of the physical plan
    (:func:`attach_to_plan`); ``tick`` is the cooperative cancellation
    checkpoint called once per row, and ``memory_for`` hands each
    pipeline-breaking operator its budget tracker.
    """

    __slots__ = ("governor", "ticket", "progress_us", "_timeout_us",
                 "_memory")

    def __init__(self, governor: WlmGovernor, ticket: Ticket):
        self.governor = governor
        self.ticket = ticket
        #: Simulated execution time accrued so far (checkpoint grain).
        self.progress_us = 0.0
        self._timeout_us = governor.group(ticket.group).timeout_us
        self._memory: Dict[int, OperatorMemory] = {}

    def tick(self, op: object) -> None:
        """One cancellation checkpoint; raises to unwind the executor."""
        self.progress_us += CHECKPOINT_COST_US
        ticket = self.ticket
        if ticket.cancel_requested is not None:
            raise QueryCancelled(
                f"query {ticket.query_id} cancelled: "
                f"{ticket.cancel_requested}", query_id=ticket.query_id)
        if self._timeout_us is not None and self.progress_us > self._timeout_us:
            raise QueryTimeout(
                f"query {ticket.query_id} exceeded group "
                f"{ticket.group!r} timeout ({self._timeout_us:.0f}us)",
                query_id=ticket.query_id)

    def tick_batch(self, op: object, rows: int) -> None:
        """Batch-grain checkpoint: same per-row progress accrual as
        :meth:`tick`, one cancellation/timeout check per batch."""
        self.progress_us += CHECKPOINT_COST_US * rows
        ticket = self.ticket
        if ticket.cancel_requested is not None:
            raise QueryCancelled(
                f"query {ticket.query_id} cancelled: "
                f"{ticket.cancel_requested}", query_id=ticket.query_id)
        if self._timeout_us is not None and self.progress_us > self._timeout_us:
            raise QueryTimeout(
                f"query {ticket.query_id} exceeded group "
                f"{ticket.group!r} timeout ({self._timeout_us:.0f}us)",
                query_id=ticket.query_id)

    def memory_for(self, op: object) -> OperatorMemory:
        tracker = self._memory.get(id(op))
        if tracker is None:
            tracker = OperatorMemory(self, op, self.ticket.budget)
            self._memory[id(op)] = tracker
        return tracker

    def close(self) -> None:
        """Drop the operators' trackers once the statement is over: each
        refers back to this context, a cycle left for the collector."""
        self._memory.clear()

    def note_spill(self, op: object, nbytes: int) -> None:
        """Callback from :class:`OperatorMemory`: charge op-local I/O time
        on the node whose partition overflowed."""
        dn = getattr(op, "_wlm_dn", None)
        spill_us = self.governor.note_spill(self.ticket, nbytes, dn=dn)
        op.spilled_bytes = getattr(op, "spilled_bytes", 0) + nbytes
        op.spill_time_us = getattr(op, "spill_time_us", 0.0) + spill_us


def attach_to_plan(ctx: WlmQueryContext, outline) -> None:
    """Thread a query context through a physical plan (its
    :class:`repro.exec.operators.PlanOutline`).

    Sets ``wlm_ctx`` on every operator (enabling checkpoints and memory
    accounting) and ``_wlm_dn`` to the data node an operator's fragment
    runs on, so spill is charged against the right node.
    """
    for op, fragment in zip(outline.ops, outline.fragments):
        op.wlm_ctx = ctx
        op._wlm_dn = None if fragment is None else fragment[1]
