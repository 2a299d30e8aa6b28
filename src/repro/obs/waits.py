"""Wait-event accounting and the live activity registry.

GeoGauss-style scalability analysis (PAPERS.md) says the signal that matters
in a distributed OLTP engine is *where transactions wait*, not just how long
they take end to end.  :class:`WaitEventRecorder` attributes simulated wait
time to a small vocabulary of wait events — GTM snapshot acquisition (global
vs local vs merge-upgrade), 2PC phases, data-node statement service, and
conflict stalls — per event and per session, and mirrors every observation
into ``wait.<event>_us`` registry histograms so the exporter ships the same
numbers to the information store.

:class:`ActivityRegistry` is the engine's ``pg_stat_activity``: every
transaction registers itself on begin, updates its state through commit or
abort, and accumulates its own wait time.  ``sys.activity`` and
``sys.wait_events`` are served directly from these two structures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple
from zlib import crc32

from repro.common.clock import SimClock
from repro.obs.config import ObsConfig
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.ring import DetSampler, Reservoir, RingBuffer, _MASK64

# -- the wait-event vocabulary ------------------------------------------------

#: Waiting on the GTM for a global snapshot (serialized, size-dependent).
WAIT_GTM_GLOBAL = "gtm.global"
#: Waiting on a data node for a local snapshot (begin path).
WAIT_GTM_LOCAL = "gtm.local"
#: Algorithm 1 UPGRADE: paused until a prepared writer's commit confirmation.
WAIT_MERGE_UPGRADE = "gtm.merge_upgrade"
#: 2PC phase one: prepare records flushed on every written node.
WAIT_2PC_PREPARE = "2pc.prepare"
#: 2PC phase two: GTM commit plus per-node commit confirmations.
WAIT_2PC_COMMIT = "2pc.commit"
#: Data-node write statement service (insert/update/delete apply).
WAIT_DN_APPLY = "dn.apply"
#: Data-node read statement service (point reads and scans).
WAIT_DN_SCAN = "dn.scan"
#: Local (single-shard) commit record.
WAIT_DN_COMMIT = "dn.commit"
#: Work thrown away when a transaction aborts on a serialization conflict.
WAIT_LOCK_CONFLICT = "lock.conflict"
#: Coordinator stalled on an unresponsive peer: the per-attempt timeout plus
#: the exponential backoff before the retry (see ``cluster.txn.RetryPolicy``).
WAIT_FAULT_RETRY = "fault.retry"
#: Coordinator blocked while a dead node failed over to its standby.
WAIT_FAULT_FAILOVER = "fault.failover"
#: Injected message delay (the ``delay`` fault action).
WAIT_FAULT_DELAY = "fault.delay"
#: Statement held in its resource group's admission queue before running.
WAIT_WLM_QUEUE = "wlm_queue"
#: Operator state spilled to disk (write + read-back) on a memory budget
#: overflow; attributed to the data node whose partition overflowed.
WAIT_WLM_SPILL = "wlm_spill"
#: HTAP delta merge storage I/O (read old chunks + delta, write new
#: chunks); attributed to the data node that merged.
WAIT_HTAP_MERGE = "htap_merge"
#: Online-resharding snapshot copy I/O (read the moving slots on the
#: source, write them on the target); attributed to the move target.
WAIT_REBALANCE_COPY = "rebalance_copy"
#: Online-resharding source truncation I/O after the owner flip;
#: attributed to the move source.
WAIT_REBALANCE_TRUNCATE = "rebalance_truncate"
#: Geo commit: time from local submit until the transaction's epoch sealed.
WAIT_GEO_EPOCH = "geo.epoch"
#: Geo commit: seal until the last peer region's batch arrived (the WAN).
WAIT_GEO_SHIP = "geo.ship"
#: Geo commit: deterministic certification of the full epoch.
WAIT_GEO_CERTIFY = "geo.certify"
#: Geo commit: applying the epoch's certified writes at the home region.
WAIT_GEO_APPLY = "geo.apply"
#: Read of a shard this region does not host, served by its home region
#: one WAN round trip away.
WAIT_GEO_REMOTE_READ = "geo.remote_read"

ALL_WAIT_EVENTS = (
    WAIT_GTM_GLOBAL, WAIT_GTM_LOCAL, WAIT_MERGE_UPGRADE,
    WAIT_2PC_PREPARE, WAIT_2PC_COMMIT,
    WAIT_DN_APPLY, WAIT_DN_SCAN, WAIT_DN_COMMIT,
    WAIT_LOCK_CONFLICT,
    WAIT_FAULT_RETRY, WAIT_FAULT_FAILOVER, WAIT_FAULT_DELAY,
    WAIT_WLM_QUEUE, WAIT_WLM_SPILL, WAIT_HTAP_MERGE,
    WAIT_REBALANCE_COPY, WAIT_REBALANCE_TRUNCATE,
    WAIT_GEO_EPOCH, WAIT_GEO_SHIP, WAIT_GEO_CERTIFY, WAIT_GEO_APPLY,
    WAIT_GEO_REMOTE_READ,
)


@dataclass(slots=True)
class WaitStats:
    """Aggregate for one wait event (or one (session, event) pair)."""

    count: int = 0
    total_us: float = 0.0
    max_us: float = 0.0

    @property
    def avg_us(self) -> float:
        return self.total_us / self.count if self.count else 0.0

    def add(self, wait_us: float) -> None:
        self.count += 1
        self.total_us += wait_us
        if wait_us > self.max_us:
            self.max_us = wait_us


class _EventSlot:
    """Interned per-event state, resolved once per event name.

    Holding direct references to the stats aggregate, the registry
    histogram, the sampler and the reservoir turns every ``record()`` after
    the first into pure attribute work — no f-string key building, no
    registry probe, no allocation.
    """

    __slots__ = ("event", "stats", "hist", "sampler", "reservoir", "sessions")

    def __init__(self, event: str, stats: "WaitStats",
                 hist: Optional[Histogram], sampler: DetSampler,
                 reservoir: Reservoir):
        self.event = event
        self.stats = stats
        self.hist = hist
        self.sampler = sampler
        self.reservoir = reservoir
        #: Per-session aggregates for this event, keyed by session id —
        #: nested here (not in a recorder-wide ``(session, event)`` map) so
        #: the hot path hashes a session, never an allocated tuple.
        self.sessions: Dict[object, WaitStats] = {}


class WaitEventRecorder:
    """Attribute simulated wait time per (event, session).

    The aggregates behind ``sys.wait_events`` (count / total / avg / max,
    per event and per session) are **always exact** — they cost three
    attribute updates per record.  Per-observation *detail* is what gets
    expensive at OLTP rates, so for the high-frequency events named by
    :class:`~repro.obs.config.ObsConfig` it is recorded for a
    deterministic, seeded 1-in-N sample only:

    * the ``wait.<event>_us`` registry histogram (exporter / anomaly feed),
    * a per-event :class:`~repro.obs.ring.Reservoir` of raw values
      (exact percentiles over a bounded uniform sample),
    * the shared preallocated sample ring behind ``sys.wait_samples``.

    Identical runs sample identically; :meth:`reset` rewinds the sampler
    streams so back-to-back benchmark runs are independent and equal.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 config: Optional[ObsConfig] = None,
                 clock: Optional[SimClock] = None):
        self.metrics = metrics
        self.config = config if config is not None else ObsConfig()
        self.clock = clock
        self._slots: Dict[str, _EventSlot] = {}
        #: Sampled detail observations, oldest-first:
        #: (event, session, wait_us, t_us, seq) where ``seq`` is the
        #: event's exact observation index (1-based) at sampling time.
        self.samples = RingBuffer(self.config.wait_detail_capacity)

    def _make_slot(self, event: str) -> _EventSlot:
        cfg = self.config
        # zlib.crc32, not hash(): string hashing is randomized per process,
        # and sampler streams must match across runs *and* interpreters.
        salt = crc32(event.encode("utf-8")) & 0x7FFFFFFF
        hist = (self.metrics.histogram(f"wait.{event}_us")
                if self.metrics is not None else None)
        slot = _EventSlot(
            event, WaitStats(), hist,
            DetSampler(every=cfg.sample_every_for(event),
                       seed=cfg.wait_sample_seed, salt=salt),
            Reservoir(size=cfg.wait_reservoir_size,
                      seed=cfg.wait_sample_seed, salt=salt),
        )
        self._slots[event] = slot
        return slot

    def record(self, event: str, wait_us: float,
               session: Optional[object] = None) -> None:
        if wait_us < 0.0:
            wait_us = 0.0
        try:
            slot = self._slots[event]
        except KeyError:
            slot = self._make_slot(event)
        stats = slot.stats
        stats.count += 1
        stats.total_us += wait_us
        if wait_us > stats.max_us:
            stats.max_us = wait_us
        if session is not None:
            try:
                per = slot.sessions[session]
            except KeyError:
                per = slot.sessions[session] = WaitStats()
            per.count += 1
            per.total_us += wait_us
            if wait_us > per.max_us:
                per.max_us = wait_us
        # Inlined DetSampler.take(): a method call per observation is real
        # money at OLTP rates.  Must stay decision-identical to take() so
        # sampling_rows() and replays of mixed call styles agree.
        sampler = slot.sampler
        sampler.seen += 1
        remaining = sampler._pending - 1
        if remaining > 0:
            sampler._pending = remaining
            return
        sampler.taken += 1
        sampler._pending = sampler._draw_gap()
        if slot.hist is not None:
            slot.hist.observe(wait_us)
        slot.reservoir.offer(wait_us)
        t_us = self.clock.now_us if self.clock is not None else 0.0
        self.samples.append((event, session, wait_us, t_us, stats.count))

    def flush_batches(self, acc, session: Optional[object] = None) -> None:
        """Fold a transaction's whole wait accumulator in, one call.

        ``acc`` maps ``event -> (count, total_us, max_us)``.  Transactions
        accumulate their per-statement waits locally and flush them here
        once at commit/abort (the way ``pg_stat`` counters reach the
        collector), so the per-statement path costs a few list ops instead
        of a recorder call.  Exact aggregates (count / total / max, global
        and per-session) end up identical to ``count`` individual
        :meth:`record` calls.  Detail sampling treats each batch as
        ``count`` consecutive draws of the event's decision stream; when
        one or more samples land inside it, *one* detail observation — the
        batch average — is emitted (per-batch granularity; the stream still
        advances by ``count``, so replays stay byte-identical).
        """
        slots = self._slots
        clock = self.clock
        samples = self.samples
        for event, (count, total_us, max_us) in acc.items():
            if count <= 0:
                continue
            try:
                slot = slots[event]
            except KeyError:
                slot = self._make_slot(event)
            stats = slot.stats
            stats.count += count
            stats.total_us += total_us
            if max_us > stats.max_us:
                stats.max_us = max_us
            if session is not None:
                try:
                    per = slot.sessions[session]
                except KeyError:
                    slot.sessions[session] = WaitStats(count, total_us, max_us)
                else:
                    per.count += count
                    per.total_us += total_us
                    if max_us > per.max_us:
                        per.max_us = max_us
            sampler = slot.sampler
            sampler.seen += count
            remaining = sampler._pending - count
            if remaining > 0:
                sampler._pending = remaining
                continue
            every = sampler.every
            if every == 1:
                # ``count`` unit gaps land inside the batch; the state is
                # untouched (``_draw_gap`` never steps it for every=1).
                remaining = 1
            else:
                # Inlined _draw_gap loop: one xorshift step per consumed
                # gap, bit-identical to calling the method, without the
                # call.
                state = sampler._state
                span = 2 * every - 1
                while remaining <= 0:
                    state ^= (state << 13) & _MASK64
                    state ^= state >> 7
                    state ^= (state << 17) & _MASK64
                    remaining += 1 + (state >> 16) % span
                sampler._state = state
            sampler._pending = remaining
            sampler.taken += 1
            avg = total_us / count
            if slot.hist is not None:
                slot.hist.observe(avg)
            slot.reservoir.offer(avg)
            t_us = clock.now_us if clock is not None else 0.0
            samples.append((event, session, avg, t_us, stats.count))

    # -- reading -----------------------------------------------------------

    def events(self) -> Dict[str, WaitStats]:
        return {event: slot.stats for event, slot in self._slots.items()}

    def stats(self, event: str) -> WaitStats:
        slot = self._slots.get(event)
        return slot.stats if slot is not None else WaitStats()

    def total_us(self, event: str) -> float:
        return self.stats(event).total_us

    def session_stats(self, session: object) -> Dict[str, WaitStats]:
        out: Dict[str, WaitStats] = {}
        for event, slot in self._slots.items():
            per = slot.sessions.get(session)
            if per is not None:
                out[event] = per
        return out

    def event_sessions(self, event: str) -> Dict[object, WaitStats]:
        """Per-session aggregates of one event (empty if never recorded)."""
        slot = self._slots.get(event)
        return dict(slot.sessions) if slot is not None else {}

    def rows(self) -> List[Tuple[str, int, float, float, float]]:
        """``sys.wait_events`` rows: (event, count, total, avg, max).

        Exact regardless of the sampling mode — only detail is sampled.
        """
        return [
            (event, s.count, s.total_us, s.avg_us, s.max_us)
            for event, s in sorted(
                (event, slot.stats) for event, slot in self._slots.items())
        ]

    def sample_rows(self) -> List[Tuple[str, object, float, float, int]]:
        """``sys.wait_samples`` rows, oldest-first."""
        return self.samples.to_list()

    def reservoir(self, event: str) -> Optional[Reservoir]:
        slot = self._slots.get(event)
        return slot.reservoir if slot is not None else None

    def sampling_rows(self) -> List[Tuple[str, int, int, int]]:
        """Per-event sampling accounting: (event, every, seen, sampled)."""
        return [
            (event, slot.sampler.every, slot.sampler.seen, slot.sampler.taken)
            for event, slot in sorted(self._slots.items())
        ]

    def reset(self) -> None:
        """Forget aggregates *and* every sampler/reservoir stream.

        Slots are dropped outright: they are deterministic functions of
        ``(event name, config)``, so rebuilding them on next record makes
        exactly the sampling decisions a fresh recorder would — back-to-back
        benchmark runs are independent and report identical telemetry.
        (The registry histograms they pointed at are reset by the registry.)
        """
        self._slots.clear()
        self.samples.clear()


# -- live activity ------------------------------------------------------------


@dataclass(slots=True)
class ActivityEntry:
    """One transaction's row in ``sys.activity``."""

    activity_id: int
    session: Optional[int]
    cn: int
    kind: str                      # 'local' | 'global'
    snapshot: str                  # 'local' | 'merged' | 'classical'
    state: str                     # 'running' | 'waiting' | 'committing'
                                   # | 'committed' | 'aborted'
    start_us: float
    end_us: Optional[float] = None
    txn_id: Optional[int] = None   # local xid or gxid, once assigned
    wait_us: float = 0.0
    last_wait: Optional[str] = None
    _waiting_depth: int = field(default=0, repr=False)

    @property
    def open(self) -> bool:
        return self.end_us is None

    def elapsed_us(self, now_us: float) -> float:
        end = self.end_us if self.end_us is not None else now_us
        return max(0.0, end - self.start_us)

    def note_wait(self, event: str, wait_us: float) -> None:
        self.wait_us += max(0.0, wait_us)
        self.last_wait = event


class ActivityRegistry:
    """Open-transaction registry plus a bounded history of completed ones."""

    def __init__(self, clock: Optional[SimClock] = None,
                 max_completed: int = 1024):
        self.clock = clock if clock is not None else SimClock()
        self._next_id = 1
        self._open: Dict[int, ActivityEntry] = {}
        self._completed: Deque[ActivityEntry] = deque(maxlen=max_completed)

    def begin(self, kind: str, snapshot: str, cn: int = 0,
              session: Optional[int] = None,
              start_us: Optional[float] = None) -> ActivityEntry:
        entry = ActivityEntry(
            activity_id=self._next_id,
            session=session,
            cn=cn,
            kind=kind,
            snapshot=snapshot,
            state="running",
            start_us=start_us if start_us is not None else self.clock.now_us,
        )
        self._next_id += 1
        self._open[entry.activity_id] = entry
        return entry

    def set_state(self, entry: ActivityEntry, state: str) -> None:
        if entry.open:
            entry.state = state

    def enter_wait(self, entry: ActivityEntry) -> None:
        """Mark a transaction blocked (e.g. inside an UPGRADE wait)."""
        entry._waiting_depth += 1
        if entry.open:
            entry.state = "waiting"

    def leave_wait(self, entry: ActivityEntry) -> None:
        entry._waiting_depth = max(0, entry._waiting_depth - 1)
        if entry.open and entry._waiting_depth == 0 and entry.state == "waiting":
            entry.state = "running"

    def finish(self, entry: ActivityEntry, state: str,
               end_us: Optional[float] = None) -> None:
        if not entry.open:
            return
        entry.state = state
        entry.end_us = end_us if end_us is not None else self.clock.now_us
        if entry.end_us < entry.start_us:
            entry.end_us = entry.start_us
        self._open.pop(entry.activity_id, None)
        self._completed.append(entry)

    # -- reading -----------------------------------------------------------

    def open_entries(self) -> List[ActivityEntry]:
        return [self._open[k] for k in sorted(self._open)]

    def completed(self) -> List[ActivityEntry]:
        return list(self._completed)

    @property
    def open_count(self) -> int:
        return len(self._open)

    def reset(self) -> None:
        self._next_id = 1
        self._open.clear()
        self._completed.clear()
