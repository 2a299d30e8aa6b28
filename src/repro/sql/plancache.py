"""Prepared-statement plan cache keyed on the learnopt canonical form.

Repeated workload-driver statements are textually identical; hashing the
whitespace-normalized SQL with the same MD5 the learning plan store uses
(:func:`repro.learnopt.store.step_key`) lets the engine skip the lexer,
parser, binder and planner entirely on a hit and re-execute the cached
physical plan (with counters reset and fresh profiler/WLM attachment).

Four invalidation channels keep cached plans honest:

* **catalog version** — every DDL (CREATE/DROP, ``load_*`` table setup)
  bumps :attr:`repro.cluster.catalog.Catalog.version`; a cached plan built
  against an older catalog is discarded, never reused (a redefined table
  would otherwise serve rows in the old column order).
* **stats version** — ``ANALYZE`` bumps the
  :class:`~repro.optimizer.stats.StatsManager` version, so plans re-cost
  against fresh statistics.
* **shard-map version** — membership changes and rebalance flips bump
  :attr:`repro.cluster.shardmap.ShardMap.version`; fragment plans bake in
  the DN fan-out and slot ownership (exchange targets, co-location), so a
  plan built against an older shard map is discarded rather than routed
  to DNs that no longer own the data.
* **captured steps** — when the learning producer captures a mis-estimated
  step, every cached plan containing that logical step is evicted; the next
  execution replans with the corrected cardinality (the Fig. 5 loop keeps
  converging — steady state is reached exactly when nothing is captured,
  and only then do plans pin in the cache).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, List, Optional

from repro.learnopt.store import step_key


class CachedPlan:
    """One reusable prepared statement."""

    __slots__ = ("statement", "outline", "columns", "catalog_version",
                 "stats_version", "shard_map_version", "step_keys")

    def __init__(self, statement, outline, columns: List[str],
                 catalog_version: int, stats_version: int,
                 shard_map_version: int):
        self.statement = statement
        #: The physical plan as a :class:`repro.exec.operators.PlanOutline`
        #: (its ``root``), flattened once for every re-run.
        self.outline = outline
        self.columns = columns
        self.catalog_version = catalog_version
        self.stats_version = stats_version
        self.shard_map_version = shard_map_version
        self.step_keys = frozenset(step_key(op.step_text)
                                   for op in outline.ops
                                   if op.step_text is not None)


class PlanCache:
    """LRU cache of prepared plans, keyed on normalized-SQL MD5."""

    def __init__(self, capacity: int = 64):
        self.capacity = max(0, int(capacity))
        self._entries: "OrderedDict[str, CachedPlan]" = OrderedDict()
        #: Hit/probe accounting over SELECT statements only (DDL/DML are
        #: never cacheable and would dilute the steady-state hit rate).
        self.hits = 0
        self.probes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key_for(sql: str) -> str:
        return step_key(" ".join(sql.split()))

    def lookup(self, key: str, catalog_version: int,
               stats_version: int,
               shard_map_version: int = 0) -> Optional[CachedPlan]:
        """Return a fresh entry or evict a stale one (no counter side
        effects — the engine records hit/miss once it knows the statement
        kind)."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        if (entry.catalog_version != catalog_version
                or entry.stats_version != stats_version
                or entry.shard_map_version != shard_map_version):
            del self._entries[key]
            return None
        self._entries.move_to_end(key)
        return entry

    def put(self, key: str, entry: CachedPlan) -> None:
        if self.capacity <= 0:
            return
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def note_hit(self) -> None:
        self.probes += 1
        self.hits += 1

    def note_miss(self) -> None:
        self.probes += 1

    @property
    def hit_rate(self) -> float:
        return self.hits / self.probes if self.probes else 0.0

    def invalidate_steps(self, step_texts: Iterable[str]) -> int:
        """Evict every plan containing one of these captured logical steps."""
        keys = {step_key(text) for text in step_texts}
        if not keys:
            return 0
        stale = [sql_key for sql_key, entry in self._entries.items()
                 if entry.step_keys & keys]
        for sql_key in stale:
            del self._entries[sql_key]
        return len(stale)

    def clear(self) -> None:
        self._entries.clear()
