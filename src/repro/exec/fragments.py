"""Plan fragments: the per-data-node pieces of a distributed plan.

FI-MPPDB cuts a physical plan at exchange boundaries (Sec. II, Fig. 1):
everything below an exchange runs on the data nodes against local storage,
everything above it on the coordinator.  This module holds the pieces that
make the cut explicit:

* :class:`Locus` — where a distributed subplan's rows live (the planner's
  distribution property, Greenplum would say "flow");
* :class:`ScanBinding` — what the engine hands the planner for one
  ``(table, data node)`` scan target: a row source, the same rows as typed
  lanes (``DataNode.scan_lanes``, for either orientation), and the keyed
  source behind ``KeyLookup``.

The operator classes themselves (``PFragment``, ``PExchange``,
``PPartialAgg``/``PFinalAgg``) live in :mod:`repro.exec.operators`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Tuple

from repro.storage.types import DataType


# -- distribution property ------------------------------------------------

@dataclass(frozen=True)
class Locus:
    """Where a distributed subplan's output rows live.

    * ``singleton`` — one stream on the coordinator (already gathered);
    * ``replicated`` — a full copy on every data node, so any one node
      (or the coordinator-side gather-all source) can serve it;
    * ``hash`` — partitioned across data nodes by the cluster's versioned
      shard map (value → hash slot → owning DN;
      :mod:`repro.cluster.shardmap`).  ``key`` is the canonical upper-cased
      text of the partitioning column *in the current output schema*
      (``None`` when partitioned but on no surviving column), and
      ``key_type`` its data type — both feed co-location checks.  Two hash
      loci are co-located exactly when their keys share the same *slot
      assignment*: the slot function is type-sensitive (ints slot by
      modulo, everything else by repr-hash), and every slot has one owner
      in the map, so equal keys of equal type always land on the same DN —
      even mid-rebalance, because a slot's owner flips atomically for all
      tables at once.  ``dns`` narrows a hash locus to the data nodes that
      can hold its rows at all (a key lookup pruned through the shard
      map); ``None`` means every member, and an exchange over the locus
      instantiates fragments on those nodes only.
    """

    kind: str                          # 'singleton' | 'replicated' | 'hash'
    key: Optional[str] = None
    key_type: Optional[DataType] = None
    dns: Optional[Tuple[int, ...]] = None

    @property
    def is_partitioned(self) -> bool:
        return self.kind == "hash"


SINGLETON = Locus("singleton")
REPLICATED = Locus("replicated")

#: A builder produces a fresh operator subtree for one execution site:
#: ``build(dn_index)`` for data node ``dn_index``, ``build(None)`` for the
#: gather-all (coordinator-side) instantiation used by broadcasts and by
#: plans that never fragment.
FragmentBuilder = Callable[[Optional[int]], object]


# -- engine -> planner scan contract --------------------------------------

@dataclass
class ScanBinding:
    """One scan target, as supplied by the engine to the planner.

    ``rows`` yields tuples in table-column order.  ``lanes`` yields the same
    rows as typed batches, read through the data nodes' lane scan
    (``DataNode.scan_lanes``): a row table's column image, a column table's
    frozen chunks patched with its delta.  A column table's ``rows`` is its
    lanes bridged.  ``lookup(sites)`` is the keyed source behind
    ``KeyLookup``: the visible rows of the ``(dn_index, keys)`` probes in
    ``sites``, in the order a scan of those nodes would yield them.
    """

    rows: Callable[[], Iterable[tuple]]
    lookup: Optional[Callable[[tuple], Iterable[tuple]]] = None
    lanes: Optional[Callable[[], Iterable[object]]] = None
