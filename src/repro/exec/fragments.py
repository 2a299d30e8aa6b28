"""Plan fragments: the per-data-node pieces of a distributed plan.

FI-MPPDB cuts a physical plan at exchange boundaries (Sec. II, Fig. 1):
everything below an exchange runs on the data nodes against local storage,
everything above it on the coordinator.  This module holds the pieces that
make the cut explicit:

* :class:`Locus` — where a distributed subplan's rows live (the planner's
  distribution property, Greenplum would say "flow");
* :class:`ScanBinding` — what the engine hands the planner for one
  ``(table, data node)`` scan target: a row source, and for column-oriented
  tables a :class:`~repro.storage.colstore.ColumnStore` the vectorized
  kernels can chew through;
* predicate compilation from bound expression trees to the
  :data:`~repro.exec.vectorized.PredicateSpec` form the kernels accept.

The operator classes themselves (``PFragment``, ``PExchange``,
``PPartialAgg``/``PFinalAgg``) live in :mod:`repro.exec.operators`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

from repro.exec.vectorized import PredicateSpec
from repro.optimizer.expr import BoundBinary, BoundColumn, BoundConst, conjuncts
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

    ``rows`` yields tuples in table-column order.  ``column_store`` is
    present for column-oriented tables scanned on a specific data node: it
    builds that shard's :class:`~repro.storage.colstore.ColumnStore`
    snapshot on demand.  ``lanes`` is present for row-oriented tables: the
    same rows as typed batches, read from the data nodes' column images
    (``DataNode.scan_lanes``).  ``lookup(sites)`` is the keyed source behind
    ``KeyLookup``: the visible rows of the ``(dn_index, keys)`` probes in
    ``sites``, in the order a scan of those nodes would yield them.
    """

    rows: Callable[[], Iterable[tuple]]
    column_store: Optional[Callable[[], object]] = None
    lookup: Optional[Callable[[tuple], Iterable[tuple]]] = None
    lanes: Optional[Callable[[], Iterable[object]]] = None


# -- predicate compilation ------------------------------------------------

_MIRROR = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def compile_predicates(predicate, schema) -> Optional[List[PredicateSpec]]:
    """Compile a bound predicate to vector specs, or ``None`` if it uses
    anything beyond ANDed ``column <op> constant`` comparisons."""
    if predicate is None:
        return []
    specs: List[PredicateSpec] = []
    for factor in conjuncts(predicate):
        if not isinstance(factor, BoundBinary):
            return None
        op, left, right = factor.op, factor.left, factor.right
        if isinstance(left, BoundConst) and isinstance(right, BoundColumn):
            left, right, op = right, left, _MIRROR.get(op)
        if op not in _MIRROR:
            return None
        if not (isinstance(left, BoundColumn) and isinstance(right, BoundConst)):
            return None
        if right.value is None or not (0 <= left.index < len(schema)):
            return None
        specs.append((schema[left.index].name, op, right.value))
    return specs
