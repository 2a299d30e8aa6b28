"""Access-path selection: which statements can skip the heap walk.

One rule, shared by SELECT lowering (:mod:`repro.optimizer.planner`) and
the row-location step of UPDATE/DELETE (:mod:`repro.sql.engine`):

* a pushed-down predicate with a conjunct ``pk = const`` or
  ``pk IN (consts)`` is served by ``KeyLookup`` — one probe of the heap's
  primary-key dict per key — instead of ``SeqScan``;
* the probes go where the catalog's shard map says the keys live:
  one data node per key when the key *is* the distribution value, the
  single serving replica of a replicated table, every member otherwise.

The whole predicate is still evaluated on each fetched row, so the matcher
only has to be *sound*: a statement it declines keeps the scan and the
same answer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.optimizer.expr import (
    BoundBinary,
    BoundColumn,
    BoundConst,
    BoundExpr,
    BoundInList,
    conjuncts,
)
from repro.storage.table import Distribution, TableSchema
from repro.storage.types import DataType

#: ``(dn_index, keys)`` probes in the order a scan would visit the nodes.
KeySites = Tuple[Tuple[int, Tuple[object, ...]], ...]

#: Key column type -> the Python type the heap stores it as.  Only these
#: lower: equal-but-differently-typed constants (``3.0``, ``true``) match
#: the row under Python ``==`` yet hash to another shard-map slot.
_STORAGE_TYPE = {DataType.INT: int, DataType.BIGINT: int, DataType.TEXT: str}


def lookup_keys(predicate: Optional[BoundExpr],
                table_schema: TableSchema) -> Optional[Tuple[object, ...]]:
    """The primary keys ``predicate`` pins its table's rows to, or ``None``.

    ``predicate`` is bound over the table's columns in declaration order
    (a ``LogicalScan``'s schema).  Duplicates in an ``IN`` list collapse;
    list order is kept.
    """
    pk = table_schema.primary_key
    pk_index = table_schema.column_names.index(pk)
    storage = _STORAGE_TYPE.get(table_schema.column(pk).data_type)
    if storage is None:
        return None
    for factor in conjuncts(predicate):
        if isinstance(factor, BoundBinary) and factor.op == "=":
            column, items = factor.left, (factor.right,)
            if isinstance(column, BoundConst):
                column, items = factor.right, (factor.left,)
        elif isinstance(factor, BoundInList) and not factor.negated:
            column, items = factor.needle, factor.items
        else:
            continue
        if not (isinstance(column, BoundColumn) and column.index == pk_index):
            continue
        if all(isinstance(item, BoundConst) and type(item.value) is storage
               for item in items):
            return tuple(dict.fromkeys(item.value for item in items))
    return None


def _routes_by_key(table_schema: TableSchema) -> bool:
    """True when a primary key alone names the row's one owning node."""
    return (table_schema.distribution is Distribution.HASH
            and (table_schema.key_router is not None
                 or table_schema.distribution_column
                 == table_schema.primary_key))


def key_sites(table_schema: TableSchema, keys: Tuple[object, ...],
              shard_map) -> KeySites:
    """Where to probe for ``keys`` under the current shard map.

    Reads route to a slot's *owner*: during a rebalance move the source
    holds the rows until the atomic flip, and the flip bumps the map's
    version, which evicts every cached plan built from this answer.
    """
    members = shard_map.members()
    if table_schema.distribution is Distribution.REPLICATION:
        return ((members[0], keys),)
    if not _routes_by_key(table_schema):
        return tuple((dn, keys) for dn in members)
    by_owner: Dict[int, List[object]] = {}
    for key in keys:
        owner = shard_map.owner_of_value(table_schema.dist_value_of_key(key))
        by_owner.setdefault(owner, []).append(key)
    return tuple((dn, tuple(by_owner[dn])) for dn in sorted(by_owner))


def lookup_sites(predicate: Optional[BoundExpr], table_schema: TableSchema,
                 shard_map) -> Optional[KeySites]:
    """The probes that serve ``predicate`` in place of a scan, or ``None``
    when only a scan will do — the one call both the planner and the DML
    row-location step make."""
    if shard_map is None:
        return None
    keys = lookup_keys(predicate, table_schema)
    if keys is None:
        return None
    return key_sites(table_schema, keys, shard_map)
