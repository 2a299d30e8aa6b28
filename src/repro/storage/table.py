"""Table schemas and distribution metadata.

FI-MPPDB is shared-nothing: every table is hash-distributed over the data
nodes by a distribution column (or replicated to all nodes for small
dimension tables).  The schema also records storage orientation, because
the paper's engine supports "hybrid row-column storage".
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.common.errors import CatalogError, StorageError
from repro.storage.types import COERCERS, DataType


class Distribution(enum.Enum):
    HASH = "hash"              # rows hashed on the distribution column
    REPLICATION = "replication"  # full copy on every data node


class Orientation(enum.Enum):
    ROW = "row"
    COLUMN = "column"


@dataclass(frozen=True)
class Column:
    name: str
    data_type: DataType
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise CatalogError(f"bad column name {self.name!r}")


@dataclass
class TableSchema:
    """Full logical description of one table."""

    name: str
    columns: List[Column]
    primary_key: str
    distribution: Distribution = Distribution.HASH
    distribution_column: Optional[str] = None
    orientation: Orientation = Orientation.ROW
    # When the primary key encodes the distribution value (e.g. TPC-C's
    # district key ``w_id * 100 + d_id`` distributed by warehouse), this
    # extracts the distribution value from a primary key so point operations
    # can be routed without fetching the row.
    key_router: Optional[Callable[[object], object]] = None

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"table {self.name}: duplicate column names")
        if self.primary_key not in names:
            raise CatalogError(f"table {self.name}: unknown primary key {self.primary_key!r}")
        if self.distribution is Distribution.HASH:
            if self.distribution_column is None:
                self.distribution_column = self.primary_key
            if self.distribution_column not in names:
                raise CatalogError(
                    f"table {self.name}: unknown distribution column "
                    f"{self.distribution_column!r}"
                )
        self._by_name: Dict[str, Column] = {c.name: c for c in self.columns}
        #: ``(name, coercer, nullable, is_pk)`` per column, in column order:
        #: what :meth:`coerce_row` and :meth:`coerce_values` check.
        self._checks = tuple(
            (c.name, COERCERS[c.data_type], c.nullable, c.name == self.primary_key)
            for c in self.columns)

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise CatalogError(f"table {self.name}: no column {name!r}") from None

    def coerce_row(self, row: Dict[str, object]) -> Dict[str, object]:
        """Validate and type-coerce a row dict against this schema: the
        typed row, every column present, in column order."""
        out: Dict[str, object] = {}
        get = row.get
        for name, coerce_value, nullable, is_pk in self._checks:
            value = get(name)
            out[name] = (coerce_value(value) if value is not None
                         else self._null(name, nullable, is_pk))
        if not self._by_name.keys() >= row.keys():
            self._reject_unknown(row)
        return out

    def coerce_values(self, values: Dict[str, object]) -> Dict[str, object]:
        """:meth:`coerce_row` for an update's assigned columns only: the
        same checks and errors, over the columns ``values`` names, in
        column order.  The rest of the row is typed already (it came out
        of a heap)."""
        out: Dict[str, object] = {}
        for name, coerce_value, nullable, is_pk in self._checks:
            if name in values:
                value = values[name]
                out[name] = (coerce_value(value) if value is not None
                             else self._null(name, nullable, is_pk))
        if len(out) < len(values):
            self._reject_unknown(values)
        return out

    def _null(self, name: str, nullable: bool, is_pk: bool) -> None:
        if is_pk:
            raise StorageError(f"table {self.name}: NULL primary key")
        if not nullable:
            raise StorageError(f"table {self.name}: column {name} is NOT NULL")
        return None

    def _reject_unknown(self, row: Dict[str, object]) -> None:
        extra = set(row) - set(self._by_name)
        raise StorageError(f"table {self.name}: unknown columns {sorted(extra)}")

    def shard_of(self, row: Dict[str, object], num_shards) -> int:
        """Which data node (0-based) stores this row.

        ``num_shards`` may be an int modulus or a ShardMap-style router
        (see :func:`shard_of_value`)."""
        if self.distribution is Distribution.REPLICATION:
            raise StorageError(f"table {self.name} is replicated; no single shard")
        return shard_of_value(row[self.distribution_column], num_shards)

    def key_of(self, row: Dict[str, object]) -> object:
        return row[self.primary_key]

    def rows_of(self, items: Iterable[Tuple[object, Dict[str, object]]]
                ) -> Iterator[tuple]:
        """The stored ``values`` of ``(key, values)`` items as tuples in
        table-column order, built at C speed (every stored row holds every
        column: it is a typed row, :meth:`coerce_row`'s output)."""
        rows = map(itemgetter(1), items)
        names = self.column_names
        if len(names) == 1:
            return zip(map(itemgetter(names[0]), rows))
        return map(itemgetter(*names), rows)

    def dist_value_of_key(self, key: object) -> object:
        """The distribution value a point operation's key routes by."""
        if self.distribution is Distribution.REPLICATION:
            raise StorageError(f"table {self.name} is replicated; no single shard")
        if self.key_router is not None:
            return self.key_router(key)
        if self.distribution_column != self.primary_key:
            raise StorageError(
                f"table {self.name}: cannot route by key — distribution column "
                f"{self.distribution_column!r} differs from the primary key and "
                f"no key_router is defined"
            )
        return key

    def shard_of_key(self, key: object, num_shards) -> int:
        """Route a point operation by primary key alone."""
        return shard_of_value(self.dist_value_of_key(key), num_shards)


def shard_of_value(value: object, num_shards) -> int:
    """Stable hash-distribution function (consistent across runs).

    Integers distribute by modulo — the usual choice for surrogate-key
    distribution columns, and it keeps sequential warehouse ids perfectly
    balanced across data nodes.  Everything else hashes its repr.

    ``num_shards`` is either a plain modulus (the seed behaviour, still
    used by slot hashing and the placement tests) or a router object with
    an ``owner_of_value`` method — in practice the cluster's versioned
    :class:`repro.cluster.shardmap.ShardMap` — in which case placement is
    value -> slot -> owning DN.  Duck-typed rather than imported to keep
    the storage layer free of cluster dependencies.
    """
    route = getattr(num_shards, "owner_of_value", None)
    if route is not None:
        return route(value)
    if num_shards <= 0:
        raise StorageError("num_shards must be positive")
    if isinstance(value, bool):
        return int(value) % num_shards
    if isinstance(value, int):
        return value % num_shards
    data = repr(value).encode("utf-8")
    return zlib.crc32(data) % num_shards


def rows_to_columns(rows: Sequence[Dict[str, object]],
                    columns: Sequence[str]) -> Dict[str, list]:
    """Pivot a row list into column lists (for columnar ingest)."""
    out: Dict[str, list] = {name: [] for name in columns}
    for row in rows:
        for name in columns:
            out[name].append(row.get(name))
    return out
