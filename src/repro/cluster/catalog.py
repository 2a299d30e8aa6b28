"""Cluster-wide table catalog.

The coordinator nodes share one catalog (in the real system it is kept
consistent by DDL replication); creating a table registers a heap on every
data node and records the schema here for routing and SQL planning.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import CatalogError
from repro.cluster.shardmap import ShardMap
from repro.storage.table import TableSchema


class Catalog:
    """Name -> schema registry, case-insensitive like SQL identifiers."""

    def __init__(self, shard_map: Optional[ShardMap] = None) -> None:
        self._schemas: Dict[str, TableSchema] = {}
        #: Bumped on every DDL mutation; cached query plans are pinned to
        #: the version they were built against and discarded on mismatch.
        self.version = 0
        #: The cluster's versioned slot map (placement + membership).  DDL
        #: replication keeps it consistent across coordinators in the real
        #: system; here the MppCluster installs it at construction.
        self.shard_map = shard_map

    @property
    def shard_map_version(self) -> int:
        """Shard-map version for plan pinning (0 when no map is bound)."""
        return self.shard_map.version if self.shard_map is not None else 0

    @staticmethod
    def _norm(name: str) -> str:
        return name.lower()

    def register(self, schema: TableSchema) -> None:
        key = self._norm(schema.name)
        if key in self._schemas:
            raise CatalogError(f"table {schema.name!r} already exists")
        self._schemas[key] = schema
        self.version += 1

    def unregister(self, name: str) -> None:
        if self._schemas.pop(self._norm(name), None) is not None:
            self.version += 1

    def schema(self, name: str) -> TableSchema:
        # Names are mostly spelled as registered: try the exact key first.
        schema = self._schemas.get(name)
        if schema is not None:
            return schema
        try:
            return self._schemas[self._norm(name)]
        except KeyError:
            raise CatalogError(f"no table {name!r}") from None

    def has(self, name: str) -> bool:
        return self._norm(name) in self._schemas

    def tables(self) -> List[str]:
        return sorted(schema.name for schema in self._schemas.values())

    def __len__(self) -> int:
        return len(self._schemas)
