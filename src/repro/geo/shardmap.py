"""Geo shard map: per-region placement on top of the versioned ShardMap.

Sutra & Shapiro's fault-tolerant *partial* replication (PAPERS.md) is the
placement model: every hash slot has one **home region** plus a set of
**subscriber regions**, and a region stores (and applies epochs for) only
the slots it hosts.  Reads of a non-hosted slot route to the slot's home
region over the WAN; writes can originate anywhere and are settled by the
epoch certifier identically in every hosting region.

The map extends the PR-9 :class:`~repro.cluster.shardmap.ShardMap` idea —
fixed hash slots, explicit version — one level up: slots here map to
*regions*, while each region's own ShardMap keeps mapping values to DNs
inside the region.  The two layers compose: a value hashes to a geo slot
(which regions hold it) and, within each hosting region, to a DN slot
(which node holds it there).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.shardmap import ShardMapError
from repro.storage.table import shard_of_value

#: Geo slots per region.  Coarser than the 64-per-DN intra-region map: geo
#: placement moves whole subscription sets, not node-balance units.
SLOTS_PER_REGION = 16


class GeoShardMap:
    """Fixed hash slots -> (home region, subscriber regions), versioned."""

    def __init__(self, num_regions: int,
                 replication_factor: Optional[int] = None,
                 num_slots: Optional[int] = None):
        if num_regions <= 0:
            raise ShardMapError("geo shard map needs at least one region")
        if num_slots is None:
            num_slots = num_regions * SLOTS_PER_REGION
        if num_slots < num_regions or num_slots % num_regions != 0:
            raise ShardMapError(
                f"num_slots ({num_slots}) must be a positive multiple of "
                f"num_regions ({num_regions})")
        if replication_factor is None:
            replication_factor = num_regions
        if not (1 <= replication_factor <= num_regions):
            raise ShardMapError(
                f"replication_factor ({replication_factor}) must be in "
                f"[1, {num_regions}]")
        self.num_regions = int(num_regions)
        self.num_slots = int(num_slots)
        self.replication_factor = int(replication_factor)
        #: slot -> home region.  Round-robin, so region r homes exactly
        #: ``num_slots / num_regions`` slots and a single-region map homes
        #: everything at region 0 (the degenerate seed-compatible case).
        self._home: List[int] = [s % num_regions for s in range(num_slots)]
        #: slot -> hosting regions (home first, then the next
        #: ``replication_factor - 1`` regions in ring order).
        self._hosts: List[Tuple[int, ...]] = [
            tuple((self._home[s] + k) % num_regions
                  for k in range(replication_factor))
            for s in range(num_slots)
        ]
        #: Bumped on every placement change; pinned by consumers the way
        #: the intra-region map's version is pinned by the plan cache.
        self.version = 1

    # ------------------------------------------------------------------
    # routing

    def slot_of_value(self, value) -> int:
        """Hash a distribution value to its geo slot."""
        return shard_of_value(value, self.num_slots)

    def home_region_of_slot(self, slot: int) -> int:
        return self._home[slot]

    def home_region_of_value(self, value) -> int:
        return self._home[shard_of_value(value, self.num_slots)]

    def hosting_regions(self, slot: int) -> Tuple[int, ...]:
        """Regions that store this slot (home first)."""
        return self._hosts[slot]

    def hosts(self, region: int, slot: int) -> bool:
        return region in self._hosts[slot]

    def hosts_value(self, region: int, value) -> bool:
        return region in self._hosts[shard_of_value(value, self.num_slots)]

    def slots_homed_at(self, region: int) -> List[int]:
        return [s for s, home in enumerate(self._home) if home == region]

    # ------------------------------------------------------------------
    # placement changes

    def place(self, slot: int, home: int,
              subscribers: Sequence[int] = ()) -> None:
        """Re-place one slot: new home region plus extra subscribers.

        The home region always hosts its slot; subscribers are deduplicated
        and ordered (home first, then ascending region index) so placement
        is deterministic regardless of caller ordering.
        """
        if not 0 <= slot < self.num_slots:
            raise ShardMapError(f"slot {slot} out of range")
        if not 0 <= home < self.num_regions:
            raise ShardMapError(f"region {home} out of range")
        extra = sorted({r for r in subscribers if r != home})
        for region in extra:
            if not 0 <= region < self.num_regions:
                raise ShardMapError(f"region {region} out of range")
        self._home[slot] = home
        self._hosts[slot] = (home, *extra)
        self.version += 1

    # ------------------------------------------------------------------
    # accounting / introspection

    def hosted_counts(self) -> Dict[int, int]:
        """Hosted-slot count per region (zero-filled)."""
        counts = {r: 0 for r in range(self.num_regions)}
        for hosts in self._hosts:
            for region in hosts:
                counts[region] += 1
        return counts

    def rows(self) -> List[tuple]:
        """(slot, home_region, subscribers) rows for ``sys.geo_shard_map``."""
        return [
            (slot, self._home[slot],
             ",".join(f"r{r}" for r in self._hosts[slot]))
            for slot in range(self.num_slots)
        ]
