"""Geo-aware TPC-C-lite loading: each region gets only what it hosts.

The single-cluster loader (:func:`repro.workloads.tpcc_lite.load_tpcc`)
populates every warehouse; under partial replication a region must hold
only the warehouses whose geo slot it hosts (plus the replicated ``item``
catalog, which every region stores in full).  Loading runs per region from
the same seed, so replicated rows — notably randomized item prices — are
byte-identical everywhere.
"""

from __future__ import annotations

from typing import List

from repro.common.rng import make_rng
from repro.workloads.tpcc_lite import (
    _CUSTOMERS_PER_DISTRICT,
    _DISTRICTS_PER_WAREHOUSE,
    _ITEMS,
    customer_key,
    district_key,
    stock_key,
    tpcc_schemas,
)


def warehouses_homed_at(geo, region: int, num_warehouses: int) -> List[int]:
    """Warehouses whose geo slot is *homed* at ``region`` — the natural
    home-warehouse set for clients attached there."""
    return [w for w in range(num_warehouses)
            if geo.shard_map.home_region_of_value(w) == region]


def warehouses_hosted_at(geo, region: int, num_warehouses: int) -> List[int]:
    """Warehouses ``region`` stores (home or subscriber)."""
    return [w for w in range(num_warehouses)
            if geo.shard_map.hosts_value(region, w)]


def load_tpcc_geo(geo, num_warehouses: int, seed: int = 7) -> None:
    """Create the TPC-C-lite tables on every region and load each region
    with the replicated ``item`` catalog plus its hosted warehouses only.

    Bulk load: runs outside cost tracking and outside the epoch pipeline,
    exactly as the single-cluster loader runs outside the GTM fast path.
    """
    for region_index, region in enumerate(geo.regions):
        # Fresh schema instances per region: each catalog owns its own.
        for schema in tpcc_schemas():
            region.create_table(schema)
        rng = make_rng(seed)
        session = region.session(track_costs=False)

        txn = session.begin(multi_shard=True)
        for i_id in range(_ITEMS):
            txn.insert("item", {"i_id": i_id, "i_name": f"item-{i_id}",
                                "i_price": round(rng.uniform(1.0, 100.0), 2)})
        txn.commit()

        for w_id in range(num_warehouses):
            if not geo.shard_map.hosts_value(region_index, w_id):
                continue
            txn = session.begin(multi_shard=True)
            txn.insert("warehouse", {"w_id": w_id, "w_ytd": 0.0,
                                     "w_name": f"wh-{w_id}"})
            for d_id in range(_DISTRICTS_PER_WAREHOUSE):
                txn.insert("district", {
                    "d_key": district_key(w_id, d_id), "w_id": w_id,
                    "d_id": d_id, "d_ytd": 0.0, "d_next_o_id": 1,
                })
                for c_id in range(_CUSTOMERS_PER_DISTRICT):
                    txn.insert("customer", {
                        "c_key": customer_key(w_id, d_id, c_id),
                        "w_id": w_id, "d_id": d_id, "c_id": c_id,
                        "c_balance": 0.0, "c_ytd_payment": 0.0,
                        "c_name": f"cust-{w_id}-{d_id}-{c_id}",
                    })
            for i_id in range(_ITEMS):
                txn.insert("stock", {
                    "s_key": stock_key(w_id, i_id), "w_id": w_id,
                    "i_id": i_id, "s_quantity": 1000, "s_ytd": 0,
                })
            txn.commit()
