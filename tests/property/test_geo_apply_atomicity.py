"""A certified epoch lands in a region atomically, even when its apply fails.

One session in r0 commits two inserts (k=1, k=2) as two transactions of
one epoch.  The coordinator of r1's apply transaction that writes k=2 times
out right after prepare.  The failed apply must leave r1 with neither key,
so the retry at the next step lands the whole epoch exactly once.  Were
each remote transaction applied as its own region transaction, r1 would
keep k=1, and every retry would trip over it with a ``DuplicateKeyError``
while ``assert_converged`` (which compares verdict digests only) still
passed.
"""

import pytest

from repro.faults import FaultInjector, InjectedTimeout
from repro.faults.injector import ACT_TIMEOUT, FP_COORD_AFTER_PREPARE
from repro.geo import GeoCluster, GeoConfig
from repro.storage import Column, DataType, TableSchema


class WritesKey:
    """A fault-rule match value equal to the gxid of a region transaction
    that has written ``key`` on the region's only data node.

    It picks the same transaction whether the epoch applies as one region
    transaction or as one per remote transaction (then: the second)."""

    def __init__(self, cluster, table, key):
        self.cluster = cluster
        self.table = table
        self.key = key

    def __eq__(self, gxid):
        dn = self.cluster.dns[0]
        lxid = dn.ltm.xid_map.get(gxid)
        if lxid is None:
            return False
        return any(version.xmin == lxid
                   for version in dn.heap(self.table).version_chain(self.key))

    def __ne__(self, gxid):
        return not self.__eq__(gxid)


def region_rows(geo, region):
    reader = geo.regions[region].session().begin(multi_shard=True)
    rows = {key: dict(values) for key, values in reader.scan("t")}
    reader.commit()
    return rows


@pytest.fixture
def geo():
    geo = GeoCluster(GeoConfig(num_regions=3, dns_per_region=1))
    geo.create_table(TableSchema(
        "t", [Column("k", DataType.INT), Column("v", DataType.INT)], "k"))
    return geo


def test_failed_apply_leaves_no_half_epoch(geo):
    session = geo.session(0)
    first = session.run_transaction(
        lambda txn: txn.insert("t", {"k": 1, "v": 10}))
    second = session.run_transaction(
        lambda txn: txn.insert("t", {"k": 2, "v": 20}))
    assert first.epoch == second.epoch
    injector = FaultInjector(seed=0).bind(geo.regions[1])
    injector.arm(FP_COORD_AFTER_PREPARE, ACT_TIMEOUT,
                 match={"gxid": WritesKey(geo.regions[1], "t", 2)})

    with pytest.raises(InjectedTimeout):
        geo.drain()
    assert len(injector.history) == 1
    assert region_rows(geo, 1) == {}
    assert geo.certified_epoch(1) < first.epoch

    geo.drain()
    assert geo.certified_epoch(1) >= first.epoch
    assert first.status == second.status == "committed"
    expected = {1: {"k": 1, "v": 10}, 2: {"k": 2, "v": 20}}
    for region in range(3):
        assert region_rows(geo, region) == expected
    geo.assert_converged()
    applied = [row for row in geo.epoch_rows()
               if row[0] == first.epoch and row[1] == 1]
    assert [row[5] for row in applied] == [2]       # applied_ops, once
