"""``GeoCluster.assert_converged`` compares rows, not only verdicts.

Regions at one certification frontier that host a key's slot must hold the
same visible row of it.  A row removed from one hosting region behind the
epoch machine's back leaves every verdict digest equal; the row check must
still see the divergence.
"""

import pytest

from repro.geo import GeoCluster, GeoConfig, GeoMode
from repro.storage import Column, DataType, TableSchema


def _loaded(mode):
    geo = GeoCluster(GeoConfig(num_regions=3, dns_per_region=2, mode=mode,
                               replication_factor=2))
    geo.create_table(TableSchema(
        "t", [Column("k", DataType.INT), Column("v", DataType.TEXT)], "k"))
    for k in range(12):
        geo.session(k % 3).run_transaction(
            lambda txn, k=k: txn.insert("t", {"k": k, "v": f"v{k}"}))
    geo.drain()
    # each key lives in two of the three regions: the third is not compared
    geo.assert_converged()
    return geo


@pytest.mark.parametrize("mode", [GeoMode.GEOGAUSS, GeoMode.GLOBAL_2PC])
def test_a_row_missing_from_one_hosting_region_fails_the_check(mode):
    geo = _loaded(mode)
    key = 7
    hosts = geo.hosting_regions_of(geo.geo_slot_of(geo.regions[0].catalog
                                                   .schema("t"), key))
    assert len(hosts) == 2
    # one hosting region's heap loses the row behind the epoch machine's
    # back: no verdict digest moves
    dn = next(dn for dn in geo.regions[hosts[1]].active_dns()
              if dn.heap("t").read(key, dn.local_snapshot(), dn.ltm.clog))
    xid = dn.ltm.begin()
    dn.heap("t").delete(key, xid, dn.local_snapshot(), dn.ltm.clog)
    dn.ltm.commit(xid)
    with pytest.raises(AssertionError, match="t key 7 diverged"):
        geo.assert_converged()


def test_a_changed_value_fails_the_check_until_it_is_restored():
    geo = _loaded(GeoMode.GEOGAUSS)
    key = 4
    hosts = geo.hosting_regions_of(geo.geo_slot_of(geo.regions[0].catalog
                                                   .schema("t"), key))
    region = geo.regions[hosts[0]]
    region.session().run_transaction(
        lambda txn: txn.update("t", key, {"v": "changed"}))
    with pytest.raises(AssertionError, match="t key 4 diverged"):
        geo.assert_converged()
    region.session().run_transaction(
        lambda txn: txn.update("t", key, {"v": f"v{key}"}))
    geo.assert_converged()
