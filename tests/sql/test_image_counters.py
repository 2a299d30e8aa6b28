"""How lane scans kept their column images, read from inside the system.

``dn.image_walks`` and ``dn.image_patches`` are plain per-node integers
folded into the registry at scrape time, so ``sys.metrics`` shows them: a
join walks each table once per node, and after DML the next join patches
the image of each node the DML wrote, and walks nothing.
"""

from repro.cluster.mpp import MppCluster
from repro.sql.engine import SqlEngine

NUM_DNS = 4
JOIN = ("select o.tier, count(*), sum(a.balance) from acct a, owners o "
        "where a.owner_id = o.owner_id group by o.tier order by o.tier")


def _engine():
    cluster = MppCluster(num_dns=NUM_DNS)
    engine = SqlEngine(cluster)
    engine.execute("create table acct (id int primary key, owner_id int, "
                   "branch text, balance double)")
    engine.execute("create table owners (owner_id int primary key, "
                   "tier text)")
    txn = cluster.session().begin(multi_shard=True)
    for i in range(200):
        txn.insert("acct", {"id": i, "owner_id": i % 20,
                            "branch": f"b{i % 8}", "balance": float(i)})
    for i in range(20):
        txn.insert("owners", {"owner_id": i,
                              "tier": "gold" if i % 5 == 0 else "std"})
    txn.commit()
    engine.analyze()
    return engine


def _images(engine):
    return [engine.execute(f"select value from sys.metrics "
                           f"where name = '{name}'").rows[0][0]
            for name in ("dn.image_walks", "dn.image_patches")]


def _owner(engine, key):
    return next(dn.index for dn in engine.cluster.active_dns()
                if dn.heap("acct").version_chain(key))


def test_a_join_walks_once_per_node_and_table_then_dml_patches_per_written_node():
    engine = _engine()
    assert _images(engine) == [0, 0]
    first = engine.execute(JOIN).rows
    assert _images(engine) == [2 * NUM_DNS, 0]

    keys = [7, next(k for k in range(200) if _owner(engine, k)
                    != _owner(engine, 7))]
    for key in keys:
        engine.execute(f"update acct set balance = balance + 1 "
                       f"where id = {key}")
    moved = engine.execute(JOIN).rows
    assert _images(engine) == [2 * NUM_DNS, 2]       # one per written DN
    assert moved != first

    engine.execute(JOIN)                             # nothing written
    assert _images(engine) == [2 * NUM_DNS, 2]
    engine.execute("delete from acct where id = 7")
    engine.execute(JOIN)
    assert _images(engine) == [2 * NUM_DNS, 3]
