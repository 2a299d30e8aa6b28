"""The typed-row contract of the data-node write path.

A row is typed once, where it enters a transaction
(``TableSchema.coerce_row``), and ``DataNode.insert`` stores it as given;
an update types only the columns it assigns.  Two checks hold that
contract:

* an audit: after TPC-C-lite, an HTAP run with merges, a slot move and
  an HA failover with redo replay, every stored ``TupleVersion`` holds
  exactly its schema's columns, each ``None`` or of exactly its column's
  Python type;
* bad rows fail as before: the same ``StorageError`` message, after the
  same charges — an insert after the coordinator's routing charge and
  before any node is bound, an update inside the node's apply.  (A bad
  insert into a replicated table used to fail inside the first node's
  apply; it now fails with the same message where a hash table's does.)
"""

import pytest

from repro.cluster import MppCluster, TxnMode
from repro.cluster.ha import HaManager
from repro.cluster.rebalance import RebalanceCoordinator
from repro.cluster.txn import GlobalTransaction, LocalTransaction
from repro.common.errors import StorageError
from repro.storage import Column, DataType, Distribution, TableSchema
from repro.workloads import TpccLiteWorkload, load_tpcc, run_oltp

PY_TYPES = {DataType.INT: int, DataType.BIGINT: int, DataType.DOUBLE: float,
            DataType.TEXT: str, DataType.BOOL: bool, DataType.TIMESTAMP: int}


def audit(cluster):
    """Every stored version that breaks the typed-row contract, as
    ``(node, table, key, problem)``."""
    bad = []
    for dn in cluster.dns:
        for table, heap in dn._heaps.items():
            schema = dn._schemas[table]
            names = schema.column_names
            for key in list(heap._chains):
                for version in heap.version_chain(key):
                    values = version.values
                    if list(values) != names:
                        bad.append((dn.node_id, table, key, list(values)))
                        continue
                    if values[schema.primary_key] != key:
                        bad.append((dn.node_id, table, key, "key"))
                    for col in schema.columns:
                        value = values[col.name]
                        if value is not None and \
                                type(value) is not PY_TYPES[col.data_type]:
                            bad.append((dn.node_id, table, key,
                                        (col.name, value)))
    return bad


def versions(cluster):
    return sum(len(heap.version_chain(key))
               for dn in cluster.dns for heap in dn._heaps.values()
               for key in list(heap._chains))


def tpcc_cluster(column_oriented=()):
    cluster = MppCluster(num_dns=2, mode=TxnMode.GTM_LITE)
    load_tpcc(cluster, num_warehouses=2, column_oriented=column_oriented)
    return cluster


def run_tpcc(cluster, seed=11, txns=8):
    workload = TpccLiteWorkload(num_warehouses=2, multi_shard_fraction=0.2,
                                seed=seed)
    return run_oltp(cluster, workload, clients_per_dn=2, txns_per_client=txns)


class TestTypedStorageAudit:
    def test_tpcc_lite(self):
        cluster = tpcc_cluster()
        run_tpcc(cluster)
        assert versions(cluster) > 0
        assert audit(cluster) == []

    def test_audit_catches_an_untyped_row(self):
        """A row stored without typing — ``w_ytd`` as the int 0 in a
        DOUBLE column — is what the audit exists to find."""
        cluster = tpcc_cluster()
        dn = cluster.dns[0]
        xid = dn.begin()
        dn.insert("warehouse", {"w_id": 100, "w_ytd": 0, "w_name": "raw"},
                  xid, dn.local_snapshot())
        dn.commit(xid)
        assert audit(cluster) == [(dn.node_id, "warehouse", 100, ("w_ytd", 0))]

    def test_htap_run_with_merges(self):
        cluster = tpcc_cluster(column_oriented=("stock", "order_line",
                                                "customer"))
        for seed in (11, 12, 13):
            run_tpcc(cluster, seed=seed)
            cluster.htap.tick()
        merges = sum(store.merges for dn in cluster.active_dns()
                     for store in dn.htap.tables.values())
        assert merges > 3 * len(cluster.active_dns())
        assert audit(cluster) == []

    def test_slot_move(self):
        cluster = MppCluster(num_dns=3, mode=TxnMode.GTM_LITE)
        cluster.create_table(TableSchema("t", [
            Column("k", DataType.INT), Column("v", DataType.DOUBLE),
            Column("ts", DataType.TIMESTAMP), Column("s", DataType.TEXT)],
            "k"))
        cluster.create_table(TableSchema(
            "dim", [Column("k", DataType.INT), Column("x", DataType.DOUBLE)],
            "k", distribution=Distribution.REPLICATION))
        session = cluster.session()

        def write(base):
            txn = session.begin(multi_shard=True)
            for i in range(base, base + 40):
                txn.insert("t", {"k": i * 13, "v": i, "ts": float(i),
                                 "s": f"s{i}"})
            for i in range(max(0, base - 40), base, 7):
                txn.update("t", i * 13, {"v": i + 1, "ts": 1.0})
            txn.insert("dim", {"k": base, "x": base})
            txn.commit()

        write(0)
        rounds = []

        def on_catchup():
            rounds.append(None)
            write(40 * len(rounds))

        RebalanceCoordinator(cluster).add_dn(on_catchup=on_catchup)
        assert rounds
        assert cluster.num_active_dns == 4
        assert audit(cluster) == []

    def test_failover_with_redo_replay(self):
        cluster = MppCluster(num_dns=2)
        cluster.create_table(TableSchema("t", [
            Column("k", DataType.INT), Column("v", DataType.DOUBLE),
            Column("f", DataType.BOOL)], "k"))
        ha = HaManager(cluster)
        session = cluster.session()
        txn = session.begin(multi_shard=True)
        for k in range(10):
            txn.insert("t", {"k": k, "v": k, "f": k % 2})
        txn.commit()
        stuck = session.begin(multi_shard=True)
        stuck.update("t", 0, {"v": 7, "f": 1})
        stuck.update("t", 1, {"v": 8})
        stuck.insert("t", {"k": 20, "v": 20, "f": 0})
        stuck.insert("t", {"k": 21, "v": 21, "f": 1})
        steps = stuck.commit_stepwise()
        steps.prepare_all()
        steps.commit_at_gtm()          # decided, never confirmed
        report = ha.fail_and_promote(0)
        assert report.rows_restored > 0
        assert report.stages_rolled_forward == 1
        assert audit(cluster) == []
        reader = session.begin(multi_shard=True)
        assert reader.read("t", 0) == {"k": 0, "v": 7.0, "f": True}
        assert reader.read("t", 20) == {"k": 20, "v": 20.0, "f": False}
        reader.commit()


# -- bad rows -----------------------------------------------------------------

def bad_row_cluster(num_dns):
    cluster = MppCluster(num_dns=num_dns)
    for name, distribution in (("h", Distribution.HASH),
                               ("r", Distribution.REPLICATION)):
        cluster.create_table(TableSchema(name, [
            Column("k", DataType.INT), Column("v", DataType.DOUBLE),
            Column("n", DataType.INT, nullable=False)], "k",
            distribution=distribution))
    txn = cluster.session().begin(multi_shard=True)
    for name in ("h", "r"):
        txn.insert(name, {"k": 1, "v": 1.0, "n": 1})
    txn.commit()
    return cluster


def spied(txn):
    """Record the transaction's charge and bind steps, in order."""
    steps = []
    for name in ("_charge_cn", "_charge_dn_stmt", "_bind", "_attach"):
        if not hasattr(txn, name):
            continue
        inner = getattr(txn, name)

        def step(*args, _inner=inner, _name=name):
            steps.append(_name)
            return _inner(*args)
        setattr(txn, name, step)
    return steps


#: (bad insert row, the message every coercion path raised for it)
BAD_INSERTS = [
    ({"k": 2, "v": "abc", "n": 1},
     "cannot coerce 'abc' to double: could not convert string to float: 'abc'"),
    ({"k": 2, "v": 1.0}, "table {t}: column n is NOT NULL"),
    ({"v": 1.0, "n": 1}, "table {t}: NULL primary key"),
    ({"k": True, "v": 1.0, "n": 1}, "cannot coerce bool True to int"),
    ({"k": 2, "v": 1.0, "n": 1, "zz": 0}, "table {t}: unknown columns ['zz']"),
    ({"k": 2, "v": 1.0, "n": 1.5}, "cannot coerce 1.5 to int"),
]
BAD_UPDATES = [
    ({"v": "abc"},
     "cannot coerce 'abc' to double: could not convert string to float: 'abc'"),
    ({"n": None}, "table {t}: column n is NOT NULL"),
    ({"k": None}, "table {t}: NULL primary key"),
    ({"n": "x1"},
     "cannot coerce 'x1' to int: invalid literal for int() with base 10: 'x1'"),
    ({"zz": 0, "v": 2.0}, "table {t}: unknown columns ['zz']"),
    ({"v": 2.0, "n": False}, "cannot coerce bool False to int"),
]
TXNS = [(LocalTransaction, 1, "h"), (LocalTransaction, 1, "r"),
        (LocalTransaction, 2, "h"), (GlobalTransaction, 2, "h"),
        (GlobalTransaction, 2, "r")]


@pytest.mark.parametrize("kind,num_dns,table", TXNS)
@pytest.mark.parametrize("row,message", BAD_INSERTS)
def test_bad_insert_fails_before_any_node_is_bound(kind, num_dns, table,
                                                   row, message):
    cluster = bad_row_cluster(num_dns)
    txn = kind(cluster)
    steps = spied(txn)
    with pytest.raises(StorageError) as err:
        txn.insert(table, dict(row))
    assert str(err.value) == message.format(t=table)
    assert steps == ["_charge_cn"]
    txn.abort()


@pytest.mark.parametrize("kind,num_dns,table", TXNS)
@pytest.mark.parametrize("values,message", BAD_UPDATES)
def test_bad_update_fails_in_the_node_apply(kind, num_dns, table, values,
                                            message):
    cluster = bad_row_cluster(num_dns)
    txn = kind(cluster)
    steps = spied(txn)
    with pytest.raises(StorageError) as err:
        txn.update(table, 1, dict(values))
    assert str(err.value) == message.format(t=table)
    bind = "_bind" if kind is LocalTransaction else "_attach"
    # the node's begin charge (inside the bind), then its statement charge
    assert steps == ["_charge_cn", bind, "_charge_dn_stmt", "_charge_dn_stmt"]
    txn.abort()
    reader = cluster.session().begin(multi_shard=True)
    assert reader.read(table, 1) == {"k": 1, "v": 1.0, "n": 1}
    reader.commit()
