"""Independent checks of what the program returned.

Two oracles, neither of which asks the program whether it was right:

* TPC-C consistency conditions evaluated against the *driver's own log* of
  what it issued (amounts paid, orders placed), for the three workloads
  that run TPC-C-lite transactions;
* a stdlib ``sqlite3`` mirror that replays the same SQL statements on the
  same data, for the two workloads that go through ``SqlEngine.execute``.

Every function returns a list of human-readable violations; empty means
the outputs are correct.
"""

from __future__ import annotations

import math
import sqlite3
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence


# -- TPC-C-lite ---------------------------------------------------------------

@dataclass(frozen=True)
class TxnFacts:
    """What one generated TPC-C-lite transaction will do, learned by
    running its body once against :class:`_ProbeTxn` at generation time."""

    kind: str
    w_id: int
    d_key: int
    amount: float       # payment amount (0.0 for new_order)
    lines: int          # order lines inserted (0 for payment)


class _ProbeTxn:
    """Records the writes of a transaction body; reads return zero rows."""

    def __init__(self) -> None:
        self.updates: Dict[str, tuple] = {}
        self.inserts: Dict[str, List[dict]] = defaultdict(list)

    def read(self, table: str, key: object) -> dict:
        return defaultdict(float)

    def update(self, table: str, key: object, values: dict) -> None:
        self.updates[table] = (key, values)

    def insert(self, table: str, row: dict) -> None:
        self.inserts[table].append(row)


def probe_spec(spec) -> TxnFacts:
    """Learn a ``TxnSpec``'s effects through the transaction interface its
    body is written against, without touching the program."""
    probe = _ProbeTxn()
    spec.body(probe)
    d_key = probe.updates["district"][0]
    if spec.kind == "payment":
        w_id, values = probe.updates["warehouse"]
        return TxnFacts("payment", w_id, d_key, values["w_ytd"], 0)
    order = probe.inserts["orders"][0]
    return TxnFacts("new_order", order["w_id"], d_key, 0.0,
                    len(probe.inserts["order_line"]))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


def check_tpcc(read_table: Callable[[str], Iterable[dict]],
               committed: Sequence[TxnFacts],
               warehouses: Iterable[int], where: str = "") -> List[str]:
    """TPC-C conditions over ``warehouses``, against the driver's log.

    ``read_table(name)`` yields the table's visible rows as dicts.
    ``committed`` is every transaction the driver saw commit.
    """
    warehouses = set(warehouses)
    paid = defaultdict(float)
    paid_district = defaultdict(float)
    orders_district = defaultdict(int)
    orders_wh = defaultdict(int)
    lines_wh = defaultdict(int)
    for facts in committed:
        if facts.w_id not in warehouses:
            continue
        if facts.kind == "payment":
            paid[facts.w_id] += facts.amount
            paid_district[facts.d_key] += facts.amount
        else:
            orders_district[facts.d_key] += 1
            orders_wh[facts.w_id] += 1
            lines_wh[facts.w_id] += facts.lines

    bad: List[str] = []

    def fail(message: str) -> None:
        bad.append(f"{where}{message}")

    d_ytd = defaultdict(float)
    for row in read_table("district"):
        if row["w_id"] not in warehouses:
            continue
        d_ytd[row["w_id"]] += row["d_ytd"]
        if not _close(row["d_ytd"], paid_district[row["d_key"]]):
            fail(f"district {row['d_key']}: d_ytd {row['d_ytd']} != paid "
                 f"{paid_district[row['d_key']]}")
        if row["d_next_o_id"] - 1 != orders_district[row["d_key"]]:
            fail(f"district {row['d_key']}: d_next_o_id-1 "
                 f"{row['d_next_o_id'] - 1} != orders "
                 f"{orders_district[row['d_key']]}")
    seen = set()
    for row in read_table("warehouse"):
        w_id = row["w_id"]
        if w_id not in warehouses:
            continue
        seen.add(w_id)
        if not _close(row["w_ytd"], paid[w_id]):
            fail(f"warehouse {w_id}: w_ytd {row['w_ytd']} != paid "
                 f"{paid[w_id]}")
        if not _close(row["w_ytd"], d_ytd[w_id]):
            fail(f"warehouse {w_id}: w_ytd {row['w_ytd']} != sum(d_ytd) "
                 f"{d_ytd[w_id]}")
    if seen != warehouses:
        fail(f"warehouses missing: {sorted(warehouses - seen)}")
    order_rows = defaultdict(int)
    ol_cnt = defaultdict(int)
    for row in read_table("orders"):
        if row["w_id"] in warehouses:
            order_rows[row["w_id"]] += 1
            ol_cnt[row["w_id"]] += row["o_ol_cnt"]
    line_rows = defaultdict(int)
    for row in read_table("order_line"):
        if row["w_id"] in warehouses:
            line_rows[row["w_id"]] += 1
    for w_id in sorted(warehouses):
        if order_rows[w_id] != orders_wh[w_id]:
            fail(f"warehouse {w_id}: {order_rows[w_id]} orders rows != "
                 f"{orders_wh[w_id]} committed")
        if not (line_rows[w_id] == ol_cnt[w_id] == lines_wh[w_id]):
            fail(f"warehouse {w_id}: order_line rows {line_rows[w_id]}, "
                 f"sum(o_ol_cnt) {ol_cnt[w_id]}, lines issued "
                 f"{lines_wh[w_id]} disagree")
    return bad


def cluster_reader(cluster) -> Callable[[str], List[dict]]:
    """``read_table`` over one ``MppCluster`` under a fresh snapshot."""

    def read_table(name: str) -> List[dict]:
        txn = cluster.session().begin(multi_shard=True)
        try:
            return [dict(values) for _key, values in txn.scan(name)]
        finally:
            txn.commit()

    return read_table


# -- SQL against a sqlite3 mirror ------------------------------------------------

def canonical(rows: Iterable[Sequence[object]]) -> List[tuple]:
    """Rows in a canonical order; floats rounded for the *ordering* only."""

    def sort_key(row: tuple):
        return tuple(
            (0, "") if v is None
            else (1, round(float(v), 3)) if isinstance(v, (int, float))
            else (2, str(v))
            for v in row)

    return sorted((tuple(row) for row in rows), key=sort_key)


def rows_equal(got: Iterable[Sequence[object]],
               want: Iterable[Sequence[object]]) -> bool:
    """Same multiset of rows, numbers compared to 1e-9 relative."""
    got, want = canonical(got), canonical(want)
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            numeric = (isinstance(x, (int, float))
                       and isinstance(y, (int, float)))
            if not (_close(x, y) if numeric else x == y):
                return False
    return True


class SqliteMirror:
    """The same tables in an in-memory sqlite database."""

    def __init__(self) -> None:
        self.db = sqlite3.connect(":memory:")

    def close(self) -> None:
        self.db.close()

    def create(self, table: str, columns: Sequence[str]) -> None:
        self.db.execute(f"create table {table} ({', '.join(columns)})")

    def load(self, table: str, rows: Sequence[Sequence[object]]) -> None:
        if rows:
            marks = ", ".join("?" * len(rows[0]))
            self.db.executemany(f"insert into {table} values ({marks})", rows)

    def run(self, sql: str):
        """Returns ``(rows, rowcount)``; rowcount is -1 for a SELECT."""
        cursor = self.db.execute(sql)
        rows = cursor.fetchall() if cursor.description else []
        return rows, cursor.rowcount


def check_sql(mirror: SqliteMirror, statements: Sequence[str],
              results: Sequence[object],
              cache: Optional[Dict[str, object]] = None) -> List[int]:
    """Replay ``statements`` in order on the mirror and compare.

    ``results[i]`` is the program's answer to ``statements[i]``: a list of
    rows for a SELECT, an affected-row count for DML.  Returns the indexes
    that disagree.  With ``cache`` (read-only workloads, where a text's
    answer cannot change) each distinct text runs on the mirror once.
    """
    wrong: List[int] = []
    for index, (sql, got) in enumerate(zip(statements, results)):
        if cache is not None and sql in cache:
            want_rows, want_count = cache[sql]
        else:
            want_rows, want_count = mirror.run(sql)
            if cache is not None:
                cache[sql] = (want_rows, want_count)
        if isinstance(got, int):
            ok = got == want_count
        else:
            ok = rows_equal(got, want_rows)
        if not ok:
            wrong.append(index)
    return wrong
