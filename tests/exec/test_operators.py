"""Direct unit tests for the physical operators."""

import pytest

from repro.common.errors import ExecutionError
from repro.exec.operators import (
    PDistinct,
    PExchange,
    PFilter,
    PHashAggregate,
    PHashJoin,
    PLimit,
    PNestedLoopJoin,
    PProject,
    PSort,
    PValues,
    PlanOutline,
)
from repro.optimizer.expr import BoundBinary, BoundColumn, BoundConst
from repro.optimizer.logical import AggSpec, ColumnInfo
from repro.storage.types import DataType


def schema(*names):
    return [ColumnInfo(n, None, DataType.BIGINT) for n in names]


def values(rows, *names):
    return PValues([tuple(r) for r in rows], schema(*names))


def col(i, name="c"):
    return BoundColumn(i, name, DataType.BIGINT)


class TestScanFilterProject:
    def test_filter_counts_rows(self):
        op = PFilter(values([(1,), (5,), (9,)], "a"),
                     BoundBinary(">", col(0), BoundConst(3)))
        assert list(op.execute()) == [(5,), (9,)]
        assert op.actual_rows == 2

    def test_project_computes_expressions(self):
        op = PProject(values([(2,), (3,)], "a"),
                      [BoundBinary("*", col(0), BoundConst(10))],
                      schema("a10"))
        assert list(op.execute()) == [(20,), (30,)]

    def test_reset_counters(self):
        op = PFilter(values([(1,)], "a"), BoundConst(True))
        list(op.execute())
        PlanOutline(op).reset_counters()
        assert op.actual_rows == 0
        assert op.children()[0].actual_rows == 0


class TestJoins:
    def left_right(self):
        left = values([(1, 10), (2, 20), (3, 30)], "k", "lv")
        right = values([(2, 200), (3, 300), (3, 301)], "k", "rv")
        return left, right

    def test_hash_join_inner(self):
        left, right = self.left_right()
        op = PHashJoin("inner", left, right,
                       [col(0)], [col(0)], None,
                       schema("k", "lv", "k2", "rv"))
        rows = sorted(op.execute())
        assert rows == [(2, 20, 2, 200), (3, 30, 3, 300), (3, 30, 3, 301)]

    def test_hash_join_left_pads(self):
        left, right = self.left_right()
        op = PHashJoin("left", left, right, [col(0)], [col(0)], None,
                       schema("k", "lv", "k2", "rv"))
        rows = sorted(op.execute(), key=lambda r: (r[0], r[3] or 0))
        assert rows[0] == (1, 10, None, None)

    def test_hash_join_null_keys_never_match(self):
        left = values([(None, 1)], "k", "v")
        right = values([(None, 2)], "k", "v")
        op = PHashJoin("inner", left, right, [col(0)], [col(0)], None,
                       schema("k", "v", "k2", "v2"))
        assert list(op.execute()) == []

    def test_hash_join_residual_predicate(self):
        left, right = self.left_right()
        residual = BoundBinary(">", col(3), BoundConst(300))
        op = PHashJoin("inner", left, right, [col(0)], [col(0)], residual,
                       schema("k", "lv", "k2", "rv"))
        assert list(op.execute()) == [(3, 30, 3, 301)]

    def test_hash_join_rejects_bad_kind(self):
        left, right = self.left_right()
        with pytest.raises(ExecutionError):
            PHashJoin("full", left, right, [], [], None, schema())

    def test_nested_loop_non_equi(self):
        left = values([(1,), (5,)], "a")
        right = values([(3,), (7,)], "b")
        cond = BoundBinary("<", col(0), col(1))
        op = PNestedLoopJoin("inner", left, right, cond, schema("a", "b"))
        assert sorted(op.execute()) == [(1, 3), (1, 7), (5, 7)]

    def test_nested_loop_cross(self):
        op = PNestedLoopJoin("cross", values([(1,), (2,)], "a"),
                             values([(9,)], "b"), None, schema("a", "b"))
        assert sorted(op.execute()) == [(1, 9), (2, 9)]


class TestAggregateSortLimit:
    def test_aggregate_groups(self):
        child = values([(1, 10), (1, 20), (2, 5)], "g", "v")
        op = PHashAggregate(child, [col(0)],
                            [AggSpec("sum", col(1)), AggSpec("count", None)],
                            schema("g", "s", "n"))
        assert sorted(op.execute()) == [(1, 30.0, 2), (2, 5.0, 1)]

    def test_aggregate_nulls_skipped_except_count_star(self):
        child = values([(1, None), (1, 4)], "g", "v")
        op = PHashAggregate(child, [col(0)],
                            [AggSpec("count", col(1)), AggSpec("count", None),
                             AggSpec("avg", col(1))],
                            schema("g", "cv", "cs", "av"))
        assert list(op.execute()) == [(1, 1, 2, 4.0)]

    def test_aggregate_empty_input_global(self):
        op = PHashAggregate(values([], "v"), [],
                            [AggSpec("count", None), AggSpec("max", col(0))],
                            schema("n", "m"))
        assert list(op.execute()) == [(0, None)]

    def test_distinct_aggregate(self):
        # value sets are per group and per aggregate: 5 counts once in each
        # group, and the plain SUM beside them still sees every row
        child = values([(1, 5), (1, 5), (1, 7), (2, 5), (2, None), (2, 5)],
                       "g", "v")
        op = PHashAggregate(child, [col(0)],
                            [AggSpec("count", col(1), distinct=True),
                             AggSpec("sum", col(1), distinct=True),
                             AggSpec("sum", col(1))],
                            schema("g", "n", "ds", "s"))
        assert list(op.execute()) == [(1, 2, 12.0, 17.0), (2, 1, 5.0, 10.0)]

    def test_sort_multi_key_mixed_direction(self):
        child = values([(1, "b"), (2, "a"), (1, "a")], "n", "s")
        op = PSort(child, [(col(0), True), (col(1, "s"), False)])
        assert list(op.execute()) == [(2, "a"), (1, "a"), (1, "b")]

    def test_sort_nulls_last_ascending(self):
        child = values([(None,), (2,), (1,)], "n")
        op = PSort(child, [(col(0), False)])
        assert list(op.execute()) == [(1,), (2,), (None,)]

    def test_limit_is_lazy(self):
        produced = []

        def gen():
            for i in range(1000):
                produced.append(i)
                yield (i,)

        class Lazy(PValues):
            def execute(self):
                return self._count(gen())

        op = PLimit(Lazy([], schema("a")), 3)
        assert list(op.execute()) == [(0,), (1,), (2,)]
        assert len(produced) == 3

    def test_distinct_preserves_first_occurrence_order(self):
        child = values([(2,), (1,), (2,), (3,), (1,)], "a")
        op = PDistinct(child)
        assert list(op.execute()) == [(2,), (1,), (3,)]

    def test_exchange_passthrough_and_kinds(self):
        op = PExchange("gather", values([(1,)], "a"))
        assert list(op.execute()) == [(1,)]
        with pytest.raises(ExecutionError):
            PExchange("teleport", values([], "a"))

    def test_pretty_includes_estimates(self):
        op = PLimit(values([(1,)], "a"), 1, estimated_rows=42)
        assert "est=42" in op.pretty()
