"""Cardinality estimation over logical plans.

Classical System-R style estimation (independence + uniformity assumptions),
with one addition from the paper: before estimating a node, the estimator
asks the learning optimizer's plan store for an *observed* cardinality of
the node's canonical step — "the optimizer gets statistics information from
the plan store and uses it instead of its own estimates ... done
opportunistically" (Sec. II-C).
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, Tuple

from repro.optimizer.expr import (
    BoundBinary,
    BoundColumn,
    BoundConst,
    BoundExpr,
    BoundInList,
    BoundIsNull,
    BoundUnary,
    conjuncts,
)
from repro.optimizer.logical import (
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalPlan,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalTableFunction,
    LogicalUnion,
    LogicalValues,
)
from repro.optimizer.stats import ColumnStats, StatsManager, TableStats

DEFAULT_EQ_SELECTIVITY = 0.005
DEFAULT_RANGE_SELECTIVITY = 0.33
DEFAULT_ROW_COUNT = 1000


class CardinalityFeedback(Protocol):
    """The plan-store consumer interface (see :mod:`repro.learnopt`)."""

    def lookup(self, step_text: str) -> Optional[float]:
        """Observed cardinality for a canonical step, if captured."""


def _column_vs_const(expr: BoundBinary):
    """Normalize ``col <op> const`` / ``const <op> col`` comparisons.

    Returns (column, constant_value, op) or (None, None, None).
    """
    mirror = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
    if expr.op not in mirror:
        return None, None, None
    left, right = expr.left, expr.right
    if isinstance(left, BoundColumn) and isinstance(right, BoundConst):
        return left, right.value, expr.op
    if isinstance(left, BoundConst) and isinstance(right, BoundColumn):
        return right, left.value, mirror[expr.op]
    return None, None, None


class CardinalityEstimator:
    def __init__(self, stats: StatsManager,
                 feedback: Optional[CardinalityFeedback] = None):
        self.stats = stats
        self.feedback = feedback
        #: Estimates memoized during one optimization pass, as ``id(node)
        #: -> (node, estimate)``: holding the node keeps its id from being
        #: handed to a new node mid-pass, and a hit must be the node itself.
        self._memo: Dict[int, Tuple[LogicalPlan, float]] = {}
        #: Count of estimates answered from the plan store (introspection).
        self.feedback_hits = 0

    def estimate(self, plan: LogicalPlan) -> float:
        hit = self._memo.get(id(plan))
        if hit is not None and hit[0] is plan:
            return hit[1]
        observed = self._from_feedback(plan)
        value = observed if observed is not None else self._estimate_fresh(plan)
        value = max(0.0, value)
        self._memo[id(plan)] = (plan, value)
        return value

    # -- internals ---------------------------------------------------------

    def _from_feedback(self, plan: LogicalPlan) -> Optional[float]:
        if self.feedback is None:
            return None
        # Only cardinality-bearing steps are stored (scans, joins, aggs...).
        if isinstance(plan, (LogicalProject, LogicalSort)):
            return None
        try:
            step = plan.step_text()
        except NotImplementedError:  # pragma: no cover - defensive
            return None
        observed = self.feedback.lookup(step)
        if observed is not None:
            self.feedback_hits += 1
        return observed

    def _estimate_fresh(self, plan: LogicalPlan) -> float:
        if isinstance(plan, LogicalScan):
            base = self._table_rows(plan.table)
            if plan.predicate is not None:
                base *= self._selectivity(plan.predicate, plan)
            return base
        if isinstance(plan, LogicalTableFunction):
            return float(plan.rows_hint)
        if isinstance(plan, LogicalValues):
            return float(len(plan.rows))
        if isinstance(plan, LogicalFilter):
            child = self.estimate(plan.child)
            return child * self._selectivity(plan.predicate, plan.child)
        if isinstance(plan, (LogicalProject, LogicalSort)):
            return self.estimate(plan.child)
        if isinstance(plan, LogicalLimit):
            return min(float(plan.limit), self.estimate(plan.child))
        if isinstance(plan, LogicalDistinct):
            return self.estimate(plan.child) * 0.5
        if isinstance(plan, LogicalAggregate):
            child = self.estimate(plan.child)
            if not plan.group_exprs:
                return 1.0
            groups = 1.0
            for expr in plan.group_exprs:
                groups *= self._expr_ndv(expr, plan.child, child)
            return min(child, groups)
        if isinstance(plan, LogicalUnion):
            return sum(self.estimate(b) for b in plan.branches)
        if isinstance(plan, LogicalJoin):
            left = self.estimate(plan.left)
            right = self.estimate(plan.right)
            if plan.kind == "cross" or plan.condition is None:
                return left * right
            sel = self._join_selectivity(plan)
            rows = left * right * sel
            if plan.kind == "left":
                rows = max(rows, left)
            return rows
        return float(DEFAULT_ROW_COUNT)

    def _table_rows(self, table: str) -> float:
        stats = self.stats.get(table)
        return float(stats.row_count) if stats is not None else float(DEFAULT_ROW_COUNT)

    # -- predicate selectivity --------------------------------------------------

    def _selectivity(self, predicate: BoundExpr, context: LogicalPlan) -> float:
        sel = 1.0
        for factor in conjuncts(predicate):
            sel *= self._factor_selectivity(factor, context)
        return max(1e-9, min(1.0, sel))

    def _factor_selectivity(self, expr: BoundExpr, context: LogicalPlan) -> float:
        if isinstance(expr, BoundBinary):
            if expr.op == "or":
                left = self._factor_selectivity(expr.left, context)
                right = self._factor_selectivity(expr.right, context)
                return min(1.0, left + right - left * right)
            col, const, op = _column_vs_const(expr)
            if col is not None:
                col_stats, row_count = self._column_stats(col, context)
                if col_stats is None:
                    return (DEFAULT_EQ_SELECTIVITY if op in ("=",)
                            else DEFAULT_RANGE_SELECTIVITY)
                if op == "=":
                    return col_stats.selectivity_eq(const, row_count)
                if op == "<>":
                    return 1.0 - col_stats.selectivity_eq(const, row_count)
                if op == "<":
                    return col_stats.selectivity_range(None, const, include_high=False)
                if op == "<=":
                    return col_stats.selectivity_range(None, const)
                if op == ">":
                    return col_stats.selectivity_range(const, None, include_low=False)
                if op == ">=":
                    return col_stats.selectivity_range(const, None)
            if expr.op == "=":
                return DEFAULT_EQ_SELECTIVITY
            if expr.op in ("<", "<=", ">", ">="):
                return DEFAULT_RANGE_SELECTIVITY
            if expr.op == "like":
                return 0.1
        if isinstance(expr, BoundInList):
            base = self._factor_selectivity(
                BoundBinary("=", expr.needle, expr.items[0] if expr.items
                            else BoundConst(None)), context)
            sel = min(1.0, base * max(1, len(expr.items)))
            return 1.0 - sel if expr.negated else sel
        if isinstance(expr, BoundIsNull):
            col_stats = None
            if isinstance(expr.operand, BoundColumn):
                col_stats, _ = self._column_stats(expr.operand, context)
            frac = col_stats.null_frac if col_stats is not None else 0.05
            return (1.0 - frac) if expr.negated else frac
        if isinstance(expr, BoundUnary) and expr.op == "not":
            return 1.0 - self._factor_selectivity(expr.operand, context)
        return 0.5

    def _join_selectivity(self, join: LogicalJoin) -> float:
        sel = 1.0
        for factor in conjuncts(join.condition):
            if (isinstance(factor, BoundBinary) and factor.op == "="
                    and isinstance(factor.left, BoundColumn)
                    and isinstance(factor.right, BoundColumn)):
                ndv_l = self._column_ndv(factor.left, join.left)
                ndv_r = self._column_ndv(factor.right, join.right)
                sel *= 1.0 / max(ndv_l, ndv_r, 1.0)
            else:
                sel *= 0.5
        return max(1e-12, min(1.0, sel))

    # -- column statistics lookup ----------------------------------------------

    def _column_stats(self, col: BoundColumn, context: LogicalPlan):
        """Find (ColumnStats, row_count) for a column by canonical name."""
        qualified = col.qualified_name.lower()
        if "." in qualified:
            table, name = qualified.rsplit(".", 1)
            stats = self.stats.get(table)
            if stats is not None and name in stats.columns:
                return stats.columns[name], stats.row_count
        # Fall back to searching any analyzed table with this column name.
        name = qualified.rsplit(".", 1)[-1]
        for table in self.stats.analyzed_tables():
            stats = self.stats.get(table)
            if stats is not None and name in stats.columns:
                return stats.columns[name], stats.row_count
        return None, 0

    def _column_ndv(self, col: BoundColumn, side: LogicalPlan) -> float:
        col_stats, _ = self._column_stats(col, side)
        if col_stats is not None and col_stats.ndv > 0:
            return float(col_stats.ndv)
        return float(max(1.0, self.estimate(side) * 0.1))

    def _expr_ndv(self, expr: BoundExpr, child: LogicalPlan, child_rows: float) -> float:
        if isinstance(expr, BoundColumn):
            return self._column_ndv(expr, child)
        return max(1.0, child_rows * 0.1)
