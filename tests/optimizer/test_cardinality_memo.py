"""The estimator's per-pass memo answers for a node with that node's own
estimate, whatever ids the allocator hands out."""

import repro.optimizer.cardinality as cardinality
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.logical import LogicalScan
from repro.optimizer.stats import StatsManager, TableStats


def _estimator():
    stats = StatsManager()
    stats.put("big", TableStats(row_count=5000))
    stats.put("small", TableStats(row_count=7))
    return CardinalityEstimator(stats)


def test_a_reused_id_is_not_a_memo_hit(monkeypatch):
    # Every node reports one id: what a node freed mid-pass does when it
    # hands its id on to the next node allocated.
    monkeypatch.setattr(cardinality, "id", lambda node: 0, raising=False)
    estimator = _estimator()
    assert estimator.estimate(LogicalScan("big")) == 5000.0
    assert estimator.estimate(LogicalScan("small")) == 7.0
    assert estimator.estimate(LogicalScan("big")) == 5000.0


def test_the_same_node_is_a_memo_hit():
    estimator = _estimator()
    scan = LogicalScan("big")
    assert estimator.estimate(scan) == 5000.0
    estimator.stats.put("big", TableStats(row_count=1))
    assert estimator.estimate(scan) == 5000.0
