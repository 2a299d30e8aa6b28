"""Producer/consumer wiring of the statistics-learning loop (Fig. 5).

* The **producer** runs after query execution: it walks the physical plan
  and, for every cardinality-bearing step whose actual row count diverged
  from the estimate by more than a threshold, writes the observation into
  the plan store — "the executor captures only those steps that have a big
  differential between actual and estimated row counts".
* The **consumer** is handed to the optimizer as its
  :class:`~repro.optimizer.cardinality.CardinalityFeedback`: before
  estimating a step it asks the store for an observed cardinality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.exec.operators import PhysicalOp, walk_physical
from repro.learnopt.store import PlanStore


@dataclass
class CaptureSettings:
    """User settings/directives controlling the producer (paper: "based on
    user settings/directives, the producer selectively captures ...")."""

    #: Minimum relative error |actual - estimate| / max(actual, 1) to capture.
    error_threshold: float = 0.5
    #: Steps with fewer actual rows than this are not worth capturing.
    min_actual_rows: int = 0


@dataclass
class CaptureReport:
    """What one producer pass captured."""

    considered: int = 0
    captured: int = 0
    steps: List[str] = field(default_factory=list)


class FeedbackLoop:
    """Binds a plan store to a producer policy and a consumer interface."""

    def __init__(self, store: Optional[PlanStore] = None,
                 settings: Optional[CaptureSettings] = None):
        self.store = store if store is not None else PlanStore()
        self.settings = settings if settings is not None else CaptureSettings()

    # -- consumer (CardinalityFeedback protocol) ------------------------------

    def lookup(self, step_text: str) -> Optional[float]:
        return self.store.lookup(step_text)

    # -- producer ---------------------------------------------------------------

    def capture(self, root: PhysicalOp) -> CaptureReport:
        """Harvest mis-estimated steps from an executed physical plan.

        Per-DN fragment clones of one logical step share a
        ``capture_group``: their estimates and actuals are summed back into
        a single observation, so the plan store records the same
        logical-step cardinalities whether or not the plan was fragmented.
        """
        report = CaptureReport()
        grouped: Dict[Tuple[int, str], List[float]] = {}
        order: List[Tuple[int, str]] = []
        for op in walk_physical(root):
            if op.step_text is None:
                continue
            group = op.capture_group
            if group is not None:
                key = (group, op.step_text)
                sums = grouped.get(key)
                if sums is None:
                    grouped[key] = [float(op.estimated_rows),
                                    float(op.actual_rows)]
                    order.append(key)
                else:
                    sums[0] += float(op.estimated_rows)
                    sums[1] += float(op.actual_rows)
                continue
            self._consider(report, op.step_text,
                           float(op.estimated_rows), float(op.actual_rows))
        for key in order:
            estimate, actual = grouped[key]
            self._consider(report, key[1], estimate, actual)
        return report

    def _consider(self, report: CaptureReport, step_text: str,
                  estimate: float, actual: float) -> None:
        report.considered += 1
        if actual < self.settings.min_actual_rows:
            return
        error = abs(actual - estimate) / max(actual, 1.0)
        if error > self.settings.error_threshold:
            self.store.put(step_text, estimate, actual)
            report.captured += 1
            report.steps.append(step_text)
