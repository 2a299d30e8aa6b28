"""Physical execution: volcano operators and the lane kernels they batch
through (:mod:`repro.exec.batch`)."""

from repro.exec.operators import PhysicalOp, walk_physical

__all__ = ["PhysicalOp", "walk_physical"]
