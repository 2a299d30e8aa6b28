"""Deterministic randomness helpers.

Every stochastic component (workload generators, data synthesizers, fault
injectors) draws from an explicit, seeded :class:`random.Random` so that
benchmarks and tests are reproducible bit-for-bit.
"""

from __future__ import annotations

import random
import string
from typing import List, Sequence, TypeVar

T = TypeVar("T")


def make_rng(seed: int) -> random.Random:
    """Return a private PRNG seeded with ``seed``."""
    return random.Random(seed)


def random_string(rng: random.Random, length: int, alphabet: str = string.ascii_lowercase) -> str:
    return "".join(rng.choice(alphabet) for _ in range(length))


class ZipfGenerator:
    """Zipf-distributed integers in ``[0, n)`` with parameter ``theta``.

    Uses the standard inverse-CDF construction with a precomputed table of
    cumulative probabilities.  ``theta=0`` degenerates to uniform.
    """

    def __init__(self, rng: random.Random, n: int, theta: float = 0.99):
        if n <= 0:
            raise ValueError("n must be positive")
        if theta < 0:
            raise ValueError("theta must be non-negative")
        self._rng = rng
        self.n = n
        self.theta = theta
        weights = [1.0 / (i + 1) ** theta for i in range(n)]
        total = sum(weights)
        cum = 0.0
        self._cdf: List[float] = []
        for w in weights:
            cum += w / total
            self._cdf.append(cum)
        self._cdf[-1] = 1.0

    def next(self) -> int:
        u = self._rng.random()
        lo, hi = 0, self.n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo


def weighted_choice(rng: random.Random, items: Sequence[T], weights: Sequence[float]) -> T:
    """Pick one of ``items`` with probability proportional to ``weights``."""
    if len(items) != len(weights):
        raise ValueError("items and weights must have equal length")
    total = float(sum(weights))
    u = rng.random() * total
    cum = 0.0
    for item, w in zip(items, weights):
        cum += w
        if u <= cum:
            return item
    return items[-1]
