"""Small statistics helpers used throughout the library.

The paper reports every measurement as the average of at least ten runs
(Section IV-A, Methodology).  :class:`RunningStats` provides the
numerically stable Welford accumulator the experiment harness uses for
that averaging, and the module-level helpers compute the summary
quantities that appear in Table I (nnz-per-example min/avg/max) and in
the hardware models (distribution dispersion used by the warp-divergence
model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["RunningStats", "geometric_mean", "dispersion_ratio"]


@dataclass
class RunningStats:
    """Welford online mean/variance accumulator.

    Numerically stable for long accumulation chains; supports merging
    two accumulators (parallel reduction) via :meth:`merge`.
    """

    count: int = 0
    mean: float = 0.0
    _m2: float = field(default=0.0, repr=False)
    min: float = math.inf
    max: float = -math.inf

    def push(self, x: float) -> None:
        """Add one observation."""
        x = float(x)
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def push_many(self, xs: np.ndarray) -> None:
        """Add a batch of observations."""
        for x in np.asarray(xs, dtype=float).ravel():
            self.push(float(x))

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); 0 for fewer than two observations."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Return a new accumulator equivalent to pushing both streams."""
        if self.count == 0:
            out = RunningStats(other.count, other.mean, other._m2, other.min, other.max)
            return out
        if other.count == 0:
            return RunningStats(self.count, self.mean, self._m2, self.min, self.max)
        n = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * other.count / n
        m2 = self._m2 + other._m2 + delta * delta * self.count * other.count / n
        return RunningStats(n, mean, m2, min(self.min, other.min), max(self.max, other.max))


def geometric_mean(values) -> float:
    """Geometric mean of positive values; used for speedup aggregation.

    Speedups are ratios, and the paper's prose statements ("the gap is
    2-5X on average") correspond to geometric rather than arithmetic
    averaging of ratios.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("geometric_mean of empty sequence")
    if np.any(arr <= 0):
        raise ValueError("geometric_mean requires positive values")
    return float(np.exp(np.mean(np.log(arr))))


def dispersion_ratio(values: np.ndarray) -> float:
    """``max / mean`` of a non-negative sample (1.0 for empty/constant).

    The GPU model uses this on per-example nnz counts: a warp cannot
    retire until its longest lane finishes, so the slowdown of a
    row-parallel sparse kernel is governed by how far the maximum row
    length sits above the mean (Section IV-B, asynchronous GPU
    discussion).
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        return 1.0
    m = float(arr.mean())
    if m <= 0:
        return 1.0
    return max(1.0, float(arr.max()) / m)
