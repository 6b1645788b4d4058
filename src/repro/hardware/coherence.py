"""Cache-line conflict statistics for asynchronous (Hogwild) updates.

Hogwild's hardware behaviour is governed by *which model cache lines
concurrent updates touch*:

* on CPU, a line written by one core invalidates every other core's
  copy, so each conflicted access pays a coherence miss ("concurrent
  updates to the same features of the model generate cache-coherency
  conflicts that slow down execution", Section IV-B);
* on GPU, concurrent atomics to the same line serialise within the
  memory system.

Both effects are driven by the *popularity* of each model line — the
fraction of training examples whose update touches it.  This module
computes line-popularity vectors (from realised data or analytically
from a Zipf feature profile at full scale) and folds them into the two
summary statistics the hardware models consume:

``conflict_fraction(t)``
    expected fraction of a random update's lines that at least one of
    the other ``t-1`` concurrent updates also touches;
``expected_writers(t)``
    expected number of concurrent updates touching a given touched
    line (including the update itself) — the contention degree.

Dense data is the degenerate case: every line has popularity 1, so
every line of every update conflicts and contention equals the full
thread count.  This is precisely why the paper finds parallel Hogwild
*slower than sequential* on covtype (Table III).
"""

from __future__ import annotations

import functools

import numpy as np

from ..linalg.csr import CSRMatrix
from ..utils.units import CACHE_LINE_BYTES, FLOAT64_BYTES

__all__ = [
    "LineStats",
    "line_frequencies_from_csr",
    "dense_line_frequencies",
    "zipf_line_frequencies",
]

_PER_LINE = CACHE_LINE_BYTES // FLOAT64_BYTES  # 8 model coordinates per line


class LineStats:
    """Popularity vector of the model's cache lines plus derived stats.

    Parameters
    ----------
    frequencies:
        Array ``f`` where ``f[l]`` is the fraction of examples whose
        update touches model line ``l`` (in ``(0, 1]``; untouched lines
        may be omitted or zero).

    The stored popularities and weights are read-only: one instance
    may price many configurations (:func:`zipf_line_frequencies` hands
    the same one to every caller with the same profile).
    """

    def __init__(self, frequencies: np.ndarray) -> None:
        f = np.asarray(frequencies, dtype=np.float64).ravel()
        f = f[f > 0]
        if f.size and (f.max() > 1.0 + 1e-12):
            raise ValueError("line frequencies must be <= 1")
        self.frequencies = np.clip(f, 0.0, 1.0)
        total = float(self.frequencies.sum())
        #: probability that a randomly chosen *touched* line is line l
        self._weights = (
            self.frequencies / total if total > 0 else np.empty(0, dtype=np.float64)
        )
        self.frequencies.flags.writeable = False
        self._weights.flags.writeable = False

    @property
    def n_lines(self) -> int:
        """Number of lines with non-zero popularity."""
        return int(self.frequencies.size)

    def conflict_fraction(self, threads: int) -> float:
        """Fraction of a random update's lines conflicted by t-1 peers.

        For each line, the probability at least one of the other
        ``threads - 1`` concurrent updates touches it is
        ``1 - (1 - f_l)^(threads-1)``; averaging over the line a random
        update touches (popularity-weighted) gives the fraction.
        """
        if threads <= 1 or self._weights.size == 0:
            return 0.0
        p = 1.0 - np.power(1.0 - self.frequencies, threads - 1)
        return float(min(1.0, np.sum(self._weights * p)))

    def expected_writers(self, threads: int) -> float:
        """Expected concurrent updates touching a touched line (incl. self)."""
        if self._weights.size == 0:
            return 1.0
        mean_f = float(np.sum(self._weights * self.frequencies))
        return 1.0 + (max(threads, 1) - 1) * mean_f

    @property
    def max_frequency(self) -> float:
        """Popularity of the hottest line.

        The write rate of the hottest model cache line bounds Hogwild
        throughput from below: every update touching it must acquire
        line ownership, and ownership transfers serialise.  This is the
        statistic behind the paper's covtype result where parallel
        Hogwild is *slower* than sequential (every update touches every
        line, so the storm is total).
        """
        if self.frequencies.size == 0:
            return 0.0
        return float(self.frequencies.max())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LineStats(n_lines={self.n_lines})"


def line_frequencies_from_csr(X: CSRMatrix) -> LineStats:
    """Measured line popularities of a realised CSR dataset.

    Counts, for every model line, the fraction of rows with at least
    one non-zero coordinate on that line.
    """
    if X.nnz == 0:
        return LineStats(np.empty(0))
    lines = X.indices.astype(np.int64) // _PER_LINE
    rows = np.repeat(np.arange(X.n_rows, dtype=np.int64), X.row_nnz)
    keys = np.unique(rows * ((X.n_cols // _PER_LINE) + 2) + lines)
    n_lines_total = X.n_cols // _PER_LINE + 2
    line_ids = keys % n_lines_total
    counts = np.bincount(line_ids, minlength=n_lines_total)
    return LineStats(counts / X.n_rows)


def dense_line_frequencies(n_features: int) -> LineStats:
    """Line popularities for fully dense updates: every line, always."""
    n_lines = max(1, -(-n_features // _PER_LINE))
    return LineStats(np.ones(n_lines))


@functools.lru_cache(maxsize=16)
def zipf_line_frequencies(
    n_features: int,
    nnz_avg: float,
    zipf_exponent: float,
    head_freq_cap: float | None = None,
) -> LineStats:
    """Analytic full-scale line popularities for a Zipf feature profile.

    Feature *j*'s document frequency under a Zipf popularity with
    ``nnz_avg`` draws per example is ``min(1, nnz_avg * q_j)`` with
    ``q_j`` the normalised Zipf weight, optionally clipped at
    ``head_freq_cap`` (real corpora have flatter heads than a raw Zipf
    over few features would imply).  Features are dealt round-robin
    across lines in descending popularity, and a line's popularity is
    ``1 - prod(1 - p_j)`` over its 8 features.

    This lets the asynchronous hardware model operate at the *paper's*
    dimensionality (e.g. news' 1.35M features) even though the realised
    data is scaled down.  The result is a pure function of the
    arguments and costs tens of milliseconds at news' size, so it is
    memoised: every call with the same arguments returns the same
    read-only :class:`LineStats` (``zipf_line_frequencies.__wrapped__``
    computes afresh).
    """
    if n_features <= 0:
        raise ValueError("n_features must be positive")
    ranks = np.arange(1, n_features + 1, dtype=np.float64)
    q = ranks ** (-zipf_exponent)
    q /= q.sum()
    p = np.minimum(1.0, nnz_avg * q)
    if head_freq_cap is not None:
        p = np.minimum(p, float(head_freq_cap))
    # Hot features are assigned round-robin across lines (descending
    # popularity, stride n_lines): the handful of head features land on
    # distinct lines, which is both the expectation-typical outcome of
    # an arbitrary layout and what conflict-aware implementations
    # (feature padding) enforce deliberately.  A random fold would make
    # the hottest line an unlucky collision of several head features.
    pad = (-len(p)) % _PER_LINE
    if pad:
        p = np.concatenate([p, np.zeros(pad)])
    p = p.reshape(_PER_LINE, -1)  # row r = r-th popularity band
    line_f = 1.0 - np.prod(1.0 - p, axis=0)
    return LineStats(line_f)
