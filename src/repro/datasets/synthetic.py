"""Synthetic dataset generation matched to a :class:`DatasetProfile`.

The generators produce learnable binary-classification data whose
*structural statistics* match the profile:

* **Sparse** datasets draw feature occurrences from a Zipf popularity
  distribution (text corpora like rcv1/news are strongly power-law),
  with per-example nnz counts from a clipped log-normal whose mean and
  max/mean dispersion match Table I.  Values are positive tf-idf-like
  magnitudes, row-normalised so the examples have comparable norms.
* **Dense** datasets (covtype) mix standardised continuous features with
  binary indicator blocks, mimicking covtype's 10 quantitative + 44
  one-hot columns.

Labels come from a ground-truth hyperplane over the generated features
plus sign-flip noise, so the convex tasks (LR/SVM) have a well-defined
optimum the convergence protocol can target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from ..linalg.csr import CSRMatrix
from ..utils.errors import ConfigurationError
from ..utils.rng import derive_rng
from .profiles import DatasetProfile

__all__ = ["Dataset", "generate", "generate_sparse", "generate_dense"]

Matrix = Union[np.ndarray, CSRMatrix]


@dataclass
class Dataset:
    """A generated (or loaded) training set.

    Attributes
    ----------
    name:
        Dataset name (profile name, possibly suffixed by the scale).
    X:
        Feature matrix — :class:`CSRMatrix` for sparse datasets, a dense
        C-contiguous float64 ndarray for dense ones.
    y:
        Labels in {-1.0, +1.0}.
    profile:
        The (possibly scaled) profile the data was generated from.
    """

    name: str
    X: Matrix
    y: np.ndarray
    profile: DatasetProfile
    _dense_cache: np.ndarray | None = field(default=None, repr=False, compare=False)
    #: GPU warp-divergence factor of the row lengths, memoised by
    #: :meth:`repro.hardware.AsyncWorkload.for_linear`.
    _warp_divergence: float | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.X.shape[0]
        if self.y.shape != (n,):
            raise ConfigurationError(
                f"labels shape {self.y.shape} inconsistent with X rows {n}"
            )

    @property
    def n_examples(self) -> int:
        """Number of training examples."""
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        """Number of features."""
        return self.X.shape[1]

    @property
    def is_sparse(self) -> bool:
        """True when X is stored in CSR format."""
        return isinstance(self.X, CSRMatrix)

    @property
    def nnz(self) -> int:
        """Stored non-zeros (``n*d`` for dense)."""
        if self.is_sparse:
            return self.X.nnz
        return int(self.X.size)

    @property
    def density(self) -> float:
        """Fraction of non-zero cells."""
        if self.is_sparse:
            return self.X.density
        return float(np.count_nonzero(self.X)) / max(1, self.X.size)

    def to_dense(self) -> np.ndarray:
        """Dense float64 view of X (cached; raises for huge matrices)."""
        if not self.is_sparse:
            return self.X
        if self._dense_cache is None:
            cells = self.n_examples * self.n_features
            if cells > 200_000_000:
                raise ConfigurationError(
                    f"dense representation would need {cells} cells; "
                    "use a smaller scale (the paper likewise could not "
                    "densify rcv1/news, Table I)"
                )
            self._dense_cache = self.X.to_dense()
        return self._dense_cache

    def as_csr(self) -> CSRMatrix:
        """CSR view of X (converts dense datasets)."""
        if self.is_sparse:
            return self.X
        return CSRMatrix.from_dense(self.X)

    def summary(self) -> dict[str, float]:
        """Table I-style statistics of the realised data."""
        if self.is_sparse:
            row_nnz = self.X.row_nnz
        else:
            row_nnz = np.count_nonzero(self.X, axis=1)
        return {
            "n_examples": float(self.n_examples),
            "n_features": float(self.n_features),
            "nnz_min": float(row_nnz.min()) if row_nnz.size else 0.0,
            "nnz_avg": float(row_nnz.mean()) if row_nnz.size else 0.0,
            "nnz_max": float(row_nnz.max()) if row_nnz.size else 0.0,
            "sparsity_pct": 100.0 * self.density,
            "positive_fraction": float(np.mean(self.y > 0)),
        }


# ---------------------------------------------------------------------------


def _zipf_popularity(d: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Zipf feature-occurrence probabilities, shuffled over column ids.

    Shuffling matters: real feature files do not sort columns by
    frequency, so hot features land on scattered cache lines — the
    coherence model measures conflicts from the realised layout.
    """
    ranks = np.arange(1, d + 1, dtype=np.float64)
    p = ranks ** (-exponent)
    p /= p.sum()
    rng.shuffle(p)
    return p


def _sample_row_nnz(profile: DatasetProfile, n: int, rng: np.random.Generator) -> np.ndarray:
    """Per-example nnz counts matching the profile's min/avg/max.

    A log-normal matches the heavy upper tail of document lengths; sigma
    is chosen so the distribution's max over *n* draws lands near the
    profile's nnz_max, then counts are clipped into [min, max].
    """
    avg = max(profile.nnz_avg, 1.0)
    disp = max(profile.nnz_dispersion, 1.0)
    if disp <= 1.0 + 1e-9:
        counts = np.full(n, int(round(avg)), dtype=np.int64)
    else:
        # max of n lognormal draws ~ exp(mu + sigma * sqrt(2 ln n));
        # solve for sigma so that max/mean ~ disp.
        z = np.sqrt(2.0 * np.log(max(n, 2)))
        sigma = min(2.0, np.log(disp) / z + 0.25)
        mu = np.log(avg) - 0.5 * sigma**2
        counts = np.round(rng.lognormal(mu, sigma, size=n)).astype(np.int64)
    lo = max(profile.nnz_min, 0)
    hi = min(profile.nnz_max, profile.n_features)
    counts = np.clip(counts, lo, hi)
    # Guarantee the extremes appear so the realised dispersion matches.
    if n >= 2 and hi > lo:
        counts[rng.integers(n)] = hi
        counts[rng.integers(n)] = max(lo, 1) if lo > 0 else lo
    return counts


def generate_sparse(
    profile: DatasetProfile, seed: int | None = None
) -> Dataset:
    """Generate a sparse CSR dataset matching *profile*."""
    n, d = profile.n_examples, profile.n_features
    rng = derive_rng(seed, f"dataset/{profile.name}/structure")
    val_rng = derive_rng(seed, f"dataset/{profile.name}/values")
    lab_rng = derive_rng(seed, f"dataset/{profile.name}/labels")

    popularity = _zipf_popularity(d, profile.zipf_exponent, rng)
    counts = _sample_row_nnz(profile, n, rng)

    # Draw with replacement (fast) then dedupe per row; low densities make
    # collisions rare, and we top up short rows from a uniform pool.
    slack = np.maximum(counts + 4, (counts * 1.3).astype(np.int64))
    total = int(slack.sum())
    draws = rng.choice(d, size=total, replace=True, p=popularity)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(slack, out=offsets[1:])

    indptr = np.zeros(n + 1, dtype=np.int64)
    rows_idx: list[np.ndarray] = []
    for i in range(n):
        want = int(counts[i])
        if want == 0:
            rows_idx.append(np.empty(0, dtype=np.int64))
            continue
        uniq = np.unique(draws[offsets[i] : offsets[i + 1]])
        if uniq.size >= want:
            # Keep a popularity-weighted subset: the first draws are
            # already popularity-weighted, so take the unique values of
            # the first `want`-ish draws.
            uniq = np.unique(draws[offsets[i] : offsets[i] + want])
        rows_idx.append(uniq.astype(np.int64))
        indptr[i + 1] = uniq.size
    np.cumsum(indptr[1:], out=indptr[1:])

    nnz = int(indptr[-1])
    indices = np.concatenate(rows_idx) if rows_idx else np.empty(0, dtype=np.int64)
    # tf-idf magnitudes: a lognormal term frequency scaled by the inverse
    # document frequency of the feature.  The paper's text datasets
    # (real-sim, rcv1, news20) are distributed tf-idf weighted; the idf
    # factor also keeps the Hessian reasonably conditioned (hot features
    # would otherwise dominate the spectrum and stall batch GD).
    data = val_rng.lognormal(mean=0.0, sigma=0.4, size=nnz)
    if nnz:
        doc_freq = np.minimum(1.0, np.maximum(popularity * max(counts.mean(), 1.0), 1.0 / n))
        data *= np.log1p(1.0 / doc_freq[indices])
    X = CSRMatrix(indptr, indices.astype(np.int32), data, (n, d), check=False)
    row_norms = np.sqrt(np.maximum(_row_sq_norms(X), 1e-12))
    X = CSRMatrix(
        X.indptr,
        X.indices,
        X.data / np.repeat(row_norms, X.row_nnz),
        (n, d),
        check=False,
    )

    y = _labels_from_hyperplane(X, profile, lab_rng)
    return Dataset(name=profile.name, X=X, y=y, profile=profile)


def _row_sq_norms(X: CSRMatrix) -> np.ndarray:
    sq = X.data * X.data
    out = np.zeros(X.n_rows)
    nonempty = X.row_nnz > 0
    if np.any(nonempty):
        out[nonempty] = np.add.reduceat(sq, X.indptr[:-1][nonempty])
    return out


def generate_dense(profile: DatasetProfile, seed: int | None = None) -> Dataset:
    """Generate a dense dataset matching *profile* (covtype-like).

    Roughly the first fifth of the columns are continuous standardised
    measurements; the remainder are {0,1} indicators with a small
    positive rate jittered per column, echoing covtype's soil-type /
    wilderness-area one-hot blocks.  Indicator columns are offset by a
    tiny epsilon so the matrix is *fully* dense, matching covtype's
    100% sparsity entry in Table I.
    """
    n, d = profile.n_examples, profile.n_features
    rng = derive_rng(seed, f"dataset/{profile.name}/dense")
    lab_rng = derive_rng(seed, f"dataset/{profile.name}/labels")

    n_cont = max(1, d // 5)
    X = np.empty((n, d), dtype=np.float64)
    X[:, :n_cont] = rng.standard_normal((n, n_cont))
    rates = rng.uniform(0.02, 0.3, size=d - n_cont)
    X[:, n_cont:] = (rng.random((n, d - n_cont)) < rates).astype(np.float64)
    # covtype is declared 100% dense: indicators carry a baseline value.
    X[:, n_cont:] = X[:, n_cont:] * 0.9 + 0.1
    X /= np.sqrt(d)  # comparable example norms across dimensionalities

    Xc = CSRMatrix.from_dense(X)
    y = _labels_from_hyperplane(Xc, profile, lab_rng)
    return Dataset(name=profile.name, X=np.ascontiguousarray(X), y=y, profile=profile)


def _labels_from_hyperplane(
    X: CSRMatrix, profile: DatasetProfile, rng: np.random.Generator
) -> np.ndarray:
    """Balanced, noisy labels from a random ground-truth hyperplane.

    The hyperplane is *block-constant* over the contiguous feature
    groups the MLP transform will average (topic-like structure:
    adjacent features share a latent direction).  This makes the same
    labels learnable from both views — the raw features (LR/SVM) and
    the grouped features (MLP) — as they are for the paper's real
    datasets, where all three tasks converge on every dataset.
    """
    n_groups = max(1, min(profile.mlp_input_width, X.n_cols))
    edges = np.linspace(0, X.n_cols, n_groups + 1).astype(np.int64)
    group_values = rng.standard_normal(n_groups)
    w_star = np.repeat(group_values, np.diff(edges))
    margin = X.matvec(w_star)
    # Rank-based split: exactly half the examples positive even when
    # margins tie (rows with identical sparsity patterns are common at
    # small scales).  Ties are broken by a deterministic jitter so the
    # boundary is not degenerate.
    jitter = rng.normal(scale=1e-9, size=X.n_rows)
    order = np.argsort(margin + jitter, kind="stable")
    y = np.empty(X.n_rows, dtype=np.float64)
    y[order[: X.n_rows // 2]] = -1.0
    y[order[X.n_rows // 2 :]] = 1.0
    flips = rng.random(X.n_rows) < profile.label_noise
    y[flips] *= -1.0
    # Avoid degenerate single-class sets on tiny samples.
    if np.all(y == y[0]) and y.size > 1:
        y[: y.size // 2] *= -1.0
    return y


def generate(profile: DatasetProfile, seed: int | None = None) -> Dataset:
    """Generate a dataset of the kind (dense/sparse) the profile declares."""
    if profile.dense:
        return generate_dense(profile, seed)
    return generate_sparse(profile, seed)
