"""Generalised linear models: logistic regression and linear SVM.

Both tasks share the structure ``loss_i = f(y_i * (x_i . w))`` with a
scalar link derivative, so a common base class implements the traced
gradient plumbing; the subclasses supply ``f`` and ``f'``.  Gradients:

    dL_i/dw = y_i * f'(y_i * m_i) * x_i,   m_i = x_i . w

The dense path uses GEMV/transposed-GEMV primitives; the sparse path
uses CSR SpMV — exactly the kernel inventory the paper's synchronous
implementation draws from ViennaCL.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from ..linalg import dense_ops, sparse_ops
from ..linalg.csr import CSRMatrix
from ..utils.errors import ConfigurationError
from .base import ExampleUpdate, Matrix, Model
from .losses import hinge_dmargin, hinge_loss, logistic_dmargin, logistic_loss

__all__ = ["LinearModel", "LogisticRegression", "LinearSVM", "RowChunk"]


class RowChunk(NamedTuple):
    """Labels and rows of an epoch order, gathered once for many rounds.

    Dense data keeps its rows in ``X``.  CSR data keeps the rows'
    segments: ``indices`` (``intp``) and ``data`` concatenated in row
    order, the row bounds ``bounds`` into them (a list, so a round's
    slice costs no NumPy call), the same bounds' starts and lengths as
    arrays, and the mask of non-empty rows (``None`` when every row has
    a non-zero).
    """

    y: np.ndarray
    X: np.ndarray | None
    bounds: list[int] | None = None
    starts: np.ndarray | None = None
    counts: np.ndarray | None = None
    nonempty: np.ndarray | None = None
    indices: np.ndarray | None = None
    data: np.ndarray | None = None


class LinearModel(Model):
    """Shared machinery for margin-based linear classifiers.

    Parameters
    ----------
    n_features:
        Input dimensionality (= parameter count; the paper's tasks are
        trained without an intercept).
    l2:
        Optional ridge coefficient.  The paper uses 0; the library
        exposes it for downstream users.
    """

    def __init__(self, n_features: int, l2: float = 0.0) -> None:
        if n_features <= 0:
            raise ConfigurationError(f"n_features must be positive, got {n_features}")
        if l2 < 0:
            raise ConfigurationError(f"l2 must be non-negative, got {l2}")
        self.n_features = int(n_features)
        self.l2 = float(l2)

    # subclasses provide the margin loss and its derivative -----------------

    @staticmethod
    def _loss_fn(margins: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def _dmargin_fn(margins: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def _dmargin_scalar(margin: float) -> float:
        raise NotImplementedError

    # -- Model interface ------------------------------------------------------

    @property
    def n_params(self) -> int:
        return self.n_features

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        """Small random init (zero init would make SVM subgradients tie)."""
        return 0.01 * rng.standard_normal(self.n_features)

    def predict_margin(self, X: Matrix, params: np.ndarray) -> np.ndarray:
        self._check_params(params)
        if isinstance(X, CSRMatrix):
            return X.matvec(params)
        return np.asarray(X, dtype=np.float64) @ params

    def loss(self, X: Matrix, y: np.ndarray, params: np.ndarray) -> float:
        return self._objective(self.predict_margin(X, params) * y, params)

    def full_grad(self, X: Matrix, y: np.ndarray, params: np.ndarray) -> np.ndarray:
        return self._grad(X, y, params, scale=1.0 / X.shape[0])[1]

    def loss_and_grad(
        self, X: Matrix, y: np.ndarray, params: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """The loss is taken from the gradient's own margins."""
        ym, grad = self._grad(X, y, params, scale=1.0 / X.shape[0])
        return self._objective(ym, params), grad

    def _objective(self, ym: np.ndarray, params: np.ndarray) -> float:
        """Mean loss from the label-signed margins ``y * (X @ params)``."""
        value = float(np.mean(self._loss_fn(ym)))
        if self.l2:
            value += 0.5 * self.l2 * float(params @ params)
        return value

    def minibatch_grad(
        self, X: Matrix, y: np.ndarray, rows: np.ndarray, params: np.ndarray
    ) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        if isinstance(X, CSRMatrix):
            Xb = X.take_rows(rows)
        else:
            Xb = np.ascontiguousarray(X[rows])
        return self._grad(Xb, y[rows], params, scale=1.0 / max(1, rows.size))[1]

    def _grad(
        self, X: Matrix, y: np.ndarray, params: np.ndarray, scale: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Traced mean gradient: margins -> link derivative -> X^T coef.

        Returns ``(y * margins, gradient)``; the signed margins give the
        loss at the same parameters without a second forward pass.
        """
        self._check_params(params)
        if isinstance(X, CSRMatrix):
            margins = sparse_ops.csr_matvec(X, params, name="margins")
        else:
            margins = dense_ops.gemv(X, params, name="margins")
        ym = dense_ops.elementwise(
            lambda m: y * m, margins, name="label_margin", flops_per_element=1.0
        )
        coef = dense_ops.elementwise(
            lambda m: y * self._dmargin_fn(m) * scale,
            ym,
            name="link_derivative",
            flops_per_element=3.0,
        )
        if isinstance(X, CSRMatrix):
            grad = sparse_ops.csr_rmatvec(X, coef, name="grad_accum")
        else:
            # The transposed product parallelises over the d output
            # coordinates — a model dimension, not an example one.
            grad = dense_ops.rgemv(
                X, coef, name="grad_accum", parallelism_scales=False
            )
        if self.l2:
            grad = dense_ops.axpy(
                self.l2,
                params,
                grad,
                name="l2_term",
                cost_scales=False,
                parallelism_scales=False,
            )
        return ym, grad

    def example_updates(
        self,
        X: Matrix,
        y: np.ndarray,
        rows: np.ndarray,
        params: np.ndarray,
        step: float,
    ) -> Sequence[ExampleUpdate]:
        """Per-example deltas ``-step * grad_i`` at the snapshot *params*.

        Vectorised: all margins for the batch are computed at once, then
        each example's delta is its row scaled by the link derivative.
        Sparse rows return their coordinate lists (the Hogwild conflict
        footprint); dense rows (and L2-regularised sparse ones) return
        full-width deltas, views of :meth:`batched_updates`' matrix.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if not isinstance(X, CSRMatrix) or self.l2:
            _, deltas = self.batched_updates(X, y, rows, params, step)
            return [(None, delta) for delta in deltas]
        self._check_params(params)
        Xb = X.take_rows(rows)
        margins = Xb.matvec(params)
        coef = y[rows] * self._dmargin_fn(y[rows] * margins)
        out: list[ExampleUpdate] = []
        for i in range(rows.size):
            idx, val = Xb.row(i)
            out.append((idx, -step * coef[i] * val))
        return out

    def batched_updates(
        self,
        X: Matrix,
        y: np.ndarray,
        rows: np.ndarray,
        params: np.ndarray,
        step: float,
    ) -> ExampleUpdate:
        """All of :meth:`example_updates` as one flat batch, in row order.

        Sparse data returns the concatenated ``(indices, values)`` of
        every row's delta — a single ``np.add.at`` over them applies the
        round's updates bit-identically to the per-example loop (the
        scatter accumulates element-by-element in order).  Dense data
        (and the L2-regularised sparse case, whose deltas are dense)
        returns ``(None, deltas)`` with one delta row per example.

        :meth:`gather_rows` followed by :meth:`round_updates` over all
        of *rows*; the asynchronous engine calls the two itself so that
        one gather serves many rounds.
        """
        rows = np.asarray(rows, dtype=np.int64)
        return self.round_updates(
            self.gather_rows(X, y, rows), 0, rows.size, params, step
        )

    def gather_rows(self, X: Matrix, y: np.ndarray, rows: np.ndarray) -> "RowChunk":
        """Copy the labels and rows of *rows*, in order, for :meth:`round_updates`."""
        rows = np.asarray(rows, dtype=np.int64)
        if isinstance(X, CSRMatrix):
            indptr, indices, data, _ = X.gather_rows_arrays(rows)
            counts = np.diff(indptr)
            nonempty = counts > 0
            return RowChunk(
                y=y[rows],
                X=None,
                bounds=indptr.tolist(),
                starts=indptr[:-1],
                counts=counts,
                nonempty=None if nonempty.all() else nonempty,
                indices=indices.astype(np.intp),
                data=data,
            )
        return RowChunk(y=y[rows], X=np.asarray(X, dtype=np.float64)[rows])

    def round_updates(
        self, chunk: "RowChunk", lo: int, hi: int, params: np.ndarray, step: float
    ) -> ExampleUpdate:
        """:meth:`batched_updates` for rows ``lo:hi`` of a gathered chunk."""
        self._check_params(params)
        yb = chunk.y[lo:hi]
        if chunk.X is not None:
            Xb = chunk.X[lo:hi]
            coef = yb * self._dmargin_fn(yb * (Xb @ params))
            deltas = dense_ops.batch_sgd_deltas(Xb, coef, step, name="example_deltas")
            if self.l2:
                deltas -= step * self.l2 * params[None, :]
            return None, deltas
        a, b = chunk.bounds[lo], chunk.bounds[hi]
        indices, data = chunk.indices[a:b], chunk.data[a:b]
        if self.l2:
            indptr = np.asarray(chunk.bounds[lo : hi + 1], dtype=np.int64) - a
            shape = (hi - lo, self.n_features)
            Xb = CSRMatrix(indptr, indices, data, shape, check=False)
            coef = yb * self._dmargin_fn(yb * Xb.matvec(params))
            # With L2 the update is dense; the paper's tasks use l2=0.
            return None, -step * (coef[:, None] * Xb.to_dense() + self.l2 * params)
        margins = np.zeros(hi - lo, dtype=np.float64)
        if b > a:
            prod = data * params[indices]
            if chunk.nonempty is None:
                margins = np.add.reduceat(prod, chunk.starts[lo:hi] - a)
            else:
                nonempty = chunk.nonempty[lo:hi]
                margins[nonempty] = np.add.reduceat(
                    prod, chunk.starts[lo:hi][nonempty] - a
                )
        coef = yb * self._dmargin_fn(yb * margins)
        return indices, (-step * np.repeat(coef, chunk.counts[lo:hi])) * data

    def serial_sgd_epoch(
        self,
        X: Matrix,
        y: np.ndarray,
        order: np.ndarray,
        params: np.ndarray,
        step: float,
    ) -> None:
        """Exact sequential incremental SGD epoch, in place (Algorithm 3).

        The asynchronous engine uses this fast path for concurrency 1;
        it is numerically identical to ``example_updates`` applied one
        row at a time (asserted by the test suite) but avoids the
        per-row dispatch overhead of the generic path.  The per-example
        scalars (row bounds, label) are gathered for the whole *order*
        up front as Python values, not NumPy scalars, and the dot
        product is ``ndarray.dot`` (the same BLAS ``ddot`` as 1-D ``@``
        at a fraction of the call cost); a sparse row's coordinates are
        read once and that read is reused for the write.
        ``tests/models/test_serial_oracle.py`` holds the result bit for
        bit to the plain loop.
        """
        self._check_params(params)
        dmargin = self._dmargin_scalar
        l2 = self.l2
        labels = y[order].tolist()
        if isinstance(X, CSRMatrix):
            indptr, indices, data = X.indptr, X.indices, X.data
            take, put = params.take, params.put
            bounds = zip(indptr[order].tolist(), indptr[order + 1].tolist())
            for (lo, hi), yi in zip(bounds, labels):
                if lo == hi:
                    if l2:
                        params -= (step * l2) * params
                    continue
                idx = indices[lo:hi]
                val = data[lo:hi]
                read = take(idx)
                coef = yi * dmargin(yi * val.dot(read))
                if l2:
                    params -= (step * l2) * params
                    read = take(idx)
                if coef != 0.0:
                    put(idx, read - (step * coef) * val)
            return
        Xd = np.asarray(X, dtype=np.float64)
        for i, yi in zip(order.tolist(), labels):
            xi = Xd[i]
            coef = yi * dmargin(yi * xi.dot(params))
            if l2:
                params -= (step * l2) * params
            if coef != 0.0:
                params -= (step * coef) * xi

    def flops_per_example(self, avg_nnz: float) -> float:
        """Dot product + scale + scatter: ~4 flops per non-zero."""
        return 4.0 * avg_nnz + 8.0

    def _check_params(self, params: np.ndarray) -> None:
        if params.shape != (self.n_features,):
            raise ConfigurationError(
                f"params shape {params.shape} != ({self.n_features},)"
            )


class LogisticRegression(LinearModel):
    """Binary logistic regression: ``f(m) = log(1 + exp(-m))``."""

    task = "lr"
    _loss_fn = staticmethod(logistic_loss)
    _dmargin_fn = staticmethod(logistic_dmargin)

    @staticmethod
    def _dmargin_scalar(margin: float) -> float:
        # -sigmoid(-m) == -1 / (1 + exp(m)), computed overflow-safe:
        # the exponential's argument is kept non-positive on each branch.
        m = float(margin)
        if m >= 0:
            e = math.exp(-m)
            return -e / (1.0 + e)
        return -1.0 / (1.0 + math.exp(m))


class LinearSVM(LinearModel):
    """Linear support vector machine with hinge loss: ``f(m) = max(0, 1-m)``.

    Trained by (sub)gradient descent, matching the paper's unregularised
    SVM objective.
    """

    task = "svm"
    _loss_fn = staticmethod(hinge_loss)
    _dmargin_fn = staticmethod(hinge_dmargin)

    @staticmethod
    def _dmargin_scalar(margin: float) -> float:
        return -1.0 if margin < 1.0 else 0.0
