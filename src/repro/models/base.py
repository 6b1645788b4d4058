"""Model interface shared by LR, SVM and MLP.

The SGD runners interact with models through five operations:

* :meth:`Model.loss` — mean objective value.  Never traced: the paper
  excludes loss evaluation from iteration timing.
* :meth:`Model.full_grad` — the exact mean gradient over the whole
  training set, computed through the instrumented linalg primitives so
  a recorded trace captures the synchronous epoch's hardware work
  (Algorithm 2, Batch SGD Optimization Epoch).
* :meth:`Model.loss_and_grad` — both of the above at one parameter
  vector; models that can take the loss from the gradient's own
  forward pass override it, so a synchronous epoch runs one forward.
* :meth:`Model.minibatch_grad` — mean gradient over a row subset
  (mini-batch sync SGD and Hogbatch building block).
* :meth:`Model.example_updates` — the list of per-example SGD deltas
  evaluated at a *snapshot* of the parameters (Algorithm 3, Incremental
  SGD Optimization Epoch).  The asynchronous engine feeds these to its
  interleaving schedule; the sparse coordinate lists double as the
  conflict footprint for the coherence model.

Parameters are always a flat float64 vector so the asynchronous engine
can treat every model uniformly.
"""

from __future__ import annotations

import abc
from typing import Sequence, Union

import numpy as np

from ..linalg.csr import CSRMatrix

__all__ = ["Model", "ExampleUpdate", "Matrix"]

Matrix = Union[np.ndarray, CSRMatrix]

#: One example's SGD delta: ``(indices, values)`` to scatter-add into the
#: flat parameter vector, or ``(None, dense_delta)`` when the update
#: touches every coordinate (MLP batches).
ExampleUpdate = tuple[np.ndarray | None, np.ndarray]


class Model(abc.ABC):
    """Abstract trainable model over a flat parameter vector."""

    #: Human-readable task name ("lr", "svm", "mlp").
    task: str = "model"

    @property
    @abc.abstractmethod
    def n_params(self) -> int:
        """Length of the flat parameter vector."""

    @abc.abstractmethod
    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        """Draw an initial parameter vector.

        The experiment harness calls this once per (task, dataset) and
        shares the result across all configurations, matching the
        paper's same-initialisation methodology.
        """

    @abc.abstractmethod
    def loss(self, X: Matrix, y: np.ndarray, params: np.ndarray) -> float:
        """Mean loss over the dataset (not traced)."""

    @abc.abstractmethod
    def full_grad(self, X: Matrix, y: np.ndarray, params: np.ndarray) -> np.ndarray:
        """Exact mean gradient over all examples (traced)."""

    def loss_and_grad(
        self, X: Matrix, y: np.ndarray, params: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """``(loss, full_grad)`` at *params*; only the gradient is traced.

        Each value is bit-identical to its own method's.  The default
        calls the two methods; overrides share one forward pass.
        """
        return self.loss(X, y, params), self.full_grad(X, y, params)

    @abc.abstractmethod
    def minibatch_grad(
        self, X: Matrix, y: np.ndarray, rows: np.ndarray, params: np.ndarray
    ) -> np.ndarray:
        """Mean gradient over the given rows (traced)."""

    @abc.abstractmethod
    def example_updates(
        self,
        X: Matrix,
        y: np.ndarray,
        rows: np.ndarray,
        params: np.ndarray,
        step: float,
    ) -> Sequence[ExampleUpdate]:
        """Per-example SGD deltas ``-step * grad_i`` at a parameter snapshot.

        Every returned update is computed from the *same* ``params``
        value; the asynchronous engine decides the order (and overlap)
        in which they are applied.
        """

    @abc.abstractmethod
    def predict_margin(self, X: Matrix, params: np.ndarray) -> np.ndarray:
        """Decision values; ``sign`` of them is the class prediction."""

    def batch_update(
        self,
        X: Matrix,
        y: np.ndarray,
        rows: np.ndarray,
        params: np.ndarray,
        step: float,
    ) -> ExampleUpdate:
        """One mini-batch SGD delta at a snapshot (Hogbatch work item).

        Hogbatch [Sallinen et al., IPDPS 2016] runs Hogwild at batch
        granularity: each logical thread repeatedly grabs a batch,
        computes its gradient against the current (possibly stale)
        model, and applies a single dense update.  The default
        implementation derives it from :meth:`minibatch_grad`.
        """
        grad = self.minibatch_grad(X, y, rows, params)
        return (None, -step * grad)

    # -- conveniences ---------------------------------------------------------

    def accuracy(self, X: Matrix, y: np.ndarray, params: np.ndarray) -> float:
        """Fraction of correctly classified examples."""
        margins = self.predict_margin(X, params)
        pred = np.where(margins >= 0, 1.0, -1.0)
        return float(np.mean(pred == y))

    #: Estimated flops to process one example (forward + backward); the
    #: asynchronous hardware model uses this for per-step compute cost.
    def flops_per_example(self, avg_nnz: float) -> float:
        """Approximate flops per incremental-SGD step (default: linear)."""
        return 4.0 * avg_nnz

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n_params={self.n_params})"
