"""Fully-connected multi-layer perceptron (the paper's deep-net task).

Architectures follow Table I's notation, e.g. ``54-10-5-2``: input
width, hidden widths, and a 2-unit softmax output head (the binary
labels map to classes ``{-1 -> 0, +1 -> 1}``).  Hidden activations are
sigmoid — the classic fully-connected MLP of the backpropagation
literature the paper cites [4].

The traced forward/backward passes are expressed through the
instrumented GEMM/elementwise primitives, so a recorded epoch trace
reflects the paper's kernel structure: per-layer matrix products whose
*result sizes* stay tiny for Table I's architectures (at most 300x10),
which is what makes ViennaCL refuse to parallelise them and caps the
synchronous CPU speedup near 2x (Section IV-B, Fig. 6).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..linalg import dense_ops, sparse_ops
from ..linalg.csr import CSRMatrix
from ..utils.errors import ConfigurationError
from .base import ExampleUpdate, Matrix, Model
from .losses import softmax_cross_entropy, softmax_probs, stable_sigmoid

__all__ = ["MLP"]


class MLP(Model):
    """Fully-connected MLP with sigmoid hidden units and a softmax head.

    Parameters
    ----------
    arch:
        Layer widths ``(d_in, h_1, ..., h_k, 2)``.  The output layer
        must have exactly 2 units (binary classification, matching the
        paper's MLP architectures).
    l2:
        Optional ridge coefficient (paper: 0).
    """

    task = "mlp"

    def __init__(self, arch: Sequence[int], l2: float = 0.0) -> None:
        arch = tuple(int(a) for a in arch)
        if len(arch) < 2:
            raise ConfigurationError("MLP needs at least input and output layers")
        if any(a <= 0 for a in arch):
            raise ConfigurationError(f"layer widths must be positive: {arch}")
        if arch[-1] != 2:
            raise ConfigurationError(
                f"output layer must have 2 units (binary tasks), got {arch[-1]}"
            )
        if l2 < 0:
            raise ConfigurationError(f"l2 must be non-negative, got {l2}")
        self.arch = arch
        self.l2 = float(l2)
        self._shapes = [
            (arch[i], arch[i + 1]) for i in range(len(arch) - 1)
        ]
        self._sizes: list[int] = []
        for din, dout in self._shapes:
            self._sizes.append(din * dout)  # weight block
            self._sizes.append(dout)  # bias block
        self._offsets = np.concatenate([[0], np.cumsum(self._sizes)])

    # -- parameter layout -----------------------------------------------------

    @property
    def n_params(self) -> int:
        return int(self._offsets[-1])

    @property
    def n_layers(self) -> int:
        """Number of weight layers."""
        return len(self._shapes)

    def views(self, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Zero-copy ``(W, b)`` views per layer into the flat vector."""
        if params.shape != (self.n_params,):
            raise ConfigurationError(
                f"params shape {params.shape} != ({self.n_params},)"
            )
        out = []
        for layer, (din, dout) in enumerate(self._shapes):
            w_lo = self._offsets[2 * layer]
            b_lo = self._offsets[2 * layer + 1]
            b_hi = self._offsets[2 * layer + 2]
            W = params[w_lo:b_lo].reshape(din, dout)
            b = params[b_lo:b_hi]
            out.append((W, b))
        return out

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        """Xavier/Glorot initialisation; biases zero."""
        params = np.zeros(self.n_params)
        for layer, (din, dout) in enumerate(self._shapes):
            scale = np.sqrt(2.0 / (din + dout))
            w_lo = self._offsets[2 * layer]
            b_lo = self._offsets[2 * layer + 1]
            params[w_lo:b_lo] = scale * rng.standard_normal(din * dout)
        return params

    # -- forward / loss --------------------------------------------------------

    def _forward(self, X: Matrix, params: np.ndarray, traced: bool) -> list[np.ndarray]:
        """Return activations ``[A_0, ..., A_L]`` (A_L = logits)."""
        layers = self.views(params)
        if isinstance(X, CSRMatrix):
            acts: list = [X]
        else:
            acts = [np.asarray(X, dtype=np.float64)]
        a = acts[0]
        for li, (W, b) in enumerate(layers):
            last = li == len(layers) - 1
            if isinstance(a, CSRMatrix):
                z = (
                    sparse_ops.csr_matmat(a, W, name=f"fwd_gemm_{li}")
                    if traced
                    else a.matmat(W)
                )
            else:
                z = dense_ops.gemm(a, W, name=f"fwd_gemm_{li}") if traced else a @ W
            z = z + b[None, :]
            if last:
                a = z
            else:
                a = (
                    dense_ops.sigmoid(z, name=f"fwd_sigmoid_{li}")
                    if traced
                    else stable_sigmoid(z)
                )
            acts.append(a)
        return acts

    def predict_margin(self, X: Matrix, params: np.ndarray) -> np.ndarray:
        logits = self._forward(X, params, traced=False)[-1]
        return logits[:, 1] - logits[:, 0]

    def loss(self, X: Matrix, y: np.ndarray, params: np.ndarray) -> float:
        return self._objective(self._forward(X, params, traced=False)[-1], y, params)

    def _objective(
        self, logits: np.ndarray, y: np.ndarray, params: np.ndarray
    ) -> float:
        """Mean cross-entropy of the forward pass's *logits*."""
        classes = (np.asarray(y) > 0).astype(np.int64)
        value = float(np.mean(softmax_cross_entropy(logits, classes)))
        if self.l2:
            value += 0.5 * self.l2 * float(params @ params)
        return value

    # -- gradients --------------------------------------------------------------

    def full_grad(self, X: Matrix, y: np.ndarray, params: np.ndarray) -> np.ndarray:
        return self._grad(X, y, params, traced=True)[1]

    def loss_and_grad(
        self, X: Matrix, y: np.ndarray, params: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """The loss is taken from the gradient's own forward pass."""
        logits, grad = self._grad(X, y, params, traced=True)
        return self._objective(logits, y, params), grad

    def minibatch_grad(
        self, X: Matrix, y: np.ndarray, rows: np.ndarray, params: np.ndarray
    ) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        if isinstance(X, CSRMatrix):
            Xb: Matrix = X.take_rows(rows)
        else:
            Xb = np.ascontiguousarray(np.asarray(X)[rows])
        return self._grad(Xb, np.asarray(y)[rows], params, traced=True)[1]

    def _grad(
        self, X: Matrix, y: np.ndarray, params: np.ndarray, traced: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Backpropagation: ``(logits, flat mean gradient)``."""
        n = X.shape[0]
        acts = self._forward(X, params, traced)
        logits = acts[-1]
        classes = (np.asarray(y) > 0).astype(np.int64)
        probs = softmax_probs(logits)
        delta = probs
        delta[np.arange(n), classes] -= 1.0
        delta /= max(1, n)

        layers = self.views(params)
        grad = np.zeros(self.n_params)
        gviews = self.views(grad)
        for li in range(len(layers) - 1, -1, -1):
            a_prev = acts[li]
            Wg, bg = gviews[li]
            if isinstance(a_prev, CSRMatrix):
                # dW = a_prev^T @ delta via the transposed SpMV per column.
                if traced:
                    for c in range(delta.shape[1]):
                        Wg[:, c] = sparse_ops.csr_rmatvec(
                            a_prev, np.ascontiguousarray(delta[:, c]), name=f"bwd_dw_{li}"
                        )
                else:
                    for c in range(delta.shape[1]):
                        Wg[:, c] = a_prev.rmatvec(np.ascontiguousarray(delta[:, c]))
            else:
                aT = np.ascontiguousarray(a_prev.T)
                # Weight-gradient GEMM: the result is d_in x d_out and its
                # row-parallelism is a *model* dimension — this is the op
                # ViennaCL keeps serial for the paper's architectures.
                Wg[:] = (
                    dense_ops.gemm(
                        aT, delta, name=f"bwd_dw_{li}", parallelism_scales=False
                    )
                    if traced
                    else aT @ delta
                )
            bg[:] = (
                dense_ops.reduce_sum(delta, axis=0, name=f"bwd_db_{li}")
                if traced
                else delta.sum(axis=0)
            )
            if li > 0:
                W, _ = layers[li]
                WT = np.ascontiguousarray(W.T)
                back = (
                    dense_ops.gemm(delta, WT, name=f"bwd_dx_{li}")
                    if traced
                    else delta @ WT
                )
                a = acts[li]
                if traced:
                    delta = dense_ops.elementwise(
                        lambda _m, _back=back, _a=a: _back * _a * (1.0 - _a),
                        back,
                        name=f"bwd_dsigmoid_{li}",
                        flops_per_element=3.0,
                    )
                else:
                    delta = back * a * (1.0 - a)
        if self.l2:
            grad += self.l2 * params
        return logits, grad

    def example_updates(
        self,
        X: Matrix,
        y: np.ndarray,
        rows: np.ndarray,
        params: np.ndarray,
        step: float,
    ) -> Sequence[ExampleUpdate]:
        """Per-example dense deltas (each touches every parameter).

        The paper never runs per-example Hogwild for MLP (it uses
        Hogbatch with B=512); this method exists for completeness and
        for the library's ablation experiments.
        """
        rows = np.asarray(rows, dtype=np.int64)
        out: list[ExampleUpdate] = []
        for r in rows:
            g = self._grad(
                _take_rows(X, np.asarray([r])), np.asarray(y)[[r]], params, traced=False
            )[1]
            out.append((None, -step * g))
        return out

    def flops_per_example(self, avg_nnz: float) -> float:
        """Forward + backward: ~6 flops per weight, first layer sparse-aware."""
        total = 0.0
        for li, (din, dout) in enumerate(self._shapes):
            eff_in = min(avg_nnz, din) if li == 0 else din
            total += 6.0 * eff_in * dout + 8.0 * dout
        return total


def _take_rows(X: Matrix, rows: np.ndarray) -> Matrix:
    if isinstance(X, CSRMatrix):
        return X.take_rows(rows)
    return np.ascontiguousarray(np.asarray(X)[rows])
