"""Instrumented dense primitives (the ViennaCL-style unified kernel API).

Each function performs the numerical operation with NumPy and records an
:class:`~repro.linalg.trace.OpRecord` describing its abstract cost.  The
synchronous SGD runners are written exclusively against this API (and
its sparse sibling), mirroring how the paper's synchronous implementation
is "a sequence of primitive linear algebra function invocations"
(Section III-A) whose backend — CPU threads or GPU kernels — is selected
at costing time, not at call time.

Byte accounting counts each operand once at float64 width; the cache
model in :mod:`repro.hardware` decides which accesses hit which level.
"""

from __future__ import annotations

import numpy as np

from ..models.losses import stable_sigmoid
from .trace import OpKind, OpRecord, record_op

__all__ = [
    "gemm",
    "gemv",
    "rgemv",
    "axpy",
    "scale",
    "elementwise",
    "sigmoid",
    "reduce_sum",
    "reduce_mean",
    "outer_update",
    "batch_sgd_deltas",
]

_F64 = 8


def gemm(
    A: np.ndarray,
    B: np.ndarray,
    name: str = "gemm",
    cost_scales: bool = True,
    parallelism_scales: bool = True,
) -> np.ndarray:
    """Matrix product ``A @ B`` with cost recording.

    flops = 2·m·n·k; the available parallelism is the number of result
    rows (row-blocked GEMM), and ``result_size`` feeds the ViennaCL
    minimum-size parallelisation policy.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    m, k = A.shape
    k2, n = B.shape
    if k != k2:
        raise ValueError(f"gemm shape mismatch: {A.shape} @ {B.shape}")
    out = A @ B
    record_op(
        OpRecord(
            name=name,
            kind=OpKind.GEMM,
            flops=2.0 * m * n * k,
            bytes_read=(A.size + B.size) * _F64,
            bytes_written=out.size * _F64,
            parallel_tasks=max(1, m),
            result_size=out.size,
            cost_scales=cost_scales,
            parallelism_scales=parallelism_scales,
        )
    )
    return out


def gemv(
    A: np.ndarray,
    x: np.ndarray,
    name: str = "gemv",
    cost_scales: bool = True,
    parallelism_scales: bool = True,
) -> np.ndarray:
    """Matrix-vector product ``A @ x`` with cost recording."""
    A = np.asarray(A, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    m, k = A.shape
    if x.shape != (k,):
        raise ValueError(f"gemv shape mismatch: {A.shape} @ {x.shape}")
    out = A @ x
    record_op(
        OpRecord(
            name=name,
            kind=OpKind.GEMV,
            flops=2.0 * m * k,
            bytes_read=(A.size + x.size) * _F64,
            bytes_written=out.size * _F64,
            parallel_tasks=max(1, m),
            result_size=out.size,
            cost_scales=cost_scales,
            parallelism_scales=parallelism_scales,
        )
    )
    return out


def rgemv(
    A: np.ndarray,
    v: np.ndarray,
    name: str = "rgemv",
    cost_scales: bool = True,
    parallelism_scales: bool = True,
) -> np.ndarray:
    """Transposed matrix-vector product ``A.T @ v`` with cost recording."""
    A = np.asarray(A, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    m, k = A.shape
    if v.shape != (m,):
        raise ValueError(f"rgemv shape mismatch: {A.T.shape} @ {v.shape}")
    out = A.T @ v
    record_op(
        OpRecord(
            name=name,
            kind=OpKind.GEMV,
            flops=2.0 * m * k,
            bytes_read=(A.size + v.size) * _F64,
            bytes_written=out.size * _F64,
            parallel_tasks=max(1, k),
            result_size=out.size,
            cost_scales=cost_scales,
            parallelism_scales=parallelism_scales,
        )
    )
    return out


def axpy(
    alpha: float,
    x: np.ndarray,
    y: np.ndarray,
    name: str = "axpy",
    cost_scales: bool = True,
    parallelism_scales: bool = True,
) -> np.ndarray:
    """Return ``alpha * x + y`` (new array) with cost recording."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    out = alpha * x + y
    record_op(
        OpRecord(
            name=name,
            kind=OpKind.ELEMENTWISE,
            flops=2.0 * out.size,
            bytes_read=(x.size + y.size) * _F64,
            bytes_written=out.size * _F64,
            parallel_tasks=max(1, out.size),
            result_size=out.size,
            cost_scales=cost_scales,
            parallelism_scales=parallelism_scales,
        )
    )
    return out


def scale(
    alpha: float,
    x: np.ndarray,
    name: str = "scale",
    cost_scales: bool = True,
    parallelism_scales: bool = True,
) -> np.ndarray:
    """Return ``alpha * x`` with cost recording."""
    x = np.asarray(x, dtype=np.float64)
    out = alpha * x
    record_op(
        OpRecord(
            name=name,
            kind=OpKind.ELEMENTWISE,
            flops=float(out.size),
            bytes_read=x.size * _F64,
            bytes_written=out.size * _F64,
            parallel_tasks=max(1, out.size),
            result_size=out.size,
            cost_scales=cost_scales,
            parallelism_scales=parallelism_scales,
        )
    )
    return out


def elementwise(
    fn,
    x: np.ndarray,
    name: str = "elementwise",
    flops_per_element: float = 4.0,
    cost_scales: bool = True,
    parallelism_scales: bool = True,
) -> np.ndarray:
    """Apply a vectorised unary *fn* with cost recording.

    ``flops_per_element`` approximates transcendental cost (a sigmoid is
    several flops, not one); the default of 4 matches common estimates
    for exp-based activations on SIMD hardware.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.asarray(fn(x), dtype=np.float64)
    record_op(
        OpRecord(
            name=name,
            kind=OpKind.ELEMENTWISE,
            flops=flops_per_element * x.size,
            bytes_read=x.size * _F64,
            bytes_written=out.size * _F64,
            parallel_tasks=max(1, x.size),
            result_size=out.size,
            cost_scales=cost_scales,
            parallelism_scales=parallelism_scales,
        )
    )
    return out


def sigmoid(
    x: np.ndarray,
    name: str = "sigmoid",
    cost_scales: bool = True,
    parallelism_scales: bool = True,
) -> np.ndarray:
    """:func:`~repro.models.losses.stable_sigmoid` with cost recording."""
    x = np.asarray(x, dtype=np.float64)
    out = stable_sigmoid(x)
    record_op(
        OpRecord(
            name=name,
            kind=OpKind.ELEMENTWISE,
            flops=6.0 * x.size,
            bytes_read=x.size * _F64,
            bytes_written=out.size * _F64,
            parallel_tasks=max(1, x.size),
            result_size=out.size,
            cost_scales=cost_scales,
            parallelism_scales=parallelism_scales,
        )
    )
    return out


def reduce_sum(
    x: np.ndarray,
    axis=None,
    name: str = "reduce_sum",
    cost_scales: bool = True,
    parallelism_scales: bool = True,
) -> np.ndarray:
    """Sum-reduction with cost recording."""
    x = np.asarray(x, dtype=np.float64)
    out = np.asarray(x.sum(axis=axis), dtype=np.float64)
    record_op(
        OpRecord(
            name=name,
            kind=OpKind.REDUCTION,
            flops=float(x.size),
            bytes_read=x.size * _F64,
            bytes_written=max(1, out.size) * _F64,
            parallel_tasks=max(1, x.size),
            result_size=max(1, out.size),
            cost_scales=cost_scales,
            parallelism_scales=parallelism_scales,
        )
    )
    return out


def reduce_mean(
    x: np.ndarray,
    axis=None,
    name: str = "reduce_mean",
    cost_scales: bool = True,
    parallelism_scales: bool = True,
) -> np.ndarray:
    """Mean-reduction with cost recording."""
    x = np.asarray(x, dtype=np.float64)
    out = np.asarray(x.mean(axis=axis), dtype=np.float64)
    record_op(
        OpRecord(
            name=name,
            kind=OpKind.REDUCTION,
            flops=float(x.size) + 1.0,
            bytes_read=x.size * _F64,
            bytes_written=max(1, out.size) * _F64,
            parallel_tasks=max(1, x.size),
            result_size=max(1, out.size),
            cost_scales=cost_scales,
            parallelism_scales=parallelism_scales,
        )
    )
    return out


def batch_sgd_deltas(
    Xb: np.ndarray,
    coef: np.ndarray,
    step: float,
    name: str = "batch_sgd_deltas",
    cost_scales: bool = True,
    parallelism_scales: bool = True,
) -> np.ndarray:
    """Per-example dense SGD deltas ``-step * coef[:, None] * Xb``.

    The batched gradient kernel of an incremental round: one broadcasted
    product replaces a Python loop of per-example row scalings.  Row *i*
    of the result is bit-identical to ``(-step * coef[i]) * Xb[i]``.
    """
    Xb = np.asarray(Xb, dtype=np.float64)
    coef = np.asarray(coef, dtype=np.float64)
    out = (-step * coef)[:, None] * Xb
    record_op(
        OpRecord(
            name=name,
            kind=OpKind.ELEMENTWISE,
            flops=2.0 * out.size,
            bytes_read=(Xb.size + coef.size) * _F64,
            bytes_written=out.size * _F64,
            parallel_tasks=max(1, Xb.shape[0]),
            result_size=out.size,
            cost_scales=cost_scales,
            parallelism_scales=parallelism_scales,
        )
    )
    return out


def outer_update(
    W: np.ndarray,
    alpha: float,
    u: np.ndarray,
    v: np.ndarray,
    name: str = "outer_update",
    cost_scales: bool = True,
    parallelism_scales: bool = True,
) -> np.ndarray:
    """In-place rank-1 update ``W += alpha * outer(u, v)`` with recording.

    Used by per-example MLP weight updates; returns *W* for chaining.
    """
    W += alpha * np.outer(u, v)
    record_op(
        OpRecord(
            name=name,
            kind=OpKind.ELEMENTWISE,
            flops=2.0 * W.size,
            bytes_read=(u.size + v.size + W.size) * _F64,
            bytes_written=W.size * _F64,
            parallel_tasks=max(1, W.shape[0]),
            result_size=W.size,
            cost_scales=cost_scales,
            parallelism_scales=parallelism_scales,
        )
    )
    return W
