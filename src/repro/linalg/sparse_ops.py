"""Instrumented sparse (CSR) primitives.

These mirror :mod:`repro.linalg.dense_ops` for CSR operands.  The key
cost differences the hardware models rely on:

* sparse kernels are **irregular** — the gather ``x[indices]`` walks a
  data-dependent address stream, which is penalised on CPU (cache-line
  utilisation) and on GPU costs one memory transaction per distinct
  line unless coalesced (Section II, memory-coalescing discussion);
* per-row work is **imbalanced** — the recorded ``dispersion``
  (max/mean row nnz) drives the warp-divergence penalty ("there is a
  high variance in the number of non-zero entries ... This forces
  threads to stall while longer examples finish", Section IV-B);
* byte traffic counts the index arrays (4 bytes each) as well as the
  values, matching CSR's real footprint.
"""

from __future__ import annotations

import numpy as np

from ..utils.stats import dispersion_ratio
from .csr import CSRMatrix
from .trace import OpKind, OpRecord, is_recording, record_op

__all__ = [
    "csr_matvec",
    "csr_rmatvec",
    "csr_matmat",
    "csr_gather_rows",
    "csr_submatvec",
    "gather",
    "scatter_add",
]

_F64 = 8
_I32 = 4


def _row_dispersion(A: CSRMatrix) -> float:
    return dispersion_ratio(A.row_nnz)


def csr_matvec(A: CSRMatrix, x: np.ndarray, name: str = "csr_matvec") -> np.ndarray:
    """``A @ x`` with cost recording (row-parallel SpMV)."""
    out = A.matvec(x)
    if is_recording():
        record_op(
            OpRecord(
                name=name,
                kind=OpKind.SPMV,
                flops=2.0 * A.nnz,
                bytes_read=A.nnz * (_F64 + _I32) + A.nnz * _F64,  # csr row + gathered x
                bytes_written=A.n_rows * _F64,
                parallel_tasks=max(1, A.n_rows),
                result_size=A.n_rows,
                irregular=True,
                dispersion=_row_dispersion(A),
            )
        )
    return out


def csr_rmatvec(A: CSRMatrix, v: np.ndarray, name: str = "csr_rmatvec") -> np.ndarray:
    """``A.T @ v`` with cost recording (scatter-reduce SpMV).

    The transposed product scatters into the d-dimensional result; on a
    parallel backend this requires either atomics or per-thread partial
    results, both captured by the irregular flag.
    """
    out = A.rmatvec(v)
    if is_recording():
        record_op(
            OpRecord(
                name=name,
                kind=OpKind.SPMV,
                flops=2.0 * A.nnz,
                bytes_read=A.nnz * (_F64 + _I32) + A.n_rows * _F64,
                bytes_written=A.nnz * _F64,  # scattered accumulations
                parallel_tasks=max(1, A.n_rows),
                result_size=A.n_cols,
                irregular=True,
                dispersion=_row_dispersion(A),
            )
        )
    return out


def csr_matmat(A: CSRMatrix, B: np.ndarray, name: str = "csr_matmat") -> np.ndarray:
    """``A @ B`` for dense *B* with cost recording (CSR x dense GEMM)."""
    out = A.matmat(B)
    k = B.shape[1]
    if is_recording():
        record_op(
            OpRecord(
                name=name,
                kind=OpKind.SPMV,
                flops=2.0 * A.nnz * k,
                bytes_read=A.nnz * (_F64 + _I32) + A.nnz * k * _F64,
                bytes_written=out.size * _F64,
                parallel_tasks=max(1, A.n_rows),
                result_size=out.size,
                irregular=True,
                dispersion=_row_dispersion(A),
            )
        )
    return out


def csr_gather_rows(
    A: CSRMatrix, rows: np.ndarray, name: str = "csr_gather_rows"
) -> CSRMatrix:
    """Batched row-gather ``A[rows]`` with cost recording.

    One vectorised fancy-index over the flat CSR arrays (see
    :meth:`CSRMatrix.take_rows`); the recorded cost is the streamed
    sub-matrix plus the row-pointer lookups.
    """
    out = A.take_rows(rows)
    if is_recording():
        record_op(
            OpRecord(
                name=name,
                kind=OpKind.GATHER_SCATTER,
                flops=0.0,
                bytes_read=out.nnz * (_F64 + _I32) + np.asarray(rows).size * 8,
                bytes_written=out.nnz * (_F64 + _I32),
                parallel_tasks=max(1, np.asarray(rows).size),
                result_size=out.nnz,
                irregular=True,
                dispersion=_row_dispersion(out) if out.n_rows else 1.0,
            )
        )
    return out


def csr_submatvec(
    A: CSRMatrix,
    rows: np.ndarray,
    x: np.ndarray,
    name: str = "csr_submatvec",
) -> np.ndarray:
    """``A[rows] @ x`` without materialising the sub-matrix (batched SpMV).

    The margins kernel of a mini-batch/Hogbatch step: gather the rows'
    segments, multiply against the gathered model coordinates and
    segment-reduce.  Only the touched non-zeros are streamed.
    """
    rows = np.asarray(rows, dtype=np.int64)
    indptr, indices, data, _ = A.gather_rows_arrays(rows)
    out = np.zeros(rows.size, dtype=np.float64)
    if indices.size:
        prod = data * x[indices]
        counts = np.diff(indptr)
        nonempty = counts > 0
        out[nonempty] = np.add.reduceat(prod, indptr[:-1][nonempty])
    if is_recording():
        record_op(
            OpRecord(
                name=name,
                kind=OpKind.SPMV,
                flops=2.0 * indices.size,
                bytes_read=indices.size * (_F64 + _I32) + indices.size * _F64,
                bytes_written=rows.size * _F64,
                parallel_tasks=max(1, rows.size),
                result_size=rows.size,
                irregular=True,
                dispersion=dispersion_ratio(np.diff(indptr)) if rows.size else 1.0,
            )
        )
    return out


def gather(x: np.ndarray, indices: np.ndarray, name: str = "gather") -> np.ndarray:
    """Indexed read ``x[indices]`` with cost recording.

    This is the model-read half of a single Hogwild step on sparse
    data: only the coordinates present in the example are loaded.
    """
    indices = np.asarray(indices)
    out = x[indices]
    if is_recording():
        record_op(
            OpRecord(
                name=name,
                kind=OpKind.GATHER_SCATTER,
                flops=0.0,
                bytes_read=indices.size * (_F64 + _I32),
                bytes_written=indices.size * _F64,
                parallel_tasks=max(1, indices.size),
                result_size=indices.size,
                irregular=True,
            )
        )
    return out


def scatter_add(
    x: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    name: str = "scatter_add",
) -> np.ndarray:
    """In-place indexed accumulate ``x[indices] += values`` with recording.

    Duplicate indices accumulate (``np.add.at`` semantics).  This is the
    model-write half of a Hogwild step; on real hardware these writes
    are the source of coherence traffic (CPU) and update conflicts
    (GPU warps).
    """
    indices = np.asarray(indices)
    values = np.asarray(values, dtype=np.float64)
    np.add.at(x, indices, values)
    if is_recording():
        record_op(
            OpRecord(
                name=name,
                kind=OpKind.GATHER_SCATTER,
                flops=float(indices.size),
                bytes_read=indices.size * (_F64 + _I32),
                bytes_written=indices.size * _F64,
                parallel_tasks=max(1, indices.size),
                result_size=indices.size,
                irregular=True,
            )
        )
    return x
