"""Primitives build their cost record only while a trace records.

Each of the 18 instrumented primitives (11 dense, 7 sparse) records a
record equal to a frozen one inside :func:`recording`; with no recorder,
or inside :func:`trace_paused`, no :class:`OpRecord` is constructed.
"""

import dataclasses

import numpy as np
import pytest

from repro.linalg import CSRMatrix, dense_ops, sparse_ops
from repro.linalg.trace import OpKind as K
from repro.linalg.trace import OpRecord, is_recording, recording, trace_paused

A = np.arange(12.0).reshape(3, 4) / 4.0
B = np.arange(8.0).reshape(4, 2) - 3.0
X = np.array([0.5, -1.0, 2.0, 0.25])
V = np.array([1.0, -2.0, 0.5])
CSR = CSRMatrix.from_dense(
    np.array(
        [
            [1.0, 0.0, 2.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 3.0, 0.0, 4.0],
            [5.0, 0.0, 0.0, 6.0],
        ]
    )
)
ROWS = np.array([2, 1, 3])
IDX = np.array([3, 1, 3])


def _call_every_primitive() -> None:
    dense_ops.gemm(A, B)
    dense_ops.gemv(A, X, cost_scales=False)
    dense_ops.rgemv(A, V, parallelism_scales=False)
    dense_ops.axpy(2.0, X, X)
    dense_ops.scale(3.0, V)
    dense_ops.elementwise(np.tanh, X, flops_per_element=2.0)
    dense_ops.sigmoid(V)
    dense_ops.reduce_sum(A, axis=0)
    dense_ops.reduce_mean(A)
    dense_ops.outer_update(np.zeros((3, 4)), 0.5, V, X)
    dense_ops.batch_sgd_deltas(A, V, 0.1)
    sparse_ops.csr_matvec(CSR, X)
    sparse_ops.csr_rmatvec(CSR, np.array([1.0, -1.0, 0.5, 2.0]))
    sparse_ops.csr_matmat(CSR, B)
    sparse_ops.csr_gather_rows(CSR, ROWS)
    sparse_ops.csr_submatvec(CSR, ROWS, X)
    sparse_ops.gather(X, IDX)
    sparse_ops.scatter_add(np.zeros(4), IDX, np.ones(3))


# Positional fields: name, kind, flops, bytes_read, bytes_written,
# parallel_tasks, result_size, then irregular and dispersion where they
# differ from the defaults (cost_scales/parallelism_scales by keyword).
FROZEN = [
    OpRecord("gemm", K.GEMM, 48.0, 160, 48, 3, 6),
    OpRecord("gemv", K.GEMV, 24.0, 128, 24, 3, 3, cost_scales=False),
    OpRecord("rgemv", K.GEMV, 24.0, 120, 32, 4, 4, parallelism_scales=False),
    OpRecord("axpy", K.ELEMENTWISE, 8.0, 64, 32, 4, 4),
    OpRecord("scale", K.ELEMENTWISE, 3.0, 24, 24, 3, 3),
    OpRecord("elementwise", K.ELEMENTWISE, 8.0, 32, 32, 4, 4),
    OpRecord("sigmoid", K.ELEMENTWISE, 18.0, 24, 24, 3, 3),
    OpRecord("reduce_sum", K.REDUCTION, 12.0, 96, 32, 12, 4),
    OpRecord("reduce_mean", K.REDUCTION, 13.0, 96, 8, 12, 1),
    OpRecord("outer_update", K.ELEMENTWISE, 24.0, 152, 96, 3, 12),
    OpRecord("batch_sgd_deltas", K.ELEMENTWISE, 24.0, 120, 96, 3, 12),
    OpRecord("csr_matvec", K.SPMV, 12.0, 120, 32, 4, 4, True, 4 / 3),
    OpRecord("csr_rmatvec", K.SPMV, 12.0, 104, 48, 4, 4, True, 4 / 3),
    OpRecord("csr_matmat", K.SPMV, 24.0, 168, 64, 4, 8, True, 4 / 3),
    OpRecord("csr_gather_rows", K.GATHER_SCATTER, 0.0, 72, 48, 3, 4, True, 1.5),
    OpRecord("csr_submatvec", K.SPMV, 8.0, 80, 24, 3, 3, True, 1.5),
    OpRecord("gather", K.GATHER_SCATTER, 0.0, 36, 24, 3, 3, True),
    OpRecord("scatter_add", K.GATHER_SCATTER, 3.0, 36, 24, 3, 3, True),
]


@pytest.fixture()
def built(monkeypatch) -> list:
    """Every OpRecord the primitives construct while the test runs."""
    records: list = []

    class CountingRecord(OpRecord):
        def __post_init__(self) -> None:
            records.append(self)
            super().__post_init__()

    monkeypatch.setattr(dense_ops, "OpRecord", CountingRecord)
    monkeypatch.setattr(sparse_ops, "OpRecord", CountingRecord)
    return records


def test_recording_keeps_the_frozen_records():
    with recording() as trace:
        _call_every_primitive()
    assert len(trace.ops) == len(FROZEN) == 18
    for got, want in zip(trace.ops, FROZEN):
        assert dataclasses.asdict(got) == dataclasses.asdict(want), want.name
        assert got == want


def test_no_record_is_built_without_a_recorder(built):
    assert not is_recording()
    _call_every_primitive()
    assert built == []


def test_no_record_is_built_while_paused(built):
    with recording() as trace:
        with trace_paused():
            assert not is_recording()
            _call_every_primitive()
        assert built == [] and len(trace) == 0
        assert is_recording()
        _call_every_primitive()  # the patched class is the one in use
    assert len(built) == len(trace) == 18
