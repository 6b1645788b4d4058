"""Operation traces: the contract between algorithms and hardware models.

Every primitive in :mod:`repro.linalg` both *computes* its result with
NumPy and *records* an :class:`OpRecord` describing the abstract work it
performed: floating-point operations, bytes moved, the available degree
of data parallelism, the size of the result (ViennaCL's parallelisation
policy keys on it), and memory-access regularity.  The record is built
only while a recorder is active (:func:`is_recording`): outside a
:func:`recording` scope, or inside :func:`trace_paused`, a primitive
costs its arithmetic alone.  A full SGD iteration
therefore leaves behind a trace that the analytical CPU/GPU models in
:mod:`repro.hardware` turn into time — this is how the reproduction
replaces the paper's wall-clock measurements on hardware we do not have
(see DESIGN.md section 2).

Recording uses an explicit stack of recorders so nested scopes work
(e.g. the grid-search driver wraps a runner that wraps per-op scopes).
Loss evaluation is wrapped in :func:`trace_paused` because the paper
excludes it from iteration timing ("The time to evaluate the loss is
not included in the iteration time", Section IV-A).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

__all__ = [
    "OpKind",
    "OpRecord",
    "Trace",
    "is_recording",
    "record_op",
    "recording",
    "trace_paused",
]


class OpKind(str, Enum):
    """Classification of a primitive operation for costing purposes."""

    GEMM = "gemm"  #: matrix-matrix product
    GEMV = "gemv"  #: matrix-vector product
    ELEMENTWISE = "elementwise"  #: map over arrays (sigmoid, axpy, ...)
    REDUCTION = "reduction"  #: sum/mean/norm style folds
    GATHER_SCATTER = "gather_scatter"  #: indexed reads/writes (sparse model access)
    SPMV = "spmv"  #: sparse matrix-vector / matrix products
    DATA_LOAD = "data_load"  #: streaming a partition of the training set


@dataclass(frozen=True)
class OpRecord:
    """One primitive operation's abstract cost characteristics.

    Attributes
    ----------
    name:
        Human-readable primitive name, e.g. ``"csr_matvec"``.
    kind:
        Cost category; selects which throughput path the hardware
        models use.
    flops:
        Floating-point operations performed.
    bytes_read / bytes_written:
        Memory traffic in bytes, counting each operand once (the cache
        model decides what actually reaches DRAM).
    parallel_tasks:
        Degree of available data parallelism (independent work items a
        parallel backend could split across threads / GPU lanes).
    result_size:
        Number of elements in the output; ViennaCL's policy refuses to
        parallelise matrix products whose result is smaller than a
        threshold (Section IV-B), and the CPU model honours that.
    irregular:
        True when memory access is data-dependent (gathers through a
        sparse index array) — penalised on CPU and, unless coalesced,
        on GPU.
    dispersion:
        max/mean ratio of per-task work (1.0 = perfectly balanced).
        Governs SIMD/warp divergence on GPU: a warp retires with its
        slowest lane.
    cost_scales:
        Whether flops/bytes grow with the number of training examples.
        True for anything touching the example matrix; False for
        model-sized work (the parameter update, regularisation terms).
        Used by :meth:`Trace.scaled` to extrapolate a scaled-data trace
        to the paper's dataset sizes.
    parallelism_scales:
        Whether ``parallel_tasks`` grows with the example count.  True
        when the parallel axis is examples (forward GEMMs, SpMV rows);
        False when it is a model dimension (weight-gradient GEMMs whose
        rows are input features — the ops ViennaCL keeps serial).
    """

    name: str
    kind: OpKind
    flops: float
    bytes_read: float
    bytes_written: float
    parallel_tasks: int = 1
    result_size: int = 0
    irregular: bool = False
    dispersion: float = 1.0
    cost_scales: bool = True
    parallelism_scales: bool = True

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes_read < 0 or self.bytes_written < 0:
            raise ValueError("OpRecord cost fields must be non-negative")
        if self.parallel_tasks < 1:
            raise ValueError("parallel_tasks must be >= 1")
        if self.dispersion < 1.0:
            raise ValueError("dispersion is max/mean and must be >= 1")

    @property
    def bytes_total(self) -> float:
        """Total traffic (read + written)."""
        return self.bytes_read + self.bytes_written


@dataclass
class Trace:
    """An ordered collection of :class:`OpRecord` from one code region."""

    ops: list[OpRecord] = field(default_factory=list)

    def add(self, op: OpRecord) -> None:
        """Append one record."""
        self.ops.append(op)

    def extend(self, other: "Trace") -> None:
        """Append all records of *other*."""
        self.ops.extend(other.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[OpRecord]:
        return iter(self.ops)

    @property
    def total_flops(self) -> float:
        """Sum of flops over all ops."""
        return sum(op.flops for op in self.ops)

    @property
    def total_bytes(self) -> float:
        """Sum of read+written bytes over all ops."""
        return sum(op.bytes_total for op in self.ops)

    def by_kind(self) -> dict[OpKind, float]:
        """Total flops per operation kind (profiling helper)."""
        out: dict[OpKind, float] = {}
        for op in self.ops:
            out[op.kind] = out.get(op.kind, 0.0) + op.flops
        return out

    def scaled(self, factor: float) -> "Trace":
        """Extrapolate the trace to a *factor*-times-larger example set.

        Example-driven costs (``cost_scales``) and example-axis
        parallelism (``parallelism_scales``) are multiplied; model-sized
        ops pass through unchanged.  ``result_size`` is only scaled for
        ops whose output is per-example (parallelism_scales), keeping
        the ViennaCL result-size policy faithful: a weight-gradient
        matrix stays d_in x d_out however large the dataset grows.
        """
        if factor < 0:
            raise ValueError("factor must be non-negative")
        ops = []
        for op in self.ops:
            c = factor if op.cost_scales else 1.0
            p = factor if op.parallelism_scales else 1.0
            ops.append(
                OpRecord(
                    name=op.name,
                    kind=op.kind,
                    flops=op.flops * c,
                    bytes_read=op.bytes_read * c,
                    bytes_written=op.bytes_written * c,
                    parallel_tasks=max(1, int(round(op.parallel_tasks * p))),
                    result_size=max(1, int(round(op.result_size * p)))
                    if op.result_size
                    else op.result_size,
                    irregular=op.irregular,
                    dispersion=op.dispersion,
                    cost_scales=op.cost_scales,
                    parallelism_scales=op.parallelism_scales,
                )
            )
        return Trace(ops)


# --- recorder stack -------------------------------------------------------

_STACK: list[Trace | None] = []


def is_recording() -> bool:
    """Whether :func:`record_op` would keep a record made now.

    True inside :func:`recording` unless a :func:`trace_paused` block is
    innermost.  Primitives test it before building an :class:`OpRecord`.
    """
    return bool(_STACK) and _STACK[-1] is not None


def record_op(op: OpRecord) -> None:
    """Record *op* into the innermost active trace, if any.

    A no-op when no recorder is active (or recording is paused), so the
    primitives stay usable as plain numerical functions.
    """
    if is_recording():
        _STACK[-1].add(op)


@contextlib.contextmanager
def recording() -> Iterator[Trace]:
    """Context manager that captures all ops executed inside it."""
    trace = Trace()
    _STACK.append(trace)
    try:
        yield trace
    finally:
        popped = _STACK.pop()
        assert popped is trace


@contextlib.contextmanager
def trace_paused() -> Iterator[None]:
    """Suppress recording inside the block (loss evaluation, logging)."""
    _STACK.append(None)
    try:
        yield
    finally:
        _STACK.pop()
