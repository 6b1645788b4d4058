"""Deterministic simulation of asynchronous (Hogwild-style) execution.

The statistical effect of Hogwild is that gradients are computed against
*stale* models: while a thread evaluates its example, other threads'
updates land.  On x86, 8-byte-aligned stores are atomic, so no update is
numerically lost — staleness of reads is the whole effect (this is the
"perturbed iterate" view of Niu et al. [27] and De Sa et al. [9]).

We reproduce it with a round-based schedule: with logical concurrency
``C``, each round takes the next ``C`` work items (single examples for
Hogwild, mini-batches for Hogbatch), computes **all** their updates
against the model as of the start of the round, then applies them in
program order.  ``C = 1`` degenerates to exact serial incremental SGD
(Algorithm 3); large ``C`` models a GPU where thousands of lanes read
the same model generation.  The schedule is deterministic given the
seed, which the test suite exploits.

Higher concurrency = staler gradients = worse statistical efficiency —
exactly the paper's observed epoch inflation from cpu-seq to cpu-par to
gpu in Table III.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..linalg.csr import CSRMatrix
from ..models.base import Matrix, Model
from ..telemetry import keys
from ..telemetry.session import AnyTelemetry, ensure_telemetry
from ..utils.errors import ConfigurationError, DivergenceError

__all__ = ["AsyncSchedule", "run_async_epoch", "apply_updates"]

#: Bytes of gathered rows (and labels) one chunk of an epoch holds.
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class AsyncSchedule:
    """Execution schedule of one asynchronous configuration.

    Attributes
    ----------
    concurrency:
        Logical threads whose reads share a model snapshot per round.
        1 = exact sequential incremental SGD.
    batch_size:
        Examples per work item: 1 for Hogwild (LR/SVM), the paper uses
        512 for Hogbatch (MLP).
    shuffle:
        Re-permute the example order each epoch (both the paper's CPU
        and GPU implementations stream random partitions).
    pipeline_block:
        When set (B=1 only), switch from aligned rounds to a
        *pipelined* delay model: updates are issued in blocks of this
        size (a GPU warp: 32), and block *j*'s gradients are computed
        against the model as of block ``j - concurrency/pipeline_block``
        — the state the warp saw when it was scheduled, with
        ``concurrency`` updates still in flight.  This removes the
        round model's implicit mini-batch averaging, which is the
        correct severity for device-scale concurrency: thousands of
        lanes never observe each other's current round.  ``None`` keeps
        the aligned-round model (appropriate for CPU thread counts).
    """

    concurrency: int
    batch_size: int = 1
    shuffle: bool = True
    pipeline_block: int | None = None

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ConfigurationError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.pipeline_block is not None:
            if self.batch_size != 1:
                raise ConfigurationError("pipeline_block requires batch_size == 1")
            if self.pipeline_block < 1:
                raise ConfigurationError("pipeline_block must be >= 1")

    @property
    def pipeline_lag(self) -> int:
        """Blocks of delay a pipelined schedule imposes (0 = aligned)."""
        if self.pipeline_block is None:
            return 0
        return max(1, -(-self.concurrency // self.pipeline_block))

    def work_items(self, order: np.ndarray) -> list[np.ndarray]:
        """Split a permuted example order into work items (row arrays)."""
        n = order.shape[0]
        return [order[i : i + self.batch_size] for i in range(0, n, self.batch_size)]


def apply_updates(params: np.ndarray, updates) -> None:
    """Apply a round's updates to the shared model, in program order.

    Sparse updates scatter-add into their coordinates (duplicates
    accumulate — the per-word atomicity of real Hogwild); dense updates
    add the full delta.
    """
    # Overflow is how divergence manifests mid-epoch; it is detected and
    # reported deliberately (DivergenceError -> the paper's "inf"
    # entries), so the transient RuntimeWarning is pure noise.
    with np.errstate(over="ignore"):
        for idx, delta in updates:
            if idx is None:
                params += delta
            else:
                np.add.at(params, idx, delta)


def _apply_batched(params: np.ndarray, batched: tuple) -> None:
    """Apply one round's :meth:`~repro.models.linear.LinearModel.batched_updates`.

    The concatenated sparse scatter accumulates element-by-element in
    row order, so the result is bit-identical to looping
    :func:`apply_updates` over the per-example deltas.  Dense deltas
    are summed by one ``np.add.reduce`` over the rows ``[params;
    delta_1; ...; delta_k]``: at d >= 2 NumPy adds each column in row
    order, bit-identical to ``params += delta`` row by row.  At d = 1
    the column is contiguous and NumPy sums it pairwise, so that shape
    keeps the row loop.  Callers suppress the overflow warning (see
    :func:`apply_updates`) around their whole loop, not per round.
    """
    idx, values = batched
    if idx is not None:
        np.add.at(params, idx, values)
    elif params.shape[0] >= 2:
        stacked = np.empty((values.shape[0] + 1, params.shape[0]))
        stacked[0] = params
        stacked[1:] = values
        np.add.reduce(stacked, axis=0, out=params)
    else:
        for delta in values:
            params += delta


def _gathered_rounds(model, X: Matrix, y: np.ndarray, order: np.ndarray, size: int):
    """Yield ``(chunk, lo, hi)`` for each round of *size* rows of *order*.

    The rows are gathered once per chunk of whole rounds rather than
    once per round.  A chunk holds about :data:`_CHUNK_BYTES` of rows,
    so the copy stays the same size whatever the dataset's.
    """
    if isinstance(X, CSRMatrix):
        row_bytes = 16.0 * X.nnz / max(1, X.shape[0]) + 32.0
    else:
        row_bytes = 8.0 * X.shape[1] + 8.0
    span = size * max(1, int(_CHUNK_BYTES / (row_bytes * size)))
    n = order.shape[0]
    for start in range(0, n, span):
        chunk = model.gather_rows(X, y, order[start : start + span])
        rows = min(span, n - start)
        for lo in range(0, rows, size):
            yield chunk, lo, min(lo + size, rows)


def run_async_epoch(
    model: Model,
    X: Matrix,
    y: np.ndarray,
    params: np.ndarray,
    step: float,
    schedule: AsyncSchedule,
    rng: np.random.Generator,
    telemetry: AnyTelemetry | None = None,
) -> None:
    """Run one asynchronous optimisation epoch in place.

    When *telemetry* is supplied, the epoch's event totals are counted:
    gradient evaluations, updates applied, scheduling rounds, and stale
    reads (work items whose gradient observed a model snapshot older
    than the latest applied update — zero at concurrency 1).

    Raises
    ------
    DivergenceError
        When the parameters become non-finite (the runners translate
        this into the paper's ``inf`` time-to-convergence entries).
    """
    tel = ensure_telemetry(telemetry)
    n = X.shape[0]
    order = rng.permutation(n) if schedule.shuffle else np.arange(n)
    C = schedule.concurrency

    # Divergence-prone arithmetic below overflows by design shortly
    # before _check_finite reports it; suppress the noise (see
    # apply_updates).
    if schedule.batch_size == 1:
        serial = getattr(model, "serial_sgd_epoch", None)
        if C == 1 and serial is not None:
            with np.errstate(over="ignore"):
                serial(X, y, order, params, step)
            tel.count(keys.GRAD_EVALS, n)
            tel.count(keys.UPDATES_APPLIED, n)
            tel.count(keys.ASYNC_ROUNDS, n)
            _check_finite(params)
            return
        if schedule.pipeline_lag > 1:
            _run_pipelined(model, X, y, params, step, schedule, order)
            blocks = -(-n // (schedule.pipeline_block or 1))
            tel.count(keys.GRAD_EVALS, n)
            tel.count(keys.UPDATES_APPLIED, n)
            tel.count(keys.ASYNC_ROUNDS, blocks)
            tel.count(keys.STALE_READS, n - min(schedule.pipeline_block or n, n))
            _check_finite(params)
            return
        rounds = 0
        kernel = getattr(model, "round_updates", None)
        with np.errstate(over="ignore"):
            if kernel is not None:
                for chunk, lo, hi in _gathered_rounds(model, X, y, order, C):
                    _apply_batched(params, kernel(chunk, lo, hi, params, step))
                    rounds += 1
            else:
                for start in range(0, n, C):
                    rows = order[start : start + C]
                    updates = model.example_updates(X, y, rows, params, step)
                    apply_updates(params, updates)
                    rounds += 1
        tel.count(keys.GRAD_EVALS, n)
        tel.count(keys.UPDATES_APPLIED, n)
        tel.count(keys.ASYNC_ROUNDS, rounds)
        # Within a round only the first applied update saw the freshest
        # model; the rest read the round-start snapshot.
        tel.count(keys.STALE_READS, max(0, n - rounds))
        _check_finite(params)
        return

    # Batched (Hogbatch) path: each item is one mini-batch.  All of a
    # round's updates are computed before any is applied, so they all
    # observe the model as of the round start — no explicit snapshot
    # copy is needed.
    items = schedule.work_items(order)
    rounds = 0
    with np.errstate(over="ignore"):
        for start in range(0, len(items), C):
            round_items = items[start : start + C]
            updates = [
                model.batch_update(X, y, rows, params, step) for rows in round_items
            ]
            apply_updates(params, updates)
            rounds += 1
    tel.count(keys.GRAD_EVALS, n)
    tel.count(keys.UPDATES_APPLIED, len(items))
    tel.count(keys.ASYNC_ROUNDS, rounds)
    tel.count(keys.STALE_READS, max(0, len(items) - rounds))
    _check_finite(params)


def _run_pipelined(
    model: Model,
    X: Matrix,
    y: np.ndarray,
    params: np.ndarray,
    step: float,
    schedule: AsyncSchedule,
    order: np.ndarray,
) -> None:
    """Delayed-gradient execution: block j reads the state after block
    ``j - lag`` (earlier blocks read the epoch-start state).

    A bounded history of post-block snapshots provides the stale views;
    memory is ``lag * n_params`` floats, preallocated once as a ring of
    reusable buffers — the steady state allocates nothing per block.
    """
    block = schedule.pipeline_block
    assert block is not None
    lag = schedule.pipeline_lag
    epoch_start = params.copy()
    # Ring of post-block states: once the pipe is full, slot ``j % lag``
    # holds the state after block ``j - lag`` — exactly what a warp
    # scheduled `concurrency` updates ago observed.  Until the pipe
    # fills, the view is the epoch start.  The slot read at block j is
    # overwritten only after that block's updates are fully computed
    # and applied, so the stale view is never clobbered mid-read.
    ring = [np.empty_like(params) for _ in range(lag)]
    n = order.shape[0]
    kernel = getattr(model, "round_updates", None)
    if kernel is not None:
        blocks = _gathered_rounds(model, X, y, order, block)
    else:
        blocks = ((None, start, start + block) for start in range(0, n, block))
    with np.errstate(over="ignore"):
        for j, (chunk, lo, hi) in enumerate(blocks):
            slot = j % lag
            stale = ring[slot] if j >= lag else epoch_start
            if kernel is not None:
                _apply_batched(params, kernel(chunk, lo, hi, stale, step))
            else:
                updates = model.example_updates(X, y, order[lo:hi], stale, step)
                apply_updates(params, updates)
            np.copyto(ring[slot], params)


def _check_finite(params: np.ndarray) -> None:
    if not np.all(np.isfinite(params)):
        raise DivergenceError("parameters became non-finite during async epoch")
