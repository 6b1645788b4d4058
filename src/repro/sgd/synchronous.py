"""Synchronous SGD (Algorithm 2: Batch SGD Optimization Epoch).

One synchronous epoch is a fixed sequence of *blocking* linear-algebra
primitives — gradient computation followed by a model update — with
parallelism confined inside each primitive (Section III-A).  Because
the kernel sequence is identical whichever backend executes it, the
statistical efficiency of synchronous SGD is architecture-independent
(the paper's Table II reports a single epoch count per dataset/task);
we therefore run the numerical optimisation once and cost the recorded
epoch trace separately per backend.

A mini-batch variant (1 < B < N) is provided for library completeness;
the paper's synchronous configurations are full batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..linalg import axpy, recording, trace_paused
from ..linalg.trace import Trace
from ..models.base import Matrix, Model
from ..telemetry import keys
from ..telemetry.session import AnyTelemetry, ensure_telemetry
from ..utils.rng import derive_rng
from .config import SGDConfig
from .convergence import LossCurve

__all__ = ["SyncResult", "train_synchronous", "train_minibatch_synchronous"]


@dataclass
class SyncResult:
    """Outcome of a synchronous training run.

    Attributes
    ----------
    curve:
        Per-epoch loss curve (epoch 0 = initial loss).
    params:
        Final parameter vector (the last finite iterate).
    epoch_trace:
        Operation trace of one optimisation epoch, ready for the
        hardware models (loss evaluations excluded per the paper's
        methodology).
    """

    curve: LossCurve
    params: np.ndarray
    epoch_trace: Trace


def train_synchronous(
    model: Model,
    X: Matrix,
    y: np.ndarray,
    init_params: np.ndarray,
    config: SGDConfig,
    telemetry: AnyTelemetry | None = None,
) -> SyncResult:
    """Full-batch gradient descent to the configured stop condition.

    The epoch trace is recorded on the first epoch only — every epoch
    executes the identical kernel sequence, so one recording suffices
    and later epochs skip the bookkeeping.  *telemetry* (optional)
    receives a span covering the optimisation and per-epoch counters:
    a full-batch epoch is N gradient evaluations and one model update.

    An evaluated epoch that another epoch follows takes its loss and
    the next epoch's gradient from one forward pass
    (:meth:`~repro.models.base.Model.loss_and_grad`), so each epoch
    runs the forward pass once.
    """
    tel = ensure_telemetry(telemetry)
    params = np.array(init_params, dtype=np.float64, copy=True)
    n = X.shape[0]
    curve = LossCurve()
    with trace_paused():
        initial = model.loss(X, y, params)
    tel.count(keys.LOSS_EVALS)
    curve.record(0, initial)
    limit = config.divergence_factor * max(initial, 1e-12)

    epoch_trace = Trace()
    grad = None
    with tel.span("sync.optimize", n_examples=n, step_size=config.step_size):
        for epoch in range(1, config.max_epochs + 1):
            if epoch == 1:
                with recording() as epoch_trace:
                    _sync_step(model, X, y, params, config.step_size, grad)
            else:
                _sync_step(model, X, y, params, config.step_size, grad)
            grad = None
            tel.count(keys.EPOCHS)
            tel.count(keys.GRAD_EVALS, n)
            tel.count(keys.UPDATES_APPLIED)
            if not np.all(np.isfinite(params)):
                curve.record(epoch, float("inf"))
                break
            if epoch % config.eval_every == 0 or epoch == config.max_epochs:
                with trace_paused():
                    if epoch < config.max_epochs:
                        loss, grad = model.loss_and_grad(X, y, params)
                    else:
                        loss = model.loss(X, y, params)
                tel.count(keys.LOSS_EVALS)
                curve.record(epoch, loss)
                if not np.isfinite(loss) or loss > limit:
                    curve.losses[-1] = float("inf")
                    break
                if config.target_loss is not None and loss <= config.target_loss:
                    break
    return SyncResult(curve=curve, params=params, epoch_trace=epoch_trace)


def _sync_step(
    model: Model,
    X: Matrix,
    y: np.ndarray,
    params: np.ndarray,
    step: float,
    grad: np.ndarray | None,
) -> None:
    """One epoch: the gradient at *params* (unless given), then the update."""
    if grad is None:
        grad = model.full_grad(X, y, params)
    # In-place model update through the primitive API so the trace
    # carries it; the update is model-sized, not example-sized.
    params[:] = axpy(
        -step,
        grad,
        params,
        name="model_update",
        cost_scales=False,
        parallelism_scales=False,
    )


def train_minibatch_synchronous(
    model: Model,
    X: Matrix,
    y: np.ndarray,
    init_params: np.ndarray,
    config: SGDConfig,
) -> SyncResult:
    """Synchronous mini-batch SGD (1 < B < N).

    Each epoch shuffles the examples and performs ``ceil(N/B)`` blocking
    gradient+update rounds.  The epoch trace is recorded on the first
    epoch; it contains every round's kernels.
    """
    params = np.array(init_params, dtype=np.float64, copy=True)
    n = X.shape[0]
    rng = derive_rng(config.seed, "sync_minibatch")
    curve = LossCurve()
    with trace_paused():
        initial = model.loss(X, y, params)
    curve.record(0, initial)
    limit = config.divergence_factor * max(initial, 1e-12)

    epoch_trace = Trace()
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        batches = [
            order[i : i + config.batch_size] for i in range(0, n, config.batch_size)
        ]

        def run_epoch() -> None:
            for rows in batches:
                grad = model.minibatch_grad(X, y, rows, params)
                params[:] = axpy(
                    -config.step_size,
                    grad,
                    params,
                    name="model_update",
                    cost_scales=False,
                    parallelism_scales=False,
                )

        if epoch == 1:
            with recording() as epoch_trace:
                run_epoch()
        else:
            run_epoch()
        if not np.all(np.isfinite(params)):
            curve.record(epoch, float("inf"))
            break
        if epoch % config.eval_every == 0 or epoch == config.max_epochs:
            with trace_paused():
                loss = model.loss(X, y, params)
            curve.record(epoch, loss)
            if not np.isfinite(loss) or loss > limit:
                curve.losses[-1] = float("inf")
                break
            if config.target_loss is not None and loss <= config.target_loss:
                break
    return SyncResult(curve=curve, params=params, epoch_trace=epoch_trace)
