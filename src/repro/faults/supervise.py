"""The supervised epoch loop of the measured backends.

The paper's method is one measurement loop — time an epoch between
barriers, evaluate the loss outside the clock, repeat — applied to
every configuration.  :func:`supervise_epochs` is that loop for the
backends that run real processes: it owns the epoch clock, the loss
curve, divergence and target-loss stopping, snapshot publishing, and
the whole :class:`~repro.faults.RecoveryPolicy` (budget, timeout
backoff, repartition-or-respawn, NaN scrubbing, fault re-arming, the
recovery trajectory).  What differs between shared memory and a
parameter server is *transport*, and that sits behind the small
:class:`Backend` protocol: how a pool is forked, what "the epoch is
over" means on the wire, where the model lives.

Imported by the backends (``parallel.shm``, ``distributed.train``), not
from ``repro.faults`` itself: the loop needs ``sgd.convergence``, and
``sgd.runner`` imports ``repro.faults``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Protocol

import numpy as np

from ..models.base import Matrix, Model
from ..sgd.config import SGDConfig
from ..sgd.convergence import LossCurve
from ..telemetry import keys
from ..telemetry.session import AnyTelemetry, ensure_telemetry
from ..utils.errors import ServerDiedError, WorkerError
from .recovery import RecoveryPolicy

__all__ = ["Backend", "MeasuredResult", "reap", "reap_pool", "supervise_epochs"]


class Backend(Protocol):
    """The transport under one supervised run.

    ``width`` / ``assignments`` / ``epoch_timeout`` are the run's
    starting shape; the loop owns the current values (a repartition
    narrows the pool, a rebuild backs the timeout off and drops spent
    faults) and hands them back through :meth:`spawn` and
    :meth:`run_epoch`.  :meth:`failover` is needed only where a call
    can raise :class:`ServerDiedError`.
    """

    #: Noun for one pool member — the width key of ``recovery[*]``.
    unit: str
    #: Name and attributes of the optimisation span.
    span: tuple[str, dict[str, Any]]
    width: int
    #: Resolved fault specs per member id (``FaultPlan.resolve*``).
    assignments: dict[int, list[dict]]
    epoch_timeout: float

    def spawn(self, width: int, next_epoch: int, assignments: dict) -> None:
        """(Re)build the pool to run epochs ``next_epoch..max``."""

    def run_epoch(self, epoch: int, timeout: float) -> None:
        """Run *epoch* to its closing barrier — the only timed region.

        Raises :class:`WorkerError` carrying the dead member's
        ``worker_id`` (``None`` for a timeout: a stall leaves no
        corpse), or :class:`ServerDiedError`.
        """

    def teardown_pool(self) -> None:
        """Reap every pool process; the model survives."""

    def snapshot(self) -> np.ndarray:
        """A private copy of the quiescent model."""

    def write_params(self, params: np.ndarray) -> None:
        """Overwrite the model while the pool idles (NaN scrub)."""

    def finish(
        self, epochs_run: int, early: bool, timeout: float
    ) -> tuple[np.ndarray | None, list[dict]]:
        """Release the pool into a clean exit and reap it.

        Returns the final model (``None`` if it can no longer be read:
        the run keeps its last finite snapshot) and one recovery entry
        per thing the exit cost.
        """

    def counters(self) -> dict[str, float]:
        """The transport's event totals; valid after :meth:`close`."""

    def close(self) -> None:
        """Release everything the backend owns."""

    def failover(self, epoch: int, err: ServerDiedError) -> None:
        """Replace the lost server so *epoch* can be replayed, or
        re-raise *err* when there is nothing to restore it from."""


@dataclass(kw_only=True)
class MeasuredResult:
    """What every measured backend reports about one run."""

    curve: LossCurve
    params: np.ndarray
    batch_size: int
    epochs_run: int
    diverged: bool
    #: Measured seconds per optimisation epoch (loss evals excluded).
    wall_seconds_per_epoch: float
    #: Measured optimisation seconds across all epochs.
    wall_seconds_total: float
    #: Aggregated event totals, keyed by the telemetry vocabulary.
    counters: dict[str, float] = field(default_factory=dict)
    #: Full-pool respawn recoveries performed.
    restarts: int = 0
    #: Repartition recoveries performed (pool shrank by one each time).
    repartitions: int = 0
    #: Epochs executed degraded: a narrower pool than requested, or on
    #: a NaN-scrubbed snapshot.
    degraded_epochs: int = 0
    #: Chronological recovery trajectory — one dict per recovery action,
    #: recorded into run manifests.
    recovery: list[dict] = field(default_factory=list)

    @property
    def updates_applied(self) -> float:
        """Examples applied to the model across the whole pool."""
        return self.counters.get(keys.UPDATES_APPLIED, 0.0)

    @property
    def faults_injected(self) -> float:
        """Planned faults that actually fired."""
        return self.counters.get(keys.FAULT_INJECTED, 0.0)


def reap(procs: list, grace: float) -> list[int]:
    """Join *procs* for up to *grace* seconds in all, then kill and join
    what is left; returns the ids that had to be killed."""
    deadline = time.perf_counter() + grace
    for p in procs:
        p.join(max(0.05, deadline - time.perf_counter()))
    hung = [k for k, p in enumerate(procs) if p.is_alive()]
    for k in hung:
        procs[k].kill()
        procs[k].join()
    return hung


def reap_pool(
    procs: list, timeout: float, unit: str, epoch: int, fail_fast: bool
) -> list[dict]:
    """Reap a pool that was released into a clean exit.

    Members that outstay *timeout* cost one recovery entry — or,
    *fail_fast*, a :class:`WorkerError`.
    """
    hung = reap(procs, timeout)
    if not hung:
        return []
    if fail_fast:  # pragma: no cover - defensive
        raise WorkerError(f"{len(hung)} {unit} failed to exit", phase="join")
    return [{"action": "stragglers_terminated", "epoch": epoch, unit: hung}]


def supervise_epochs(
    backend: Backend,
    model: Model,
    X: Matrix,
    y: np.ndarray,
    init: np.ndarray,
    config: SGDConfig,
    recovery: RecoveryPolicy | None,
    snapshot: Any | None,
    telemetry: AnyTelemetry | None,
) -> dict[str, Any]:
    """Run ``config.max_epochs`` supervised epochs on *backend*.

    Each epoch is timed around :meth:`Backend.run_epoch` alone; the
    snapshot, the NaN scrub and the loss evaluation happen on the
    quiescent model afterwards, outside the clock.  A failed epoch is
    replayed: every recovery action (respawn, repartition, NaN scrub,
    server failover) spends one unit of ``recovery.max_restarts``, every
    rebuild multiplies the timeout by ``recovery.backoff``, and the
    first failure past the budget — or any failure without a policy —
    re-raises after the pool is reaped and the backend closed.  The
    backend is closed on every path.

    Returns every :class:`MeasuredResult` field the loop owns (all but
    ``batch_size``), ready to build the backend's result class from.
    """
    tel = ensure_telemetry(telemetry)
    budget = recovery.max_restarts if recovery is not None else 0
    requested = width = backend.width
    assignments = backend.assignments
    timeout = backend.epoch_timeout
    used = restarts = repartitions = degraded_epochs = 0
    log: list[dict] = []
    walls: list[float] = []
    diverged = False
    epochs_run = 0
    try:
        with np.errstate(over="ignore"):
            initial = float(model.loss(X, y, init))
        tel.count(keys.LOSS_EVALS)
        curve = LossCurve()
        curve.record(0, initial)
        limit = config.divergence_factor * max(initial, 1e-12)
        last_good = init.copy()
        if snapshot is not None:
            # Version 1: the initial model.  A scoring service attached
            # before the first epoch completes serves this instead of a
            # cold-start error.
            snapshot.publish(init, epoch=0, loss=initial)
        backend.spawn(width, 1, assignments)

        with tel.span(backend.span[0], **backend.span[1]) as opt_span:
            epoch = 1
            rebuild = False
            while epoch <= config.max_epochs:
                scrubbed = 0
                try:
                    if rebuild:
                        backend.spawn(width, epoch, assignments)
                        rebuild = False
                    t0 = time.perf_counter()
                    backend.run_epoch(epoch, timeout)
                    wall = time.perf_counter() - t0
                    # The pool idles at the next barrier: the copy is
                    # race-free and a write-back cannot race either.
                    params_now = backend.snapshot()
                    bad = ~np.isfinite(params_now)
                    poisoned = bool(bad.any())
                    if (
                        poisoned
                        and recovery is not None
                        and recovery.scrub_nans
                        and used < budget
                    ):
                        # Poisoned coordinates are restored from the
                        # last finite snapshot.
                        params_now[bad] = last_good[bad]
                        backend.write_params(params_now)
                        scrubbed = int(bad.sum())
                        poisoned = False
                except (WorkerError, ServerDiedError) as err:
                    if recovery is None or used >= budget:
                        raise
                    if isinstance(err, ServerDiedError):
                        # The pool is NOT torn down: the backend replaces
                        # the server under it and the epoch is replayed.
                        backend.failover(epoch, err)
                        action = "server_failover"
                    else:
                        backend.teardown_pool()
                        if (
                            err.worker_id is not None
                            and recovery.mode == "repartition"
                            and width > 1
                        ):
                            # The dead member's examples round-robin onto
                            # the survivors; capacity degrades, coverage
                            # does not.
                            width -= 1
                            repartitions += 1
                            action = "repartition"
                        else:
                            restarts += 1
                            action = "respawn"
                        # Faults at or before the interrupted epoch had
                        # their chance; they must not re-fire on the
                        # rebuilt pool re-running this epoch.
                        assignments = {
                            k: [s for s in v if s["epoch"] > epoch]
                            for k, v in assignments.items()
                        }
                        rebuild = True
                    used += 1
                    timeout *= recovery.backoff
                    log.append(
                        {
                            "action": action,
                            "epoch": epoch,
                            backend.unit: width,
                            "epoch_timeout": timeout,
                            "cause": err.describe(),
                        }
                    )
                    continue
                walls.append(wall)
                epochs_run = epoch
                tel.count(keys.EPOCHS)
                degraded = width < requested
                stop = epoch == config.max_epochs
                if scrubbed:
                    used += 1
                    degraded = True
                    log.append(
                        {"action": "nan_scrub", "epoch": epoch, "coordinates": scrubbed}
                    )
                loss = float("inf")
                if not poisoned:
                    with np.errstate(over="ignore"):
                        loss = float(model.loss(X, y, params_now))
                    tel.count(keys.LOSS_EVALS)
                if not np.isfinite(loss) or loss > limit:
                    curve.record(epoch, float("inf"))
                    diverged = True
                    stop = True
                else:
                    curve.record(epoch, loss)
                    last_good = params_now
                    if snapshot is not None:
                        snapshot.publish(params_now, epoch=epoch, loss=loss)
                    if config.target_loss is not None and loss <= config.target_loss:
                        stop = True
                if degraded:
                    degraded_epochs += 1
                if stop:
                    break
                epoch += 1
            opt_span.set_attribute("diverged", diverged)
            opt_span.set_attribute("recoveries", used)

        params, exit_log = backend.finish(
            epochs_run, epochs_run < config.max_epochs, timeout
        )
        log.extend(exit_log)
        if params is None:
            params = last_good.copy()
    finally:
        backend.teardown_pool()
        backend.close()

    wall_total = float(sum(walls))
    wall_per_epoch = wall_total / max(1, len(walls))
    counters = backend.counters()
    counters[keys.FAULT_WORKER_RESTARTS] = float(restarts)
    counters[keys.FAULT_REPARTITIONS] = float(repartitions)
    counters[keys.FAULT_DEGRADED_EPOCHS] = float(degraded_epochs)
    for key, value in counters.items():
        tel.count(key, value)
    tel.set_gauge(keys.WALL_SECONDS_PER_EPOCH, wall_per_epoch)
    tel.set_gauge(keys.WALL_SECONDS_TOTAL, wall_total)
    return {
        "curve": curve,
        "params": params,
        "epochs_run": epochs_run,
        "diverged": diverged,
        "wall_seconds_per_epoch": wall_per_epoch,
        "wall_seconds_total": wall_total,
        "counters": counters,
        "restarts": restarts,
        "repartitions": repartitions,
        "degraded_epochs": degraded_epochs,
        "recovery": log,
    }
