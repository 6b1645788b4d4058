"""Shared-memory Hogwild/Hogbatch backend: measured, not simulated.

The asynchrony simulator (:mod:`repro.asyncsim`) answers the paper's
*statistical* questions deterministically.  This module is the genuine
article beside it: the model lives in one
:mod:`multiprocessing.shared_memory` buffer, N worker processes stream
vectorised mini-batch updates into it with **no locks**, and the run is
instrumented — per-epoch wall clock, measured stale reads and racy
coordinate conflicts — through the same telemetry keys the simulator
and the analytical hardware models emit, so measured numbers land next
to modelled ones in manifests.

Execution model
---------------
Examples are partitioned round-robin across workers (the paper's
data-partitioning strategy).  Epochs are barrier-aligned: the parent
releases all workers into an epoch, each worker makes one lock-free
pass over its shuffled partition (work items of ``batch_size`` rows:
1 = Hogwild, >1 = Hogbatch), and the parent times the epoch between
barriers, then evaluates the loss while the workers wait — loss
evaluation is excluded from iteration time, matching the paper's
protocol (Section IV-A).

Workers wait at the barriers *untimed*: liveness is the parent's job
(its waits carry ``epoch_timeout`` under the pool's ~100 ms watchdog),
so a slow parent-side loss evaluation can never break the barrier
inside a healthy worker.

Within an epoch nothing synchronises.  At ``batch_size == 1`` a
worker's update is sequential SGD's own scalar expression on a view of
the row — ``w -= (step * coef) * xi`` (dense), ``w.put(idx,
w.take(idx) - (step * coef) * val)`` (sparse) — so one worker
reproduces ``serial_sgd_epoch`` bit for bit; above it, it is a single
``np.add.at`` scatter (sparse) or row-wise adds (dense).  Either way it
lands on the shared vector unguarded, and concurrent updates race
exactly as OpenMP Hogwild races on the paper's machine.  An update
costs its arithmetic plus one shared word: each worker publishes its
update count after every item and keeps every other counter to itself
until the pass ends.  Two quantities of the race are *measured*, per
item and unsampled:

* **stale reads** — examples whose gradient window overlapped another
  worker's committed update (detected from the workers' published
  update counts before/after the item);
* **update conflicts** — model coordinates whose value changed between
  the item's gradient read and its write (detected by re-reading the
  item's coordinate footprint just before the write).

Faults and recovery
-------------------
The epoch loop, the loss curve and the whole recovery policy are
:func:`repro.faults.supervise.supervise_epochs`, shared with the
parameter-server backend (docs/RESILIENCE.md).  What this module adds
is the transport under it: a :class:`repro.faults.FaultPlan` injects
seeded worker kills, stalls, late barrier arrivals and NaN-poisoned
gradient windows inside the workers; a dead worker or a timed-out
barrier surfaces as a structured
:class:`~repro.utils.errors.WorkerError` from the barrier watchdog; and
on every path the pool is joined and both shared segments unlinked.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from ..faults import FaultPlan, RecoveryPolicy
from ..faults.supervise import MeasuredResult, reap, reap_pool, supervise_epochs
from ..models.base import Matrix, Model
from ..sgd.config import SGDConfig
from ..telemetry import keys
from ..telemetry.session import AnyTelemetry
from ..utils.errors import ConfigurationError, WorkerError
from ..utils.processes import fork_context
from ..utils.rng import DEFAULT_SEED, derive_rng

__all__ = ["ShmSchedule", "ShmTrainResult", "train_shm", "default_shm_workers"]

# Per-worker counter slots in the shared counters block.
_SLOT_UPDATES = 0  # examples applied to the shared model (published per item)
_SLOT_ITEMS = 1  # work items (scatter rounds) completed
_SLOT_STALE = 2  # examples computed against a raced snapshot
_SLOT_CONFLICTS = 3  # coordinates overwritten between read and write
_SLOT_FAULTS = 4  # planned faults actually injected by this worker
_N_SLOTS = 5

_CTL_STOP = 0  # parent -> workers: exit at the next epoch barrier
_N_CTL = 1

#: Exit code of a worker killed by an injected ``kill`` fault.
_FAULT_EXITCODE = 23


def default_shm_workers() -> int:
    """Worker count used when the caller does not pick one."""
    return min(4, os.cpu_count() or 1)


@dataclass(frozen=True)
class ShmSchedule:
    """Execution shape of one shared-memory run.

    Attributes
    ----------
    workers:
        Worker processes sharing the model buffer (clamped to the
        example count).
    batch_size:
        Rows per lock-free work item: 1 = Hogwild, >1 = Hogbatch.
    track_conflicts:
        Measure racy coordinate overwrites: every item re-reads its
        footprint just before writing — a model copy and a compare on
        dense rows, a second gather on sparse ones, about a quarter of
        the b=1 item.  A one-worker pool has no other writer and skips
        it.  Disable for the leanest possible hot loop.
    epoch_timeout:
        Seconds the parent waits for an epoch barrier before declaring
        the run dead.  Workers themselves wait untimed — only the
        parent enforces liveness.
    """

    workers: int
    batch_size: int = 1
    track_conflicts: bool = True
    epoch_timeout: float = 120.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epoch_timeout <= 0:
            raise ConfigurationError(
                f"epoch_timeout must be positive, got {self.epoch_timeout}"
            )


@dataclass(kw_only=True)
class ShmTrainResult(MeasuredResult):
    """Outcome of a measured shared-memory run."""

    workers: int
    #: Workers still in the pool at the end (== ``workers`` unless a
    #: repartition recovery shrank it).
    workers_final: int = 0


def _item_body(model, X: Matrix, y: np.ndarray, w: np.ndarray, step, batch_size, track):
    """The update one work item applies to *w*, chosen once per run.

    Returns ``body(item) -> conflicts``: read the model, compute the
    item's gradient, count the coordinates of its footprint that changed
    since the read (0 when not *track*), write.  At ``batch_size == 1``
    *item* is a row number and the arithmetic is
    :meth:`LinearModel.serial_sgd_epoch`'s, expression for expression
    (Python-scalar labels and row bounds, ``ndarray.dot``, ``take`` /
    ``put``) — except that the sparse write re-reads the model, so a
    peer's update landing between read and write survives exactly as
    under Hogwild; above it *item* is an array of rows and the kernels
    are vectorised.
    """
    sparse = hasattr(X, "gather_rows_arrays")
    count = np.count_nonzero
    labels = y.tolist()
    if sparse:
        indptr, indices, data = X.indptr.tolist(), X.indices, X.data
        take, put = w.take, w.put
    else:
        Xd = np.asarray(X, dtype=np.float64)

    def sparse_one(i: int) -> int:
        lo, hi = indptr[i], indptr[i + 1]
        if lo == hi:
            return 0
        idx, val = indices[lo:hi], data[lo:hi]
        read = take(idx)  # lock-free model read
        yi = labels[i]
        coef = yi * dmargin(yi * val.dot(read))
        hit = count(take(idx) != read) if track else 0
        if coef != 0.0:
            put(idx, take(idx) - (step * coef) * val)  # lock-free write
        return hit

    def dense_one(i: int) -> int:
        xi, yi = Xd[i], labels[i]
        read = w.copy() if track else w
        coef = yi * dmargin(yi * xi.dot(read))
        hit = count(w != read) if track else 0
        if coef != 0.0:
            np.subtract(w, (step * coef) * xi, out=w)
        return hit

    def sparse_batch(rows: np.ndarray) -> int:
        ptr, idx, val, _ = X.gather_rows_arrays(rows)
        read = w[idx]
        counts = np.diff(ptr)
        margins = np.zeros(rows.shape[0], dtype=np.float64)
        if idx.size:
            nonempty = counts > 0
            margins[nonempty] = np.add.reduceat(val * read, ptr[:-1][nonempty])
        coef = y[rows] * dmargin(y[rows] * margins)
        values = (-step * np.repeat(coef, counts)) * val
        hit = count(w[idx] != read) if track else 0
        np.add.at(w, idx, values)  # lock-free scatter
        return hit

    def dense_batch(rows: np.ndarray) -> int:
        Xb = Xd[rows]
        read = w.copy() if track else w
        coef = y[rows] * dmargin(y[rows] * (Xb @ read))
        hit = count(w != read) if track else 0
        for delta in (-step * coef)[:, None] * Xb:  # per-word-atomic adds, in order
            np.add(w, delta, out=w)
        return hit

    if batch_size == 1:
        dmargin = model._dmargin_scalar
        return sparse_one if sparse else dense_one
    dmargin = model._dmargin_fn
    return sparse_batch if sparse else dense_batch


def _run_pass(body, work, sizes, words, base, progress, kill_item=None) -> bool:
    """One lock-free pass over *work*; True if it stopped at *kill_item*.

    Per item: fault check, peer read, the item, peer read, publish.  The
    published word — this worker's update count at ``words[base]`` — is
    what the peers' stale-read detection watches (*progress* is every
    worker's), so it is written after every item; items, stale reads and
    conflicts are tallied locally and added to the block when the pass
    ends or is killed (*kill_item* < ``len(work)``).
    """
    updates = words[base + _SLOT_UPDATES]
    items = stale = conflicts = 0
    for rows, size in zip(work, sizes):
        if items == kill_item:
            break
        before = sum(progress)
        conflicts += body(rows)
        if sum(progress) != before:
            stale += size
        updates += size
        words[base + _SLOT_UPDATES] = updates
        items += 1
    words[base + _SLOT_ITEMS] += items
    words[base + _SLOT_STALE] += stale
    words[base + _SLOT_CONFLICTS] += int(conflicts)
    return items == kill_item


def _worker_loop(
    *,
    shm_name: str,
    counters_name: str,
    model: Model,
    X: Matrix,
    y: np.ndarray,
    part: np.ndarray,
    n_params: int,
    n_workers: int,
    worker_id: int,
    step: float,
    max_epochs: int,
    batch_size: int,
    track_conflicts: bool,
    seed: int,
    start_barrier,
    end_barrier,
    faults: tuple = (),
    epoch_offset: int = 0,
) -> None:
    """One worker: barrier-aligned epochs of lock-free partition passes.

    Barrier waits are untimed — the parent owns liveness.  A broken
    barrier means the parent is tearing the pool down (another worker
    died, or the run timed out); the worker exits quietly.  *faults*
    is this worker's resolved slice of the run's fault plan.
    """
    shm = shared_memory.SharedMemory(name=shm_name)
    cshm = shared_memory.SharedMemory(name=counters_name)
    # Plain-int views of the block: ~40 ns a word against a NumPy scalar's 170.
    words = cshm.buf.cast("q")
    progress = words[_N_CTL + _SLOT_UPDATES :: _N_SLOTS]
    base = _N_CTL + worker_id * _N_SLOTS
    try:
        w = np.ndarray((n_params,), dtype=np.float64, buffer=shm.buf)
        rng = derive_rng(seed, f"shm/{n_workers}/{worker_id}")
        # Alone in the pool there is no other writer: nothing to track.
        body = _item_body(
            model, X, y, w, step, batch_size, track_conflicts and n_workers > 1
        )

        for local_epoch in range(max_epochs):
            try:
                start_barrier.wait()
            except threading.BrokenBarrierError:
                return
            if words[_CTL_STOP]:
                break
            order = part[rng.permutation(part.shape[0])]
            starts = range(0, order.shape[0], batch_size)
            kill_item = None
            sleep_seconds = 0.0
            if faults:
                epoch = epoch_offset + local_epoch + 1
                for spec in faults:
                    if spec["epoch"] != epoch:
                        continue
                    if spec["kind"] == "kill":
                        # Die halfway through the pass: partial updates
                        # are already committed, like a real crash.
                        kill_item = len(starts) // 2
                        continue
                    words[base + _SLOT_FAULTS] += 1
                    if spec["kind"] in ("stall", "delay"):
                        sleep_seconds += spec["seconds"]
                    else:  # nan: the pass starts from a poisoned first window
                        window = ...  # dense: the whole model
                        if hasattr(X, "gather_rows_arrays"):
                            window = X.gather_rows_arrays(order[:batch_size])[1]
                        w[window] = np.nan
            if batch_size == 1:
                work = order.tolist()
            else:
                work = [order[lo : lo + batch_size] for lo in starts]
            sizes = [batch_size] * len(starts)
            sizes[-1] = order.shape[0] - starts[-1]
            if _run_pass(body, work, sizes, words, base, progress, kill_item):
                words[base + _SLOT_FAULTS] += 1
                os._exit(_FAULT_EXITCODE)
            if sleep_seconds:
                time.sleep(sleep_seconds)
            try:
                end_barrier.wait()
            except threading.BrokenBarrierError:
                return
    finally:
        # An exported view left alive makes close() raise BufferError.
        progress.release()
        words.release()
        shm.close()
        cshm.close()


class _Watchdog:
    """Liveness watch over one pool, for as long as the pool lives.

    A worker that exits before reaching a barrier would otherwise stall
    the parent for the full timeout; the watchdog notices within ~100 ms
    and breaks the barrier the parent is waiting at (:attr:`barrier`,
    ``None`` between waits, when a clean exit is not a death).
    """

    def __init__(self, procs: list) -> None:
        self.barrier = None
        # Deaths seen *before* aborting the barrier.  Blame is taken
        # from here, not re-read after the break: aborting releases the
        # healthy workers too, and they exit 0 — re-reading exit codes
        # would pin a stall timeout on an innocent survivor.
        self.observed: list[tuple[int, int]] = []
        self._procs = procs
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._watch, daemon=True)
        self._thread.start()

    def _watch(self) -> None:
        while not self._stop.wait(0.1):
            barrier = self.barrier
            if barrier is None:
                continue
            dead = [
                (k, p.exitcode)
                for k, p in enumerate(self._procs)
                if p.exitcode is not None
            ]
            if dead:
                self.observed.extend(dead)
                barrier.abort()
                return

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


def _await_barrier(
    barrier, watchdog: _Watchdog, timeout: float, phase: str, epoch: int | None = None
) -> None:
    """Wait at *barrier* under the pool's liveness *watchdog*.

    The raised error is structured: it carries the first dead worker's
    id and exit code (or ``worker_id=None`` for a pure timeout — a
    stalled worker leaves no corpse), the epoch and the phase, which is
    what the recovery policy dispatches on.
    """
    watchdog.barrier = barrier
    try:
        barrier.wait(timeout)
    except threading.BrokenBarrierError:
        dead = list(watchdog.observed)
        if dead:
            detail = ", ".join(f"worker {k} exitcode {c}" for k, c in dead)
            raise WorkerError(
                f"shared-memory worker(s) died at the {phase} barrier: {detail}",
                worker_id=dead[0][0],
                epoch=epoch,
                phase=phase,
                exitcode=dead[0][1],
            ) from None
        raise WorkerError(
            f"shared-memory run timed out after {timeout:.1f}s at the "
            f"{phase} barrier",
            epoch=epoch,
            phase=phase,
        ) from None
    finally:
        watchdog.barrier = None


@dataclass
class _ShmBackend:
    """The shared-memory transport under :func:`supervise_epochs`.

    The model is one shared buffer, an epoch is the stretch between the
    start and the end barrier, and the per-worker counter block is
    summed once the pool has exited.
    """

    model: Model
    X: Matrix
    y: np.ndarray
    init_params: np.ndarray
    config: SGDConfig
    schedule: ShmSchedule
    fault_plan: FaultPlan
    fail_fast: bool
    unit = "workers"

    def __post_init__(self) -> None:
        config, schedule, init_params = self.config, self.schedule, self.init_params
        self._seed = config.seed if config.seed is not None else DEFAULT_SEED
        self.width = min(schedule.workers, self.X.shape[0])
        self.epoch_timeout = schedule.epoch_timeout
        self.span = (
            "shm.optimize",
            {
                "workers": self.width,
                "batch_size": schedule.batch_size,
                "step_size": config.step_size,
            },
        )
        self.assignments = self.fault_plan.resolve(
            self.width, run_seed=self._seed, epoch_timeout=schedule.epoch_timeout
        )
        self._ctx = fork_context()
        self._procs: list = []
        self._barriers: tuple = ()
        self._watchdog: _Watchdog | None = None
        self._shm = shared_memory.SharedMemory(create=True, size=init_params.nbytes)
        self._cshm = shared_memory.SharedMemory(
            create=True, size=(_N_CTL + self.width * _N_SLOTS) * 8
        )
        self._shared = np.ndarray(
            init_params.shape, dtype=np.float64, buffer=self._shm.buf
        )
        self._shared[:] = init_params
        self._ctl = np.ndarray((_N_CTL,), dtype=np.int64, buffer=self._cshm.buf)
        self._ctl[:] = 0
        self._counters = np.ndarray(
            (self.width, _N_SLOTS),
            dtype=np.int64,
            buffer=self._cshm.buf,
            offset=_N_CTL * 8,
        )
        self._counters[:] = 0

    def spawn(self, width: int, next_epoch: int, assignments: dict) -> None:
        start, end = self._ctx.Barrier(width + 1), self._ctx.Barrier(width + 1)
        self._barriers = (start, end)
        self._procs = [
            self._ctx.Process(
                target=_worker_loop,
                name=f"shm-worker-{k}",
                kwargs=dict(
                    shm_name=self._shm.name,
                    counters_name=self._cshm.name,
                    model=self.model,
                    X=self.X,
                    y=self.y,
                    part=np.arange(k, self.X.shape[0], width, dtype=np.int64),
                    n_params=self._shared.shape[0],
                    n_workers=width,
                    worker_id=k,
                    step=self.config.step_size,
                    max_epochs=self.config.max_epochs - (next_epoch - 1),
                    batch_size=self.schedule.batch_size,
                    track_conflicts=self.schedule.track_conflicts,
                    seed=self._seed,
                    start_barrier=start,
                    end_barrier=end,
                    faults=tuple(assignments.get(k, ())),
                    epoch_offset=next_epoch - 1,
                ),
            )
            for k in range(width)
        ]
        for p in self._procs:
            p.start()
        self._watchdog = _Watchdog(self._procs)

    def run_epoch(self, epoch: int, timeout: float) -> None:
        start, end = self._barriers
        _await_barrier(start, self._watchdog, timeout, "epoch-start", epoch)
        _await_barrier(end, self._watchdog, timeout, "epoch-end", epoch)

    def teardown_pool(self) -> None:
        # Healthy workers blocked at a barrier see the abort as a broken
        # barrier and exit on their own; anything still alive after the
        # grace (stalled, or mid-pass on a large partition) is killed.
        if self._watchdog is not None:
            self._watchdog.stop()
        for b in self._barriers:
            try:
                b.abort()
            except (ValueError, OSError):  # pragma: no cover - defensive
                pass
        reap(self._procs, 2.0)

    def snapshot(self) -> np.ndarray:
        return self._shared.copy()

    def write_params(self, params: np.ndarray) -> None:
        self._shared[:] = params

    def finish(
        self, epochs_run: int, early: bool, timeout: float
    ) -> tuple[np.ndarray, list[dict]]:
        exit_log: list[dict] = []
        if early:
            # Workers that have epochs left wait at the start barrier:
            # meet them there with the stop flag up.
            self._ctl[_CTL_STOP] = 1
            try:
                _await_barrier(
                    self._barriers[0], self._watchdog, timeout, "shutdown", epochs_run
                )
            except WorkerError as err:
                if self.fail_fast:
                    raise
                # The run already has its result; the join below reaps
                # the stragglers.
                exit_log.append(
                    {
                        "action": "shutdown_failure_ignored",
                        "epoch": epochs_run,
                        "cause": err.describe(),
                    }
                )
        exit_log += reap_pool(
            self._procs, timeout, self.unit, epochs_run, self.fail_fast
        )
        self._totals = self._counters.sum(axis=0)
        return self._shared.copy(), exit_log

    def counters(self) -> dict[str, float]:
        totals = self._totals  # summed at finish: the block is unlinked by now
        return {
            keys.UPDATES_APPLIED: float(totals[_SLOT_UPDATES]),
            keys.GRAD_EVALS: float(totals[_SLOT_UPDATES]),
            keys.ASYNC_ROUNDS: float(totals[_SLOT_ITEMS]),
            keys.STALE_READS: float(totals[_SLOT_STALE]),
            keys.UPDATE_CONFLICTS: float(totals[_SLOT_CONFLICTS]),
            keys.FAULT_INJECTED: float(totals[_SLOT_FAULTS]),
        }

    def close(self) -> None:
        for seg in (self._shm, self._cshm):
            seg.close()
            seg.unlink()


def train_shm(
    model: Model,
    X: Matrix,
    y: np.ndarray,
    init_params: np.ndarray,
    config: SGDConfig,
    schedule: ShmSchedule,
    telemetry: AnyTelemetry | None = None,
    fault_plan: FaultPlan | None = None,
    recovery: RecoveryPolicy | None = None,
    snapshot: Any | None = None,
) -> ShmTrainResult:
    """Train on the host's cores through the shared-memory backend.

    The recorded loss curve is *measured* statistical efficiency (one
    loss evaluation per epoch, on a snapshot of the racing model) and
    the wall-clock gauges are measured hardware efficiency, making this
    the native analogue of the paper's per-epoch measurement loop.

    Parameters
    ----------
    fault_plan:
        Seeded faults to inject into the workers (chaos testing); see
        :class:`repro.faults.FaultPlan`.  ``None`` injects nothing.
    recovery:
        Bounded recovery from worker failures; see
        :class:`repro.faults.RecoveryPolicy`.  ``None`` (the default)
        keeps the fail-fast behaviour: the first failure raises.
    snapshot:
        A :class:`repro.serving.SnapshotPublisher` (duck-typed: only
        ``publish(params, epoch=, loss=)`` is called) that receives a
        consistent copy of the model at every epoch boundary — the
        initial model as version 1, then one version per finite epoch.
        Publishes happen while the workers idle at a barrier, so the
        copied vector is race-free; the publisher's seqlock makes the
        hand-off to concurrent readers consistent.  ``None`` (the
        default) publishes nothing.

    Raises
    ------
    ConfigurationError
        For models without the vectorised link-derivative machinery
        (the MLP's Hogbatch runs through the simulator).
    WorkerError
        When a worker dies or stops responding and no recovery policy
        is set — or the policy's retry budget is exhausted; workers
        and shared buffers are torn down before raising.
    """
    if not hasattr(model, "_dmargin_fn"):
        raise ConfigurationError(
            f"{type(model).__name__} is not supported by the shared-memory "
            "backend; it drives the margin-based linear models (lr/svm)"
        )
    if getattr(model, "l2", 0.0):
        raise ConfigurationError(
            "the shared-memory backend implements the paper's unregularised "
            "objectives (l2=0)"
        )
    init_params = np.asarray(init_params, dtype=np.float64)
    plan = fault_plan or FaultPlan(specs=())
    backend = _ShmBackend(
        model, X, y, init_params, config, schedule, plan, recovery is None
    )
    run = supervise_epochs(
        backend, model, X, y, init_params, config, recovery, snapshot, telemetry
    )
    return ShmTrainResult(
        **run,
        batch_size=schedule.batch_size,
        workers=backend.width,
        # Each repartition narrowed the pool by exactly one.
        workers_final=backend.width - run["repartitions"],
    )
