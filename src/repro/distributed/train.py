"""Drive a multi-node parameter-server run end to end.

:func:`train_ps` is the distributed sibling of
:func:`repro.parallel.train_shm`: both run
:func:`repro.faults.supervise.supervise_epochs` — one epoch loop, one
recovery policy, one telemetry vocabulary — and differ in transport.
Here the model lives in a :class:`~repro.distributed.server.ShardServer`
in its own supervised process
(:class:`~repro.distributed.supervisor.RemoteServerHandle`) and the
workers reach it over TCP, so what the run measures is the
paper's *distributed* asynchronous regime: staleness from wire latency
and sharded pulls rather than from cache-coherent racing.

The epoch barrier is the ordered TCP stream itself: a worker's pushes
all precede its ``EPOCH_DONE`` on its own connection, so once every
live worker has arrived the server's shards are quiescent.  A pool
rebuild respawns the workers against the same shard state
(``node-kill`` mid-epoch costs the partial epoch, not the model).  A
lost server is **crash-restart failover**: with checkpointing
configured it is respawned from the newest valid checkpoint, its new
port is broadcast to the workers through a shared cell, and the epoch
is replayed; without a checkpoint there is nothing to restore, and the
death ends the run.  Wire faults (``conn-drop`` /
``frame-delay`` / ``frame-corrupt``) never reach the loop: the workers
heal them in place by reconnect-and-resume.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..faults import FaultPlan, RecoveryPolicy
from ..faults.supervise import MeasuredResult, reap, reap_pool, supervise_epochs
from ..models.base import Matrix, Model
from ..sgd.config import SGDConfig
from ..telemetry import keys
from ..telemetry.session import AnyTelemetry, ensure_telemetry
from ..utils.errors import ConfigurationError, ServerDiedError, WorkerError
from ..utils.processes import fork_context
from ..utils.rng import DEFAULT_SEED
from .checkpoint import CheckpointPolicy
from .server import default_ps_shards
from .supervisor import RemoteServerHandle
from .worker import worker_main

__all__ = ["PsSchedule", "PsTrainResult", "train_ps", "default_ps_nodes"]


def default_ps_nodes() -> int:
    """Node count used when the caller does not pick one."""
    return min(4, os.cpu_count() or 1)


@dataclass(frozen=True)
class PsSchedule:
    """Execution shape of one parameter-server run.

    Attributes
    ----------
    nodes:
        Worker processes pulling from / pushing to the shard server
        (clamped to the example count).
    shards:
        Parameter shards on the server; ``None`` picks
        :func:`~repro.distributed.server.default_ps_shards`.
    max_staleness:
        Bounded-staleness window in work items: a worker more than
        this far ahead of the slowest live worker blocks on pull.
        ``None`` (the default) is the unbounded fast-async regime;
        ``0`` is lock-step.
    batch_size:
        Rows per work item (1 = per-example push/pull, the regime the
        serial-equivalence guarantee covers).
    epoch_timeout:
        Seconds the parent waits for an epoch barrier before declaring
        the pool dead.  Workers wait untimed — liveness is the
        parent's job.
    checkpoint_dir:
        Directory for the server's versioned shard checkpoints.
        ``None`` (the default) disables checkpointing — and with it,
        server failover: a server death then ends the run.
    checkpoint_every:
        Background-checkpoint trigger in pushes since the last write
        (``None`` = no item trigger; the parent's epoch-boundary
        flushes still run whenever ``checkpoint_dir`` is set).
    checkpoint_seconds:
        Background-checkpoint trigger in seconds since the last write
        (``None`` = no time trigger).
    """

    nodes: int
    shards: int | None = None
    max_staleness: int | None = None
    batch_size: int = 1
    epoch_timeout: float = 120.0
    checkpoint_dir: str | None = None
    checkpoint_every: int | None = None
    checkpoint_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ConfigurationError(f"nodes must be >= 1, got {self.nodes}")
        if self.shards is not None and self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        if self.max_staleness is not None and self.max_staleness < 0:
            raise ConfigurationError(
                f"max_staleness must be >= 0 or None, got {self.max_staleness}"
            )
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.epoch_timeout <= 0:
            raise ConfigurationError(
                f"epoch_timeout must be positive, got {self.epoch_timeout}"
            )
        if self.checkpoint_dir is None and (
            self.checkpoint_every is not None
            or self.checkpoint_seconds is not None
        ):
            raise ConfigurationError(
                "checkpoint triggers need a checkpoint_dir to write into"
            )
        self.checkpoint_policy()  # validates the triggers

    def checkpoint_policy(self) -> CheckpointPolicy | None:
        """The schedule's checkpoint fields as a server policy."""
        if self.checkpoint_dir is None:
            return None
        return CheckpointPolicy(
            self.checkpoint_dir,
            every_items=self.checkpoint_every,
            every_seconds=self.checkpoint_seconds,
        )


@dataclass(kw_only=True)
class PsTrainResult(MeasuredResult):
    """Outcome of a measured parameter-server run."""

    nodes: int
    shards: int
    max_staleness: int | None
    #: Nodes still in the pool at the end (== ``nodes`` unless a
    #: repartition recovery shrank it).
    nodes_final: int = 0
    #: Crash-restart failovers of the shard server performed.
    server_failovers: int = 0
    #: Wall seconds from the last failover's detection to the first
    #: post-recovery push (``None`` when no failover completed).
    time_to_repair_seconds: float | None = None

    @property
    def pull_rounds_per_update(self) -> float:
        """Pull round-trips one applied update cost on the wire."""
        updates = self.counters.get(keys.UPDATES_APPLIED, 0.0)
        if not updates:
            return 0.0
        return self.counters.get(keys.PS_PULL_ROUNDS, 0.0) / updates


def _wait_epoch(
    server: RemoteServerHandle, procs: list, timeout: float, epoch: int
) -> None:
    """Block until every live node finished *epoch*, with a watchdog.

    Each ~100 ms wait slice is also a liveness probe of the server, so
    a crashed or wedged server surfaces here as :class:`ServerDiedError`.
    Mirrors the shm backend's barrier blame semantics: a node process
    that exits before arriving raises a structured :class:`WorkerError`
    within ~100 ms (worker id + exit code); a pure timeout — a stalled
    node leaves no corpse — raises with ``worker_id=None``.
    """
    deadline = time.perf_counter() + timeout
    while not server.wait_epoch(epoch, 0.1):
        dead = [
            (k, p.exitcode) for k, p in enumerate(procs) if p.exitcode is not None
        ]
        if dead:
            detail = ", ".join(f"node {k} exitcode {c}" for k, c in dead)
            raise WorkerError(
                f"parameter-server node(s) died during epoch {epoch}: {detail}",
                worker_id=dead[0][0],
                epoch=epoch,
                phase="epoch",
                exitcode=dead[0][1],
            )
        if time.perf_counter() >= deadline:
            raise WorkerError(
                f"parameter-server run timed out after {timeout:.1f}s "
                f"waiting for epoch {epoch}",
                epoch=epoch,
                phase="epoch",
            )


@dataclass
class _PsBackend:
    """The parameter-server transport under :func:`supervise_epochs`.

    The model lives in a shard server supervised in its own process
    (:class:`RemoteServerHandle`), and an epoch is over when every
    node's ``EPOCH_DONE`` has arrived on its ordered stream.
    """

    model: Model
    X: Matrix
    y: np.ndarray
    init_params: np.ndarray
    config: SGDConfig
    schedule: PsSchedule
    fault_plan: FaultPlan
    fail_fast: bool
    unit = "nodes"

    def __post_init__(self) -> None:
        config, schedule, init_params = self.config, self.schedule, self.init_params
        fault_plan = self.fault_plan
        self._seed = config.seed if config.seed is not None else DEFAULT_SEED
        n = self.X.shape[0]
        self.width = min(schedule.nodes, n)
        self.epoch_timeout = schedule.epoch_timeout
        resolve = {"run_seed": self._seed, "epoch_timeout": schedule.epoch_timeout}
        self.assignments = fault_plan.resolve_nodes(self.width, **resolve)
        self._wire_assignments = fault_plan.resolve_wire(self.width, **resolve)
        self._server_specs = fault_plan.resolve_server(
            epoch_timeout=schedule.epoch_timeout
        )
        self._ckpt_policy = schedule.checkpoint_policy()
        if self._server_specs and self._ckpt_policy is None:
            raise ConfigurationError(
                "server faults need checkpointing (set checkpoint_dir): killing "
                "an uncheckpointed server would silently restart training from "
                "scratch instead of exercising failover"
            )
        self.shards = schedule.shards or default_ps_shards(init_params.shape[0])
        staleness = schedule.max_staleness
        self.span = (
            "ps.optimize",
            {
                "nodes": self.width,
                "shards": self.shards,
                "batch_size": schedule.batch_size,
                "max_staleness": -1 if staleness is None else staleness,
                "step_size": config.step_size,
            },
        )
        self._ctx = fork_context()
        self._procs: list = []
        self._failovers = 0
        self._server_faults_fired = 0
        pushes_per_epoch = None
        if self._server_specs:
            # Every worker must finish its pass before a server fault
            # fires: the trigger is the run's per-epoch push count,
            # halved server-side.
            pushes_per_epoch = sum(
                -(-np.arange(k, n, self.width).shape[0] // schedule.batch_size)
                for k in range(self.width)
            )
        self.server = RemoteServerHandle(
            self._ctx,
            init_params=init_params,
            shards=self.shards,
            max_staleness=schedule.max_staleness,
            expected_workers=self.width,
            checkpoint=self._ckpt_policy,
            server_faults=self._server_specs,
            pushes_per_epoch=pushes_per_epoch,
            probe_timeout=min(5.0, max(0.5, schedule.epoch_timeout / 4.0)),
        )
        # The workers' view of the server address: a failover respawns
        # the server on a fresh port and rewrites this cell, and every
        # redial re-reads it — the broadcast that makes mid-run healing
        # possible.
        self._port_cell = self._ctx.Value("i", self.server.port)

    def spawn(self, width: int, next_epoch: int, assignments: dict) -> None:
        if self._procs:
            # A rebuilt pool registers from scratch; the shard state
            # stays put on the server.
            self.server.reset_pool(width)
        self._procs = [
            self._ctx.Process(
                target=worker_main,
                name=f"ps-node-{k}",
                args=(
                    self.server.host,
                    self._port_cell,
                    self.model,
                    self.X,
                    self.y,
                    np.arange(k, self.X.shape[0], width, dtype=np.int64),
                    width,
                    k,
                    self.config.step_size,
                    self.config.max_epochs - (next_epoch - 1),
                    self.schedule.batch_size,
                    self._seed,
                    tuple(assignments.get(k, ())),
                    next_epoch - 1,
                    tuple(self._wire_assignments.get(k, ())),
                ),
            )
            for k in range(width)
        ]
        for p in self._procs:
            p.start()

    def run_epoch(self, epoch: int, timeout: float) -> None:
        self.server.release_epoch(epoch)
        _wait_epoch(self.server, self._procs, timeout, epoch)
        if self._ckpt_policy is not None:
            # Boundary checkpoint, on the clock — it is per-epoch work
            # the tier does: makes "replay the interrupted epoch" the
            # worst case after any later server death.
            self.server.checkpoint_now(boundary=True)

    def teardown_pool(self) -> None:
        # A node blocked on its socket will not leave on its own.
        for p in self._procs:
            if p.is_alive():
                p.terminate()
        reap(self._procs, 2.0)

    def snapshot(self) -> np.ndarray:
        # Every live node is blocked at the epoch barrier and all its
        # pushes preceded its EPOCH_DONE on the same ordered stream:
        # the shards are quiescent.
        return self.server.snapshot()

    def write_params(self, params: np.ndarray) -> None:
        self.server.write_params(params)

    def failover(self, epoch: int, err: ServerDiedError) -> None:
        """Crash-restart the server from its newest checkpoint.

        The workers are not touched: each one's next frame fails, it
        redials the port cell, resumes from its server-side clock and
        replays only the unacknowledged tail.  Without a checkpoint
        policy *err* is re-raised: a respawned server would hold
        ``init_params`` at resume clock 0, and the run would carry on
        with every trained epoch silently lost.
        """
        if self._ckpt_policy is None:
            raise err
        # The fault that killed this generation must not re-arm on the
        # respawned server: drop the first spec that was due.  SIGKILL
        # loses the server-side FAULT_INJECTED bump, so count it here.
        due = next(
            (i for i, s in enumerate(self._server_specs) if s["epoch"] <= epoch),
            None,
        )
        if due is not None:
            del self._server_specs[due]
            self._server_faults_fired += 1
        self._port_cell.value = self.server.respawn(
            server_faults=self._server_specs
        )
        self._failovers += 1

    def finish(
        self, epochs_run: int, early: bool, timeout: float
    ) -> tuple[np.ndarray | None, list[dict]]:
        exit_log: list[dict] = []
        try:
            # Every node's barrier ack carries the stop flag, each
            # answers with BYE and exits 0.
            self.server.release_epoch(epochs_run, stop=True)
            exit_log += reap_pool(
                self._procs, timeout, self.unit, epochs_run, self.fail_fast
            )
            return self.server.snapshot(), exit_log
        except ServerDiedError as err:
            # The run's result is already recorded; a server death
            # during the exit handshake costs only the stragglers (the
            # loop reaps them) and the final snapshot.
            exit_log.append(
                {
                    "action": "server_lost_at_exit",
                    "epoch": epochs_run,
                    "cause": err.describe(),
                }
            )
            return None, exit_log

    def counters(self) -> dict[str, float]:
        totals = dict(self.server.counters)
        totals.setdefault(keys.UPDATES_APPLIED, 0.0)
        totals[keys.GRAD_EVALS] = totals[keys.UPDATES_APPLIED]
        totals[keys.ASYNC_ROUNDS] = totals.get(keys.PS_PUSHES, 0.0)
        totals[keys.FAULT_INJECTED] = float(
            self.server.faults_reported + self._server_faults_fired
        )
        totals[keys.PS_SERVER_FAILOVERS] = float(self._failovers)
        return totals

    def close(self) -> None:
        self.server.close()


def train_ps(
    model: Model,
    X: Matrix,
    y: np.ndarray,
    init_params: np.ndarray,
    config: SGDConfig,
    schedule: PsSchedule,
    telemetry: AnyTelemetry | None = None,
    fault_plan: FaultPlan | None = None,
    recovery: RecoveryPolicy | None = None,
    snapshot: Any | None = None,
) -> PsTrainResult:
    """Train against a local multi-process parameter server.

    Parameters mirror :func:`repro.parallel.train_shm`; *fault_plan*
    contributes its node-level kinds (``node-kill`` / ``node-stall``)
    resolved through :meth:`~repro.faults.FaultPlan.resolve_nodes`.

    Raises
    ------
    ConfigurationError
        For models without the scalar link-derivative machinery (the
        backend drives the margin-based linear models, lr/svm), or
        with L2 regularisation (the paper's objectives here are
        unregularised).
    WorkerError
        When a node dies or stops responding and no recovery policy is
        set — or the policy's retry budget is exhausted; the node pool
        and the server's sockets are torn down before raising.
    ServerDiedError
        When the shard server dies and cannot fail over: no recovery
        policy, an exhausted budget, or no ``checkpoint_dir`` to
        restore from.
    """
    if not hasattr(model, "_dmargin_scalar"):
        raise ConfigurationError(
            f"{type(model).__name__} is not supported by the parameter-server "
            "backend; it drives the margin-based linear models (lr/svm)"
        )
    if getattr(model, "l2", 0.0):
        raise ConfigurationError(
            "the parameter-server backend implements the paper's "
            "unregularised objectives (l2=0)"
        )
    tel = ensure_telemetry(telemetry)
    init_params = np.asarray(init_params, dtype=np.float64)
    plan = fault_plan or FaultPlan(specs=())
    backend = _PsBackend(
        model, X, y, init_params, config, schedule, plan, recovery is None
    )
    run = supervise_epochs(
        backend, model, X, y, init_params, config, recovery, snapshot, tel
    )
    failovers = [e for e in run["recovery"] if e["action"] == "server_failover"]
    repairs = backend.server.repairs
    for entry, seconds in zip(failovers, repairs):
        entry["time_to_repair_seconds"] = seconds
    if repairs:
        tel.set_gauge(keys.PS_TIME_TO_REPAIR_SECONDS, repairs[-1])
    result = PsTrainResult(
        **run,
        batch_size=schedule.batch_size,
        nodes=backend.width,
        shards=backend.shards,
        max_staleness=schedule.max_staleness,
        # Each repartition narrowed the pool by exactly one.
        nodes_final=backend.width - run["repartitions"],
        server_failovers=len(failovers),
        time_to_repair_seconds=repairs[-1] if repairs else None,
    )
    if result.updates_applied:
        tel.set_gauge(keys.PS_PULL_ROUNDS_PER_UPDATE, result.pull_rounds_per_update)
    return result
