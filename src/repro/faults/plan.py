"""Deterministic fault plans for the measured shared-memory backend.

A :class:`FaultPlan` describes *what goes wrong and when* in a
``train_shm`` run: a worker killed at epoch k, a worker stalled past
the parent's watchdog window, a late barrier arrival, or a gradient
window poisoned with NaNs.  Plans are data, not behaviour — the
shared-memory workers interpret the resolved specs — and they are
seeded through :func:`repro.utils.rng.derive_rng`, so a chaos run is as
reproducible as a healthy one: the same ``(plan, seed, workers)``
triple always injects the same faults into the same workers.

The four fault kinds map to the failure modes a lock-free
data-partitioned SGD deployment actually sees:

``kill``
    The worker process exits abruptly mid-epoch (``os._exit``), halfway
    through its partition pass — partial updates are already committed,
    exactly like a real crash.
``stall``
    The worker stops responding for longer than the parent's epoch
    timeout (default: ``3 x epoch_timeout``), modelling a straggler
    wedged in an NFS read or a page-fault storm.
``delay``
    The worker arrives late (default 50 ms) at the epoch-end barrier
    but *within* the watchdog window — a healthy run must absorb this
    without any recovery action.
``nan``
    The worker scribbles NaNs over the coordinate window of its first
    work item — a poisoned gradient, the numeric failure HOGWILD!-style
    systems must contain.

One layer up, the *grid-level* kinds target whole experiment-grid jobs
instead of shm workers (see :mod:`repro.experiments.executor` and
docs/RESILIENCE.md).  For these, ``epoch`` is the 1-based *job index*
in the grid's submission order and ``worker`` bounds how many attempts
the fault fires on (``cell-kill@3:w1`` kills job 3's first attempt
only, so a retry heals it; with no ``wK`` the fault fires on every
attempt and the cell ends up quarantined):

``cell-kill``
    The worker process assigned the cell dies abruptly before
    training.
``cell-stall``
    The worker wedges (sleeps ``seconds``) before its heartbeat ever
    starts, so the grid watchdog must detect and kill it.
``cell-nan``
    The cell's result comes back with non-finite losses, exercising
    the executor's divergence sentinel and step-size backoff.

A third family targets the distributed parameter-server backend
(:mod:`repro.distributed`), where workers are separate processes
speaking the binary wire protocol instead of sharing a segment:

``node-kill``
    The worker process exits abruptly (``os._exit``) halfway through
    its epoch pass — committed pushes stay applied on the server,
    exactly like a real node crash; the server reaps the dead
    connection and the parent's recovery policy rebuilds the pool.
``node-stall``
    The worker wedges mid-epoch for longer than the parent's epoch
    timeout (default ``3 x epoch_timeout``), so the parent watchdog
    must declare the epoch dead and respawn.

Two further families complete the parameter-server failure model.
*Server-level* kinds target the shard server itself (no ``worker``
token — there is exactly one server; they require the server to run
in its own process with checkpointing configured, see
docs/RESILIENCE.md):

``server-kill``
    The server process SIGKILLs itself halfway through epoch
    ``epoch``'s pushes — the crash the checkpoint/failover machinery
    exists for.  The parent detects the dead control socket, respawns
    the server from the newest valid checkpoint on a fresh port, and
    the workers reconnect and replay.
``server-stall``
    The server's event loop wedges for ``seconds`` (default ``3 x
    epoch_timeout``) starting mid-epoch, so the parent's liveness
    probe must time out and drive the same crash-restart failover —
    a wedged server and a dead server heal identically.

*Wire-level* kinds target one worker's connection (``worker``/``epoch``
semantics match the node kinds; resolved by
:meth:`FaultPlan.resolve_wire` and injected through the seeded
:class:`~repro.distributed.lossy.FaultyWire` socket wrapper):

``conn-drop``
    The worker's connection closes right before a frame leaves; the
    worker heals it alone — reconnect, rewind to the server's resume
    clock, replay the in-flight item (``ps.reconnects_midrun``), no
    recovery budget consumed.
``frame-delay``
    One frame is sent ``seconds`` late (default 50 ms) — latency the
    run must absorb with no recovery action.
``frame-corrupt``
    One seeded payload byte of a frame is flipped; the receiver's
    CRC32 rejects the frame (``ps.frames_rejected``) and drops the
    connection — the corrupted push is never applied, and the worker
    heals like a drop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from ..utils.errors import ConfigurationError
from ..utils.rng import derive_rng

__all__ = [
    "FAULT_KINDS",
    "GRID_FAULT_KINDS",
    "NODE_FAULT_KINDS",
    "SERVER_FAULT_KINDS",
    "WIRE_FAULT_KINDS",
    "ALL_FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
]

#: The injectable shared-memory failure modes, in documentation order.
FAULT_KINDS: tuple[str, ...] = ("kill", "stall", "delay", "nan")

#: Grid-level failure modes interpreted by the experiment-grid executor
#: (``epoch`` = 1-based job submission index, ``worker`` = number of
#: attempts the fault fires on, ``None`` = every attempt).
GRID_FAULT_KINDS: tuple[str, ...] = ("cell-kill", "cell-stall", "cell-nan")

#: Failure modes of the distributed parameter-server backend, targeting
#: whole worker nodes (``epoch``/``worker`` semantics match the shm
#: kinds; resolved by :meth:`FaultPlan.resolve_nodes`).
NODE_FAULT_KINDS: tuple[str, ...] = ("node-kill", "node-stall")

#: Failure modes of the shard server itself (one server per run, so no
#: ``worker`` token; resolved by :meth:`FaultPlan.resolve_server` and
#: requiring the server-process + checkpointing failover machinery).
SERVER_FAULT_KINDS: tuple[str, ...] = ("server-kill", "server-stall")

#: Wire-level failure modes injected into one worker's connection by
#: the seeded :class:`~repro.distributed.lossy.FaultyWire` wrapper
#: (resolved by :meth:`FaultPlan.resolve_wire`).
WIRE_FAULT_KINDS: tuple[str, ...] = ("conn-drop", "frame-delay", "frame-corrupt")

#: Every kind a :class:`FaultSpec` accepts.
ALL_FAULT_KINDS: tuple[str, ...] = (
    FAULT_KINDS
    + GRID_FAULT_KINDS
    + NODE_FAULT_KINDS
    + SERVER_FAULT_KINDS
    + WIRE_FAULT_KINDS
)

#: Barrier-arrival delay (seconds) when a ``delay`` spec omits its own.
DEFAULT_DELAY_SECONDS = 0.05

#: A ``stall`` with no explicit duration sleeps this multiple of the
#: epoch timeout — guaranteed to outlive the parent's barrier wait.
STALL_TIMEOUT_FACTOR = 3.0


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    epoch:
        1-based optimisation epoch at which the fault fires.
    worker:
        Target worker id, or ``None`` to let the plan's seeded RNG pick
        one at resolution time.
    seconds:
        Stall/delay duration; ``None`` selects the kind's default
        (:data:`STALL_TIMEOUT_FACTOR` x timeout for stalls,
        :data:`DEFAULT_DELAY_SECONDS` for delays).  Ignored by
        ``kill`` and ``nan``.
    """

    kind: str
    epoch: int
    worker: int | None = None
    seconds: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ALL_FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; available: {ALL_FAULT_KINDS}"
            )
        if self.epoch < 1:
            raise ConfigurationError(f"fault epoch must be >= 1, got {self.epoch}")
        if self.worker is not None and self.worker < 0:
            raise ConfigurationError(f"fault worker must be >= 0, got {self.worker}")
        if self.seconds is not None and self.seconds <= 0:
            raise ConfigurationError(
                f"fault seconds must be positive, got {self.seconds}"
            )

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the CLI grammar ``kind@epoch[:wK][:seconds]``.

        Examples: ``kill@3`` (seeded worker choice), ``stall@2:w1``,
        ``delay@1:w0:0.25``, ``nan@4:1.5`` (a token starting with ``w``
        is a worker id; a bare number is a duration).
        """
        head, sep, rest = text.strip().partition("@")
        if not sep or not head:
            raise ConfigurationError(
                f"fault spec {text!r} must look like 'kind@epoch[:wK][:seconds]'"
            )
        fields = rest.split(":")
        try:
            epoch = int(fields[0])
        except ValueError:
            raise ConfigurationError(
                f"fault spec {text!r} has a non-integer epoch {fields[0]!r}"
            ) from None
        worker: int | None = None
        seconds: float | None = None
        for token in fields[1:]:
            token = token.strip()
            if not token:
                continue
            if token[0] in ("w", "W"):
                try:
                    worker = int(token[1:])
                except ValueError:
                    raise ConfigurationError(
                        f"fault spec {text!r} has a bad worker token {token!r}"
                    ) from None
            else:
                try:
                    seconds = float(token)
                except ValueError:
                    raise ConfigurationError(
                        f"fault spec {text!r} has a bad duration token {token!r}"
                    ) from None
        return cls(kind=head.lower(), epoch=epoch, worker=worker, seconds=seconds)

    def describe(self) -> dict[str, Any]:
        """Plain-dict form for manifests."""
        return {
            "kind": self.kind,
            "epoch": self.epoch,
            "worker": self.worker,
            "seconds": self.seconds,
        }


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible set of faults to inject into one shm run.

    Attributes
    ----------
    specs:
        The planned faults.
    seed:
        Seed for the worker-choice stream of specs with
        ``worker=None``; ``None`` defers to the run's own seed, so a
        plan shared across configurations stays aligned with each run.
    """

    specs: tuple[FaultSpec, ...]
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __bool__(self) -> bool:
        return bool(self.specs)

    @classmethod
    def parse(cls, texts: Iterable[str], seed: int | None = None) -> "FaultPlan":
        """Build a plan from CLI spec strings (see :meth:`FaultSpec.parse`)."""
        return cls(specs=tuple(FaultSpec.parse(t) for t in texts), seed=seed)

    @classmethod
    def single(
        cls,
        kind: str,
        epoch: int,
        worker: int | None = None,
        seconds: float | None = None,
        seed: int | None = None,
    ) -> "FaultPlan":
        """Convenience: a plan with exactly one fault."""
        return cls(
            specs=(FaultSpec(kind=kind, epoch=epoch, worker=worker, seconds=seconds),),
            seed=seed,
        )

    def resolve(
        self, workers: int, *, run_seed: int, epoch_timeout: float
    ) -> dict[int, list[dict[str, Any]]]:
        """Pin every spec to a concrete worker and duration.

        Returns a mapping ``worker_id -> [{kind, epoch, seconds}, ...]``
        ready to ship to worker processes.  Worker choices for
        ``worker=None`` specs draw from ``derive_rng(seed, ...)`` in
        spec order, so resolution is a pure function of
        ``(plan, run_seed, workers)``.  Grid-level specs
        (:data:`GRID_FAULT_KINDS`) and node-level specs
        (:data:`NODE_FAULT_KINDS`) are ignored here — they belong to
        :meth:`resolve_grid` and :meth:`resolve_nodes`.
        """
        rng = derive_rng(
            self.seed if self.seed is not None else run_seed, f"faults/{workers}"
        )
        assigned: dict[int, list[dict[str, Any]]] = {}
        for spec in self.specs:
            if spec.kind not in FAULT_KINDS:
                continue
            worker = spec.worker if spec.worker is not None else int(
                rng.integers(workers)
            )
            if worker >= workers:
                raise ConfigurationError(
                    f"fault targets worker {worker} but the run has only "
                    f"{workers} worker(s)"
                )
            seconds = spec.seconds
            if seconds is None:
                seconds = (
                    epoch_timeout * STALL_TIMEOUT_FACTOR
                    if spec.kind == "stall"
                    else DEFAULT_DELAY_SECONDS
                )
            assigned.setdefault(worker, []).append(
                {"kind": spec.kind, "epoch": spec.epoch, "seconds": float(seconds)}
            )
        return assigned

    def resolve_nodes(
        self, nodes: int, *, run_seed: int, epoch_timeout: float
    ) -> dict[int, list[dict[str, Any]]]:
        """Pin node-level specs to concrete parameter-server workers.

        The mirror of :meth:`resolve` for the distributed backend:
        returns ``worker_id -> [{kind, epoch, seconds}, ...]`` with
        kinds drawn from :data:`NODE_FAULT_KINDS`.  Worker choices for
        ``worker=None`` specs use their own derivation stream
        (``faults/ps/<nodes>``), so a plan mixing shm and node kinds
        resolves each family independently and deterministically.
        A ``node-stall`` with no explicit duration sleeps
        :data:`STALL_TIMEOUT_FACTOR` x *epoch_timeout* — guaranteed to
        outlive the parent's epoch wait.
        """
        rng = derive_rng(
            self.seed if self.seed is not None else run_seed, f"faults/ps/{nodes}"
        )
        assigned: dict[int, list[dict[str, Any]]] = {}
        for spec in self.specs:
            if spec.kind not in NODE_FAULT_KINDS:
                continue
            worker = spec.worker if spec.worker is not None else int(
                rng.integers(nodes)
            )
            if worker >= nodes:
                raise ConfigurationError(
                    f"fault targets node {worker} but the run has only "
                    f"{nodes} node(s)"
                )
            seconds = spec.seconds
            if seconds is None:
                seconds = (
                    epoch_timeout * STALL_TIMEOUT_FACTOR
                    if spec.kind == "node-stall"
                    else 0.0
                )
            assigned.setdefault(worker, []).append(
                {"kind": spec.kind, "epoch": spec.epoch, "seconds": float(seconds)}
            )
        return assigned

    def resolve_wire(
        self, nodes: int, *, run_seed: int, epoch_timeout: float
    ) -> dict[int, list[dict[str, Any]]]:
        """Pin wire-level specs to concrete parameter-server workers.

        Same shape as :meth:`resolve_nodes` but for
        :data:`WIRE_FAULT_KINDS`, with its own derivation stream
        (``faults/wire/<nodes>``) so mixing node and wire kinds in one
        plan resolves each family independently.  A ``frame-delay``
        with no explicit duration uses :data:`DEFAULT_DELAY_SECONDS`;
        drops and corruptions are instantaneous.
        """
        rng = derive_rng(
            self.seed if self.seed is not None else run_seed,
            f"faults/wire/{nodes}",
        )
        assigned: dict[int, list[dict[str, Any]]] = {}
        for spec in self.specs:
            if spec.kind not in WIRE_FAULT_KINDS:
                continue
            worker = spec.worker if spec.worker is not None else int(
                rng.integers(nodes)
            )
            if worker >= nodes:
                raise ConfigurationError(
                    f"fault targets node {worker} but the run has only "
                    f"{nodes} node(s)"
                )
            seconds = spec.seconds
            if seconds is None:
                seconds = (
                    DEFAULT_DELAY_SECONDS if spec.kind == "frame-delay" else 0.0
                )
            assigned.setdefault(worker, []).append(
                {"kind": spec.kind, "epoch": spec.epoch, "seconds": float(seconds)}
            )
        return assigned

    def resolve_server(
        self, *, epoch_timeout: float
    ) -> list[dict[str, Any]]:
        """Pin server-level specs to concrete firing parameters.

        Returns ``[{kind, epoch, seconds}, ...]`` ready to ship to the
        shard-server process.  There is exactly one server, so no
        worker choice (and no RNG stream) is involved; a
        ``server-stall`` with no explicit duration wedges for
        :data:`STALL_TIMEOUT_FACTOR` x *epoch_timeout* — guaranteed to
        outlive the parent's liveness probe.
        """
        resolved: list[dict[str, Any]] = []
        for spec in self.specs:
            if spec.kind not in SERVER_FAULT_KINDS:
                continue
            seconds = spec.seconds
            if seconds is None:
                seconds = (
                    epoch_timeout * STALL_TIMEOUT_FACTOR
                    if spec.kind == "server-stall"
                    else 0.0
                )
            resolved.append(
                {"kind": spec.kind, "epoch": spec.epoch, "seconds": float(seconds)}
            )
        return resolved

    def resolve_grid(self, jobs: int) -> dict[int, dict[str, Any]]:
        """Pin grid-level specs to job indices for the grid executor.

        Returns a mapping ``job_index (1-based, submission order) ->
        {kind, seconds, attempts}`` where ``attempts`` is the number of
        attempts the fault fires on (``None`` = every attempt, so the
        cell exhausts its retry budget and is quarantined).  Specs with
        shm kinds, and specs targeting an index beyond *jobs*, are
        ignored — a plan can be shared across grids of different sizes.
        The first spec targeting an index wins.
        """
        assigned: dict[int, dict[str, Any]] = {}
        for spec in self.specs:
            if spec.kind not in GRID_FAULT_KINDS:
                continue
            if spec.epoch > jobs or spec.epoch in assigned:
                continue
            assigned[spec.epoch] = {
                "kind": spec.kind,
                "seconds": spec.seconds,
                "attempts": spec.worker,
            }
        return assigned

    def describe(self) -> list[dict[str, Any]]:
        """Plain-list form for manifests (one dict per spec)."""
        return [spec.describe() for spec in self.specs]
