"""Configuration objects for the SGD runners.

The names follow the paper's hyper-parameter inventory (Algorithm 1):
step size alpha, batch size B, number of epochs t, plus the convergence
tolerances of the evaluation protocol (Section IV-A).

:class:`RunConfig` is the one description of a run: ``train``'s keywords,
the CLI's ``train`` options, a grid job's payload and store key and a run
manifest's ``config`` are all read off it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

from ..datasets import DATASET_NAMES, SCALES
from ..datasets.synthetic import Dataset
from ..faults import FaultPlan
from ..models import TASK_NAMES
from ..utils.errors import ConfigurationError
from ..utils.rng import DEFAULT_SEED

__all__ = [
    "SGDConfig",
    "RunConfig",
    "TOLERANCES",
    "STEP_GRID",
    "ARCHITECTURES",
    "STRATEGIES",
    "BACKENDS",
    "DEFAULT_STEP_SIZES",
    "default_step_size",
]

ARCHITECTURES: tuple[str, ...] = ("cpu-seq", "cpu-par", "gpu")
STRATEGIES: tuple[str, ...] = ("synchronous", "asynchronous")

#: Execution backends for asynchronous lr/svm configurations:
#: ``"simulated"`` runs the deterministic asynchrony simulator and prices
#: hardware time with the analytical machine models; ``"shm"`` runs real
#: lock-free worker processes over a shared-memory model and *measures*
#: wall-clock time on the host; ``"ps"`` runs worker processes against a
#: sharded parameter server over local TCP (:mod:`repro.distributed`)
#: and measures the distributed asynchronous regime.
BACKENDS: tuple[str, ...] = ("simulated", "shm", "ps")

#: Fallback step sizes per (task, strategy), for configurations without
#: a row in the tuned table (:mod:`repro.experiments.steps`, which the
#: grid-search protocol of Section IV-A regenerates).
DEFAULT_STEP_SIZES: dict[tuple[str, str], float] = {
    ("lr", "synchronous"): 10.0,
    ("svm", "synchronous"): 1.0,
    ("mlp", "synchronous"): 1.0,
    ("lr", "asynchronous"): 0.1,
    ("svm", "asynchronous"): 0.01,
    ("mlp", "asynchronous"): 0.1,
}


def default_step_size(task: str, strategy: str) -> float:
    """The fallback step size for a (task, strategy) pair."""
    try:
        return DEFAULT_STEP_SIZES[(task, strategy)]
    except KeyError:
        raise ConfigurationError(
            f"no default step size for task={task!r}, strategy={strategy!r}"
        ) from None


#: Convergence tolerances of the paper's protocol: within 10%, 5%, 2%
#: and 1% of the optimal loss.
TOLERANCES: tuple[float, ...] = (0.10, 0.05, 0.02, 0.01)

#: The paper's step-size grid: "griding its range in powers of 10,
#: e.g., {1e-6, 1e-5, ..., 1e2}" (Section IV-A).  We extend the top of
#: the range by one decade: our synthetic rows are L2-normalised, which
#: shrinks full-batch mean gradients relative to the paper's raw
#: features, so the batch-GD family's best steps land around 1e2-1e3.
STEP_GRID: tuple[float, ...] = tuple(10.0**e for e in range(-6, 4))


@dataclass(frozen=True)
class SGDConfig:
    """Hyper-parameters of one training run.

    Attributes
    ----------
    step_size:
        Constant learning rate alpha.
    max_epochs:
        Upper bound on optimisation epochs (the paper runs "at least 10
        iterations" and to convergence; we bound the loop).
    batch_size:
        Mini-batch size for batched runners; ignored by the pure
        incremental/batch variants.
    seed:
        Seed for shuffles (model initialisation is supplied externally
        so all configurations share it, per the paper's methodology).
    target_loss:
        Early-stop threshold: stop once the epoch loss reaches it.
        ``None`` runs all epochs.
    eval_every:
        Record the loss every this many epochs (1 = the paper's
        protocol; loss evaluation is never counted in iteration time).
    divergence_factor:
        Abort when the loss exceeds ``divergence_factor * initial_loss``
        (runaway step sizes are reported as non-convergent rather than
        looping to max_epochs).
    """

    step_size: float
    max_epochs: int = 200
    batch_size: int = 512
    seed: int = DEFAULT_SEED
    target_loss: float | None = None
    eval_every: int = 1
    divergence_factor: float = 100.0

    def __post_init__(self) -> None:
        if not self.step_size > 0:
            raise ConfigurationError(f"step_size must be > 0, got {self.step_size}")
        if self.max_epochs < 1:
            raise ConfigurationError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.eval_every < 1:
            raise ConfigurationError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.divergence_factor <= 1:
            raise ConfigurationError("divergence_factor must exceed 1")


#: ``metadata`` of the :class:`RunConfig` fields only some backends read:
#: setting one for another backend is refused.
_SHM = {"backends": ("shm",)}
_PS = {"backends": ("ps",)}
_MEASURED = {"backends": ("shm", "ps")}


@dataclass(frozen=True)
class RunConfig:
    """One configuration of the paper's exploratory space: the fields are
    :func:`repro.train`'s keywords.  Construction validates them and fills
    the defaults (step size, epoch budget, batch size, worker or node
    count), so every consumer sees the values the run uses.  ``seed``
    stays as given (``None`` too): the dataset cache and the shared-memory
    registry are keyed on ``(name, scale, seed)`` as passed.

    A field with a closed set of values lists it as ``metadata["choices"]``,
    and one only some backends read lists them as ``metadata["backends"]``.
    Each ``Attributes`` entry below is also the ``repro train`` help of
    its ``--field-name`` flag.

    Attributes
    ----------
    task:
        ``"lr"``, ``"svm"`` or ``"mlp"``.
    dataset:
        A paper dataset name (generated at *scale*) or a prebuilt
        :class:`~repro.datasets.synthetic.Dataset` (MLP callers must
        pass the feature-grouped variant).
    architecture:
        ``"cpu-seq"``, ``"cpu-par"`` or ``"gpu"``.
    strategy:
        ``"synchronous"`` (blocking batch gradient descent) or
        ``"asynchronous"`` (Hogwild for lr/svm, mini-batch/Hogbatch for
        mlp).
    scale:
        Size caps applied to a named dataset's paper profile:
        ``"tiny"``, ``"small"``, ``"medium"`` or ``"paper"`` (full size).
    step_size:
        Learning rate; defaults to the (task, strategy) fallback.
    max_epochs:
        Epoch budget; defaults to 400 synchronous / 150 asynchronous.
    batch_size:
        Mini-batch rows per update.  ``None`` (the default) resolves
        per backend: 512 for the simulated MLP Hogbatch (the paper's
        B) and 1 (pure Hogwild, one row per work item) for the measured
        backends.  With ``backend="shm"`` an explicit value > 1 runs
        *measured* Hogbatch: one vectorised lock-free work item per
        batch.
    seed:
        Seed of the dataset generation, the epoch shuffles and the
        fault plan's worker choices; ``None`` uses the library default.
    early_stop_tolerance:
        Stop once the loss is within this tolerance of the optimum
        (``None`` disables; the curve then runs to max_epochs).
    representation:
        The paper's third exploratory axis, exposed as a free choice:
        ``"auto"`` keeps the dataset's natural format (CSR for the
        sparse profiles, dense for covtype); ``"dense"`` densifies a
        sparse dataset; ``"sparse"`` compresses a dense one.  This
        opens the light circles of the paper's Fig. 1 — e.g. Hogwild
        over a *dense* representation of rcv1, where every update
        writes all d coordinates and the coherence storm appears on an
        otherwise sparse problem.  lr/svm only (the MLP pipeline is
        dense by construction).
    backend:
        ``"simulated"`` runs the asynchrony simulator and prices time
        with the analytical machine models.  The measured backends run
        asynchronous lr/svm only and report wall-clock seconds per
        epoch in ``time_per_iter`` plus a ``measured`` record:
        ``"shm"`` runs lock-free worker processes over a shared-memory
        model (:func:`repro.parallel.train_shm`), ``"ps"`` runs worker
        processes against a sharded parameter server over local TCP
        (:func:`repro.distributed.train_ps`).
    threads:
        Worker processes for the shm backend (default: up to 4,
        bounded by the host's cores).  shm only.
    track_conflicts:
        shm backend: measure racy coordinate overwrites
        (``async.update_conflicts``); ``False`` gives the leanest
        possible hot loop.  shm only.
    nodes:
        Worker processes for the ps backend (default: up to 4, bounded
        by the host's cores).  ps only.
    shards:
        Parameter shards on the ps backend's server (default: derived
        from the model size, at most 8).  ps only.
    max_staleness:
        ps backend: bounded-staleness window in work items — a worker
        more than this far ahead of the slowest live worker blocks on
        pull.  ``None`` (the default) is the unbounded fast-async
        regime; ``0`` is lock-step.  ps only.
    checkpoint_dir:
        ps backend: directory for the server's versioned shard
        checkpoints.  Enables epoch-boundary checkpointing and, under
        ``max_restarts``, crash-restart failover of the shard server.
        ps only.
    checkpoint_every:
        ps backend: background-checkpoint trigger in pushes since the
        last write (requires ``checkpoint_dir``).  ps only.
    checkpoint_seconds:
        ps backend: background-checkpoint trigger in seconds since the
        last write (requires ``checkpoint_dir``).  ps only.
    epoch_timeout:
        Measured backends: seconds the parent waits for an epoch
        barrier before declaring the run dead (default 120).
    fault_plan:
        Seeded faults to inject into the measured backends (chaos
        testing), a :class:`repro.faults.FaultPlan`; on the command
        line one repeatable ``kind@epoch[:wK][:seconds]`` spec each
        (``wK`` targets worker K, a bare number is a stall/delay
        duration).  The shm backend takes ``kill``, ``stall``,
        ``delay`` and ``nan``; the ps backend takes ``node-kill``,
        ``node-stall``, ``server-kill`` and ``server-stall``.  E.g.
        ``kill@3``, ``stall@2:w1``, ``node-kill@2``.
    max_restarts:
        Recovery budget for measured-backend worker failures: dead
        workers are recovered by re-partitioning their examples over
        the survivors (stalls by a full respawn, NaN-poisoned
        snapshots by scrubbing), up to this many times, with
        exponential backoff on the epoch timeout.  ``0`` (the
        default) fails fast.
    """

    task: str = field(metadata={"choices": TASK_NAMES})
    dataset: str | Dataset = field(metadata={"choices": DATASET_NAMES})
    architecture: str = field(default="cpu-par", metadata={"choices": ARCHITECTURES})
    strategy: str = field(default="asynchronous", metadata={"choices": STRATEGIES})
    scale: str = field(default="small", metadata={"choices": tuple(SCALES)})
    step_size: float | None = None
    max_epochs: int | None = None
    batch_size: int | None = None
    seed: int | None = None
    early_stop_tolerance: float | None = 0.01
    representation: str = field(
        default="auto", metadata={"choices": ("auto", "dense", "sparse")}
    )
    backend: str = field(default="simulated", metadata={"choices": BACKENDS})
    threads: int | None = field(default=None, metadata=_SHM)
    track_conflicts: bool = field(default=True, metadata=_SHM)
    nodes: int | None = field(default=None, metadata=_PS)
    shards: int | None = field(default=None, metadata=_PS)
    max_staleness: int | None = field(default=None, metadata=_PS)
    checkpoint_dir: str | None = field(default=None, metadata=_PS)
    checkpoint_every: int | None = field(default=None, metadata=_PS)
    checkpoint_seconds: float | None = field(default=None, metadata=_PS)
    epoch_timeout: float | None = field(default=None, metadata=_MEASURED)
    fault_plan: FaultPlan | None = field(default=None, metadata=_MEASURED)
    max_restarts: int = field(default=0, metadata=_MEASURED)

    def __post_init__(self) -> None:
        self._validate()
        defaults: dict[str, Any] = {}
        if self.step_size is None:
            defaults["step_size"] = default_step_size(self.task, self.strategy)
        if self.max_epochs is None:
            defaults["max_epochs"] = 400 if self.strategy == "synchronous" else 150
        if self.batch_size is None:
            # Per-backend default: the simulated MLP Hogbatch uses the
            # paper's B = 512; the measured backends default to pure
            # Hogwild / per-example push-pull (one row per work item).
            defaults["batch_size"] = 1 if self.measured else 512
        if self.backend == "shm" and self.threads is None:
            from ..parallel.shm import default_shm_workers

            defaults["threads"] = default_shm_workers()
        if self.backend == "ps" and self.nodes is None:
            from ..distributed import default_ps_nodes

            defaults["nodes"] = default_ps_nodes()
        for name, value in defaults.items():
            object.__setattr__(self, name, value)

    def _validate(self) -> None:
        # A dataset name is checked where it is loaded (inside the grid
        # worker that runs it), so a grid reports it as that cell's failure.
        refused: dict[tuple[str, ...], list[str]] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            choices = f.metadata.get("choices")
            if choices and f.name != "dataset" and value not in choices:
                raise ConfigurationError(
                    f"unknown {f.name} {value!r}; available: {', '.join(choices)}"
                )
            backends = f.metadata.get("backends")
            if backends and self.backend not in backends and value != f.default:
                refused.setdefault(backends, []).append(f.name)
        if self.representation != "auto" and self.task == "mlp":
            raise ConfigurationError(
                "representation overrides apply to lr/svm; the MLP pipeline is "
                "dense by construction (feature grouping densifies the data)"
            )
        if self.max_restarts < 0:
            raise ConfigurationError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.measured and (self.strategy != "asynchronous" or self.task == "mlp"):
            raise ConfigurationError(
                f"the {self.backend} backend runs asynchronous lr/svm "
                "configurations; use backend='simulated' for synchronous "
                "or MLP runs"
            )
        if refused:
            backends, names = next(iter(refused.items()))
            raise ConfigurationError(
                f"{', '.join(names)} configure the {' or '.join(backends)} "
                f"backend; pass {' or '.join(f'backend={b!r}' for b in backends)}"
            )

    @property
    def measured(self) -> bool:
        """Whether the backend runs real processes (shm / ps)."""
        return self.backend in _MEASURED["backends"]

    @property
    def dataset_name(self) -> str:
        """The dataset's name (a prebuilt one's profile, minus ``-mlp``)."""
        if isinstance(self.dataset, Dataset):
            return self.dataset.profile.name.removesuffix("-mlp")
        return self.dataset

    def to_dict(self) -> dict[str, Any]:
        """Every field, JSON-ready: ``train(**config.to_dict())`` reruns
        the run (a prebuilt dataset is recorded by name, a fault plan by
        its :meth:`~repro.faults.FaultPlan.describe` list)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["dataset"] = self.dataset_name
        if self.fault_plan is not None:
            out["fault_plan"] = self.fault_plan.describe()
        return out
