"""Shared machinery for the per-table/per-figure experiment drivers.

An :class:`ExperimentContext` fixes the scale, seed, machine models and
step-size table, and caches training runs so a driver that needs the
same configuration twice (e.g. Table II and Fig. 7 both need the
synchronous GPU runs) pays for it once.

Synchronous statistical efficiency is architecture-independent
(Section IV-A), so one optimisation run serves all three architectures;
only the hardware costing differs.  Asynchronous configurations are
re-run per architecture because the interleaving schedule — and hence
the measured loss curve — changes with the concurrency.

With ``jobs > 1`` (or a result store attached) a driver can
:meth:`~ExperimentContext.prefetch` the cells it is about to walk: the
:class:`~repro.experiments.executor.GridExecutor` fans the independent
optimisation runs over worker processes (and/or replays them from the
store) into this context's cache, after which the driver's serial
``run`` calls are all hits.  Results are bit-identical to the serial
path; see docs/EXPERIMENTS-PARALLEL.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace as dc_replace

from typing import TYPE_CHECKING

from ..datasets import DATASET_NAMES, load_for
from ..hardware import CpuModel, GpuModel
from ..models import make_model
from ..sgd.config import RunConfig, default_step_size
from ..sgd.runner import TrainResult, run, working_set_bytes
from ..telemetry.session import AnyTelemetry, ensure_telemetry
from ..utils.errors import CellQuarantinedError, ConfigurationError
from .steps import lookup_step

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults import CellRetryPolicy, FaultPlan
    from .executor import GridCell
    from .resilience import CellFailure
    from .store import ResultStore

__all__ = ["ExperimentContext", "infinity_or"]


def infinity_or(value: float | None) -> float:
    """Map ``None`` (never converged) to ``inf`` — the paper's notation."""
    if value is None:
        return math.inf
    return value


@dataclass
class ExperimentContext:
    """Execution environment shared by all experiment drivers."""

    scale: str = "small"
    seed: int | None = None
    tolerance: float = 0.01
    sync_max_epochs: int = 2000
    async_max_epochs: int = 300
    datasets: tuple[str, ...] = DATASET_NAMES
    tasks: tuple[str, ...] = ("lr", "svm", "mlp")
    step_overrides: dict[tuple[str, str, str, str], float] = field(
        default_factory=dict
    )
    #: Observability sink shared by every run this context executes
    #: (``None`` = disabled).  Cached configurations are only measured
    #: the first time they execute.
    telemetry: AnyTelemetry | None = None
    #: Worker processes for :meth:`prefetch`; 1 = everything runs
    #: serially in-process (the historical behaviour).
    jobs: int = 1
    #: Publish loaded datasets into read-only shared-memory segments
    #: that all grid workers map instead of re-materialising them
    #: (``repro.experiments.shared_data``).  A pure placement
    #: optimisation — results are bit-identical either way; ``False``
    #: falls back to per-worker generation (copy-on-write under fork).
    shared_data: bool = True
    #: Optional on-disk store of completed cells
    #: (:class:`~repro.experiments.store.ResultStore`); completed grid
    #: cells are persisted into it, and with :attr:`resume` they are
    #: replayed from it.
    store: "ResultStore | None" = None
    #: Replay store hits instead of recomputing (requires :attr:`store`).
    resume: bool = False
    #: Degraded-mode switch: ``False`` (fail-fast, the historical
    #: behaviour) aborts the grid on the first worker failure;
    #: ``True`` retries failing cells under :attr:`retry` and
    #: quarantines the ones that exhaust their budget, so the grid
    #: always completes.  See docs/RESILIENCE.md.
    keep_going: bool = False
    #: Retry/backoff/deadline policy for keep-going grids; a fail-fast
    #: fan-out reads only its two watchdog bounds
    #: (``None`` = :class:`repro.faults.CellRetryPolicy` defaults).
    retry: "CellRetryPolicy | None" = None
    #: Optional chaos plan: grid-level fault kinds (``cell-kill`` /
    #: ``cell-stall`` / ``cell-nan``) injected into worker processes.
    fault_plan: "FaultPlan | None" = None
    #: Sticky quarantine registry: executed-cell key ->
    #: :class:`~repro.experiments.resilience.CellFailure`.  Populated
    #: by keep-going grids; :meth:`run` refuses quarantined cells and
    #: :meth:`try_run` maps them to ``None``.
    failures: dict[tuple, "CellFailure"] = field(default_factory=dict, repr=False)
    #: Per-cell provenance records accumulated by every :meth:`prefetch`
    #: (input of :func:`repro.telemetry.build_grid_manifest`).
    grid_records: list[dict] = field(default_factory=list, repr=False)
    #: The machine models re-costing synchronous base runs: the default
    #: ones :func:`repro.sgd.runner.run` prices every run on.
    cpu: CpuModel = field(default_factory=CpuModel, init=False)
    gpu: GpuModel = field(default_factory=GpuModel, init=False)
    _cache: dict[tuple, TrainResult] = field(default_factory=dict, repr=False)
    _ws_cache: dict[tuple, float] = field(default_factory=dict, repr=False)

    def step_for(
        self, task: str, dataset: str, strategy: str, architecture: str = "*"
    ) -> float:
        """Tuned step size for a configuration (override > table > default)."""
        key, overrides = (task, dataset, strategy), self.step_overrides
        return (
            overrides.get((*key, architecture))
            or overrides.get((*key, "*"))
            or lookup_step(*key, architecture)
            or default_step_size(task, strategy)
        )

    def config_for(
        self, task: str, dataset: str, architecture: str, strategy: str
    ) -> RunConfig:
        """The run one cell describes: the one place a context resolves a
        step size and an epoch budget.  Synchronous statistical efficiency
        is architecture-independent, so every synchronous cell carries the
        step of the ``cpu-seq`` base run it is re-costed from."""
        sync = strategy == "synchronous"
        return RunConfig(
            task,
            dataset,
            architecture,
            strategy,
            scale=self.scale,
            seed=self.seed,
            step_size=self.step_for(
                task, dataset, strategy, "cpu-seq" if sync else architecture
            ),
            max_epochs=self.sync_max_epochs if sync else self.async_max_epochs,
            early_stop_tolerance=self.tolerance,
        )

    def failure_for(
        self, task: str, dataset: str, architecture: str, strategy: str
    ) -> "CellFailure | None":
        """The quarantine record gapping this cell out, if any.

        A quarantined synchronous *base* run (``cpu-seq``) gaps out all
        three synchronous architectures of its (task, dataset) pair,
        because they would have been re-costed from it.
        """
        direct = self.failures.get((task, dataset, architecture, strategy))
        if direct is not None:
            return direct
        if strategy == "synchronous":
            return self.failures.get((task, dataset, "cpu-seq", "synchronous"))
        return None

    def try_run(
        self, task: str, dataset: str, architecture: str, strategy: str
    ) -> TrainResult | None:
        """Degraded-mode :meth:`run`: ``None`` for a quarantined cell.

        Table/figure drivers use this to render partial grids with
        explicit gap markers instead of aborting; on a healthy context
        it is exactly :meth:`run`.
        """
        key = (task, dataset, architecture, strategy)
        if key not in self._cache and self.failure_for(*key) is not None:
            return None
        return self.run(task, dataset, architecture, strategy)

    def run(
        self, task: str, dataset: str, architecture: str, strategy: str
    ) -> TrainResult:
        """Train (or fetch from cache) one configuration.

        Raises :class:`~repro.utils.errors.CellQuarantinedError` for a
        cell a keep-going grid already gave up on — recomputing it
        in-parent would hit the exact failure the executor spent a
        retry budget on.
        """
        cell_key = (task, dataset, architecture, strategy)
        if cell_key not in self._cache:
            failure = self.failure_for(*cell_key)
            if failure is not None:
                raise CellQuarantinedError(
                    f"grid cell {task}/{dataset}/{architecture}/{strategy} was "
                    f"quarantined ({failure.kind} after {failure.attempts} "
                    "attempt(s)); use try_run() for degraded-mode rendering",
                    failure=failure,
                )
        if strategy == "synchronous":
            return self._run_sync(task, dataset, architecture)
        if cell_key not in self._cache:
            self._cache[cell_key] = self._train(cell_key)
        return self._cache[cell_key]

    def _train(self, key: tuple[str, str, str, str]) -> TrainResult:
        """Train one cell's configuration under an ``experiment.run`` span."""
        task, dataset, architecture, strategy = key
        tel = ensure_telemetry(self.telemetry)
        with tel.span(
            "experiment.run",
            task=task,
            dataset=dataset,
            architecture=architecture,
            strategy=strategy,
        ):
            return run(self.config_for(*key), telemetry=self.telemetry)

    def _run_sync(self, task: str, dataset: str, architecture: str) -> TrainResult:
        """One optimisation run, re-costed per architecture."""
        key = (task, dataset, architecture, "synchronous")
        if key in self._cache:
            return self._cache[key]
        base_key = (task, dataset, "cpu-seq", "synchronous")
        if base_key not in self._cache:
            self._cache[base_key] = self._train(base_key)
        base = self._cache[base_key]
        if architecture == "cpu-seq":
            return base
        if base.epoch_trace is None:
            raise ConfigurationError("synchronous run lost its epoch trace")
        if architecture == "cpu-par":
            tpi = self.cpu.sync_epoch_time(
                base.epoch_trace,
                self.cpu.spec.max_threads,
                self._ws(task, dataset),
                self.telemetry,
            )
        elif architecture == "gpu":
            tpi = self.gpu.sync_epoch_time(base.epoch_trace, self.telemetry)
        else:
            raise ConfigurationError(f"unknown architecture {architecture!r}")
        result = dc_replace(base, architecture=architecture, time_per_iter=tpi)
        self._cache[key] = result
        return result

    def _ws(self, task: str, dataset: str) -> float:
        key = (task, dataset)
        if key not in self._ws_cache:
            ds = load_for(task, dataset, self.scale, self.seed)
            self._ws_cache[key] = working_set_bytes(ds, make_model(task, ds), task)
        return self._ws_cache[key]

    def grid_cells(
        self,
        strategies: tuple[str, ...] = ("synchronous", "asynchronous"),
        architectures: tuple[str, ...] | None = None,
    ) -> "list[GridCell]":
        """Every grid cell this context's task/dataset axes span."""
        from .executor import ARCHITECTURES, GridCell

        archs = ARCHITECTURES if architectures is None else architectures
        return [
            GridCell(task, dataset, architecture, strategy)
            for task in self.tasks
            for dataset in self.datasets
            for strategy in strategies
            for architecture in archs
        ]

    def prefetch(self, cells: "list[GridCell]") -> None:
        """Materialise *cells* into the cache ahead of serial ``run`` calls.

        A no-op on a plain serial context (``jobs=1``, no store): the
        historical code path — train on first ``run`` — is untouched.
        Otherwise the :class:`~repro.experiments.executor.GridExecutor`
        computes the cells (process pool, shared-base dedup, optional
        store resume) with bit-identical results.
        """
        if (
            self.jobs <= 1
            and self.store is None
            and not self.keep_going
            and self.fault_plan is None
        ):
            return
        from .executor import GridExecutor

        executor = GridExecutor(self)
        executor.execute(cells)
        self.grid_records.extend(executor.cell_records)

    def best_async_cpu(self, task: str, dataset: str) -> TrainResult:
        """The optimal asynchronous CPU configuration (Fig. 7's left side).

        The paper notes that on dense low-dimensional data sequential
        CPU wins while parallel CPU wins on sparse data; we simply take
        the faster of the two at the context tolerance.
        """
        seq = self.run(task, dataset, "cpu-seq", "asynchronous")
        par = self.run(task, dataset, "cpu-par", "asynchronous")
        return seq if seq.time_to(self.tolerance) <= par.time_to(self.tolerance) else par
