"""The top-level training facade: one call per paper configuration.

:func:`train` reproduces one cell of the paper's exploratory space
(Fig. 1 x Fig. 2): pick a task (lr / svm / mlp), a dataset, a computing
architecture (cpu-seq / cpu-par / gpu) and an update strategy
(synchronous / asynchronous), and receive a :class:`TrainResult` whose

* **statistical efficiency** (loss curve, epochs to tolerance) was
  *measured* by running the real numerical optimisation — through the
  asynchrony simulator for Hogwild/Hogbatch configurations;
* **hardware efficiency** (time per iteration) was produced by the
  analytical machine models at the paper's full dataset scale;
* **time to convergence** is their product, the paper's third axis.

:func:`run` takes the configuration as one
:class:`~repro.sgd.config.RunConfig`; :func:`train` builds it from keywords.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from ..asyncsim import AsyncSchedule
from ..datasets import PAPER_PROFILES, load_for
from ..datasets.synthetic import Dataset
from ..faults import RecoveryPolicy
from ..hardware import AsyncWorkload, CpuModel, GpuModel
from ..linalg.trace import Trace
from ..models import Model
from ..telemetry import keys
from ..telemetry.session import AnyTelemetry, ensure_telemetry
from ..utils.errors import ConfigurationError
from ..utils.rng import DEFAULT_SEED
from ..utils.units import FLOAT64_BYTES, INT32_BYTES
from .config import ARCHITECTURES, STRATEGIES, TOLERANCES, RunConfig, SGDConfig
from .convergence import LossCurve, tolerance_threshold
from .asynchronous import train_asynchronous
from .reference import reference_loss, reference_problem
from .synchronous import train_synchronous

__all__ = ["ARCHITECTURES", "STRATEGIES", "TrainResult", "train", "run"]


@dataclass
class TrainResult:
    """Everything the paper reports about one configuration."""

    task: str
    dataset: str
    architecture: str
    strategy: str
    step_size: float
    curve: LossCurve
    #: Modelled seconds per optimisation epoch at paper scale.
    time_per_iter: float
    optimal_loss: float
    diverged: bool
    #: The epoch trace (synchronous runs only) for further analysis.
    epoch_trace: Trace | None = field(default=None, repr=False)
    #: Realised dataset statistics (rows/features/nnz of the data the
    #: optimisation actually ran on) — recorded into run manifests.
    dataset_stats: dict | None = field(default=None, repr=False)
    #: Execution backend that produced the curve ("simulated", "shm"
    #: or "ps").
    backend: str = "simulated"
    #: Final parameter vector of the run — the loadable model artifact
    #: the serving layer scores with (:mod:`repro.serving`); round-trips
    #: through :mod:`repro.sgd.serialize`.
    params: np.ndarray | None = field(default=None, repr=False)
    #: Measured execution record (shm/ps backends only): worker count,
    #: wall-clock seconds and event counters.  For the simulated
    #: backend this is ``None`` and ``time_per_iter`` is modelled.
    measured: dict | None = field(default=None, repr=False)

    @property
    def initial_loss(self) -> float:
        """Loss of the shared initial model."""
        return self.curve.initial_loss

    def threshold(self, tolerance: float) -> float:
        """Absolute loss target for the given tolerance."""
        return tolerance_threshold(self.optimal_loss, tolerance, self.initial_loss)

    def epochs_to(self, tolerance: float) -> int | None:
        """Statistical efficiency: passes to reach the tolerance."""
        return self.curve.epochs_to(self.threshold(tolerance))

    def time_to(self, tolerance: float) -> float:
        """Time to convergence (sec); ``inf`` when never reached."""
        epochs = self.epochs_to(tolerance)
        if epochs is None:
            return math.inf
        return epochs * self.time_per_iter

    def loss_vs_time(self) -> tuple[np.ndarray, np.ndarray]:
        """(seconds, loss) arrays — the axes of the paper's Fig. 7."""
        return self.curve.time_axis(self.time_per_iter), np.asarray(
            self.curve.losses, dtype=np.float64
        )

    def summary(self) -> dict[str, float | str | None]:
        """Flat record used by the experiment tables."""
        out: dict[str, float | str | None] = {
            "task": self.task,
            "dataset": self.dataset,
            "architecture": self.architecture,
            "strategy": self.strategy,
            "step_size": self.step_size,
            "time_per_iter_ms": self.time_per_iter * 1e3,
            "optimal_loss": self.optimal_loss,
            "final_loss": self.curve.final_loss,
        }
        for tol in TOLERANCES:
            pct = int(round(tol * 100))
            out[f"epochs_to_{pct}pct"] = self.epochs_to(tol)
            out[f"time_to_{pct}pct_s"] = self.time_to(tol)
        return out


# ---------------------------------------------------------------------------


def _full_profile(dataset: Dataset):
    name = dataset.profile.name.removesuffix("-mlp")
    return PAPER_PROFILES.get(name, dataset.profile)


def _apply_representation(dataset: Dataset, representation: str) -> Dataset:
    """Convert the feature matrix to the requested storage format."""
    if representation == "auto":
        return dataset
    if representation == "dense" and dataset.is_sparse:
        return Dataset(
            name=dataset.name,
            X=dataset.to_dense(),
            y=dataset.y,
            profile=dc_replace(dataset.profile, dense=True),
        )
    if representation == "sparse" and not dataset.is_sparse:
        return Dataset(
            name=dataset.name,
            X=dataset.as_csr(),
            y=dataset.y,
            profile=dc_replace(dataset.profile, dense=False),
        )
    return dataset


def _effective_full_profile(dataset: Dataset, representation: str = "auto"):
    """Paper-scale profile with the representation override applied."""
    full = _full_profile(dataset)
    if representation == "dense" and not full.dense:
        return dc_replace(full, dense=True)
    if representation == "sparse" and full.dense:
        return dc_replace(full, dense=False)
    return full


def full_scale_factor(
    dataset: Dataset, task: str, representation: str = "auto"
) -> float:
    """Trace extrapolation factor from the realised data to paper scale.

    Example-driven kernel costs scale with the stored cells actually
    touched: dense representations by the cell-count ratio, sparse ones
    by the nnz ratio; the MLP pipeline keeps its grouped width, so only
    the row count scales.
    """
    full = _effective_full_profile(dataset, representation)
    if task == "mlp":
        return full.n_examples / dataset.n_examples
    if not dataset.is_sparse:
        cells = dataset.n_examples * dataset.n_features
        return (full.n_examples * full.n_features) / max(1, cells)
    realised_nnz = max(1, dataset.nnz)
    return (full.n_examples * full.nnz_avg) / realised_nnz


def working_set_bytes(
    dataset: Dataset, model: Model, task: str, representation: str = "auto"
) -> float:
    """Epoch working set at paper scale (dataset + model)."""
    full = _effective_full_profile(dataset, representation)
    model_bytes = model.n_params * FLOAT64_BYTES
    if task == "mlp":
        # MLP data is feature-grouped and dense at the grouped width.
        return full.n_examples * dataset.n_features * FLOAT64_BYTES + model_bytes
    if full.dense:
        return full.dense_bytes + model_bytes
    return (
        full.n_examples * full.nnz_avg * (FLOAT64_BYTES + INT32_BYTES)
        + (full.n_examples + 1) * 8
        + model_bytes
    )


def _async_schedule(
    task: str,
    architecture: str,
    n_examples: int,
    n_examples_full: int,
    cpu: CpuModel,
    gpu: GpuModel,
    batch_size: int,
) -> AsyncSchedule:
    if task in ("lr", "svm"):
        if architecture == "cpu-seq":
            return AsyncSchedule(concurrency=1, batch_size=1)
        if architecture == "cpu-par":
            return AsyncSchedule(
                concurrency=min(cpu.spec.max_threads, max(2, n_examples)), batch_size=1
            )
        # GPU Hogwild: every resident thread reads the same model
        # generation, and warps retire in a pipeline — a warp's
        # gradients are computed against the state from when it was
        # scheduled, with the resident-thread window still in flight.
        # The pipelined schedule (32-lane blocks, lag = window/32)
        # models that delay *without* the aligned-round model's
        # implicit averaging.  Two quantities both matter for
        # statistical efficiency: the in-flight *fraction* of an epoch
        # (preserved by scaling the 6656-thread window with the dataset
        # ratio) and the *absolute* number of in-flight updates (which
        # sets the conflict pressure a stale read faces).  On scaled
        # data the two cannot both equal the paper's values; we scale
        # by the ratio but floor the window at 512 updates — within an
        # order of magnitude of the device's — capped at half an epoch
        # so the schedule never degenerates to batch GD.
        resident = gpu.spec.concurrent_threads
        window = int(round(resident * n_examples / max(n_examples_full, 1)))
        window = min(max(512, window), resident, max(2, n_examples // 2))
        return AsyncSchedule(
            concurrency=window, batch_size=1, pipeline_block=gpu.spec.warp_size
        )
    # MLP: asynchronous SGD is mini-batch (cpu-seq) / Hogbatch (Section
    # IV-B; B = 512 in the paper).
    if architecture == "cpu-seq":
        return AsyncSchedule(concurrency=1, batch_size=batch_size)
    if architecture == "cpu-par":
        # 56 threads each own a batch; the in-flight fraction of an
        # epoch is 56 / (N/B).  Scaled-down data has far fewer batches
        # per epoch, so the concurrency is scaled by the same ratio to
        # preserve that fraction (floor 2 keeps it genuinely async).
        batches_full = max(1, n_examples_full // batch_size)
        batches_here = max(1, n_examples // batch_size)
        frac = min(1.0, cpu.spec.max_threads / batches_full)
        return AsyncSchedule(
            concurrency=max(2, int(round(frac * batches_here))),
            batch_size=batch_size,
        )
    # "the GPU implementation can be regarded as Hogbatch with very low
    # concurrency" — one kernel in flight, the next batch's host-side
    # setup overlaps: concurrency 2.
    return AsyncSchedule(concurrency=2, batch_size=batch_size)


def train(
    task: str,
    dataset: str | Dataset,
    architecture: str = "cpu-par",
    strategy: str = "asynchronous",
    *,
    telemetry: AnyTelemetry | None = None,
    snapshot_out: str | None = None,
    **options,
) -> TrainResult:
    """Train one paper configuration and report all three performance axes.

    The keywords are :class:`~repro.sgd.config.RunConfig`'s fields
    (documented there); this is ``run(RunConfig(...), ...)``.
    """
    config = RunConfig(task, dataset, architecture, strategy, **options)
    return run(config, telemetry=telemetry, snapshot_out=snapshot_out)


def run(
    config: RunConfig,
    *,
    telemetry: AnyTelemetry | None = None,
    snapshot_out: str | None = None,
) -> TrainResult:
    """Train the configuration *config* describes.

    Parameters
    ----------
    telemetry:
        A :class:`repro.telemetry.Telemetry` to receive spans (dataset
        load, reference solve, optimisation, hardware costing),
        counters (gradient evaluations, updates applied, stale reads,
        modelled bytes/flops) and simulated-time gauges.  ``None`` (the
        default) disables observability at zero cost; results are
        bit-identical either way.
    snapshot_out:
        Measured backends: publish a consistent model snapshot at
        every epoch boundary into a shared-memory segment and write
        its JSON descriptor to this path, so a live scoring service
        (``python -m repro serve --snapshot PATH``) can attach and
        hot-swap while training runs (see :mod:`repro.serving` and
        docs/SERVING.md).  The segment is unlinked when training ends;
        attached readers keep the final model.
    """
    if snapshot_out is not None and not config.measured:
        raise ConfigurationError(
            "snapshot_out configures the measured backends; pass "
            "backend='shm' or backend='ps'"
        )
    task, architecture, strategy = config.task, config.architecture, config.strategy
    scale, representation = config.scale, config.representation
    tel = ensure_telemetry(telemetry)
    cpu, gpu = CpuModel(), GpuModel()

    with tel.span(
        "train",
        task=task,
        architecture=architecture,
        strategy=strategy,
        scale=scale,
    ) as root:
        with tel.span("dataset.load", scale=scale):
            ds = config.dataset
            if not isinstance(ds, Dataset):
                ds = load_for(task, ds, scale, config.seed)
            ds = _apply_representation(ds, representation)
        ds_name = config.dataset_name
        root.set_attribute("dataset", ds_name)
        stats = _dataset_stats(ds, ds_name, representation)

        model, init, ref_key = reference_problem(task, ds_name, ds, config.seed)
        with tel.span("reference.solve", key=ref_key):
            optimal = reference_loss(model, ds.X, ds.y, init, key=ref_key)

        target = None
        if config.early_stop_tolerance is not None:
            # Divergence-prone configurations overflow inside the loss
            # already at the initial model; handled here like the
            # runners handle it, not leaked as a RuntimeWarning.
            with np.errstate(over="ignore"):
                initial = model.loss(ds.X, ds.y, init)
            target = tolerance_threshold(optimal, config.early_stop_tolerance, initial)

        sgd_config = SGDConfig(
            step_size=config.step_size,
            max_epochs=config.max_epochs,
            batch_size=config.batch_size,
            seed=config.seed if config.seed is not None else DEFAULT_SEED,
            target_loss=target,
        )
        outcome = dict(
            task=task,
            dataset=ds_name,
            architecture=architecture,
            strategy=strategy,
            step_size=config.step_size,
            optimal_loss=optimal,
            dataset_stats=stats,
        )

        if strategy == "synchronous":
            res = train_synchronous(model, ds.X, ds.y, init, sgd_config, tel)
            factor = full_scale_factor(ds, task, representation)
            trace = res.epoch_trace.scaled(factor)
            ws = working_set_bytes(ds, model, task, representation)
            with tel.span("hardware.cost", architecture=architecture) as costing:
                if architecture == "cpu-seq":
                    tpi = cpu.sync_epoch_time(trace, 1, ws, tel)
                elif architecture == "cpu-par":
                    tpi = cpu.sync_epoch_time(trace, cpu.spec.max_threads, ws, tel)
                else:
                    tpi = gpu.sync_epoch_time(trace, tel)
                costing.add_sim_time(tpi)
            _record_sim_time(tel, root, tpi, res.curve)
            return TrainResult(
                **outcome,
                curve=res.curve,
                time_per_iter=tpi,
                diverged=res.curve.diverged,
                epoch_trace=trace,
                params=res.params,
            )

        if config.measured:
            recovery = None
            if config.max_restarts:
                recovery = RecoveryPolicy(max_restarts=config.max_restarts)
            # Unset keeps each schedule's own default.
            timeout_kw = {}
            if config.epoch_timeout is not None:
                timeout_kw["epoch_timeout"] = config.epoch_timeout
            if config.backend == "shm":
                from ..parallel.shm import ShmSchedule, train_shm

                run_measured, unit = train_shm, "workers"
                schedule = ShmSchedule(
                    workers=config.threads,
                    batch_size=config.batch_size,
                    track_conflicts=config.track_conflicts,
                    **timeout_kw,
                )
                # Backend-specific manifest fields: read off the schedule,
                # read off the result.
                schedule_keys, result_keys = ("track_conflicts",), ()
            else:
                from ..distributed import PsSchedule, train_ps

                run_measured, unit = train_ps, "nodes"
                schedule = PsSchedule(
                    nodes=config.nodes,
                    shards=config.shards,
                    max_staleness=config.max_staleness,
                    batch_size=config.batch_size,
                    checkpoint_dir=config.checkpoint_dir,
                    checkpoint_every=config.checkpoint_every,
                    checkpoint_seconds=config.checkpoint_seconds,
                    **timeout_kw,
                )
                schedule_keys = ("checkpoint_dir",)
                result_keys = (
                    "nodes",
                    "nodes_final",
                    "shards",
                    "max_staleness",
                    "server_failovers",
                    "time_to_repair_seconds",
                )
            publisher = None
            if snapshot_out is not None:
                from ..serving import SnapshotPublisher

                publisher = SnapshotPublisher.create(
                    model.n_params,
                    descriptor=snapshot_out,
                    meta={
                        "task": config.task,
                        "dataset": ds_name,
                        "n_features": int(ds.n_features),
                        "step_size": float(config.step_size),
                        "scale": config.scale,
                    },
                )
            try:
                res = run_measured(
                    model,
                    ds.X,
                    ds.y,
                    init,
                    sgd_config,
                    schedule,
                    tel,
                    fault_plan=config.fault_plan,
                    recovery=recovery,
                    snapshot=publisher,
                )
            finally:
                if publisher is not None:
                    publisher.close()
            width, width_final = getattr(res, unit), getattr(res, f"{unit}_final")
            measured = {
                "workers": width,
                "workers_final": width_final,
                "batch_size": res.batch_size,
                "epoch_timeout": schedule.epoch_timeout,
                "epochs_run": res.epochs_run,
                "wall_seconds_per_epoch": res.wall_seconds_per_epoch,
                "wall_seconds_total": res.wall_seconds_total,
                "counters": dict(res.counters),
                "restarts": res.restarts,
                "repartitions": res.repartitions,
                "degraded_epochs": res.degraded_epochs,
                "recovery": list(res.recovery),
                "fault_plan": (
                    config.fault_plan.describe() if config.fault_plan else None
                ),
                "max_restarts": config.max_restarts,
                **{name: getattr(schedule, name) for name in schedule_keys},
                **{name: getattr(res, name) for name in result_keys},
            }
            root.set_attribute("backend", config.backend)
            root.set_attribute(unit, width)
            return TrainResult(
                **outcome,
                curve=res.curve,
                # Measured, not modelled: real seconds per epoch on the
                # host, with loss evaluation excluded.
                time_per_iter=res.wall_seconds_per_epoch,
                diverged=res.diverged,
                backend=config.backend,
                measured=measured,
                params=res.params,
            )

        full = _effective_full_profile(ds, representation)
        schedule = _async_schedule(
            task, architecture, ds.n_examples, full.n_examples, cpu, gpu,
            config.batch_size,
        )
        res = train_asynchronous(model, ds.X, ds.y, init, sgd_config, schedule, tel)
        with tel.span("hardware.cost", architecture=architecture) as costing:
            if task == "mlp":
                workload = AsyncWorkload.for_batched(
                    ds, model, config.batch_size, profile=full
                )
            else:
                workload = AsyncWorkload.for_linear(ds, model, profile=full)
            if architecture == "cpu-seq":
                tpi = cpu.async_epoch_time(workload, 1, tel)
            elif architecture == "cpu-par":
                tpi = cpu.async_epoch_time(workload, cpu.spec.max_threads, tel)
            else:
                tpi = gpu.async_epoch_time(workload, tel)
            costing.add_sim_time(tpi)
        _record_sim_time(tel, root, tpi, res.curve)
        return TrainResult(
            **outcome,
            curve=res.curve,
            time_per_iter=tpi,
            diverged=res.diverged,
            params=res.params,
        )


def _dataset_stats(ds: Dataset, name: str, representation: str) -> dict:
    """Realised dataset statistics recorded into manifests."""
    return {
        "name": name,
        "profile": ds.profile.name,
        "n_examples": int(ds.n_examples),
        "n_features": int(ds.n_features),
        "sparse": bool(ds.is_sparse),
        "nnz": int(ds.nnz)
        if ds.is_sparse
        else int(ds.n_examples) * int(ds.n_features),
        "representation": representation,
    }


def _record_sim_time(tel: AnyTelemetry, root_span, time_per_iter: float, curve: LossCurve) -> None:
    """Publish the simulated-time gauges and attribute them to the run."""
    epochs = curve.epochs[-1] if curve.epochs else 0
    tel.set_gauge(keys.SIM_SECONDS_PER_EPOCH, time_per_iter)
    tel.set_gauge(keys.SIM_SECONDS_TOTAL, epochs * time_per_iter)
    root_span.add_sim_time(epochs * time_per_iter)
