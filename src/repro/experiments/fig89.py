"""Figs. 8 and 9 — GPU-over-parallel-CPU speedup vs. framework baselines.

Fig. 8 (LR and SVM) compares three systems per dataset: our synchronous
implementation, our asynchronous implementation, and BIDMach (sync).
Fig. 9 (MLP) compares ours-sync, ours-async (Hogbatch) and TensorFlow.
Each figure covers those of its tasks the context includes.  The metric
is the hardware-efficiency ratio ``t_cpu_par / t_gpu`` — the speedup the
GPU delivers over 56 CPU threads for one epoch.

Paper shape: our implementations provide similar or *better* GPU
speedup than the frameworks (their kernels are the reference points
proving ours are efficient), with BIDMach's advantage collapsing on
sparse data (its GPU kernels are dense-optimised).

Degraded mode: every bar group hangs off the shared ``cpu-seq``
synchronous run (its epoch trace feeds all per-system timings), so on
a keep-going grid a quarantined base drops its whole (task, dataset)
group — rendered as a ``-`` row plus a failure-report entry instead of
aborting the figure (docs/RESILIENCE.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..datasets import load_for
from ..frameworks import BIDMACH_LIKE, OURS, TENSORFLOW_LIKE, FrameworkExecutor
from ..hardware import AsyncWorkload
from ..models import make_model
from ..sgd.runner import working_set_bytes
from ..utils.tables import render_bar_chart, render_table
from .common import ExperimentContext
from .executor import GridCell
from .resilience import CellFailure, render_failure_section

__all__ = ["FIG8_TASKS", "FIG9_TASKS", "SpeedupEntry", "Fig89Result", "figure_cells",
           "run_fig8", "run_fig9"]

#: The tasks each figure compares (restricted to the context's tasks).
FIG8_TASKS = ("lr", "svm")
FIG9_TASKS = ("mlp",)


@dataclass(frozen=True)
class SpeedupEntry:
    """GPU-over-parallel-CPU speedup of one system on one workload."""

    task: str
    dataset: str
    system: str
    speedup: float


@dataclass
class Fig89Result:
    """Speedup entries for one figure."""

    figure: str
    entries: list[SpeedupEntry] = field(default_factory=list)
    #: (task, dataset) groups dropped by a quarantined base run.
    gaps: list[tuple[str, str]] = field(default_factory=list)
    #: Quarantine records behind the gaps (keep-going grids only).
    failures: list[CellFailure] = field(default_factory=list)

    def get(self, task: str, dataset: str, system: str) -> float:
        """Speedup of one (task, dataset, system) bar."""
        for e in self.entries:
            if (e.task, e.dataset, e.system) == (task, dataset, system):
                return e.speedup
        raise KeyError((task, dataset, system))

    def systems(self) -> list[str]:
        """Distinct systems, in first-seen order."""
        seen: list[str] = []
        for e in self.entries:
            if e.system not in seen:
                seen.append(e.system)
        return seen

    def render(self) -> str:
        """Table plus grouped ASCII bars."""
        headers = ["task", "dataset"] + self.systems()
        keys = []
        for e in self.entries:
            if (e.task, e.dataset) not in keys:
                keys.append((e.task, e.dataset))
        rows = [
            [t, d] + [self.get(t, d, s) for s in self.systems()] for t, d in keys
        ]
        rows += [
            [t, d] + [None] * len(self.systems()) for t, d in self.gaps
        ]
        table = render_table(
            headers, rows, title=f"{self.figure}: GPU over parallel-CPU speedup"
        )
        labels = [f"{t}/{d}/{s}" for t, d in keys for s in self.systems()]
        values = [self.get(t, d, s) for t, d in keys for s in self.systems()]
        chart = render_bar_chart(labels, values, unit="x") if values else ""
        out = table + ("\n\n" + chart if chart else "")
        return out + render_failure_section(self.failures)


def _sync_speedups(
    ctx: ExperimentContext, task: str, dataset: str
) -> dict[str, float] | None:
    """ours-sync / framework speedups, or ``None`` if the base is gone."""
    run = ctx.try_run(task, dataset, "cpu-seq", "synchronous")
    if run is None:
        return None
    assert run.epoch_trace is not None
    ds = load_for(task, dataset, ctx.scale, ctx.seed)
    ws = working_set_bytes(ds, make_model(task, ds), task)
    out: dict[str, float] = {}
    fw_profile = TENSORFLOW_LIKE if task == "mlp" else BIDMACH_LIKE
    for profile, label in ((OURS, "ours-sync"), (fw_profile, fw_profile.name)):
        timing = FrameworkExecutor(profile).timing(run.epoch_trace, ws)
        out[label] = timing.gpu_speedup_over_cpu
    return out


def _async_speedup(ctx: ExperimentContext, task: str, dataset: str) -> float:
    """ours-async: gpu/cpu-par epoch-time ratio from the workload model."""
    ds = load_for(task, dataset, ctx.scale, ctx.seed)
    model = make_model(task, ds)
    if task == "mlp":
        workload = AsyncWorkload.for_batched(ds, model, batch_size=512)
    else:
        workload = AsyncWorkload.for_linear(ds, model)
    t_par = ctx.cpu.async_epoch_time(workload, ctx.cpu.spec.max_threads)
    t_gpu = ctx.gpu.async_epoch_time(workload)
    return t_par / t_gpu


def figure_cells(ctx: ExperimentContext, tasks: tuple[str, ...]) -> list[GridCell]:
    """The grid cells a figure over *tasks* trains: the synchronous base
    run of each of the context's (task, dataset) pairs."""
    return [
        GridCell(task, dataset, "cpu-seq", "synchronous")
        for task in tasks
        if task in ctx.tasks
        for dataset in ctx.datasets
    ]


def _run_figure(ctx: ExperimentContext, figure: str, tasks: tuple[str, ...]) -> Fig89Result:
    ctx.prefetch(figure_cells(ctx, tasks))
    result = Fig89Result(figure=figure)
    for task in (t for t in tasks if t in ctx.tasks):
        for dataset in ctx.datasets:
            sync = _sync_speedups(ctx, task, dataset)
            if sync is None:
                result.gaps.append((task, dataset))
                failure = ctx.failure_for(task, dataset, "cpu-seq", "synchronous")
                if failure is not None and failure not in result.failures:
                    result.failures.append(failure)
                continue
            for system, speedup in sync.items():
                result.entries.append(SpeedupEntry(task, dataset, system, speedup))
            result.entries.append(
                SpeedupEntry(task, dataset, "ours-async", _async_speedup(ctx, task, dataset))
            )
    return result


def run_fig8(ctx: ExperimentContext | None = None) -> Fig89Result:
    """Fig. 8: LR and SVM speedups vs. BIDMach."""
    ctx = ctx or ExperimentContext()
    return _run_figure(ctx, "Fig. 8", FIG8_TASKS)


def run_fig9(ctx: ExperimentContext | None = None) -> Fig89Result:
    """Fig. 9: MLP speedups vs. TensorFlow."""
    ctx = ctx or ExperimentContext()
    return _run_figure(ctx, "Fig. 9", FIG9_TASKS)
