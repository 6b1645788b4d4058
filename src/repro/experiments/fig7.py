"""Fig. 7 — loss vs. time: synchronous GPU vs. asynchronous CPU.

The paper's head-to-head between the two *optimal* configurations: the
synchronous strategy on its best architecture (GPU) against the
asynchronous strategy on its best (CPU), same initial model, tuned
hyper-parameters, loss measured against wall-clock time.  The paper's
conclusion — and the registry's ``fig7/no-single-winner`` check — is
that **neither side wins everywhere**: the winner is task- and
dataset-dependent, mirroring the classic BGD-vs-SGD trade-off.

Degraded mode: a panel needs both sides.  On a keep-going grid, a
panel whose sync-GPU run — or both async CPU candidates — was
quarantined is listed as a gap (``-`` columns, winner ``quarantined``)
instead of aborting the figure; if only one async candidate was lost,
the surviving one stands in (docs/RESILIENCE.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..sgd.runner import TrainResult
from ..utils.tables import render_line_chart, render_table
from .common import ExperimentContext
from .resilience import CellFailure, render_failure_section

__all__ = ["Fig7Panel", "Fig7Result", "fig7_cells", "run_fig7"]


@dataclass
class Fig7Panel:
    """One task/dataset panel of the 15-panel figure."""

    task: str
    dataset: str
    sync_gpu: TrainResult
    async_cpu: TrainResult
    tolerance: float

    @property
    def sync_time(self) -> float:
        """Sync-GPU time to the panel tolerance (sec)."""
        return self.sync_gpu.time_to(self.tolerance)

    @property
    def async_time(self) -> float:
        """Async-CPU time to the panel tolerance (sec)."""
        return self.async_cpu.time_to(self.tolerance)

    @property
    def winner(self) -> str:
        """Which strategy converges first on this panel."""
        s, a = self.sync_time, self.async_time
        if math.isinf(s) and math.isinf(a):
            return "none"
        return "sync-gpu" if s <= a else "async-cpu"

    def render(self) -> str:
        """ASCII loss-vs-time chart for the panel."""
        sx, sy = self.sync_gpu.loss_vs_time()
        ax, ay = self.async_cpu.loss_vs_time()
        return render_line_chart(
            {
                "sync-gpu": (sx.tolist(), sy.tolist()),
                f"async-{self.async_cpu.architecture}": (ax.tolist(), ay.tolist()),
            },
            title=f"Fig. 7 panel: {self.task} / {self.dataset}",
            logx=True,
        )


@dataclass
class Fig7Result:
    """All panels plus the winners summary."""

    panels: list[Fig7Panel] = field(default_factory=list)
    #: (task, dataset) pairs with no renderable panel (quarantined).
    gaps: list[tuple[str, str]] = field(default_factory=list)
    #: Quarantine records behind the gaps (keep-going grids only).
    failures: list[CellFailure] = field(default_factory=list)

    def panel(self, task: str, dataset: str) -> Fig7Panel:
        """Look up one panel."""
        for p in self.panels:
            if p.task == task and p.dataset == dataset:
                return p
        raise KeyError((task, dataset))

    def winners(self) -> dict[tuple[str, str], str]:
        """(task, dataset) -> winning strategy."""
        return {(p.task, p.dataset): p.winner for p in self.panels}

    def render(self) -> str:
        """Winners table (the panel charts are available per panel)."""
        headers = ["task", "dataset", "sync-gpu t1% (s)", "async-cpu t1% (s)", "winner"]
        rows = [
            [p.task, p.dataset, p.sync_time, p.async_time, p.winner]
            for p in self.panels
        ]
        rows += [
            [task, dataset, None, None, "quarantined"] for task, dataset in self.gaps
        ]
        table = render_table(
            headers, rows, title="Fig. 7: synchronous GPU vs asynchronous CPU"
        )
        return table + render_failure_section(self.failures)


def fig7_cells(ctx: ExperimentContext):
    """The grid cells Fig. 7 trains: the sync GPU cells plus both async
    CPU candidates :meth:`~ExperimentContext.best_async_cpu` picks
    between."""
    sync = ctx.grid_cells(strategies=("synchronous",), architectures=("gpu",))
    cpus = ("cpu-seq", "cpu-par")
    return sync + ctx.grid_cells(strategies=("asynchronous",), architectures=cpus)


def run_fig7(ctx: ExperimentContext | None = None) -> Fig7Result:
    """Regenerate the Fig. 7 comparison at the context's scale."""
    ctx = ctx or ExperimentContext()
    ctx.prefetch(fig7_cells(ctx))
    result = Fig7Result()
    for task in ctx.tasks:
        for dataset in ctx.datasets:
            sync_gpu = ctx.try_run(task, dataset, "gpu", "synchronous")
            seq = ctx.try_run(task, dataset, "cpu-seq", "asynchronous")
            par = ctx.try_run(task, dataset, "cpu-par", "asynchronous")
            if seq is not None and par is not None:
                async_cpu = ctx.best_async_cpu(task, dataset)
            else:
                async_cpu = seq if seq is not None else par
            if sync_gpu is None or async_cpu is None:
                result.gaps.append((task, dataset))
                for cell in (
                    (task, dataset, "gpu", "synchronous"),
                    (task, dataset, "cpu-seq", "asynchronous"),
                    (task, dataset, "cpu-par", "asynchronous"),
                ):
                    failure = ctx.failure_for(*cell)
                    if failure is not None and failure not in result.failures:
                        result.failures.append(failure)
                continue
            result.panels.append(
                Fig7Panel(
                    task=task,
                    dataset=dataset,
                    sync_gpu=sync_gpu,
                    async_cpu=async_cpu,
                    tolerance=ctx.tolerance,
                )
            )
    return result
