"""Table II — synchronous SGD performance to 1% convergence error.

For every (task, dataset) pair the driver reports exactly the paper's
columns: time to convergence on gpu / cpu-seq / cpu-par, time per
iteration on the three backends, the (architecture-independent) epoch
count, and the two speedups cpu-seq/cpu-par and cpu-par/gpu.

Degraded mode: on a keep-going grid a quarantined (task, dataset) base
run yields a gap row — every numeric column renders as ``-`` — plus an
entry in the failure-report section, instead of aborting the table
(docs/RESILIENCE.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..utils.tables import render_table
from .common import ExperimentContext
from .resilience import CellFailure, nan_to_gap, render_failure_section

__all__ = ["Table2Row", "Table2Result", "run_table2", "table2_cells"]


@dataclass(frozen=True)
class Table2Row:
    """One (task, dataset) row of Table II.  Times in seconds."""

    task: str
    dataset: str
    ttc_gpu: float
    ttc_cpu_seq: float
    ttc_cpu_par: float
    tpi_gpu: float
    tpi_cpu_seq: float
    tpi_cpu_par: float
    epochs: float

    @property
    def is_gap(self) -> bool:
        """True for a quarantined (keep-going) row: no numbers to show."""
        return math.isnan(self.tpi_cpu_seq)

    @property
    def speedup_seq_over_par(self) -> float:
        """cpu-seq / cpu-par time-per-iteration ratio (paper column 9)."""
        return self.tpi_cpu_seq / self.tpi_cpu_par

    @property
    def speedup_par_over_gpu(self) -> float:
        """cpu-par / gpu time-per-iteration ratio (paper column 10)."""
        return self.tpi_cpu_par / self.tpi_gpu


@dataclass
class Table2Result:
    """All rows and their rendering (the shape checks live in the registry)."""

    rows: list[Table2Row] = field(default_factory=list)
    #: Quarantine records behind the gap rows (keep-going grids only).
    failures: list[CellFailure] = field(default_factory=list)

    def row(self, task: str, dataset: str) -> Table2Row:
        """Look up one row."""
        for r in self.rows:
            if r.task == task and r.dataset == dataset:
                return r
        raise KeyError((task, dataset))

    def render(self) -> str:
        """Monospace rendering in the paper's Table II layout."""
        headers = [
            "task",
            "dataset",
            "ttc gpu (s)",
            "ttc cpu-seq (s)",
            "ttc cpu-par (s)",
            "tpi gpu (ms)",
            "tpi cpu-seq (ms)",
            "tpi cpu-par (ms)",
            "epochs",
            "seq/par",
            "par/gpu",
        ]
        body = [
            [
                r.task,
                r.dataset,
                *(
                    nan_to_gap(v)
                    for v in (
                        r.ttc_gpu,
                        r.ttc_cpu_seq,
                        r.ttc_cpu_par,
                        r.tpi_gpu * 1e3,
                        r.tpi_cpu_seq * 1e3,
                        r.tpi_cpu_par * 1e3,
                        int(r.epochs) if math.isfinite(r.epochs) else r.epochs,
                        r.speedup_seq_over_par,
                        r.speedup_par_over_gpu,
                    )
                ),
            ]
            for r in self.rows
        ]
        table = render_table(
            headers, body, title="Table II: Synchronous SGD performance (1% error)"
        )
        return table + render_failure_section(self.failures)


def table2_cells(ctx: ExperimentContext):
    """The grid cells Table II trains: every synchronous cell."""
    return ctx.grid_cells(strategies=("synchronous",))


def run_table2(ctx: ExperimentContext | None = None) -> Table2Result:
    """Regenerate Table II at the context's scale."""
    ctx = ctx or ExperimentContext()
    ctx.prefetch(table2_cells(ctx))
    result = Table2Result()
    for task in ctx.tasks:
        for dataset in ctx.datasets:
            runs = {
                arch: ctx.try_run(task, dataset, arch, "synchronous")
                for arch in ("gpu", "cpu-seq", "cpu-par")
            }
            if any(run is None for run in runs.values()):
                # All three share one quarantined base run: gap row.
                failure = ctx.failure_for(task, dataset, "cpu-seq", "synchronous")
                if failure is not None and failure not in result.failures:
                    result.failures.append(failure)
                result.rows.append(
                    Table2Row(task, dataset, *([math.nan] * 7))
                )
                continue
            epochs = runs["gpu"].epochs_to(ctx.tolerance)
            result.rows.append(
                Table2Row(
                    task=task,
                    dataset=dataset,
                    ttc_gpu=runs["gpu"].time_to(ctx.tolerance),
                    ttc_cpu_seq=runs["cpu-seq"].time_to(ctx.tolerance),
                    ttc_cpu_par=runs["cpu-par"].time_to(ctx.tolerance),
                    tpi_gpu=runs["gpu"].time_per_iter,
                    tpi_cpu_seq=runs["cpu-seq"].time_per_iter,
                    tpi_cpu_par=runs["cpu-par"].time_per_iter,
                    epochs=math.inf if epochs is None else float(epochs),
                )
            )
    return result
