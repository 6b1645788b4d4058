"""Fig. 1 — the complete exploratory cube, including the light circles.

The paper's Fig. 1 draws the eight (strategy x architecture x sparsity)
combinations and notes that practice implements only a subset — GPU
solutions are synchronous-over-dense, CPU solutions asynchronous-over-
sparse — promising to "explore the complete space and map the remaining
combinations experimentally".  This driver does exactly that for a
chosen task: every corner of the cube is trained and timed, so the
never-implemented corners (asynchronous GPU over dense data, Hogwild
over a densified sparse dataset, ...) get numbers too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from ..sgd.runner import run
from ..utils.tables import render_table
from .common import ExperimentContext

__all__ = ["Fig1Cell", "Fig1Result", "run_fig1_space"]


@dataclass(frozen=True)
class Fig1Cell:
    """One corner of the paper's exploratory cube."""

    strategy: str
    architecture: str
    representation: str
    time_per_iter: float
    epochs: float
    time_to_convergence: float

    @property
    def label(self) -> str:
        """'sync/gpu/dense'-style corner name."""
        short = {"synchronous": "sync", "asynchronous": "async"}[self.strategy]
        return f"{short}/{self.architecture}/{self.representation}"


@dataclass
class Fig1Result:
    """The mapped cube for one (task, dataset)."""

    task: str
    dataset: str
    tolerance: float
    cells: list[Fig1Cell] = field(default_factory=list)

    def cell(self, strategy: str, architecture: str, representation: str) -> Fig1Cell:
        """Look up one corner."""
        for c in self.cells:
            if (c.strategy, c.architecture, c.representation) == (
                strategy, architecture, representation,
            ):
                return c
        raise KeyError((strategy, architecture, representation))

    def best(self) -> Fig1Cell:
        """The winning corner by time to convergence."""
        finite = [c for c in self.cells if math.isfinite(c.time_to_convergence)]
        if not finite:
            raise ValueError("no corner converged")
        return min(finite, key=lambda c: c.time_to_convergence)

    def render(self) -> str:
        """Monospace table over all mapped corners."""
        rows = [
            [
                c.label,
                c.time_per_iter * 1e3,
                int(c.epochs) if math.isfinite(c.epochs) else c.epochs,
                c.time_to_convergence,
            ]
            for c in sorted(self.cells, key=lambda c: c.time_to_convergence)
        ]
        return render_table(
            ["corner", "time/iter (ms)", "epochs", "time to conv (s)"],
            rows,
            title=(
                f"Fig. 1 design space: {self.task} on {self.dataset} "
                f"({int(self.tolerance * 100)}% error)"
            ),
        )

    # -- paper shape checks -----------------------------------------------

    def dark_circles_beat_light_ones(self) -> bool:
        """The combinations practice implements (sync anywhere over the
        natural format; async CPU over sparse) must collectively beat
        the unimplemented corners — i.e. the best corner is a dark one.
        """
        best = self.best()
        dark = (
            best.strategy == "synchronous" and best.representation == "auto"
        ) or (
            best.strategy == "asynchronous"
            and best.architecture in ("cpu-seq", "cpu-par")
            and best.representation == "auto"
        )
        return dark


def run_fig1_space(
    task: str = "lr",
    dataset: str = "real-sim",
    ctx: ExperimentContext | None = None,
) -> Fig1Result:
    """Train and time every corner of the cube for (task, dataset).

    Representations: ``auto`` (the dataset's natural format — the dark
    circles) and the flipped format (the light ones).  MLP is excluded
    (its pipeline is dense by construction).
    """
    if task == "mlp":
        raise ValueError("the representation axis applies to lr/svm")
    ctx = ctx or ExperimentContext()
    flipped = "dense"  # all profiles except covtype are sparse-natural
    if dataset == "covtype":
        flipped = "sparse"
    result = Fig1Result(task=task, dataset=dataset, tolerance=ctx.tolerance)
    for strategy in ("synchronous", "asynchronous"):
        for architecture in ("cpu-par", "gpu"):
            for representation in ("auto", flipped):
                config = replace(
                    ctx.config_for(task, dataset, architecture, strategy),
                    representation=representation,
                )
                trained = run(config)
                epochs = trained.epochs_to(ctx.tolerance)
                result.cells.append(
                    Fig1Cell(
                        strategy=strategy,
                        architecture=architecture,
                        representation=representation,
                        time_per_iter=trained.time_per_iter,
                        epochs=math.inf if epochs is None else float(epochs),
                        time_to_convergence=trained.time_to(ctx.tolerance),
                    )
                )
    return result
