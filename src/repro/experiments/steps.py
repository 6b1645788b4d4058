"""The paper's step-size protocol (Section IV-A: grid the step in powers
of 10, keep the fastest time to convergence; ties go to the smaller
step) on the grid runner, and the tuned table it writes.

``tuned_steps.json`` beside this module holds one row per
``task/dataset/strategy/architecture`` (``*``: synchronous, probed on
the ``cpu-seq`` base): the probe's ``grid`` and ``max_epochs``, the
winning ``step`` and its ``epochs`` (``null``: nothing converged).
The step axis and its never-healed points: docs/EXPERIMENTS-PARALLEL.md.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Any, Sequence

from ..faults.recovery import CellRetryPolicy
from ..sgd.config import STEP_GRID, RunConfig
from ..telemetry.export import write_text
from ..utils.errors import ConfigurationError
from .executor import GridExecutor
from .resilience import CellFailure

#: One step search: the base configuration and the steps to put on it.
Probe = tuple[RunConfig, Sequence[float]]

@dataclass(frozen=True)
class GridPoint:
    """One evaluated step size."""

    step_size: float
    time_to_convergence: float
    epochs: int | None
    diverged: bool
    #: Kind of the keep-going quarantine that stood in for the result.
    quarantined: str | None = None


@dataclass
class GridSearchResult:
    """Ranked outcome of a step-size grid search."""

    task: str
    dataset: str
    architecture: str
    strategy: str
    tolerance: float
    points: list[GridPoint] = field(default_factory=list)
    max_epochs: int | None = None

    @property
    def best(self) -> GridPoint:
        """The winning grid point (smallest time; ties -> smaller step)."""
        finite = [p for p in self.points if math.isfinite(p.time_to_convergence)]
        if not finite:
            raise ConfigurationError(
                f"no step size converged for {self.task}/{self.dataset}/"
                f"{self.architecture}/{self.strategy}"
            )
        return min(finite, key=lambda p: (p.time_to_convergence, p.step_size))

    @property
    def best_step_size(self) -> float:
        """Step size of the winning point."""
        return self.best.step_size

    @property
    def any_converged(self) -> bool:
        """Whether at least one grid point reached the tolerance."""
        return any(math.isfinite(p.time_to_convergence) for p in self.points)


def _point(step: float, outcome, tolerance: float) -> GridPoint:
    if isinstance(outcome, CellFailure):
        diverged = outcome.kind == "divergence"
        return GridPoint(step, math.inf, None, diverged, outcome.kind)
    time, epochs = outcome.time_to(tolerance), outcome.epochs_to(tolerance)
    return GridPoint(step, time, epochs, outcome.diverged)


def rank_steps(ctx, probes: Sequence[Probe]) -> list[GridSearchResult]:
    """Run every (base, grid) probe's points as one batch of jobs on
    *ctx*'s grid runner; the ranked results, in *probes* order."""
    if not all(grid for _, grid in probes):
        raise ConfigurationError("grid must not be empty")
    configs = [replace(base, step_size=s) for base, grid in probes for s in grid]
    never_heal = replace(ctx.retry or CellRetryPolicy(), divergence_retries=0)
    executor = GridExecutor(replace(ctx, retry=never_heal))
    outcomes = iter(executor.run_configs(configs))
    ctx.grid_records.extend(executor.cell_records)
    results = []
    for b, grid in probes:
        tol = b.early_stop_tolerance
        points = [_point(s, next(outcomes), tol) for s in grid]
        cell = (b.task, b.dataset_name, b.architecture, b.strategy)
        results.append(GridSearchResult(*cell, tol, points, b.max_epochs))
    return results


def grid_search(
    task: str,
    dataset: str,
    architecture: str = "cpu-par",
    strategy: str = "asynchronous",
    tolerance: float = 0.01,
    grid: Sequence[float] = STEP_GRID,
    **train_kwargs,
) -> GridSearchResult:
    """Rank every step in *grid* by time to convergence, serially in this
    process; the other keywords are :class:`RunConfig` fields."""
    from .common import ExperimentContext

    options = dict(train_kwargs, early_stop_tolerance=tolerance)
    base = RunConfig(task, dataset, architecture, strategy, **options)
    return rank_steps(ExperimentContext(), [(base, grid)])[0]


def regenerate(ctx) -> dict[str, GridSearchResult]:
    """Re-run the packaged rows of the context's tasks and datasets, each
    on its recorded grid and budget; row key -> ranked result."""
    probes = {}
    for key, row in read_table().items():
        task, dataset, strategy, arch = key.split("/")
        if task in ctx.tasks and dataset in ctx.datasets:
            base = ctx.config_for(task, dataset, arch.replace("*", "cpu-seq"), strategy)
            probes[key] = (replace(base, max_epochs=row["max_epochs"]), row["grid"])
    return dict(zip(probes, rank_steps(ctx, list(probes.values()))))


def table_row(result: GridSearchResult) -> dict[str, Any]:
    """The table row recording *result*'s probe and its winner."""
    best = result.best if result.any_converged else None
    return {
        "grid": [p.step_size for p in result.points],
        "max_epochs": result.max_epochs,
        "step": best and best.step_size,
        "epochs": best and best.epochs,
    }


def read_table(path: str | Path | None = None) -> dict[str, dict[str, Any]]:
    """Rows of the table at *path* (default: the packaged one)."""
    source = Path(path) if path else resources.files(__package__) / "tuned_steps.json"
    return json.loads(source.read_text(encoding="utf-8"))


def write_table(path: str | Path, rows: dict[str, dict[str, Any]]) -> Path:
    """Write *rows* one per line, sorted by key."""
    lines = [f"  {json.dumps(key)}: {json.dumps(rows[key])}" for key in sorted(rows)]
    return write_text(path, "{\n" + ",\n".join(lines) + "\n}\n")


#: (task, dataset, strategy, architecture) -> step size.
TUNED_STEPS: dict[tuple[str, ...], float] = {
    tuple(k.split("/")): r["step"] for k, r in read_table().items() if r["step"]
}


def lookup_step(
    task: str, dataset: str, strategy: str, architecture: str
) -> float | None:
    """Resolve a tuned step with exact-arch > wildcard precedence."""
    key = (task, dataset, strategy)
    return TUNED_STEPS.get((*key, architecture)) or TUNED_STEPS.get((*key, "*"))
