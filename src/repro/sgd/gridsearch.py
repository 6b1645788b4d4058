"""Step-size selection by the paper's grid protocol.

"The SGD step size is chosen by griding its range in powers of 10,
e.g., {1e-6, 1e-5, ..., 1e2}, and selecting the value that generates the
fastest time to convergence." (Section IV-A)

:func:`grid_search` runs :func:`repro.sgd.runner.train` once per grid
point and ranks by time-to-convergence at the requested tolerance.
Non-convergent points rank as infinity; ties break toward the smaller
step (more robust choice).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from ..utils.errors import ConfigurationError
from .config import STEP_GRID
from .runner import TrainResult, train

__all__ = ["GridPoint", "GridSearchResult", "grid_search"]


@dataclass(frozen=True)
class GridPoint:
    """One evaluated step size."""

    step_size: float
    time_to_convergence: float
    epochs: int | None
    diverged: bool


@dataclass
class GridSearchResult:
    """Ranked outcome of a step-size grid search."""

    task: str
    dataset: str
    architecture: str
    strategy: str
    tolerance: float
    points: list[GridPoint] = field(default_factory=list)

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


def grid_search(
    task: str,
    dataset: str,
    architecture: str = "cpu-par",
    strategy: str = "asynchronous",
    tolerance: float = 0.01,
    grid: Sequence[float] = STEP_GRID,
    **train_kwargs,
) -> GridSearchResult:
    """Evaluate every step size in *grid* and rank by time to convergence.

    All remaining keyword arguments are forwarded to
    :func:`repro.sgd.runner.train` (scale, seed, max_epochs, ...).
    """
    if not grid:
        raise ConfigurationError("grid must not be empty")
    result = GridSearchResult(
        task=task,
        dataset=dataset,
        architecture=architecture,
        strategy=strategy,
        tolerance=tolerance,
    )
    for step in grid:
        run: TrainResult = train(
            task,
            dataset,
            architecture=architecture,
            strategy=strategy,
            step_size=step,
            early_stop_tolerance=tolerance,
            **train_kwargs,
        )
        result.points.append(
            GridPoint(
                step_size=step,
                time_to_convergence=run.time_to(tolerance),
                epochs=run.epochs_to(tolerance),
                diverged=run.diverged,
            )
        )
    return result
