"""Shared fixtures for the shape suite (``make shapes``).

The modules regenerate every table and figure of the paper at the
``small`` scale and print them (also writing them under
``benchmarks/artifacts/``).  A single session-scoped
:class:`ExperimentContext` is shared across modules so the training
runs behind Table II, Table III, Fig. 7 and Figs. 8/9 are performed
once.  Reference losses are cached on disk under ``.repro_cache`` so
repeat runs skip the budgeted reference sweeps.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

ARTIFACTS = Path(__file__).parent / "artifacts"

os.environ.setdefault(
    "REPRO_CACHE_DIR", str(Path(__file__).resolve().parent.parent / ".repro_cache")
)


@pytest.fixture(scope="session")
def ctx():
    """The suite-scale experiment context (paper grid, small data)."""
    from repro.experiments import ExperimentContext

    return ExperimentContext(scale="small", sync_max_epochs=3000, async_max_epochs=950)


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    ARTIFACTS.mkdir(exist_ok=True)
    return ARTIFACTS


def publish(artifact_dir: Path, name: str, text: str) -> None:
    """Print a rendered table/figure and persist it."""
    print("\n" + text + "\n")
    (artifact_dir / name).write_text(text + "\n", encoding="utf-8")
