"""Shared fixtures for the extended-artifact suite (``make shapes``).

``make shapes`` runs ``repro experiments`` before these modules; their
session context resumes from the same result store
(``$REPRO_CACHE_DIR/grid``), so a cell the report trained (e.g. under
the tolerance ladder) is replayed, not retrained.  Reference losses are
cached under ``.repro_cache`` too.
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
    from repro.experiments import ExperimentContext, ResultStore

    store = ResultStore(Path(os.environ["REPRO_CACHE_DIR"]) / "grid")
    return ExperimentContext(scale="small", store=store, resume=True)


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    ARTIFACTS.mkdir(exist_ok=True)
    return ARTIFACTS


def small_lr(dataset: str):
    """``(dataset, lr model, initial weights)`` at the suite's scale."""
    from repro.datasets import load
    from repro.models import make_model
    from repro.utils import derive_rng

    ds = load(dataset, "small")
    model = make_model("lr", ds)
    return ds, model, model.init_params(derive_rng(0, "b"))


def publish(artifact_dir: Path, name: str, text: str) -> None:
    """Print a rendered table/figure and persist it."""
    print("\n" + text + "\n")
    (artifact_dir / name).write_text(text + "\n", encoding="utf-8")
