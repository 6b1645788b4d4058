"""Run manifests: the reproducibility record of one training run.

A manifest pins everything needed to compare a result across PRs and
machines: the full configuration (every :class:`~repro.sgd.config.RunConfig`
field, so ``train(**manifest.config)`` reruns the run), the realised
dataset's statistics, the producing commit, the final metrics along the
paper's three axes, and the telemetry counter totals.  It round-trips
through JSON losslessly (``write`` -> ``load`` -> equality), which the
test suite asserts.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass, field, fields
from typing import Any, TYPE_CHECKING

from .export import write_text
from .gitinfo import current_git_sha
from .session import Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sgd.config import RunConfig
    from ..sgd.runner import TrainResult

__all__ = [
    "MANIFEST_SCHEMA",
    "GRID_MANIFEST_SCHEMA",
    "SERVE_MANIFEST_SCHEMA",
    "RunManifest",
    "build_manifest",
    "load_manifest",
    "build_grid_manifest",
    "build_serve_manifest",
]

MANIFEST_SCHEMA = "repro.telemetry/manifest/v1"

#: Schema of the aggregate manifest the experiment-grid executor writes:
#: one record per cell (each a :data:`MANIFEST_SCHEMA` manifest dict,
#: tagged with how the cell was produced) plus the merged parent-side
#: counter/gauge totals.
GRID_MANIFEST_SCHEMA = "repro.telemetry/grid-manifest/v1"

#: Schema of the manifest a ``repro serve`` session writes on shutdown:
#: the serving statistics (throughput, latency percentiles, batch-size
#: histogram, hot-swap and snapshot-retry counts) plus the ``serve.*``
#: counter/gauge totals and the model provenance it ended on.
SERVE_MANIFEST_SCHEMA = "repro.telemetry/serve-manifest/v1"


@dataclass
class RunManifest:
    """Snapshot of one run's identity, inputs, outputs and counters."""

    schema: str
    created_unix: float
    git_sha: str | None
    repro_version: str
    #: Whether the package's one-BLAS-thread pin took effect
    #: (:data:`repro.BLAS_PINNED`); ``None`` in manifests older than it.
    blas_pinned: bool | None = None
    #: The exact configuration: every field of the run's
    #: :class:`~repro.sgd.config.RunConfig` (:meth:`RunConfig.to_dict`).
    config: dict[str, Any] = field(default_factory=dict)
    #: Realised dataset statistics (name, rows, features, nnz, density).
    dataset: dict[str, Any] = field(default_factory=dict)
    #: Final metrics along the paper's axes (losses, time per iter,
    #: epochs/time to each tolerance, divergence flag).
    results: dict[str, Any] = field(default_factory=dict)
    #: Telemetry counter totals at the end of the run.
    counters: dict[str, float] = field(default_factory=dict)
    #: Telemetry gauge values at the end of the run.
    gauges: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-ready), sharing no container with the
        manifest: equal to ``dataclasses.asdict(self)`` without its
        per-leaf ``copy.deepcopy`` (the leaves are JSON scalars)."""
        return _copy_containers({f.name: getattr(self, f.name) for f in fields(self)})

    def to_json(self, indent: int = 2) -> str:
        """Serialised JSON text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write the manifest file and return its path."""
        return write_text(path, self.to_json() + "\n")

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunManifest":
        """Rebuild a manifest from its dict form."""
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        return cls(**known)


#: The container types :meth:`RunManifest.to_dict` copies (the rest are
#: JSON scalars, shared as ``copy.deepcopy`` would share them).
_CONTAINERS = (dict, list, tuple)


def _copy_containers(value: dict | list | tuple) -> dict | list | tuple:
    """*value* with every dict, list and tuple in it copied."""
    if isinstance(value, dict):
        return {
            k: _copy_containers(v) if isinstance(v, _CONTAINERS) else v
            for k, v in value.items()
        }
    items = [_copy_containers(v) if isinstance(v, _CONTAINERS) else v for v in value]
    return items if isinstance(value, list) else tuple(items)


def load_manifest(path: str | pathlib.Path) -> RunManifest:
    """Read a manifest file back into a :class:`RunManifest`."""
    data = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    return RunManifest.from_dict(data)


def build_manifest(
    result: "TrainResult",
    telemetry: Telemetry | None,
    config: "RunConfig",
) -> RunManifest:
    """Assemble the manifest for one :func:`repro.train` result.

    *config* is the run that produced *result*; its fields become the
    manifest's ``config``.  The counter/gauge sections come from
    *telemetry* (empty when the run was not instrumented); the result
    section is always derived from the returned
    :class:`~repro.sgd.runner.TrainResult`, so a manifest is meaningful
    even without live telemetry.
    """
    from .. import BLAS_PINNED, __version__
    from ..sgd.config import TOLERANCES

    epochs_run = result.curve.epochs[-1] if result.curve.epochs else 0
    results: dict[str, Any] = {
        "initial_loss": result.initial_loss,
        "optimal_loss": result.optimal_loss,
        "final_loss": result.curve.final_loss,
        "diverged": result.diverged,
        "epochs_run": epochs_run,
        "time_per_iter_s": result.time_per_iter,
        "sim_seconds_total": epochs_run * result.time_per_iter,
    }
    for tol in TOLERANCES:
        pct = int(round(tol * 100))
        epochs = result.epochs_to(tol)
        results[f"epochs_to_{pct}pct"] = epochs
        t = result.time_to(tol)
        # JSON has no Infinity; the paper's "never converged" marker is
        # stored as null and read back as such.
        results[f"time_to_{pct}pct_s"] = None if epochs is None else t
    if result.measured is not None:
        # Measured execution record (shm backend): wall clock, worker
        # counts, fault counters and the recovery trajectory.
        results["measured"] = dict(result.measured)

    return RunManifest(
        schema=MANIFEST_SCHEMA,
        created_unix=time.time(),
        git_sha=current_git_sha(),
        repro_version=__version__,
        blas_pinned=BLAS_PINNED,
        config=config.to_dict(),
        dataset=dict(result.dataset_stats or {}),
        results=results,
        counters=telemetry.counters() if telemetry is not None else {},
        gauges=telemetry.gauges() if telemetry is not None else {},
    )


def build_grid_manifest(
    cells: list[dict[str, Any]],
    telemetry: Telemetry | None = None,
    *,
    jobs: int = 1,
    settings: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the aggregate manifest of one experiment-grid run.

    *cells* are per-cell records produced by the executor: each holds
    the cell's :func:`build_manifest` dict plus provenance (executed in
    a worker / re-costed from a shared base / resumed from the store /
    quarantined by a keep-going run).  The parent telemetry supplies
    the merged counter totals — worker counters have already been
    folded in by the executor, so these are grid-wide totals,
    comparable to a serial run's.

    Quarantined cells carry a structured ``failure`` record instead of
    a manifest; they are repeated under the top-level ``failures`` key
    so a degraded run is visible without scanning the cell list.
    """
    from .. import BLAS_PINNED, __version__

    return {
        "schema": GRID_MANIFEST_SCHEMA,
        "created_unix": time.time(),
        "git_sha": current_git_sha(),
        "repro_version": __version__,
        "blas_pinned": BLAS_PINNED,
        "jobs": jobs,
        "settings": dict(settings or {}),
        "cells": cells,
        "failures": [c for c in cells if c.get("source") == "quarantined"],
        "counters": telemetry.counters() if telemetry is not None else {},
        "gauges": telemetry.gauges() if telemetry is not None else {},
    }


def build_serve_manifest(
    stats: dict[str, Any],
    telemetry: Telemetry | None = None,
    *,
    settings: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the manifest of one serving session.

    *stats* is :meth:`repro.serving.EngineStats.to_dict` output taken at
    shutdown; *settings* records how the server was launched (model
    source, address, batching knobs).  Calling
    :meth:`~repro.serving.ScoringEngine.stats` first flushes the
    ``serve.*`` gauges, so the gauge section here mirrors the stats
    section — manifest consumers can rely on either.
    """
    from .. import __version__

    return {
        "schema": SERVE_MANIFEST_SCHEMA,
        "created_unix": time.time(),
        "git_sha": current_git_sha(),
        "repro_version": __version__,
        "settings": dict(settings or {}),
        "serving": dict(stats),
        "counters": telemetry.counters() if telemetry is not None else {},
        "gauges": telemetry.gauges() if telemetry is not None else {},
    }
