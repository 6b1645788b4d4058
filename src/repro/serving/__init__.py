"""Train-and-serve subsystem: consistent snapshots + micro-batched scoring.

Three layers, bottom up:

* :mod:`repro.serving.snapshot` — a seqlock-versioned shared-memory
  parameter snapshot: :class:`SnapshotPublisher` (trainer side, wired
  into ``train_shm``'s epoch loop) and :class:`ShmTrainHandle` (reader
  side, torn-read-free ``snapshot()`` while workers keep training);
* :mod:`repro.serving.engine` — :class:`ScoringEngine`, which coalesces
  score requests into micro-batches through the vectorised margin
  kernels and hot-swaps model versions atomically via
  :class:`SnapshotRefresher` without dropping in-flight requests;
* :mod:`repro.serving.service` — ``python -m repro serve``: the
  JSON-lines socket front end over the engine.

See ``docs/SERVING.md`` for the protocol and consistency guarantees.
"""

from .engine import (
    SERVABLE_TASKS,
    ArtifactSource,
    EngineStats,
    ExampleScore,
    ScoreResponse,
    ScoringEngine,
    ServedModel,
    SnapshotRefresher,
    SnapshotSource,
)
from .service import ScoringServer, ServerConfig, request_once
from .snapshot import ModelSnapshot, ShmTrainHandle, SnapshotPublisher

__all__ = [
    "SERVABLE_TASKS",
    "ArtifactSource",
    "EngineStats",
    "ExampleScore",
    "ModelSnapshot",
    "ScoreResponse",
    "ScoringEngine",
    "ScoringServer",
    "ServedModel",
    "ServerConfig",
    "ShmTrainHandle",
    "SnapshotPublisher",
    "SnapshotRefresher",
    "SnapshotSource",
    "request_once",
]
