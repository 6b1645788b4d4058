"""Real (non-simulated) parallel execution backends."""

from .shm import ShmSchedule, ShmTrainResult, default_shm_workers, train_shm

__all__ = [
    "ShmSchedule",
    "ShmTrainResult",
    "default_shm_workers",
    "train_shm",
]
