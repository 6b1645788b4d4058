"""Asynchronous-execution simulation (Hogwild / Hogbatch)."""

from .engine import AsyncSchedule, apply_updates, run_async_epoch

__all__ = [
    "AsyncSchedule",
    "run_async_epoch",
    "apply_updates",
]
