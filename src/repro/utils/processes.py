"""The one multiprocessing start-method choice every process pool makes."""

from __future__ import annotations

import multiprocessing as mp

__all__ = ["fork_context"]


def fork_context() -> mp.context.BaseContext:
    """The context shm workers, ps nodes and grid workers are created from.

    Fork shares the parent's loaded datasets copy-on-write; spawn is the
    portable fallback.
    """
    return mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
