"""The grid's warm pool: when the live worker pool can be reused.

Forking workers per :meth:`GridExecutor.execute` call costs more than a
small grid's cells do, so the grid keeps its pool live for the next
grid with the same ``ctx.jobs`` and shared-data setting — and, with
shared data, no dataset published after the workers forked (they see
the parent's memory as of the fork).  An aborted grid retires the pool;
:func:`shutdown_grid_pool` (also ``atexit``) retires it, then tears down
the shared-data registry.
"""

from __future__ import annotations

import atexit
import itertools
from dataclasses import dataclass, field
from typing import Iterable

from ..utils.pool import Pool
from . import shared_data

__all__ = ["acquire_pool", "retire_pool", "shutdown_grid_pool", "warm_pool_info"]


@dataclass(eq=False)
class _WarmPool(Pool):
    shared: bool = False
    specs: frozenset = frozenset()  # dataset specs published when the pool was created
    #: Counts up with every pool created in this process.
    generation: int = field(default_factory=itertools.count(1).__next__)


_ATEXIT_REGISTERED = False


def acquire_pool(
    jobs: int,
    *,
    shared: bool,
    specs: Iterable[shared_data.DatasetSpec],
    descriptors: tuple,
) -> tuple[_WarmPool, bool]:
    """A pool warm for (*jobs*, *shared*, *specs*); ``(pool, created)``.

    Reuses the live pool when compatible, otherwise retires it and
    makes a fresh one live.  Workers fork on demand and attach
    *descriptors* first (spawn children need to; fork children inherit
    the views).
    """
    global _ATEXIT_REGISTERED
    specs = frozenset(specs)
    state = Pool.live
    # Without shared data, workers materialise datasets on demand — any
    # grid fits; with it, every needed dataset must predate the fork.
    if (
        state is not None
        and (state.jobs, state.shared) == (jobs, shared)
        and (not shared or specs <= state.specs)
    ):
        return state, False
    retire_pool()
    if not _ATEXIT_REGISTERED:
        atexit.register(shutdown_grid_pool)
        _ATEXIT_REGISTERED = True
    registry = shared_data.active_registry()
    published = registry.specs() if (shared and registry is not None) else specs
    state = _WarmPool(
        jobs=jobs,
        setup=(shared_data.attach_descriptors, descriptors) if descriptors else None,
        shared=shared,
        specs=frozenset(published),
    )
    Pool.live = state
    return state, True


def retire_pool() -> None:
    """Shut the warm pool down (idempotent; shared data stays published)."""
    if Pool.live is not None:
        Pool.live.close()
    Pool.live = None


def warm_pool_info() -> dict | None:
    """Introspection for tests and bench scripts; None when no pool is warm."""
    state = Pool.live
    if state is None:
        return None
    return {
        "jobs": state.jobs,
        "shared_data": state.shared,
        "datasets": len(state.specs),
        "generation": state.generation,
    }


def shutdown_grid_pool() -> None:
    """Retire the warm pool, then unlink the shared-data segments."""
    retire_pool()
    shared_data.shutdown_shared_data()
