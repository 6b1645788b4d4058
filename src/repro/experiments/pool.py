"""A warm worker pool kept alive across experiment-grid runs.

Cold-starting a ``ProcessPoolExecutor`` per :meth:`GridExecutor.execute`
call charged every grid the full interpreter spawn + import cost for
each worker, which ate the entire parallel win (0.79x "speedup" at
jobs=4).  This module keeps **one** pool alive at module level and
hands it to consecutive grids whose requirements match.

A pool is reusable only when nothing the workers snapshotted at fork
time has drifted:

* same worker count (``ctx.jobs``),
* same shared-data setting, and
* every dataset the new grid needs was already published when the
  pool's workers were created (fork children see the parent's memory
  *as of the fork* — a segment published afterwards is invisible to
  them, so a grown dataset set retires the pool and builds a fresh one
  against the enlarged registry).

The executor retires the pool on **any** failure path (broken pool,
worker exception, ``KeyboardInterrupt``) — warm reuse is strictly the
happy path, so error semantics stay identical to the old
pool-per-call code.  :func:`shutdown_grid_pool` (also ``atexit``) tears
down the pool *and* the shared-data registry, in that order.
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from . import shared_data

__all__ = ["acquire_pool", "retire_pool", "shutdown_grid_pool", "warm_pool_info"]


@dataclass
class _WarmPool:
    pool: ProcessPoolExecutor
    jobs: int
    shared: bool
    specs: frozenset  # dataset specs published when the workers were forked
    generation: int


_STATE: _WarmPool | None = None
_GENERATION = 0
_ATEXIT_REGISTERED = False


def _compatible(state: _WarmPool, jobs: int, shared: bool, specs: frozenset) -> bool:
    if state.jobs != jobs or state.shared != shared:
        return False
    # Without shared data, workers materialise datasets on demand — any
    # grid fits; with it, every needed dataset must predate the fork.
    return (not shared) or specs <= state.specs


def acquire_pool(
    jobs: int,
    *,
    shared: bool,
    specs: Iterable[shared_data.DatasetSpec],
    mp_context: Any,
    initializer: Callable[..., None],
    initargs: tuple,
) -> tuple[ProcessPoolExecutor, bool]:
    """A pool warm for (*jobs*, *shared*, *specs*); ``(pool, created)``.

    Reuses the live pool when compatible, otherwise retires it and
    builds a fresh one.  ``max_workers`` is always *jobs* — workers
    spawn lazily on first submit, so a warm pool costs nothing until
    used.
    """
    global _STATE, _GENERATION, _ATEXIT_REGISTERED
    specs = frozenset(specs)
    if _STATE is not None and _compatible(_STATE, jobs, shared, specs):
        return _STATE.pool, False
    retire_pool()
    if not _ATEXIT_REGISTERED:
        atexit.register(shutdown_grid_pool)
        _ATEXIT_REGISTERED = True
    registry = shared_data.active_registry()
    published = registry.specs() if (shared and registry is not None) else specs
    _GENERATION += 1
    _STATE = _WarmPool(
        pool=ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=mp_context,
            initializer=initializer,
            initargs=initargs,
        ),
        jobs=jobs,
        shared=shared,
        specs=frozenset(published),
        generation=_GENERATION,
    )
    return _STATE.pool, True


def retire_pool() -> None:
    """Shut the warm pool down (idempotent; shared data stays published)."""
    global _STATE
    if _STATE is None:
        return
    state, _STATE = _STATE, None
    state.pool.shutdown(wait=True, cancel_futures=True)


def warm_pool_info() -> dict | None:
    """Introspection for tests and bench scripts; None when no pool is warm."""
    if _STATE is None:
        return None
    return {
        "jobs": _STATE.jobs,
        "shared_data": _STATE.shared,
        "datasets": len(_STATE.specs),
        "generation": _STATE.generation,
    }


def shutdown_grid_pool() -> None:
    """Retire the warm pool, then unlink the shared-data segments."""
    retire_pool()
    shared_data.shutdown_shared_data()
