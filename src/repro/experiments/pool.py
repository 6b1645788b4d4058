"""The one warm pool of supervised workers behind every grid fan-out.

Forking and attaching workers per :meth:`GridExecutor.execute` call
costs more than a small grid's cells do, so **one** pool lives at
module level and is handed to consecutive grids whose requirements
match.

A worker is a long-lived fork child with one duplex pipe and one
heartbeat slot, and it holds **at most one job at a time**.  That is
what makes supervision exact: a death (EOF on the pipe), a blown
deadline or a silent heartbeat names the one cell that worker held, and
:meth:`_WarmPool.discard` replaces that worker alone — its neighbours
and their in-flight cells are untouched.  The executor's event loop
talks to the pool through ``checkout`` / ``checkin`` / ``discard``;
workers fork lazily, on the first checkout that finds none idle.

A pool is reusable only when nothing the workers snapshotted at fork
time has drifted:

* same worker count (``ctx.jobs``),
* same shared-data setting, and
* every dataset the new grid needs was already published when the
  pool was created (fork children see the parent's memory *as of the
  fork* — a segment published afterwards is invisible to them, so a
  grown dataset set retires the pool and builds a fresh one against
  the enlarged registry).

The executor retires the whole pool when a grid aborts (a fail-fast
failure, ``KeyboardInterrupt``); a keep-going grid that retries or
quarantines a cell only discards the worker that held it.
:func:`shutdown_grid_pool` (also ``atexit``) tears down the pool *and*
the shared-data registry, in that order.
"""

from __future__ import annotations

import atexit
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from ..utils.processes import fork_context
from . import shared_data

__all__ = ["acquire_pool", "retire_pool", "shutdown_grid_pool", "warm_pool_info"]


@dataclass(eq=False)
class Worker:
    """One supervised worker process, as the parent sees it."""

    proc: Any
    conn: Any  # parent end of the duplex pipe: jobs out, replies in
    #: Shared double, wall-clock seconds of the last sign of life.  The
    #: parent stamps it at dispatch; the worker beats it while training.
    heartbeat: Any


def _worker_main(conn, heartbeat, target, descriptors) -> None:
    """Worker process body: one job in, one reply out, until told to go.

    Nested reference-loss parallelism is switched off so a grid of N
    workers never forks N pools of M processes.  The descriptor attach
    only does work on spawn platforms — fork children inherit the
    parent's installed shared-memory views and skip every dataset.
    """
    os.environ["REPRO_REFERENCE_JOBS"] = "1"
    if descriptors:
        shared_data.attach_descriptors(descriptors)
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return  # the parent is gone, or going
        conn.send(target(task, heartbeat))


@dataclass
class _WarmPool:
    jobs: int
    shared: bool
    specs: frozenset  # dataset specs published when the pool was created
    generation: int
    target: Callable[[Any, Any], Any]  # runs one job inside a worker
    descriptors: tuple
    workers: list[Worker] = field(default_factory=list)  # every live worker
    idle: list[Worker] = field(default_factory=list)

    def checkout(self) -> Worker:
        """An idle worker, or a freshly forked one; the caller owns it
        until :meth:`checkin` or :meth:`discard` (never more than
        ``jobs`` at once)."""
        if self.idle:
            return self.idle.pop()
        mp_ctx = fork_context()
        parent_conn, child_conn = mp_ctx.Pipe(duplex=True)
        heartbeat = mp_ctx.RawValue("d", 0.0)
        proc = mp_ctx.Process(
            target=_worker_main,
            args=(child_conn, heartbeat, self.target, self.descriptors),
            daemon=True,
        )
        proc.start()
        # Only the worker may hold its end, or its death would not read
        # as EOF here.
        child_conn.close()
        worker = Worker(proc, parent_conn, heartbeat)
        self.workers.append(worker)
        return worker

    def checkin(self, worker: Worker) -> None:
        """Return a worker that delivered its reply and is idle again."""
        self.idle.append(worker)

    def discard(self, worker: Worker) -> int | None:
        """Kill (if still alive) and reap *worker*; returns its exit code.

        A worker that already died on its own keeps the exit code it
        died with.  Nothing is forked here: the next checkout that finds
        no idle worker does that.
        """
        self.workers.remove(worker)
        if worker in self.idle:
            self.idle.remove(worker)
        worker.conn.close()
        proc = worker.proc
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover - refuses to die
            proc.kill()
            proc.join()
        return proc.exitcode


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
    target: Callable[[Any, Any], Any],
    descriptors: tuple,
) -> tuple[_WarmPool, bool]:
    """A pool warm for (*jobs*, *shared*, *specs*); ``(pool, created)``.

    Reuses the live pool when compatible, otherwise retires it and
    builds a fresh one.  Workers call ``target(task, heartbeat)`` for
    every task sent down their pipe and send back what it returns; they
    fork on demand, so a warm pool costs nothing until used.
    """
    global _STATE, _GENERATION, _ATEXIT_REGISTERED
    specs = frozenset(specs)
    if _STATE is not None and _compatible(_STATE, jobs, shared, specs):
        return _STATE, False
    retire_pool()
    if not _ATEXIT_REGISTERED:
        atexit.register(shutdown_grid_pool)
        _ATEXIT_REGISTERED = True
    registry = shared_data.active_registry()
    published = registry.specs() if (shared and registry is not None) else specs
    _GENERATION += 1
    _STATE = _WarmPool(
        jobs=jobs,
        shared=shared,
        specs=frozenset(published),
        generation=_GENERATION,
        target=target,
        descriptors=descriptors,
    )
    return _STATE, True


def retire_pool() -> None:
    """Shut the warm pool down (idempotent; shared data stays published)."""
    global _STATE
    if _STATE is None:
        return
    state, _STATE = _STATE, None
    for worker in list(state.workers):
        state.discard(worker)


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
