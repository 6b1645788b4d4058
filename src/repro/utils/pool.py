"""The one pool of supervised worker processes.

A task is ``(fn, arg)``: the worker calls ``fn(arg, heartbeat)`` and
sends back the result, so grid attempts and reference-solve members run
on the same workers.  Each worker is a fork child with one pipe and one
heartbeat slot, holding at most one task, so a death (EOF), a blown
deadline or a silent heartbeat names its task and only that worker is
replaced.  At most one pool is :attr:`Pool.live` (a grid's warm pool;
see :mod:`repro.experiments.pool`), and work that needs a pool borrows
it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Any, ClassVar

from .errors import WorkerError
from .processes import fork_context

__all__ = ["Pool", "Worker"]


@dataclass(eq=False)
class Worker:
    """One supervised worker process, as the parent sees it."""

    proc: Any
    conn: Any  # parent end of the duplex pipe: tasks out, replies in
    #: Shared double, wall-clock seconds of the last sign of life.  The
    #: parent stamps it at dispatch; a task may beat it while it runs.
    heartbeat: Any


def _worker_main(conn, heartbeat, setup) -> None:
    """Worker process body: one task in, one reply out, until told to go."""
    if setup is not None:
        setup[0](setup[1])
    while True:
        try:
            fn, arg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return  # the parent is gone, or going
        conn.send(fn(arg, heartbeat))


@dataclass(eq=False)
class Pool:
    """Up to ``jobs`` supervised workers, forked on demand."""

    #: The warm pool work may borrow (a grid's, between calls), or None.
    live: ClassVar[Pool | None] = None
    jobs: int
    #: ``(fn, arg)`` each worker calls as ``fn(arg)`` before its first task.
    setup: tuple | None = None
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
            args=(child_conn, heartbeat, self.setup),
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

    def close(self) -> None:
        """Discard every worker (idempotent)."""
        for worker in list(self.workers):
            self.discard(worker)

    def map(self, tasks: list[tuple]) -> list:
        """Run every task, at most ``jobs`` at once; replies in task order.

        Any exit with tasks in flight discards their workers, so no idle
        worker is left holding a stale reply; a death mid-task raises
        :class:`WorkerError`.
        """
        replies: list = [None] * len(tasks)
        pending = deque(enumerate(tasks))
        running: dict[Any, tuple[int, Worker]] = {}  # worker pipe -> its task
        try:
            while pending or running:
                while pending and len(running) < self.jobs:
                    index, task = pending.popleft()
                    worker = self.checkout()
                    running[worker.conn] = (index, worker)
                    worker.conn.send(task)
                for conn in wait(list(running)):
                    replies[running[conn][0]] = conn.recv()
                    self.checkin(running.pop(conn)[1])
        except BaseException as exc:
            for _index, worker in running.values():
                self.discard(worker)
            if isinstance(exc, (EOFError, OSError)):
                message = f"pool worker lost mid-task: {exc!r}"
                raise WorkerError(message, phase="pool") from exc
            raise
        return replies
