"""The sharded parameter server: one accept loop, shard locks, a gate.

The server owns the model as one float64 vector split into ``S``
contiguous shards, each guarded by its own lock, and serves worker
connections over local TCP (one handler thread per connection, spawned
by a single accept loop).  Three mechanisms make it the paper-shaped
parameter server rather than a plain key-value store:

* **Shard locks + version counters** — every shard carries a
  monotonic version, bumped on each push that touches it.  A pull
  copies one shard (and reads its version) under that shard's lock; a
  PUSH routes its delta to shards in one pass and applies it holding
  the locks of exactly the shards it touches, taken in shard order.
  Pulls of different shards interleave freely with pushes, so
  a worker's assembled model can mix shard versions — the asynchrony
  the simulator models, now measured on a real wire.  A ``PULL_ALL``
  (or the pull half of a fused ``PUSH_PULL``) carries the worker's
  last-seen version vector, and any shard whose version still matches
  is answered with a 9-byte cached header instead of its float64
  payload (``ps.shard_cache_hits`` / ``ps.bytes_saved``) — in steady
  state one work item costs one round-trip and only the bytes that
  changed.
* **The bounded-staleness gate** — every worker carries a clock (work
  items completed); a PULL from a worker more than ``max_staleness``
  items ahead of the slowest *live, still-running* worker blocks until
  the stragglers catch up.  ``max_staleness=None`` is Zhao & Li's
  fast-async regime (never block); ``0`` is lock-step.  Workers
  waiting at the epoch barrier (or dead, or cleanly done) leave the
  gate's minimum, so the gate can never deadlock: the slowest running
  worker is, by construction, never blocked.
* **Dead-worker reaping** — a connection that drops without a clean
  ``BYE`` is reaped: its clock leaves the staleness gate (waking any
  pull blocked on the corpse), its registry slot is freed, and the
  reap is counted (``ps.dead_workers_reaped``).  The *parent* watches
  the worker processes themselves and drives recovery; the server's
  reaping only guarantees the gate and the epoch barrier never wait on
  a ghost.

Epoch alignment mirrors the shm backend's barriers: a worker that
finishes its pass sends ``EPOCH_DONE`` and blocks on the reply; the
parent waits until every live worker has arrived
(:meth:`ShardServer.wait_epoch`), evaluates the loss on a quiescent
snapshot, then :meth:`releases <ShardServer.release_epoch>` the next
epoch — at which point every handler sends its ``EPOCH_ACK``.  All
pushes of a worker precede its ``EPOCH_DONE`` on the same ordered TCP
stream, so "every live worker arrived" implies "every delta applied":
the parent's snapshot is consistent without stopping the world.

Surviving its own death
-----------------------
Three additions make the server itself a survivable component rather
than the tier's single point of failure:

* **Checkpointing** — with a :class:`~repro.distributed.checkpoint.
  CheckpointPolicy`, a background writer persists a *consistent cut*
  (model + shard versions + released epoch + per-worker clocks, all
  captured under the shard locks and the registry mutex) every N
  pushes or T seconds; the parent forces an additional flush at each
  epoch boundary.  Writes are atomic (``mkstemp`` + ``os.replace``),
  counted under ``ps.checkpoints_written``.
* **Restore + resume clocks** — a fresh server seeded with a decoded
  :class:`~repro.distributed.checkpoint.CheckpointState` starts from
  the checkpointed model, versions and released epoch, and remembers
  each worker's work-item clock.  A worker reconnecting mid-run (the
  ``HELLO`` mid-run flag) is answered with its resume clock and counted
  under ``ps.reconnects_midrun``; it rewinds to that clock and replays
  forward, so the item whose push never landed is recomputed, never
  lost and never double-applied.
* **Planned server faults** — a standalone server (its own process,
  see :mod:`repro.distributed.supervisor`) accepts resolved
  ``server-kill`` / ``server-stall`` specs and fires them halfway
  through the spec's epoch (by push count): a kill is a real
  ``SIGKILL`` to its own process, a stall wedges every handler —
  including the control plane, so the parent's liveness probe times
  out and both kinds exercise the same failover path.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import socket
import struct
import threading
import time
from typing import Sequence

import numpy as np

from ..telemetry import keys
from ..utils.errors import ConfigurationError
from . import protocol as wire
from .checkpoint import CheckpointPolicy, CheckpointState, write_checkpoint

__all__ = ["ShardServer", "shard_bounds", "default_ps_shards"]

_log = logging.getLogger(__name__)

#: Handler threads block at most this long per gate/barrier wait slice,
#: re-checking for shutdown — keeps teardown prompt even with a wedged
#: peer on the other end of the condition.
_WAIT_SLICE = 0.2


#: Staleness-histogram counter key by observed lag (looked up per pull,
#: not formatted): lags 0..64, then the overflow bucket every larger
#: lag shares.
_STALENESS_KEYS = tuple(keys.ps_staleness_bucket(lag) for lag in range(66))

#: Frames of the training hot path, served by :meth:`ShardServer._round`.
_ROUND_TYPES = frozenset(
    (wire.MSG_PUSH, wire.MSG_PULL_ALL, wire.MSG_PUSH_PULL)
)


def default_ps_shards(n_params: int) -> int:
    """Shard count used when the caller does not pick one: enough to
    make pulls genuinely sharded, never more than the model can fill."""
    return max(1, min(8, n_params // 16)) if n_params >= 32 else 1


def shard_bounds(n_params: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` ranges of each shard (sizes differ <= 1)."""
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    if shards > n_params:
        raise ConfigurationError(
            f"cannot split {n_params} parameter(s) into {shards} shard(s)"
        )
    edges = np.linspace(0, n_params, shards + 1).astype(np.int64)
    return [(int(edges[s]), int(edges[s + 1])) for s in range(shards)]


class _WorkerRecord:
    """Mutable per-connection registry entry (one per live worker)."""

    __slots__ = ("worker_id", "clock", "epoch_done", "state")

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.clock = 0
        self.epoch_done = -1
        #: ``running`` (mid-pass, participates in the staleness min),
        #: ``barrier`` (at the epoch barrier, exempt), ``dead``.
        self.state = "running"


class ShardServer:
    """Own the shards, accept workers, answer pulls/pushes, keep clocks."""

    def __init__(
        self,
        init_params: np.ndarray,
        shards: int,
        *,
        max_staleness: int | None = None,
        expected_workers: int = 1,
        host: str = "127.0.0.1",
        checkpoint: CheckpointPolicy | None = None,
        restore: CheckpointState | None = None,
        server_faults: Sequence[dict] | None = None,
        pushes_per_epoch: int | None = None,
        standalone: bool = False,
    ) -> None:
        if max_staleness is not None and max_staleness < 0:
            raise ConfigurationError(
                f"max_staleness must be >= 0 or None, got {max_staleness}"
            )
        self._params = np.array(init_params, dtype=np.float64, copy=True)
        self._bounds = shard_bounds(self._params.shape[0], shards)
        #: Interior shard edges: ``searchsorted`` maps an index to its shard.
        self._edges = np.array([hi for _, hi in self._bounds[:-1]], dtype=np.int64)
        self._locks = [threading.Lock() for _ in self._bounds]
        self._versions = [0] * len(self._bounds)
        self.max_staleness = max_staleness

        self._mu = threading.Lock()
        self._cv = threading.Condition(self._mu)
        self._workers: dict[int, _WorkerRecord] = {}
        self._ever_seen: set[int] = set()
        self._expected = expected_workers
        self._released_epoch = 0
        self._stop_flag = False
        self._closing = False
        #: Pulls currently blocked at the staleness gate — the only
        #: waiters a push needs to wake.
        self._gate_waiters = 0
        #: Connections closed so far: a change ends a pending
        #: :meth:`wait_epoch` early, so the parent's watchdog looks at
        #: its node processes at once.
        self._departures = 0
        #: Last known work-item clock of each worker id that is not
        #: currently connected — fed by disconnects and checkpoint
        #: restores, consumed by mid-run reconnect HELLOs.
        self._resume_clocks: dict[int, int] = {}
        #: Flushed into telemetry by the trainer at the end of the run.
        self.counters: dict[str, float] = {
            keys.PS_PULLS: 0.0,
            keys.PS_PULL_ROUNDS: 0.0,
            keys.PS_PUSHES: 0.0,
            keys.PS_SHARD_CACHE_HITS: 0.0,
            keys.PS_BYTES_SENT: 0.0,
            keys.PS_BYTES_RECEIVED: 0.0,
            keys.PS_BYTES_SAVED: 0.0,
            keys.PS_PULL_WAITS: 0.0,
            keys.PS_RECONNECTS: 0.0,
            keys.PS_RECONNECTS_MIDRUN: 0.0,
            keys.PS_CONNECT_RETRIES: 0.0,
            keys.PS_DEAD_WORKERS_REAPED: 0.0,
            keys.PS_FRAMES_REJECTED: 0.0,
            keys.PS_CHECKPOINTS_WRITTEN: 0.0,
            keys.PS_CHECKPOINTS_RESTORED: 0.0,
            keys.PS_HANDLER_THREADS_LEAKED: 0.0,
        }
        self.faults_reported = 0

        if restore is not None:
            if restore.params.shape[0] != self._params.shape[0]:
                raise ConfigurationError(
                    f"checkpoint restores {restore.params.shape[0]} "
                    f"parameter(s) into a {self._params.shape[0]}-parameter "
                    "model"
                )
            if len(restore.versions) != len(self._bounds):
                raise ConfigurationError(
                    f"checkpoint restores {len(restore.versions)} shard "
                    f"version(s) into {len(self._bounds)} shard(s)"
                )
            self._params[:] = restore.params
            self._versions = list(restore.versions)
            self._released_epoch = restore.released_epoch
            self._resume_clocks = dict(restore.clocks)
            self.counters[keys.PS_CHECKPOINTS_RESTORED] = 1.0

        self._server_faults = [dict(s) for s in (server_faults or ())]
        for spec in self._server_faults:
            spec["fired"] = False
        if self._server_faults and not standalone:
            # SIGKILL-to-self must never take down an in-process parent;
            # server faults require the standalone (own-process) server.
            raise ConfigurationError(
                "server faults require a standalone server process"
            )
        if self._server_faults and not pushes_per_epoch:
            raise ConfigurationError(
                "server faults need pushes_per_epoch to pick a firing point"
            )
        self._standalone = standalone
        self._pushes_per_epoch = pushes_per_epoch
        self._pushes_this_epoch = 0
        self._stall_until = 0.0
        #: Set by a ``CTRL_SHUTDOWN`` frame; a standalone server's main
        #: loop waits on it (the handler thread cannot close() itself).
        self.shutdown_event = threading.Event()

        self._ckpt_policy = checkpoint
        self._ckpt_seq = restore.seq + 1 if restore is not None else 1
        self._ckpt_pushes_since = 0
        self._ckpt_event = threading.Event()
        self._ckpt_thread: threading.Thread | None = None

        self._listener = socket.create_server((host, 0))
        self._listener.settimeout(0.2)
        self._conns: set[socket.socket] = set()
        self._threads: list[threading.Thread] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="ps-accept", daemon=True
        )
        self._accept_thread.start()
        if checkpoint is not None:
            os.makedirs(checkpoint.dir, exist_ok=True)
            self._ckpt_thread = threading.Thread(
                target=self._checkpoint_loop, name="ps-ckpt", daemon=True
            )
            self._ckpt_thread.start()

    # -- addressing --------------------------------------------------------

    @property
    def host(self) -> str:
        return self._listener.getsockname()[0]

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    @property
    def n_shards(self) -> int:
        return len(self._bounds)

    @property
    def n_params(self) -> int:
        return int(self._params.shape[0])

    # -- accept loop + per-connection handlers -----------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.settimeout(None)
            with self._mu:
                if self._closing:
                    conn.close()
                    return
                self._conns.add(conn)
            t = threading.Thread(
                target=self._handle, args=(conn,), name="ps-handler", daemon=True
            )
            self._threads.append(t)
            t.start()

    def _handle(self, conn: socket.socket) -> None:
        record: _WorkerRecord | None = None
        clean = False
        reader = wire.FrameReader(conn)
        try:
            while True:
                frame = reader.read()
                if frame is None:
                    return
                self._stall_gate()
                if record is not None and frame.msg_type in _ROUND_TYPES:
                    self._round(conn, record, frame)
                    continue
                if frame.msg_type in wire.CTRL_TYPES:
                    # Supervision, not training traffic: no HELLO, no
                    # ``ps.bytes_*`` accounting.
                    if self._control(conn, frame):
                        clean = True
                        return
                    continue
                with self._cv:
                    self.counters[keys.PS_BYTES_RECEIVED] += frame.nbytes
                if frame.msg_type == wire.MSG_HELLO:
                    flags = frame.payload[0] if frame.payload else 0
                    record = self._register(
                        conn,
                        frame.ident,
                        frame.clock,
                        midrun=bool(flags & wire.HELLO_MIDRUN),
                    )
                elif record is None:
                    raise wire.WireProtocolError(
                        f"message type {frame.msg_type} before HELLO"
                    )
                elif frame.msg_type == wire.MSG_EPOCH_DONE:
                    stop = self._epoch_barrier(conn, record, frame.clock)
                    if stop:
                        clean = True  # the ack told the worker to exit
                elif frame.msg_type == wire.MSG_FAULT:
                    with self._cv:
                        self.faults_reported += 1
                elif frame.msg_type == wire.MSG_BYE:
                    clean = True
                    return
                else:
                    # A server-to-worker type (ack, SHARDS) sent at us.
                    raise wire.WireProtocolError(
                        f"unexpected message type {frame.msg_type}"
                    )
        except wire.WireProtocolError:
            # Malformed or corrupted frame: rejected, counted, never
            # applied — the peer heals by reconnect-and-replay.
            with self._cv:
                self.counters[keys.PS_FRAMES_REJECTED] += 1
            return
        except (ConnectionError, OSError, struct.error):
            return
        finally:
            self._disconnect(conn, record, clean)

    def _stall_gate(self) -> None:
        """Wedge this handler while an injected server-stall is live."""
        while not self._closing:
            remaining = self._stall_until - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(_WAIT_SLICE, remaining))

    def _register(
        self,
        conn: socket.socket,
        worker_id: int,
        connect_retries: int = 0,
        *,
        midrun: bool = False,
    ) -> _WorkerRecord:
        record = _WorkerRecord(worker_id)
        with self._cv:
            resume_clock = 0
            if midrun:
                # A live worker healing its own dropped wire: hand back
                # the clock we hold for it so it rewinds and replays the
                # in-flight item instead of losing it.  Seeding the
                # record's clock keeps the staleness gate honest — the
                # reconnector is *at* resume_clock, not at zero.
                self.counters[keys.PS_RECONNECTS_MIDRUN] += 1
                # The redial can beat the old handler's EOF: if the
                # worker's previous record is still registered, its
                # clock is the freshest truth, not ``_resume_clocks``.
                prior = self._workers.get(worker_id)
                if prior is not None:
                    resume_clock = prior.clock
                else:
                    resume_clock = self._resume_clocks.get(worker_id, 0)
                record.clock = resume_clock
            if worker_id in self._ever_seen:
                self.counters[keys.PS_RECONNECTS] += 1
            # HELLO's clock slot carries how many connect attempts the
            # worker burned before this socket opened — a reconnect
            # storm shows up in the manifest, not just in the logs.
            self.counters[keys.PS_CONNECT_RETRIES] += connect_retries
            self._ever_seen.add(worker_id)
            self._workers[worker_id] = record
            self._cv.notify_all()
            sent = wire.send_frame(
                conn,
                wire.MSG_HELLO_ACK,
                ident=self.n_shards,
                payload=wire.pack_hello_ack(
                    self.n_params, self.n_shards, self.max_staleness, resume_clock
                ),
            )
            self.counters[keys.PS_BYTES_SENT] += sent
        return record

    def _gate_lag(self, record: _WorkerRecord) -> int:
        """Work items *record* is ahead of the slowest running worker."""
        floor = None
        for other in self._workers.values():
            if other.state != "running" or other is record:
                continue
            if floor is None or other.clock < floor:
                floor = other.clock
        if floor is None:
            return 0
        return max(0, record.clock - floor)

    def _gate(self, record: _WorkerRecord) -> None:
        """Run the bounded-staleness gate for a pull.  Caller holds
        ``_cv`` and has set the worker's clock.

        Records the observed lag in the staleness histogram and blocks
        while the worker runs more than ``max_staleness`` items ahead
        of the slowest live worker.  One gate pass per pull
        *round-trip* — a multi-shard reply is still one observation.
        """
        lag = self._gate_lag(record)
        bucket = _STALENESS_KEYS[min(lag, len(_STALENESS_KEYS) - 1)]
        self.counters[bucket] = self.counters.get(bucket, 0.0) + 1
        if self.max_staleness is not None and lag > self.max_staleness:
            self.counters[keys.PS_PULL_WAITS] += 1
            self._gate_waiters += 1
            try:
                while (
                    not self._closing
                    and record.state != "dead"
                    and self._gate_lag(record) > self.max_staleness
                ):
                    self._cv.wait(_WAIT_SLICE)
            finally:
                self._gate_waiters -= 1
        self.counters[keys.PS_PULL_ROUNDS] += 1

    def _answer_shards(
        self, conn: socket.socket, seen: list[int], clock: int
    ) -> None:
        """Send the SHARDS reply for one pull round: one buffer, one send.

        *seen* is the worker's last-seen version vector; any shard
        whose version still matches ships as a cached header only.
        Each (payload, version) pair is captured under that shard's
        lock, so every entry is internally consistent — the asynchrony
        is *between* shards, exactly as before.
        """
        entries: list[tuple[int, bytes | None]] = []
        hits = 0
        saved = 0
        for shard, (lo, hi) in enumerate(self._bounds):
            with self._locks[shard]:
                version = self._versions[shard]
                if version == seen[shard]:
                    entries.append((version, None))
                    hits += 1
                    saved += (hi - lo) * 8
                else:
                    entries.append((version, self._params[lo:hi].tobytes()))
        sent = wire.send_frame(
            conn,
            wire.MSG_SHARDS,
            clock=clock,
            payload=wire.pack_shard_entries(entries),
        )
        with self._cv:
            self.counters[keys.PS_PULLS] += len(entries) - hits
            self.counters[keys.PS_SHARD_CACHE_HITS] += hits
            self.counters[keys.PS_BYTES_SAVED] += saved
            self.counters[keys.PS_BYTES_SENT] += sent

    def _apply_push(self, indices: np.ndarray | None, values: np.ndarray) -> None:
        """Add one decoded delta into the shards it touches.

        A sparse delta is routed with one ``searchsorted`` over the
        shard edges and lands in one ``np.add.at`` under the locks of
        exactly the touched shards, taken in shard order (the order
        :meth:`snapshot` and :meth:`checkpoint_now` use) — coordinates
        keep their arrival order, so duplicates accumulate exactly as
        they would shard by shard.
        """
        if indices is None:
            if values.shape[0] != self.n_params:
                raise wire.WireProtocolError(
                    f"dense PUSH of {values.shape[0]} values against a "
                    f"{self.n_params}-parameter model"
                )
            for shard, (lo, hi) in enumerate(self._bounds):
                with self._locks[shard]:
                    self._params[lo:hi] += values[lo:hi]
                    self._versions[shard] += 1
            return
        if not indices.size:
            return
        if int(indices.min()) < 0 or int(indices.max()) >= self.n_params:
            raise wire.WireProtocolError("sparse PUSH index out of range")
        touched = np.flatnonzero(
            np.bincount(
                self._edges.searchsorted(indices, "right"),
                minlength=len(self._bounds),
            )
        ).tolist()
        for shard in touched:
            self._locks[shard].acquire()
        try:
            np.add.at(self._params, indices, values)
            for shard in touched:
                self._versions[shard] += 1
        finally:
            for shard in reversed(touched):
                self._locks[shard].release()

    def _count_push(self, rows: int) -> None:
        """Account one applied push of *rows* examples.  Caller holds
        ``_cv`` and has already advanced the worker's clock."""
        self.counters[keys.PS_PUSHES] += 1
        self.counters[keys.UPDATES_APPLIED] = (
            self.counters.get(keys.UPDATES_APPLIED, 0.0) + rows
        )
        if self._ckpt_policy is not None:
            self._ckpt_pushes_since += 1
            if (
                self._ckpt_policy.every_items is not None
                and self._ckpt_pushes_since >= self._ckpt_policy.every_items
            ):
                self._ckpt_event.set()
        if self._server_faults:
            self._pushes_this_epoch += 1
            fire = self._due_server_fault()
            if fire is not None:
                self._fire_server_fault(fire)
        if self._gate_waiters:
            # A clock only matters to a pull blocked at the gate; the
            # parent's barrier wait is woken by arrivals and
            # disconnects, never by a mere push.
            self._cv.notify_all()

    def _due_server_fault(self) -> dict | None:
        """The next unfired server fault due at this push, if any.

        Fires halfway through the spec's epoch by push count — deep
        enough into the epoch that real training state is at stake,
        deterministic because the trigger is a *count*, not a timer.
        Caller holds ``_cv``.
        """
        # During epoch N's pass the barrier has been released *to* N:
        # ``release_epoch(N)`` precedes the first push of epoch N.
        epoch = self._released_epoch
        midpoint = -(-self._pushes_per_epoch // 2)
        for spec in self._server_faults:
            if (
                not spec["fired"]
                and spec["epoch"] == epoch
                and self._pushes_this_epoch >= midpoint
            ):
                spec["fired"] = True
                return spec
        return None

    def _fire_server_fault(self, spec: dict) -> None:
        if spec["kind"] == "server-kill":
            # A real crash, not an exception: no flush, no farewell —
            # exactly what the checkpoint/restore path must survive.
            os.kill(os.getpid(), signal.SIGKILL)
        else:  # server-stall
            self._stall_until = time.monotonic() + float(spec["seconds"])

    def _round(
        self, conn: socket.socket, record: _WorkerRecord, frame: wire.Frame
    ) -> None:
        """Serve one PUSH / PULL_ALL / PUSH_PULL frame.

        The whole frame is decoded and validated before any state
        moves, so a rejected frame changes nothing.  The push half is
        applied *before* the gate and the reply, on the same handler
        thread, so the ordered-stream guarantee survives fusion: a
        single node at ``max_staleness=0`` sees its own push before
        the next pull is answered, keeping it bit-exact against serial
        SGD.  Byte accounting, push accounting and the gate then share
        one pass under the registry mutex.
        """
        push = seen = None
        if frame.msg_type == wire.MSG_PUSH:
            push = frame.payload
        elif frame.msg_type == wire.MSG_PULL_ALL:
            seen = wire.unpack_versions(frame.payload)
        else:
            push, seen = wire.unpack_push_pull(frame.payload)
        if seen is not None and len(seen) != self.n_shards:
            raise wire.WireProtocolError(
                f"version vector of {len(seen)} entries against "
                f"{self.n_shards} shard(s)"
            )
        if push is not None:
            self._apply_push(*wire.unpack_push(push))
        with self._cv:
            self.counters[keys.PS_BYTES_RECEIVED] += frame.nbytes
            record.clock = frame.clock
            record.state = "running"
            if push is not None:
                self._count_push(frame.ident)
            if seen is not None:
                self._gate(record)
        if seen is not None:
            self._answer_shards(conn, seen, frame.clock)

    def _epoch_barrier(
        self, conn: socket.socket, record: _WorkerRecord, epoch: int
    ) -> bool:
        """Record arrival, block until the parent releases, ack. Returns
        whether the ack carried the stop flag."""
        with self._cv:
            record.epoch_done = epoch
            record.state = "barrier"
            self._cv.notify_all()
            while (
                not self._closing
                and record.state != "dead"
                and not self._stop_flag
                and self._released_epoch < epoch + 1
            ):
                self._cv.wait(_WAIT_SLICE)
            stop = self._stop_flag or self._closing
            record.state = "running" if not stop else record.state
            sent = wire.send_frame(
                conn,
                wire.MSG_EPOCH_ACK,
                ident=1 if stop else 0,
                clock=epoch + 1,
            )
            self.counters[keys.PS_BYTES_SENT] += sent
        return stop

    def _disconnect(
        self, conn: socket.socket, record: _WorkerRecord | None, clean: bool
    ) -> None:
        with self._cv:
            self._conns.discard(conn)
            if record is not None and record.state != "dead":
                record.state = "dead"
                # Only the registry's *current* record for the id is
                # removed — a respawned worker may already own the slot.
                if self._workers.get(record.worker_id) is record:
                    # Remember where the worker was: a mid-run
                    # reconnect HELLO is answered with this clock.
                    self._resume_clocks[record.worker_id] = record.clock
                    del self._workers[record.worker_id]
                if not clean and not self._closing:
                    self.counters[keys.PS_DEAD_WORKERS_REAPED] += 1
            self._departures += 1
            self._cv.notify_all()
        try:
            conn.close()
        except OSError:  # pragma: no cover - defensive
            pass

    # -- control plane (framed, for the standalone server process) ----------

    def _control(self, conn: socket.socket, frame: wire.Frame) -> bool:
        """Serve one supervision frame; returns True on CTRL_SHUTDOWN."""
        t = frame.msg_type
        if t == wire.MSG_CTRL_STATUS:
            # The waiting form (clock > 0) answers once every expected
            # worker finished epoch ``clock``, a connection closes, or
            # ``ident`` milliseconds pass.
            reached = None
            if frame.clock:
                reached = self.wait_epoch(frame.clock, frame.ident / 1000.0)
            wire.send_frame(
                conn, wire.MSG_CTRL_STATUS, payload=self._status_payload(reached)
            )
        elif t == wire.MSG_CTRL_RELEASE:
            self.release_epoch(frame.clock, stop=bool(frame.ident))
            wire.send_frame(conn, wire.MSG_CTRL_RELEASE)
        elif t == wire.MSG_CTRL_SNAPSHOT:
            wire.send_frame(
                conn, wire.MSG_CTRL_SNAPSHOT, payload=self.snapshot().tobytes()
            )
        elif t == wire.MSG_CTRL_WRITE:
            if len(frame.payload) % 8:
                raise wire.WireProtocolError(
                    "CTRL_WRITE payload is not float64-aligned"
                )
            self.write_params(np.frombuffer(frame.payload, dtype=np.float64))
            wire.send_frame(conn, wire.MSG_CTRL_WRITE)
        elif t == wire.MSG_CTRL_RESET:
            self.reset_pool(frame.ident)
            wire.send_frame(conn, wire.MSG_CTRL_RESET)
        elif t == wire.MSG_CTRL_CHECKPOINT:
            path = self.checkpoint_now(boundary=bool(frame.ident))
            wire.send_frame(
                conn, wire.MSG_CTRL_CHECKPOINT, payload=(path or "").encode("utf-8")
            )
        elif t == wire.MSG_CTRL_SHUTDOWN:
            wire.send_frame(conn, wire.MSG_CTRL_SHUTDOWN)
            # The standalone main loop does the close(); a handler
            # thread cannot join itself out of existence.
            self.shutdown_event.set()
            return True
        return False

    def _status_payload(self, epoch_reached: bool | None) -> bytes:
        """JSON state for the parent's liveness probe + counter polls."""
        with self._cv:
            state = {
                "epoch_reached": epoch_reached,
                "released_epoch": self._released_epoch,
                "expected": self._expected,
                "faults_reported": self.faults_reported,
                "counters": dict(self.counters),
                "workers": {
                    str(wid): {
                        "clock": r.clock,
                        "epoch_done": r.epoch_done,
                        "state": r.state,
                    }
                    for wid, r in self._workers.items()
                },
            }
        return json.dumps(state).encode("utf-8")

    # -- checkpointing -------------------------------------------------------

    def checkpoint_now(self, *, boundary: bool = False) -> str | None:
        """Write one checkpoint immediately; returns its path.

        No-op (returns ``None``) without a checkpoint policy.  The cut
        is captured under every shard lock *and* the registry mutex, so
        params, versions, released epoch and worker clocks are one
        consistent instant; the file write itself happens outside the
        locks on the captured copies.
        """
        if self._ckpt_policy is None:
            return None
        for lock in self._locks:
            lock.acquire()
        try:
            with self._cv:
                params = self._params.copy()
                versions = list(self._versions)
                released = self._released_epoch
                clocks = dict(self._resume_clocks)
                clocks.update(
                    {wid: r.clock for wid, r in self._workers.items()}
                )
                seq = self._ckpt_seq
                self._ckpt_seq += 1
                self._ckpt_pushes_since = 0
        finally:
            for lock in reversed(self._locks):
                lock.release()
        path = write_checkpoint(
            self._ckpt_policy.dir,
            seq,
            params=params,
            versions=versions,
            released_epoch=released,
            clocks=clocks,
            boundary=boundary,
        )
        with self._cv:
            self.counters[keys.PS_CHECKPOINTS_WRITTEN] += 1
        return path

    def _checkpoint_loop(self) -> None:
        """Background writer: flush every N pushes and/or T seconds."""
        policy = self._ckpt_policy
        slice_ = _WAIT_SLICE
        if policy.every_seconds is not None:
            slice_ = min(_WAIT_SLICE, policy.every_seconds / 2)
        last = time.monotonic()
        while not self._closing:
            self._ckpt_event.wait(slice_)
            self._ckpt_event.clear()
            if self._closing:
                return
            due_items = (
                policy.every_items is not None
                and self._ckpt_pushes_since >= policy.every_items
            )
            due_time = (
                policy.every_seconds is not None
                and time.monotonic() - last >= policy.every_seconds
            )
            if due_items or due_time:
                try:
                    self.checkpoint_now()
                except OSError:
                    _log.warning(
                        "background checkpoint write failed", exc_info=True
                    )
                last = time.monotonic()

    # -- parent-side control -----------------------------------------------

    def _epoch_reached(self, epoch: int) -> bool:
        """All ``expected`` workers are registered and have finished
        *epoch*.  Caller holds ``_cv``."""
        if len(self._workers) < self._expected:
            return False
        return all(r.epoch_done >= epoch for r in self._workers.values())

    def wait_epoch(self, epoch: int, timeout: float) -> bool:
        """Block up to *timeout* seconds until every ``expected`` worker
        has finished *epoch*; returns whether they have.

        A closing connection ends the wait early, so the parent's
        watchdog sees a dead node at once; a dead worker never satisfies
        the predicate — the watchdog turns it into a recovery action.
        """
        with self._cv:
            departures = self._departures
            self._cv.wait_for(
                lambda: self._closing
                or self._departures != departures
                or self._epoch_reached(epoch),
                timeout,
            )
            return self._epoch_reached(epoch)

    def release_epoch(self, epoch: int, *, stop: bool = False) -> None:
        """Let every worker waiting on the barrier start *epoch* (or,
        with *stop*, exit cleanly)."""
        with self._cv:
            self._released_epoch = max(self._released_epoch, epoch)
            self._pushes_this_epoch = 0
            if stop:
                self._stop_flag = True
            self._cv.notify_all()

    def reset_pool(self, expected_workers: int) -> None:
        """Forget the current worker generation (recovery respawn): the
        registry and clocks restart empty; shard state and the released
        epoch survive, so respawned workers resume where the pool died."""
        with self._cv:
            self._workers = {}
            self._resume_clocks = {}
            self._expected = expected_workers
            self._cv.notify_all()

    def snapshot(self) -> np.ndarray:
        """A consistent copy of the model (all shard locks, in order)."""
        for lock in self._locks:
            lock.acquire()
        try:
            return self._params.copy()
        finally:
            for lock in reversed(self._locks):
                lock.release()

    def write_params(self, params: np.ndarray) -> None:
        """Overwrite the model under all shard locks (NaN scrubbing).

        Bumps every shard version: an out-of-band rewrite invalidates
        the workers' shard caches, so no node can keep serving itself
        the pre-scrub bytes from a matching stale version.
        """
        if params.shape != self._params.shape:
            raise ConfigurationError(
                f"write_params shape {params.shape} != {self._params.shape}"
            )
        for lock in self._locks:
            lock.acquire()
        try:
            self._params[:] = params
            for shard in range(len(self._bounds)):
                self._versions[shard] += 1
        finally:
            for lock in reversed(self._locks):
                lock.release()

    def close(self) -> None:
        """Stop accepting, wake every blocked handler, close all sockets.

        Idempotent; after it returns no server-owned socket is open and
        every handler thread is on its way out (they are daemons, but
        the joins below mean a clean run leaks nothing measurable).
        """
        with self._cv:
            if self._closing:
                return
            self._closing = True
            self._cv.notify_all()
            conns = list(self._conns)
        # Wake the accept loop now instead of at its next poll: it sees
        # ``_closing`` on the self-dialled connection and returns.
        try:
            socket.create_connection((self.host, self.port), timeout=1.0).close()
        except OSError:
            pass  # the loop's own accept timeout still ends it
        self._accept_thread.join(timeout=2.0)
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - defensive
            pass
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        if self._ckpt_thread is not None:
            self._ckpt_event.set()
            self._ckpt_thread.join(timeout=2.0)
        leaked = 0
        for t in self._threads:
            t.join(timeout=2.0)
            if t.is_alive():
                leaked += 1
        if leaked:
            # A handler that outlives its 2s join grace is a wedged
            # daemon we are abandoning — make the leak measurable (the
            # trainer flushes this counter into the manifest) and loud.
            with self._cv:
                self.counters[keys.PS_HANDLER_THREADS_LEAKED] += leaked
            _log.warning(
                "parameter server abandoned %d handler thread(s) that did "
                "not join within 2.0s",
                leaked,
            )

    def __enter__(self) -> "ShardServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
