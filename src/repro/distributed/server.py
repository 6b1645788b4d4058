"""The sharded parameter server: one event loop, shard versions, a gate.

The server owns the model as one float64 vector split into ``S``
contiguous shards, and serves every worker connection — plus the
parent's control connection — from one connection loop
(:mod:`repro.utils.eventloop`) on one thread.  The loop applies a push
and answers a pull in one uninterrupted step: no handler thread waits
on the GIL another one took during a syscall, and no shard needs a
lock of its own.  Three mechanisms make it the paper-shaped parameter
server rather than a plain key-value store:

* **Shard versions** — every shard carries a monotonic version,
  bumped on each push that touches it.  A PUSH routes its delta to
  shards in one pass and lands in one ``np.add.at``.  A ``PULL_ALL``
  (or the pull half of a fused ``PUSH_PULL``) carries the worker's
  last-seen version vector, and any shard whose version still matches
  is answered with a 9-byte cached header instead of its float64
  payload (``ps.shard_cache_hits`` / ``ps.bytes_saved``) — in steady
  state one work item costs one round-trip and only the bytes that
  changed.  Each SHARDS reply is a consistent cut: it never mixes
  shard versions from a push in flight.  The asynchrony the simulator
  models lives between a node's pull and its push, where the other
  nodes' pushes land — now measured on a real wire.
* **The bounded-staleness gate** — every worker carries a clock (work
  items completed); a PULL from a worker more than ``max_staleness``
  items ahead of the slowest *live, still-running* worker is held
  until the stragglers catch up.  ``max_staleness=None`` is Zhao &
  Li's fast-async regime (never hold); ``0`` is lock-step.  Workers
  waiting at the epoch barrier (or dead, or cleanly done) leave the
  gate's minimum, so the gate can never deadlock: the slowest running
  worker is, by construction, never held.
* **Dead-worker reaping** — a connection that drops without a clean
  ``BYE`` is reaped: its clock leaves the staleness gate (releasing
  any pull held on the corpse), its registry slot is freed, and the
  reap is counted (``ps.dead_workers_reaped``).  The *parent* watches
  the worker processes themselves and drives recovery; the server's
  reaping only guarantees the gate and the epoch barrier never wait on
  a ghost.

Waits are parked requests, not blocked threads: a pull held at the
gate, an ``EPOCH_DONE`` at the barrier and the parent's waiting
``CTRL_STATUS`` wait on their connection until the state they wait on
moves, and the earliest status deadline is the ``select`` timeout.
Replies never block the loop: each is packed whole in the step that
answers it and the loop queues what the kernel does not take, so a
peer that stops reading stalls only itself.  One registry mutex,
taken once per frame, guards the state against the checkpoint writer
and in-process callers.

Epoch alignment mirrors the shm backend's barriers: a worker that
finishes its pass sends ``EPOCH_DONE`` and blocks on the reply; the
parent waits until every live worker has arrived (the waiting
``CTRL_STATUS``), evaluates the loss on a quiescent snapshot, then
:meth:`releases <ShardServer.release_epoch>` the next epoch — at which
point every parked ``EPOCH_DONE`` is answered with its ``EPOCH_ACK``.
All pushes of a worker precede its ``EPOCH_DONE`` on the same ordered
TCP stream, so "every live worker arrived" implies "every delta
applied": the parent's snapshot is consistent without stopping the
world.

Surviving its own death
-----------------------
Three additions make the server itself a survivable component rather
than the tier's single point of failure:

* **Checkpointing** — with a :class:`~repro.distributed.checkpoint.
  CheckpointPolicy`, a background writer persists a *consistent cut*
  (model + shard versions + released epoch + per-worker clocks, all
  captured under the registry mutex) every N pushes or T seconds; the
  parent forces an additional flush at each epoch boundary.  Writes
  are atomic (``mkstemp`` + ``os.replace``), counted under
  ``ps.checkpoints_written``.
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
  ``SIGKILL`` to its own process, a stall wedges the loop — control
  plane included, so the parent's liveness probe times out and both
  kinds exercise the same failover path.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import struct
import threading
import time
from typing import Sequence

import numpy as np

from ..telemetry import keys
from ..utils.errors import ConfigurationError
from ..utils.eventloop import Conn, ConnectionLoop
from . import protocol as wire
from .checkpoint import CheckpointPolicy, CheckpointState, write_checkpoint

__all__ = ["ShardServer", "shard_bounds", "default_ps_shards"]

_log = logging.getLogger(__name__)

#: An injected server-stall sleeps in slices this long and the checkpoint
#: writer wakes at least this often, re-checking for shutdown.
_WAIT_SLICE = 0.2

_OUT_CAP = 1 << 20  # unsent reply bytes past which a peer is not read

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


class _Peer(Conn):
    """One accepted connection: reader, worker record, parked request."""

    __slots__ = ("reader", "record", "clean", "waiting")

    def __init__(self, sock) -> None:
        super().__init__(sock)
        self.reader = wire.FrameReader(sock)
        self.record: _WorkerRecord | None = None
        #: The peer may leave without being reaped (stop ack, BYE).
        self.clean = False
        #: ``(ready, answer, deadline)`` while a request is parked.
        self.waiting: tuple | None = None


class ShardServer(ConnectionLoop):
    """Own the shards, accept workers, answer pulls/pushes, keep clocks."""

    conn_type = _Peer

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
        self._versions = [0] * len(self._bounds)
        self.max_staleness = max_staleness

        self._mu = threading.Lock()
        self._workers: dict[int, _WorkerRecord] = {}
        self._ever_seen: set[int] = set()
        self._expected = expected_workers
        self._released_epoch = 0
        self._stop_flag = False
        #: Connections closed so far: a change answers a parked waiting
        #: status early, so the parent's watchdog looks at its node
        #: processes at once.
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
        self._pushes_per_epoch = pushes_per_epoch
        self._pushes_this_epoch = 0
        self._stall_until = 0.0

        self._ckpt_policy = checkpoint
        self._ckpt_seq = restore.seq + 1 if restore is not None else 1
        self._ckpt_pushes_since = 0
        self._ckpt_event = threading.Event()
        self._ckpt_thread: threading.Thread | None = None
        #: One write at a time: the loop's epoch-boundary flush and the
        #: background writer share the directory's orphan sweep.
        self._ckpt_write = threading.Lock()

        #: Parked peers, their earliest deadline, and whether state they
        #: may wait on moved (any thread sets that flag, then wakes).
        self._parked: list[_Peer] = []
        self._deadline: float | None = None
        self._recheck = False
        super().__init__(host, 0, name="ps-loop", out_cap=_OUT_CAP)
        self.start()
        if checkpoint is not None:
            os.makedirs(checkpoint.dir, exist_ok=True)
            self._ckpt_thread = threading.Thread(
                target=self._checkpoint_loop, name="ps-ckpt", daemon=True
            )
            self._ckpt_thread.start()

    @property
    def n_shards(self) -> int:
        return len(self._bounds)

    @property
    def n_params(self) -> int:
        return int(self._params.shape[0])

    # -- the loop's hooks --------------------------------------------------

    def _timeout(self) -> float | None:
        deadline = self._deadline
        return deadline and max(0.0, deadline - time.monotonic())

    def _readable(self, peers: list) -> None:
        for peer in peers:
            try:
                if peer.reader.feed():
                    self._serve(peer)
                else:
                    self._hangup(peer)
            except BlockingIOError:
                pass
            except Exception as err:
                self._fail(peer, err)
        deadline = self._deadline
        if self._recheck or (deadline and time.monotonic() >= deadline):
            self._unpark()

    def _serve(self, peer: _Peer) -> None:
        """Handle every whole buffered frame until the peer parks."""
        while peer.waiting is None and not peer.closing:
            frame = peer.reader.pending()
            if frame is None:
                return
            if self._stall_until:
                self._stall()
            if frame.msg_type in wire.CTRL_TYPES:
                # Supervision, not training traffic: no HELLO, no
                # ``ps.bytes_*`` accounting.
                done = self._control(peer, frame)
            else:
                with self._mu:
                    done = self._frame(peer, frame)
            if frame.msg_type not in _ROUND_TYPES or self.max_staleness is not None:
                # Only a bounded gate waits on the clocks a round moves.
                self._recheck = True
            if done:  # the loop ends: the peer is closing
                peer.clean = True
                self._hangup(peer)

    def _park(self, peer: _Peer, ready, answer, deadline: float | None = None) -> None:
        """Answer now if *ready*, else hold the request until it is.
        Caller holds ``_mu``."""
        if ready():
            answer()
        else:
            peer.waiting = (ready, answer, deadline)
            self._parked.append(peer)
            if deadline is not None:
                self._deadline = min(deadline, self._deadline or deadline)

    def _unpark(self) -> None:
        """Answer every parked request whose state has moved, then serve
        what its peer buffered meanwhile — until a pass moves nothing."""
        self._recheck = True
        while self._recheck:
            self._recheck = False
            for peer in list(self._parked):
                if self._stall_until:
                    self._stall()
                try:
                    with self._mu:
                        if peer.waiting is None or not peer.waiting[0]():
                            continue
                        answer = peer.waiting[1]
                        peer.waiting = None
                        self._parked.remove(peer)
                        self._recheck = True
                        answer()
                    self._serve(peer)
                except Exception as err:
                    self._fail(peer, err)
        self._deadline = min(
            (p.waiting[2] for p in self._parked if p.waiting[2] is not None),
            default=None,
        )

    def _stall(self) -> None:
        """Wedge the loop — control plane included — while an injected
        server-stall is live."""
        while not self._closing and (left := self._stall_until - time.monotonic()) > 0:
            time.sleep(min(_WAIT_SLICE, left))
        self._stall_until = 0.0

    def _fail(self, peer: _Peer, err: Exception) -> None:
        """Hang up on a peer whose frame or socket failed; the loop serves on."""
        if isinstance(err, wire.WireProtocolError):
            # Malformed or corrupted frame: rejected, counted, never
            # applied — the peer heals by reconnect-and-replay.
            with self._mu:
                self.counters[keys.PS_FRAMES_REJECTED] += 1
        elif not isinstance(err, (OSError, struct.error)):
            _log.error("dropping a connection whose frame failed", exc_info=err)
        self._hangup(peer)

    def _closed(self, peer: _Peer) -> None:
        """Reap a closed peer: its request is unparked, its clock leaves
        the gate and, unless it left cleanly, it counts as a dead worker."""
        if peer.waiting is not None:
            peer.waiting = None
            self._parked.remove(peer)
        record = peer.record
        with self._mu:
            if record is not None and record.state != "dead":
                record.state = "dead"
                # Only the registry's *current* record for the id is
                # removed — a respawned worker may already own the slot.
                if self._workers.get(record.worker_id) is record:
                    # Remember where the worker was: a mid-run
                    # reconnect HELLO is answered with this clock.
                    self._resume_clocks[record.worker_id] = record.clock
                    del self._workers[record.worker_id]
                if not peer.clean and not self._closing:
                    self.counters[keys.PS_DEAD_WORKERS_REAPED] += 1
            self._departures += 1
        self._unpark()  # a parked status may wait on the departure

    # -- training frames (caller holds ``_mu``) ------------------------------

    def _frame(self, peer: _Peer, frame: wire.Frame) -> bool:
        """Serve one worker frame; returns True on BYE."""
        record = peer.record
        if record is not None and frame.msg_type in _ROUND_TYPES:
            self._round(peer, frame)
            return False
        self.counters[keys.PS_BYTES_RECEIVED] += frame.nbytes
        if frame.msg_type == wire.MSG_HELLO:
            flags = frame.payload[0] if frame.payload else 0
            peer.record = self._register(
                peer,
                frame.ident,
                frame.clock,
                midrun=bool(flags & wire.HELLO_MIDRUN),
            )
        elif record is None:
            raise wire.WireProtocolError(
                f"message type {frame.msg_type} before HELLO"
            )
        elif frame.msg_type == wire.MSG_EPOCH_DONE:
            epoch = frame.clock
            record.epoch_done = epoch
            record.state = "barrier"
            self._park(
                peer,
                lambda: self._stop_flag or self._released_epoch > epoch,
                lambda: self._ack_epoch(peer, epoch),
            )
        elif frame.msg_type == wire.MSG_FAULT:
            self.faults_reported += 1
        elif frame.msg_type == wire.MSG_BYE:
            return True
        else:
            # A server-to-worker type (ack, SHARDS) sent at us.
            raise wire.WireProtocolError(
                f"unexpected message type {frame.msg_type}"
            )
        return False

    def _register(
        self,
        peer: _Peer,
        worker_id: int,
        connect_retries: int = 0,
        *,
        midrun: bool = False,
    ) -> _WorkerRecord:
        record = _WorkerRecord(worker_id)
        resume_clock = 0
        if midrun:
            # A live worker healing its own dropped wire: hand back
            # the clock we hold for it so it rewinds and replays the
            # in-flight item instead of losing it.  Seeding the
            # record's clock keeps the staleness gate honest — the
            # reconnector is *at* resume_clock, not at zero.
            self.counters[keys.PS_RECONNECTS_MIDRUN] += 1
            # The redial can beat the old connection's EOF: if the
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
        self.counters[keys.PS_BYTES_SENT] += self._reply(
            peer,
            wire.MSG_HELLO_ACK,
            ident=self.n_shards,
            payload=wire.pack_hello_ack(
                self.n_params, self.n_shards, self.max_staleness, resume_clock
            ),
        )
        return record

    def _reply(self, peer: _Peer, msg_type: int, **fields) -> int:
        """Queue one frame for *peer*; returns its bytes on the wire."""
        frame = wire.pack_frame(msg_type, **fields)
        self._send(peer, frame)
        return len(frame)

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

    def _answer_shards(self, peer: _Peer, seen: list[int], clock: int) -> None:
        """Send the SHARDS reply for one pull round: one buffer, one send.

        *seen* is the worker's last-seen version vector; any shard
        whose version still matches ships as a cached header only.
        The loop applies no push while it packs the reply, so every
        entry belongs to the same cut, however late its bytes leave.
        """
        entries: list[tuple[int, bytes | None]] = []
        hits = 0
        saved = 0
        for shard, (lo, hi) in enumerate(self._bounds):
            version = self._versions[shard]
            if version == seen[shard]:
                entries.append((version, None))
                hits += 1
                saved += (hi - lo) * 8
            else:
                entries.append((version, self._params[lo:hi].tobytes()))
        sent = self._reply(
            peer,
            wire.MSG_SHARDS,
            clock=clock,
            payload=wire.pack_shard_entries(entries),
        )
        counters = self.counters
        counters[keys.PS_PULL_ROUNDS] += 1
        counters[keys.PS_PULLS] += len(entries) - hits
        counters[keys.PS_SHARD_CACHE_HITS] += hits
        counters[keys.PS_BYTES_SAVED] += saved
        counters[keys.PS_BYTES_SENT] += sent

    def _apply_push(self, indices: np.ndarray | None, values: np.ndarray) -> None:
        """Add one decoded delta into the shards it touches.

        A sparse delta is routed with one ``searchsorted`` over the
        shard edges and lands in one ``np.add.at`` — coordinates keep
        their arrival order, so duplicates accumulate exactly as they
        would shard by shard.  Every bound is checked before any
        parameter moves.
        """
        if indices is None:
            if values.shape[0] != self.n_params:
                raise wire.WireProtocolError(
                    f"dense PUSH of {values.shape[0]} values against a "
                    f"{self.n_params}-parameter model"
                )
            self._params += values
            for shard in range(len(self._bounds)):
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
        np.add.at(self._params, indices, values)
        for shard in touched:
            self._versions[shard] += 1

    def _count_push(self, rows: int) -> None:
        """Account one applied push of *rows* examples (the worker's
        clock is already advanced)."""
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

    def _due_server_fault(self) -> dict | None:
        """The next unfired server fault due at this push, if any.

        Fires halfway through the spec's epoch by push count — deep
        enough into the epoch that real training state is at stake,
        deterministic because the trigger is a *count*, not a timer.
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
        else:  # server-stall: the loop wedges before its next frame
            self._stall_until = time.monotonic() + float(spec["seconds"])

    def _round(self, peer: _Peer, frame: wire.Frame) -> None:
        """Serve one PUSH / PULL_ALL / PUSH_PULL frame.

        The whole frame is decoded and validated before any state
        moves, so a rejected frame changes nothing.  The push half is
        applied *before* the gate and the reply, so the ordered-stream
        guarantee survives fusion: a single node at
        ``max_staleness=0`` sees its own push before the next pull is
        answered, keeping it bit-exact against serial SGD.  The gate
        records one staleness observation per pull round — a
        multi-shard reply is still one — and parks the pull while the
        worker runs more than ``max_staleness`` items ahead of the
        slowest live worker.
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
        record = peer.record
        self.counters[keys.PS_BYTES_RECEIVED] += frame.nbytes
        record.clock = clock = frame.clock
        record.state = "running"
        if push is not None:
            self._count_push(frame.ident)
        if seen is None:
            return
        lag = self._gate_lag(record)
        bucket = _STALENESS_KEYS[min(lag, len(_STALENESS_KEYS) - 1)]
        self.counters[bucket] = self.counters.get(bucket, 0.0) + 1
        bound = self.max_staleness
        if bound is not None and lag > bound:
            self.counters[keys.PS_PULL_WAITS] += 1
            self._park(
                peer,
                lambda: self._gate_lag(record) <= bound,
                lambda: self._answer_shards(peer, seen, clock),
            )
        else:
            self._answer_shards(peer, seen, clock)

    def _ack_epoch(self, peer: _Peer, epoch: int) -> None:
        """Answer a parked ``EPOCH_DONE`` (a stop makes the exit clean)."""
        stop = self._stop_flag
        if stop:
            peer.clean = True
        else:
            peer.record.state = "running"
        self.counters[keys.PS_BYTES_SENT] += self._reply(
            peer, wire.MSG_EPOCH_ACK, ident=1 if stop else 0, clock=epoch + 1
        )

    # -- control plane (framed, for the standalone server process) ----------

    def _control(self, peer: _Peer, frame: wire.Frame) -> bool:
        """Serve one supervision frame; returns True on CTRL_SHUTDOWN.
        Every frame but a status is acked with its own type."""
        t = frame.msg_type
        payload = b""
        if t == wire.MSG_CTRL_STATUS:
            self._status(peer, frame.clock, frame.ident / 1000.0)
            return False
        if t == wire.MSG_CTRL_RELEASE:
            self.release_epoch(frame.clock, stop=bool(frame.ident))
        elif t == wire.MSG_CTRL_SNAPSHOT:
            payload = self.snapshot().tobytes()
        elif t == wire.MSG_CTRL_WRITE:
            if len(frame.payload) % 8:
                raise wire.WireProtocolError(
                    "CTRL_WRITE payload is not float64-aligned"
                )
            self.write_params(np.frombuffer(frame.payload, dtype=np.float64))
        elif t == wire.MSG_CTRL_RESET:
            self.reset_pool(frame.ident)
        elif t == wire.MSG_CTRL_CHECKPOINT:
            path = self.checkpoint_now(boundary=bool(frame.ident))
            payload = (path or "").encode("utf-8")
        self._reply(peer, t, payload=payload)
        # wait() returns once the shutdown ack is out; the standalone
        # main thread then does the close(): the loop cannot join itself.
        peer.stopped = t == wire.MSG_CTRL_SHUTDOWN
        return peer.stopped

    def _status(self, peer: _Peer, epoch: int, wait: float) -> None:
        """Answer a ``CTRL_STATUS``; the waiting form (*epoch* > 0)
        once every expected worker has finished *epoch*, a connection
        has closed, or *wait* seconds have passed."""

        def answer() -> None:
            reached = self._epoch_reached(epoch) if epoch else None
            self._reply(
                peer, wire.MSG_CTRL_STATUS, payload=self._status_payload(reached)
            )

        with self._mu:
            if not epoch:
                answer()
                return
            departures = self._departures
            deadline = time.monotonic() + wait
            self._park(
                peer,
                lambda: self._departures != departures
                or self._epoch_reached(epoch)
                or time.monotonic() >= deadline,
                answer,
                deadline,
            )

    def _status_payload(self, epoch_reached: bool | None) -> bytes:
        """JSON state for the parent's liveness probe + counter polls.
        Caller holds ``_mu``."""
        state = {
            "epoch_reached": epoch_reached,
            "released_epoch": self._released_epoch,
            "expected": self._expected,
            "faults_reported": self.faults_reported,
            "counters": self.counters,
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

    def _epoch_reached(self, epoch: int) -> bool:
        """All ``expected`` workers are registered and have finished
        *epoch*.  Caller holds ``_mu``."""
        if len(self._workers) < self._expected:
            return False
        return all(r.epoch_done >= epoch for r in self._workers.values())

    # -- checkpointing -------------------------------------------------------

    def checkpoint_now(self, *, boundary: bool = False) -> str | None:
        """Write one checkpoint immediately; returns its path.

        No-op (returns ``None``) without a checkpoint policy.  The cut
        is captured under the registry mutex, so params, versions,
        released epoch and worker clocks are one consistent instant;
        the file write itself happens outside the mutex on the
        captured copies.
        """
        if self._ckpt_policy is None:
            return None
        with self._mu:
            params = self._params.copy()
            versions = list(self._versions)
            released = self._released_epoch
            clocks = dict(self._resume_clocks)
            clocks.update({wid: r.clock for wid, r in self._workers.items()})
            seq = self._ckpt_seq
            self._ckpt_seq += 1
            self._ckpt_pushes_since = 0
        with self._ckpt_write:
            path = write_checkpoint(
                self._ckpt_policy.dir,
                seq,
                params=params,
                versions=versions,
                released_epoch=released,
                clocks=clocks,
                boundary=boundary,
            )
        with self._mu:
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

    def release_epoch(self, epoch: int, *, stop: bool = False) -> None:
        """Let every worker waiting on the barrier start *epoch* (or,
        with *stop*, exit cleanly)."""
        with self._mu:
            self._released_epoch = max(self._released_epoch, epoch)
            self._pushes_this_epoch = 0
            if stop:
                self._stop_flag = True
        self._recheck = True
        self._wake()

    def reset_pool(self, expected_workers: int) -> None:
        """Forget the current worker generation (recovery respawn): the
        registry and clocks restart empty; shard state and the released
        epoch survive, so respawned workers resume where the pool died."""
        with self._mu:
            self._workers = {}
            self._resume_clocks = {}
            self._expected = expected_workers
        self._recheck = True
        self._wake()

    def snapshot(self) -> np.ndarray:
        """A consistent copy of the model."""
        with self._mu:
            return self._params.copy()

    def write_params(self, params: np.ndarray) -> None:
        """Overwrite the model (NaN scrubbing).

        Bumps every shard version: an out-of-band rewrite invalidates
        the workers' shard caches, so no node can keep serving itself
        the pre-scrub bytes from a matching stale version.
        """
        if params.shape != self._params.shape:
            raise ConfigurationError(
                f"write_params shape {params.shape} != {self._params.shape}"
            )
        with self._mu:
            self._params[:] = params
            for shard in range(len(self._bounds)):
                self._versions[shard] += 1

    def stop(self) -> None:
        """Stop the loop, close every socket and stop the checkpoint writer."""
        super().stop()
        if self._ckpt_thread is not None:
            self._ckpt_event.set()
            self._ckpt_thread.join(timeout=2.0)

    close = stop
