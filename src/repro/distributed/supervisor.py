"""Crash-restart supervision of the shard server.

The shard server (:class:`~repro.distributed.server.ShardServer`)
always runs in its **own process** (:func:`server_main`), so the
parameter-server tier has no unsurvivable component.  The training
parent holds a :class:`RemoteServerHandle` and drives the server over
the framed control plane (``CTRL_*`` messages on a dedicated
connection).  Every control round-trip doubles as a liveness probe: a
server that crashed (``server-kill``, a real ``SIGKILL``) drops the
control socket, a server that wedged (``server-stall``) times the probe
out — both surface as one structured
:class:`~repro.utils.errors.ServerDiedError`, and the parent's answer
to both is the same **crash-restart failover**: respawn a fresh server
seeded from the newest valid checkpoint
(:meth:`RemoteServerHandle.respawn`), publish the new port through the
shared cell every worker re-reads on redial, and let the workers heal
themselves via mid-run reconnect.

The parent's epoch wait is the waiting form of ``CTRL_STATUS``: the
server answers as soon as every expected worker has finished the epoch
or a connection closes, and otherwise when the watchdog's slice runs
out (:meth:`RemoteServerHandle.wait_epoch`).

Counters survive the crash by *folding*: the handle keeps the state
snapshot of every status reply (at least one per watchdog slice while
an epoch runs), and on respawn folds the dead generation's last-seen
counters into an accumulated base — so ``ps.pushes`` et al. in the
final manifest cover every generation, minus at most one slice of a
killed server (best effort by construction: SIGKILL flushes nothing).

The handle also measures **time-to-repair**: the wall seconds from
failover detection to the first post-respawn push observed by a status
reply — the paper-shaped robustness metric the bench snapshot records
(``ps.time_to_repair_seconds``).
"""

from __future__ import annotations

import json
import socket
import time
from typing import Any, Sequence

import numpy as np

from ..faults.supervise import reap
from ..telemetry import keys
from ..utils.errors import ConfigurationError, ServerDiedError
from . import protocol as wire
from .checkpoint import CheckpointPolicy, load_latest
from .server import ShardServer

__all__ = ["RemoteServerHandle", "server_main"]

#: Seconds the parent grants the child to report its listening address.
_SPAWN_TIMEOUT = 30.0


def server_main(
    conn,
    init_params: np.ndarray,
    shards: int,
    max_staleness: int | None,
    expected_workers: int,
    checkpoint: CheckpointPolicy | None,
    server_faults: Sequence[dict],
    pushes_per_epoch: int | None,
    restore: bool,
) -> None:
    """Entry point of the standalone shard-server process.

    With *restore* set, the newest valid checkpoint in the policy's
    directory seeds the server (model, shard versions, released epoch,
    per-worker resume clocks); without one — or when no checkpoint
    exists yet, e.g. a crash before the first write — the server
    starts from *init_params*, which is still consistent: a clock-zero
    model is exactly the state after zero applied items.

    The listening ``(host, port)`` is reported through *conn* (the
    parent's spawn handshake), then the process serves until its
    ``CTRL_SHUTDOWN`` ack is out; a crashed loop exits non-zero.
    """
    state = None
    if restore and checkpoint is not None:
        state = load_latest(checkpoint.dir)
    server = ShardServer(
        init_params,
        shards,
        max_staleness=max_staleness,
        expected_workers=expected_workers,
        checkpoint=checkpoint,
        restore=state,
        server_faults=server_faults,
        pushes_per_epoch=pushes_per_epoch,
        standalone=True,
    )
    with server:
        conn.send((server.host, server.port))
        conn.close()
        server.wait()


class RemoteServerHandle:
    """Supervise a shard server living in its own process.

    Control calls ride the framed wire to the child; any control
    failure — dropped socket, dead process, probe timeout — marks the
    generation dead and raises :class:`ServerDiedError`.  The handle
    then supports exactly one recovery verb, :meth:`respawn`, which
    folds the dead generation's counters, starts a fresh process
    restored from the newest checkpoint, and reconnects.
    """

    def __init__(
        self,
        ctx,
        *,
        init_params: np.ndarray,
        shards: int,
        max_staleness: int | None,
        expected_workers: int,
        checkpoint: CheckpointPolicy | None,
        server_faults: Sequence[dict] = (),
        pushes_per_epoch: int | None = None,
        probe_timeout: float = 5.0,
    ) -> None:
        if probe_timeout <= 0:
            raise ConfigurationError(
                f"probe_timeout must be positive, got {probe_timeout}"
            )
        self._ctx = ctx
        self._init_params = np.asarray(init_params, dtype=np.float64)
        self._shards = shards
        self._max_staleness = max_staleness
        self._expected = expected_workers
        self._checkpoint = checkpoint
        self._server_faults = list(server_faults)
        self._pushes_per_epoch = pushes_per_epoch
        self._probe_timeout = probe_timeout

        self._proc = None
        self._ctrl: socket.socket | None = None
        self._ctrl_reader: wire.FrameReader | None = None
        self._dead = False
        self.host = "127.0.0.1"
        self.port = 0
        #: Counters folded from completed (dead) server generations.
        self._base_counters: dict[str, float] = {}
        self._base_faults = 0
        #: Freshest status snapshot of the *live* generation.
        self._last_counters: dict[str, float] = {}
        self._last_faults = 0
        self._last_status: dict[str, Any] | None = None
        #: Failover detection instant, armed by :meth:`respawn`; the
        #: first status poll showing a post-respawn push closes it.
        self._repair_started: float | None = None
        #: Completed time-to-repair measurements, one per failover.
        self.repairs: list[float] = []

        self._launch(restore=False)

    # -- process lifecycle ---------------------------------------------------

    def _launch(self, *, restore: bool) -> None:
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        self._proc = self._ctx.Process(
            target=server_main,
            name="ps-server",
            args=(
                send_conn,
                self._init_params,
                self._shards,
                self._max_staleness,
                self._expected,
                self._checkpoint,
                tuple(self._server_faults),
                self._pushes_per_epoch,
                restore,
            ),
            daemon=True,
        )
        self._proc.start()
        send_conn.close()
        deadline = time.perf_counter() + _SPAWN_TIMEOUT
        try:
            while not recv_conn.poll(0.1):
                if self._proc.exitcode is not None:
                    raise ServerDiedError(
                        "parameter server exited during startup "
                        f"(exitcode {self._proc.exitcode})",
                        phase="spawn",
                        exitcode=self._proc.exitcode,
                    )
                if time.perf_counter() >= deadline:
                    self._proc.terminate()
                    raise ServerDiedError(
                        "parameter server did not report its address "
                        f"within {_SPAWN_TIMEOUT:.0f}s",
                        phase="spawn",
                    )
            self.host, self.port = recv_conn.recv()
        finally:
            recv_conn.close()
        ctrl = socket.create_connection((self.host, self.port), timeout=5.0)
        ctrl.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        ctrl.settimeout(self._probe_timeout)
        self._ctrl = ctrl
        self._ctrl_reader = wire.FrameReader(ctrl)
        self._dead = False
        self._last_counters = {}
        self._last_faults = 0
        self._last_status = None

    def _fold_generation(self) -> None:
        """Bank the dying generation's last-seen state into the base."""
        for key, value in self._last_counters.items():
            self._base_counters[key] = self._base_counters.get(key, 0.0) + value
        self._base_faults += self._last_faults
        self._last_counters = {}
        self._last_faults = 0
        self._last_status = None

    def _mark_dead(self, phase: str, cause: Exception | None) -> ServerDiedError:
        self._dead = True
        if self._ctrl is not None:
            try:
                self._ctrl.close()
            except OSError:  # pragma: no cover - defensive
                pass
            self._ctrl = None
        exitcode = self._proc.exitcode if self._proc is not None else None
        detail = f": {cause}" if cause is not None else ""
        return ServerDiedError(
            f"parameter server stopped answering during {phase}"
            f" (exitcode {exitcode}){detail}",
            phase=phase,
            exitcode=exitcode,
        )

    def respawn(self, *, server_faults: Sequence[dict] | None = None) -> int:
        """Crash-restart failover: new process, restored from checkpoint.

        Folds the dead generation's counters, reaps its corpse, starts
        a fresh server seeded from the newest valid checkpoint, and
        starts the time-to-repair clock.  *server_faults* replaces the
        fault list shipped to the new generation (the parent filters
        out specs that already fired — a restored server must not
        re-kill itself replaying the same epoch).  Returns the new
        port for the parent to broadcast to the workers.
        """
        detected = time.perf_counter()
        self._fold_generation()
        if self._proc is not None and self._proc.is_alive():
            self._proc.terminate()
            reap([self._proc], 2.0)
        if server_faults is not None:
            self._server_faults = list(server_faults)
        self._launch(restore=True)
        self._repair_started = detected
        return self.port

    # -- control round-trips -------------------------------------------------

    def _roundtrip(
        self,
        msg_type: int,
        *,
        ident: int = 0,
        clock: int = 0,
        payload: bytes = b"",
        phase: str,
    ) -> wire.Frame:
        if self._dead or self._ctrl is None:
            raise self._mark_dead(phase, None)
        try:
            self._ctrl.sendall(
                wire.pack_frame(msg_type, ident=ident, clock=clock, payload=payload)
            )
            reply = self._ctrl_reader.read()
        except (wire.WireProtocolError, ConnectionError, OSError) as err:
            raise self._mark_dead(phase, err) from err
        if reply is None or reply.msg_type != msg_type:
            raise self._mark_dead(phase, None)
        return reply

    def _status(self, epoch: int = 0, wait: float = 0.0) -> dict[str, Any]:
        reply = self._roundtrip(
            wire.MSG_CTRL_STATUS,
            ident=min(int(wait * 1000), 0xFFFF),
            clock=epoch,
            phase="probe",
        )
        status = json.loads(reply.payload.decode("utf-8"))
        self._last_counters = dict(status.get("counters", {}))
        self._last_faults = int(status.get("faults_reported", 0))
        self._last_status = status
        if (
            self._repair_started is not None
            and self._last_counters.get(keys.PS_PUSHES, 0.0) > 0
        ):
            # First observed push of the restored generation: the tier
            # is training again — repair complete.
            self.repairs.append(time.perf_counter() - self._repair_started)
            self._repair_started = None
        return status

    # -- the handle surface --------------------------------------------------

    def wait_epoch(self, epoch: int, timeout: float) -> bool:
        """Block up to *timeout* seconds until every expected worker has
        finished *epoch*; returns whether they have.

        The server does the waiting and answers early when a connection
        closes.  The slice is capped at half the probe timeout, so a
        live server always answers before the probe gives up on it.
        """
        wait = min(timeout, self._probe_timeout / 2)
        return bool(self._status(epoch, wait)["epoch_reached"])

    def release_epoch(self, epoch: int, *, stop: bool = False) -> None:
        self._roundtrip(
            wire.MSG_CTRL_RELEASE,
            ident=1 if stop else 0,
            clock=epoch,
            phase="release",
        )

    def reset_pool(self, expected_workers: int) -> None:
        self._expected = expected_workers
        self._roundtrip(
            wire.MSG_CTRL_RESET, ident=expected_workers, phase="reset"
        )

    def snapshot(self) -> np.ndarray:
        reply = self._roundtrip(wire.MSG_CTRL_SNAPSHOT, phase="snapshot")
        if len(reply.payload) % 8:
            raise self._mark_dead("snapshot", None)
        return np.frombuffer(reply.payload, dtype=np.float64).copy()

    def write_params(self, params: np.ndarray) -> None:
        payload = np.ascontiguousarray(params, dtype=np.float64).tobytes()
        self._roundtrip(wire.MSG_CTRL_WRITE, payload=payload, phase="write")

    def checkpoint_now(self, *, boundary: bool = False) -> str | None:
        """Write one checkpoint immediately; its path, ``None`` = no policy."""
        reply = self._roundtrip(
            wire.MSG_CTRL_CHECKPOINT, ident=int(boundary), phase="checkpoint"
        )
        return reply.payload.decode("utf-8") or None

    @property
    def counters(self) -> dict[str, float]:
        """Folded counters: every dead generation plus the live one
        (freshly polled while it answers)."""
        if not self._dead:
            try:
                self._status()
            except ServerDiedError:
                pass
        totals = dict(self._base_counters)
        for key, value in self._last_counters.items():
            totals[key] = totals.get(key, 0.0) + value
        return totals

    @property
    def faults_reported(self) -> int:
        return self._base_faults + self._last_faults

    def close(self) -> None:
        if self._proc is None:
            return
        if not self._dead and self._ctrl is not None:
            try:
                # One last poll banks the final counters, then ask the
                # child to exit on its own terms.
                self._status()
                self._roundtrip(wire.MSG_CTRL_SHUTDOWN, phase="shutdown")
            except ServerDiedError:
                pass
        if self._ctrl is not None:
            try:
                self._ctrl.close()
            except OSError:  # pragma: no cover - defensive
                pass
            self._ctrl = None
        reap([self._proc], 2.0)
        self._fold_generation()
        self._dead = True
