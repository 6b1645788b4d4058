"""The parameter-server worker: async push/pull SGD over the wire.

Each worker process owns a round-robin partition of the examples and
runs barrier-aligned epochs, exactly like a shared-memory worker — but
where the shm worker reads and scatters against a shared buffer, this
one **pulls** the model over TCP, computes its work item against the
assembled model (one consistent cut of the server's shards), and
**pushes** the item's delta back.  The per-row math is the scalar path of
:meth:`~repro.models.linear.LinearModel.serial_sgd_epoch`, and the
pushed delta is the *negated* update (``(-step*coef)*val``), which the
server applies by addition — IEEE negation and multiplication are
sign-exact, so one worker with ``batch_size=1`` reproduces the serial
trajectory bit for bit (the ordered TCP stream guarantees each push is
applied before the next pull is answered, fused or not).

The wire economics are amortised two ways.  First, the worker keeps a
**shard cache**: the assembled model ``w`` plus the last-seen version
of every shard.  A pull carries that version vector, and the server
re-ships only the shards that moved — the rest come back as 9-byte
cached headers.  The cache invariant is simple: the worker's local
bytes for a shard at version *v* equal the server's bytes at version
*v* (local self-application of a delta always travels with a push that
bumps those very shards past the cached version, so a matching version
implies matching bytes).  Second, the steady-state loop **fuses**
frames: the push of item *k* and the pull for item *k+1* share one
``PUSH_PULL`` round-trip, so one SGD item costs exactly one round-trip
— the first item of an epoch opens with a ``PULL_ALL``, the last one
closes with a fire-and-forget ``PUSH``.

A dropped wire is healed, not fatal.  Every send and receive runs
inside a reconnect-and-resume loop: on a connection error the worker
redials (through the same seeded-jitter backoff as the first dial —
one ``derive_rng`` stream per worker id covers the worker's whole
dialling life), re-registers with the ``HELLO`` mid-run flag, and the
server answers with the worker's **resume clock** — the last work-item
count whose push was actually applied.  The worker rewinds its epoch
pass to that clock, invalidates the shard cache (``VERSION_NEVER``
forces full payloads — a failed-over server's versions restart from
the checkpoint, so cached bytes may no longer match), and replays
forward.  A push that never landed is recomputed; a push that landed
is never re-sent — exactly-once, both ways.  The redial re-reads the
server address from the parent's shared port cell each attempt, so a
crash-restart failover onto a fresh port heals transparently.

Fault injection lives at two levels.  Node-level faults fire inside
the pass: ``node-kill`` announces itself with a ``FAULT`` frame and
hard-exits mid-pass, ``node-stall`` sleeps past the parent's epoch
watchdog.  Wire-level faults (``conn-drop`` / ``frame-delay`` /
``frame-corrupt``) are armed on the worker's
:class:`~repro.distributed.lossy.FaultyWire` wrapper at a seeded item
of the spec's epoch and fire on the next outgoing frame; the fired
flag survives the rewind, so a replayed item never re-injects.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Callable

import numpy as np

from ..models.base import Matrix, Model
from ..utils.rng import derive_rng
from . import protocol as wire
from .lossy import WIRE_FAULT_IDENTS, FaultyWire
from .server import shard_bounds

__all__ = ["worker_main"]

#: Exit code of a worker killed by an injected ``node-kill`` fault
#: (same code the shm backend's ``kill`` fault uses).
FAULT_EXITCODE = 23

_CONNECT_ATTEMPTS = 50
#: Full connect-plus-HELLO cycles one dial may burn before giving up:
#: a connection accepted by a server that dies before answering the
#: handshake is a retry, not a rejection.
_HANDSHAKE_ATTEMPTS = 5
#: First retry delay; doubles per failed attempt (plus jitter) up to
#: the cap, so a reconnect storm after a recovery respawn — or a
#: server failover — spreads out instead of hammering the accept
#: queue in lock-step.
_CONNECT_BACKOFF_BASE = 0.05
_CONNECT_BACKOFF_CAP = 1.0

#: Wire failures the reconnect-and-resume loop heals in place.
_HEAL_ERRORS = (wire.WireProtocolError, ConnectionError, OSError)


def _connect(
    host: str, port_of: Callable[[], int], rng
) -> tuple[socket.socket | None, int]:
    """Dial the server with exponential backoff + jitter.

    *port_of* is re-evaluated on every attempt: during a crash-restart
    failover the parent publishes the respawned server's port through a
    shared cell, and the very next attempt dials the new address.
    Returns ``(socket, retries)`` — the retry count rides to the server
    in HELLO's clock slot and lands in ``ps.connect_retries``, so
    reconnect churn is visible in run manifests.
    """
    delay = _CONNECT_BACKOFF_BASE
    retries = 0
    for _ in range(_CONNECT_ATTEMPTS):
        try:
            sock = socket.create_connection((host, port_of()), timeout=5.0)
        except OSError:
            retries += 1
            time.sleep(delay + float(rng.uniform(0.0, delay)))
            delay = min(delay * 2.0, _CONNECT_BACKOFF_CAP)
            continue
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        return sock, retries
    return None, retries


class _ServerLink:
    """The worker's connection to the server, across its whole life.

    Owns the dial RNG (one seeded jitter stream per worker id — the
    first dial and every mid-run redial draw from it), the
    :class:`FaultyWire` wrapper (armed faults and the corrupt-byte RNG
    survive reconnects), the buffered frame reader of the *current*
    socket (replaced on every dial — bytes buffered from a dead
    connection must never be parsed as the new one's), and the shard
    layout learned from the first HELLO_ACK.
    """

    def __init__(
        self, host: str, port_cell, n_workers: int, worker_id: int, seed: int
    ) -> None:
        self.host = host
        self._port_cell = port_cell
        self.worker_id = worker_id
        self._dial_rng = derive_rng(
            seed, f"ps-connect/{n_workers}/{worker_id}"
        )
        #: Seeds both the wire faults' target items and the corrupt
        #: byte positions — one stream, pure function of (seed, ids).
        self.wire_rng = derive_rng(seed, f"ps-wire/{n_workers}/{worker_id}")
        self.wire = FaultyWire(None, self.wire_rng)
        self.reader: wire.FrameReader | None = None
        self.n_params: int | None = None
        self.n_shards: int | None = None
        self.bounds: list[tuple[int, int]] | None = None
        #: Byte size of each shard's fresh payload (the SHARDS schema).
        self.shard_bytes: list[int] | None = None

    @property
    def port(self) -> int:
        cell = self._port_cell
        return int(cell.value) if hasattr(cell, "value") else int(cell)

    def dial(self, *, midrun: bool = False) -> int | None:
        """Connect and register; returns the resume clock.

        A connection that opens but dies during the HELLO handshake
        (the narrow window where a worker redials a server that is
        itself going down) is retried through the same backoff
        schedule, not treated as a rejection.  ``None`` means the
        server stayed unreachable through the whole schedule — the
        worker exits quietly and the parent's watchdog owns what
        happens next.
        """
        for _ in range(_HANDSHAKE_ATTEMPTS):
            sock, retries = _connect(
                self.host, lambda: self.port, self._dial_rng
            )
            if sock is None:
                return None
            self.wire.attach(sock)
            self.reader = wire.FrameReader(self.wire)
            try:
                wire.send_frame(
                    self.wire,
                    wire.MSG_HELLO,
                    ident=self.worker_id,
                    clock=retries,
                    payload=bytes([wire.HELLO_MIDRUN]) if midrun else b"",
                )
                ack = self.reader.read()
            except _HEAL_ERRORS:
                ack = None
            if ack is None or ack.msg_type != wire.MSG_HELLO_ACK:
                self.close()
                time.sleep(
                    _CONNECT_BACKOFF_BASE
                    + float(self._dial_rng.uniform(0.0, _CONNECT_BACKOFF_BASE))
                )
                continue
            n_params, n_shards, _, resume = wire.unpack_hello_ack(ack.payload)
            if self.bounds is None:
                self.n_params = n_params
                self.n_shards = n_shards
                self.bounds = shard_bounds(n_params, n_shards)
                self.shard_bytes = [(hi - lo) * 8 for lo, hi in self.bounds]
            return resume
        return None

    def close(self) -> None:
        try:
            self.wire.close()
        except OSError:  # pragma: no cover - defensive
            pass


def _recv_shards(link: _ServerLink, w: np.ndarray, seen: list[int]) -> None:
    """Fold the next SHARDS reply into the local model + version cache.

    The whole payload is validated against the shard layout before a
    byte of ``w`` moves (the wire carries no per-shard lengths — the
    layout from HELLO_ACK is the decode schema); fresh entries then
    overwrite their slice of ``w`` and advance the cached version.
    Cached entries leave ``w`` alone: the invariant guarantees it
    already matches the server at that version.
    """
    frame = link.reader.read()
    if frame is None:
        raise ConnectionResetError("server closed the connection mid-pull")
    if frame.msg_type != wire.MSG_SHARDS:
        raise wire.WireProtocolError("pull was not answered with a SHARDS reply")
    entries = wire.unpack_shards(frame.payload, link.shard_bytes)
    for shard, (version, payload) in enumerate(entries):
        if payload is not None:
            lo, hi = link.bounds[shard]
            w[lo:hi] = np.frombuffer(payload, dtype=np.float64)
        seen[shard] = version


def _pull_all(link: _ServerLink, w: np.ndarray, seen: list[int], clock: int) -> None:
    """One full-model pull in a single round-trip (versioned)."""
    wire.send_frame(
        link.wire, wire.MSG_PULL_ALL, clock=clock, payload=wire.pack_versions(seen)
    )
    _recv_shards(link, w, seen)


def _epoch_barrier(link: _ServerLink, epoch: int) -> bool:
    """Announce the finished epoch; block for the ack.  True = stop.

    A connection closed while waiting raises (instead of quietly
    stopping): mid-run that is a failing-over server, and the heal
    loop re-announces the epoch on the fresh connection.
    """
    wire.send_frame(link.wire, wire.MSG_EPOCH_DONE, clock=epoch)
    while True:
        frame = link.reader.read()
        if frame is None:
            raise ConnectionResetError("server closed the connection at the barrier")
        if frame.msg_type == wire.MSG_EPOCH_ACK:
            return bool(frame.ident)


def worker_main(
    host: str,
    port,
    model: Model,
    X: Matrix,
    y: np.ndarray,
    part: np.ndarray,
    n_workers: int,
    worker_id: int,
    step: float,
    max_epochs: int,
    batch_size: int,
    seed: int,
    faults: tuple = (),
    epoch_offset: int = 0,
    wire_faults: tuple = (),
) -> None:
    """One worker process: epochs of pull/compute/push over *part*.

    *port* is either a plain int or a shared cell with a ``.value``
    (the parent's failover broadcast).  *faults* is this worker's
    resolved slice of the run's node-fault plan (``node-kill`` /
    ``node-stall``), *wire_faults* its slice of the wire-fault plan
    (``conn-drop`` / ``frame-delay`` / ``frame-corrupt`` from
    :meth:`repro.faults.FaultPlan.resolve_wire`).
    """
    link = _ServerLink(host, port, n_workers, worker_id, seed)
    if link.dial() is None:
        return
    sock = link.wire
    try:
        n_shards = link.n_shards
        w = np.empty(link.n_params, dtype=np.float64)
        # The shard cache: last server version this worker holds for
        # each shard.  The NEVER sentinel forces full payloads on the
        # first pull (and after a recovery respawn rebuilds the pool —
        # a fresh process starts with an empty cache, so repartition
        # can never resurrect pre-recovery bytes).
        seen = [wire.VERSION_NEVER] * n_shards

        rng = derive_rng(seed, f"ps/{n_workers}/{worker_id}")
        dmargin = model._dmargin_scalar
        labels = y.tolist()
        sparse = hasattr(X, "indptr")
        if sparse:
            indptr, indices, data = X.indptr.tolist(), X.indices, X.data
            Xd = None
        else:
            Xd = np.asarray(X, dtype=np.float64)
        items_done = 0
        wire_specs = [
            dict(spec, fired=False, item=None) for spec in wire_faults
        ]

        # Registration doubles as the first barrier: the parent's
        # release of epoch ``epoch_offset + 1`` starts the pass.
        while True:
            try:
                if _epoch_barrier(link, epoch_offset):
                    wire.send_frame(sock, wire.MSG_BYE)
                    return
                break
            except _HEAL_ERRORS:
                resume = link.dial(midrun=True)
                if resume is None:
                    return
                items_done = resume

        stop = False
        for local_epoch in range(max_epochs):
            epoch = epoch_offset + local_epoch + 1
            kill_item = None
            sleep_seconds = 0.0
            for spec in faults:
                if spec["epoch"] != epoch:
                    continue
                if spec["kind"] == "node-kill":
                    # Die halfway through the pass: the pushes already
                    # applied stay applied, like a real node crash.
                    kill_item = -(-part.shape[0] // batch_size) // 2
                elif spec["kind"] == "node-stall":
                    sleep_seconds += spec["seconds"]
            order = part[rng.permutation(part.shape[0])]
            n_items = -(-order.shape[0] // batch_size)
            for spec in wire_specs:
                if spec["epoch"] == epoch and spec["item"] is None:
                    # Seeded target item, drawn once when the epoch
                    # arrives — a rewind replays the pass but never
                    # redraws (or refires: the fired flag survives).
                    spec["item"] = int(link.wire_rng.integers(n_items))
            # The version cache survives the epoch barrier: versions
            # are monotonic and an out-of-band rewrite (NaN scrub)
            # bumps every shard, so a matching version is still a
            # matching model.  Only the *first* item of the run pays a
            # full pull; every later epoch opens on warm cache.
            pulled = False
            epoch_base = items_done
            item = 0
            while True:
                try:
                    while item < n_items:
                        if item == kill_item:
                            wire.send_frame(
                                sock, wire.MSG_FAULT, ident=1, clock=epoch
                            )
                            os._exit(FAULT_EXITCODE)
                        for spec in wire_specs:
                            if (
                                spec["epoch"] == epoch
                                and spec["item"] == item
                                and not spec["fired"]
                            ):
                                # Announce on the healthy wire (the
                                # injection count must survive the
                                # fault), then arm: the next outgoing
                                # frame is the one it hits.
                                spec["fired"] = True
                                wire.send_frame(
                                    sock,
                                    wire.MSG_FAULT,
                                    ident=WIRE_FAULT_IDENTS[spec["kind"]],
                                    clock=epoch,
                                )
                                link.wire.arm(spec["kind"], spec["seconds"])
                        rows = order[item * batch_size : (item + 1) * batch_size]
                        if not pulled:
                            # Epoch-opening pull: one round-trip for
                            # all shards.
                            _pull_all(link, w, seen, items_done)
                            pulled = True
                        if sparse:
                            idx_parts: list[np.ndarray] = []
                            val_parts: list[np.ndarray] = []
                            for i in rows.tolist():
                                a, b = indptr[i], indptr[i + 1]
                                if a == b:
                                    continue
                                idx = indices[a:b]
                                val = data[a:b]
                                yi = labels[i]
                                read = w.take(idx)
                                coef = yi * dmargin(yi * val.dot(read))
                                if coef == 0.0:
                                    continue
                                delta = (-step * coef) * val
                                # Later rows in the item see it.
                                w.put(idx, read + delta)
                                idx_parts.append(idx)
                                val_parts.append(delta)
                            if len(idx_parts) == 1:
                                payload = wire.pack_push(idx_parts[0], val_parts[0])
                            elif idx_parts:
                                payload = wire.pack_push(
                                    np.concatenate(idx_parts),
                                    np.concatenate(val_parts),
                                )
                            else:
                                payload = wire.pack_push_empty()
                        else:
                            acc = None
                            for i in rows.tolist():
                                xi = Xd[i]
                                yi = labels[i]
                                coef = yi * dmargin(yi * xi.dot(w))
                                if coef == 0.0:
                                    continue
                                delta = (-step * coef) * xi
                                w += delta
                                acc = delta.copy() if acc is None else acc + delta
                            # A delta-free item ships the 1-byte empty
                            # marker, never an n_params zero vector:
                            # the clock still advances, no shard
                            # version moves.
                            payload = (
                                wire.pack_push(None, acc)
                                if acc is not None
                                else wire.pack_push_empty()
                            )
                        items_done += 1
                        if item + 1 < n_items:
                            # Steady state: fuse this item's push with
                            # the next item's pull — one round-trip
                            # covers both.
                            wire.send_frame(
                                sock,
                                wire.MSG_PUSH_PULL,
                                ident=int(rows.shape[0]),
                                clock=items_done,
                                payload=wire.pack_push_pull(payload, seen),
                            )
                            _recv_shards(link, w, seen)
                        else:
                            # Last item of the pass: nothing left to
                            # pull, so the push travels alone
                            # (fire-and-forget; the ordered stream
                            # applies it before EPOCH_DONE).
                            wire.send_frame(
                                sock,
                                wire.MSG_PUSH,
                                ident=int(rows.shape[0]),
                                clock=items_done,
                                payload=payload,
                            )
                        item += 1
                    if sleep_seconds:
                        wire.send_frame(sock, wire.MSG_FAULT, ident=2, clock=epoch)
                        time.sleep(sleep_seconds)
                        sleep_seconds = 0.0  # a heal must not re-stall
                    stop = _epoch_barrier(link, epoch)
                    break
                except _HEAL_ERRORS:
                    # Reconnect-and-resume: re-register mid-run, rewind
                    # to the server's resume clock (the last item whose
                    # push was applied) and replay forward.  The cache
                    # is invalidated — a restored server's versions
                    # restart from the checkpoint, so matching numbers
                    # would no longer mean matching bytes.
                    resume = link.dial(midrun=True)
                    if resume is None:
                        return
                    items_done = resume
                    item = min(max(resume - epoch_base, 0), n_items)
                    pulled = False
                    seen = [wire.VERSION_NEVER] * n_shards
            if stop:
                break
        wire.send_frame(sock, wire.MSG_BYE)
    except _HEAL_ERRORS:
        # The parent owns liveness: a wire that cannot be healed means
        # the run is being torn down (or recovered) around us.
        return
    finally:
        link.close()
