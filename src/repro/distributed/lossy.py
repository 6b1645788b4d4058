"""A fault-injecting socket wrapper: the lossy wire, made repeatable.

:class:`FaultyWire` sits between the worker's training loop and its
TCP socket and injects exactly the wire-level failures a real
deployment sees — a connection dropped mid-run, a delayed frame, a
frame with flipped bits — at seeded, pre-armed points, so a chaos
drill is as reproducible as a healthy run.  The wrapper only
intercepts the *send* path: that is where each failure has a crisp
exactly-once story —

``conn-drop``
    The socket is closed *before* the armed frame leaves, so the
    in-flight item's push was never applied; the worker reconnects
    (``ps.reconnects_midrun``), rewinds to the server's resume clock
    and replays the item.  Healed entirely worker-side: no parent
    recovery action, no budget consumed.
``frame-delay``
    The armed frame is sent after a sleep — latency the run must
    absorb with no recovery action at all (the staleness gate and the
    epoch watchdog are the only observers).
``frame-corrupt``
    A seeded byte of the armed frame's *payload* is flipped after the
    CRC was computed.  The receiver's checksum rejects the frame
    (``ps.frames_rejected``), drops the connection, and the worker
    heals exactly like a drop — the corrupted push is *never* applied.

Arming is one-shot and explicit: the training loop announces the
fault (a ``FAULT`` frame on the healthy wire, so injection counts
survive), calls :meth:`FaultyWire.arm`, and the next frame sent is
the one the fault hits.  The byte position flipped by
``frame-corrupt`` comes from the wrapper's own ``derive_rng`` stream,
so the same plan, seed and worker always corrupt the same byte of the
same frame.
"""

from __future__ import annotations

import socket
import time

from ..utils.errors import ConfigurationError
from . import protocol as wire

__all__ = ["FaultyWire", "WIRE_FAULT_IDENTS"]

#: ``FAULT``-frame ident announcing each wire-fault kind (extends the
#: node kinds' 1=kill, 2=stall).
WIRE_FAULT_IDENTS = {"conn-drop": 3, "frame-delay": 4, "frame-corrupt": 5}


class FaultyWire:
    """Socket facade injecting armed faults into outgoing frames.

    Transparent (pure pass-through) until :meth:`arm` schedules a
    fault for the next ``sendall``.  The underlying socket is swapped
    via :meth:`attach` on reconnect, so one wrapper — and its armed
    state and RNG stream — spans a worker's whole life.
    """

    __slots__ = ("raw", "_rng", "_armed")

    def __init__(self, sock: socket.socket | None, rng) -> None:
        self.raw = sock
        self._rng = rng
        self._armed: tuple[str, float] | None = None

    # -- lifecycle ---------------------------------------------------------

    def attach(self, sock: socket.socket) -> None:
        """Point the wrapper at a fresh socket (after a reconnect)."""
        self.raw = sock

    def arm(self, kind: str, seconds: float = 0.0) -> None:
        """Schedule *kind* to fire on the next outgoing frame."""
        if kind not in WIRE_FAULT_IDENTS:
            raise ConfigurationError(f"unknown wire fault kind {kind!r}")
        self._armed = (kind, seconds)

    # -- send path (where faults fire) -------------------------------------

    def sendall(self, buf) -> None:
        armed, self._armed = self._armed, None
        if armed is None:
            self.raw.sendall(buf)
            return
        kind, seconds = armed
        if kind == "frame-delay":
            time.sleep(seconds)
            self.raw.sendall(buf)
            return
        if kind == "conn-drop":
            # Drop *before* the frame leaves: the push was never
            # applied, so reconnect-and-replay is exactly-once.
            try:
                self.raw.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self.raw.close()
            raise ConnectionResetError("injected conn-drop")
        # frame-corrupt: flip one seeded payload byte (header fields
        # survive, so the receiver gets far enough to check the CRC —
        # the failure mode that used to decode as garbage floats).
        mutable = bytearray(buf)
        lo = wire.HEADER_BYTES if len(mutable) > wire.HEADER_BYTES else 0
        pos = lo + int(self._rng.integers(len(mutable) - lo))
        mutable[pos] ^= 0xFF
        self.raw.sendall(bytes(mutable))

    # -- pass-throughs ------------------------------------------------------

    def recv_into(self, buffer) -> int:
        return self.raw.recv_into(buffer)

    def close(self) -> None:
        if self.raw is not None:
            self.raw.close()
