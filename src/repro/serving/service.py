"""The scoring service: a JSON-lines socket front end over the engine.

``python -m repro serve`` binds a local TCP socket (127.0.0.1, ephemeral
port by default) and speaks a newline-delimited JSON protocol — the
simplest framing that lets many concurrent clients drive the
scoring engine hard from plain ``socket`` code, with no HTTP dependency.

Request (one line)::

    {"op": "score", "examples": [[...dense...], {"indices": [...], "values": [...]}]}
    {"op": "stats"}
    {"op": "ping"}
    {"op": "shutdown"}

Response (one line)::

    {"ok": true, "results": [{"margin": ..., "label": ..., "prob": ...}],
     "model_version": 3, "model_source": "shm", "model_epoch": 7,
     "latency_ms": 1.2}
    {"ok": false, "error": {"type": "snapshot-unavailable", "message": ...,
     "reason": "cold-start", "retriable": true}}

Every error is structured via the :class:`~repro.utils.errors.ReproError`
``describe()`` idiom (a client error without one is typed
``invalid-request``, a server fault ``internal``); ``retriable: true``
marks conditions a client may retry — after a backoff (cold start,
trainer not yet published) or against a healthy connection (internal
server faults) — while
``false`` marks client bugs (malformed examples), where retrying the
same bytes cannot succeed.  A request line longer than the server's
``max_line_bytes`` cap is answered with a ``line-too-long`` error
(``retriable: false``) and the connection is closed: the overflow
bytes still in the socket cannot be re-framed, so parsing them as
further requests — the pre-fix behaviour — would corrupt the stream.
One connection loop (:mod:`repro.utils.eventloop`) serves every
connection: each pass hands the score requests it read to the engine
together, so they share micro-batches, and queues each connection's
replies in request order.  A client that does not read its replies
stalls only itself: past the line cap of unsent replies it is not read.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass
from typing import Any

from ..utils.errors import DataFormatError, ReproError, SnapshotUnavailableError
from ..utils.eventloop import Conn, ConnectionLoop
from .engine import ScoringEngine

__all__ = ["ServerConfig", "ScoringServer", "request_once"]

#: Cap on one request line; a guard against unframed garbage, not a
#: real batch limit (64k examples of 16 features fit comfortably).
MAX_LINE_BYTES = 32 * 1024 * 1024

#: Bytes one loop pass reads from a ready connection.
_RECV_BYTES = 65536


@dataclass(frozen=True)
class ServerConfig:
    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port; read it back from ``server.port``.
    port: int = 0
    #: Cap on one request line.  A longer request is answered with a
    #: ``line-too-long`` error and the connection is closed (the
    #: overflow bytes cannot be re-framed).  Also the most unsent reply
    #: bytes a connection may hold before the loop stops reading it.
    max_line_bytes: int = MAX_LINE_BYTES


def _error_payload(err: Exception) -> dict[str, Any]:
    if isinstance(err, ReproError):
        # Validation errors are client bugs; retrying the same bytes
        # cannot succeed.
        desc = (
            err.describe()
            if hasattr(err, "describe")
            else {"type": "invalid-request", "message": str(err)}
        )
        if "retriable" not in desc:
            desc["retriable"] = isinstance(err, SnapshotUnavailableError)
    else:
        # An internal server fault, not a property of the request: the
        # same bytes may well succeed against a healthy server, so the
        # client is invited to retry.
        desc = {"type": "internal", "message": str(err), "retriable": True}
    return {"ok": False, "error": desc}


def _reply(slot: Any) -> dict[str, Any]:
    """A reply as is, or a prepared score request's answer as a reply."""
    if isinstance(slot, dict):
        return slot
    if slot.error is not None:
        return _error_payload(slot.error)
    return slot.response.to_dict()


class _Conn(Conn):
    """One client connection: unframed request bytes in."""

    __slots__ = ("inbuf",)

    def __init__(self, sock: socket.socket) -> None:
        super().__init__(sock)
        self.inbuf = bytearray()


class ScoringServer(ConnectionLoop):
    """Bind, serve, and shut down the scoring socket over an engine.

    The server owns its event-loop thread only; the engine (and its
    refresher thread) is managed by the caller — typically via
    ``with engine, ScoringServer(engine, config) as server: ...``.
    """

    conn_type = _Conn

    def __init__(self, engine: ScoringEngine, config: ServerConfig | None = None) -> None:
        self.engine = engine
        self.config = cfg = config or ServerConfig()
        super().__init__(
            cfg.host, cfg.port, name="serve-loop", out_cap=cfg.max_line_bytes
        )

    # -- request dispatch --------------------------------------------------

    def dispatch(self, raw: bytes) -> tuple[dict[str, Any], bool]:
        """Answer one request line; returns ``(reply, shutdown?)``."""
        queued: list = []
        slot, stop = self._take(raw, queued)
        self.engine.answer(queued)
        return _reply(slot), stop

    def _take(self, raw: bytes, queued: list) -> tuple[Any, bool]:
        """One request line as ``(slot, shutdown?)``: a score request is
        prepared onto *queued* and is its own slot, any other line's slot
        is its reply.  ``stats`` and ``shutdown`` first answer *queued*."""
        try:
            try:
                msg = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"request is not valid JSON: {exc}") from None
            if not isinstance(msg, dict) or "op" not in msg:
                raise DataFormatError('request must be an object with an "op" key')
            op = msg["op"]
            if op == "score":
                queued.append(self.engine.prepare(msg.get("examples")))
                return queued[-1], False
            if op == "ping":
                return {"ok": True, "op": "ping"}, False
            if op not in ("stats", "shutdown"):
                raise DataFormatError(f"unknown op {op!r}")
            self.engine.answer(queued)
            queued.clear()
            if op == "stats":
                return {"ok": True, "stats": self.engine.stats().to_dict()}, False
            return {"ok": True, "op": "shutdown"}, True
        except Exception as err:  # noqa: BLE001 - protocol boundary
            self.engine.note_client_error()
            return _error_payload(err), False

    # -- the loop's hooks --------------------------------------------------

    def _recv(self, conn: _Conn, lines: list) -> None:
        """Read what arrived and append each complete line to *lines*."""
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        buf = conn.inbuf
        if not data:  # EOF: an unterminated last line is still a request
            conn.closing = True
            if buf:
                lines.append((conn, buf))
                conn.inbuf = bytearray()
            return
        cap = self.config.max_line_bytes
        seen = len(buf)  # the buffered tail holds no newline
        buf += data
        start, end = 0, buf.find(b"\n", seen)
        while 0 <= end < start + cap:
            lines.append((conn, buf[start:end]))
            start, end = end + 1, buf.find(b"\n", end + 1)
        del buf[:start]
        if end >= 0 or len(buf) >= cap:
            # The line overflowed the cap.  The bytes after it cannot be
            # re-framed — parsing them as further requests would corrupt
            # the stream — so the line is refused and the connection closed.
            error = {
                "type": "line-too-long",
                "message": f"request line exceeds the server's {cap}-byte cap",
                "limit_bytes": cap,
                "retriable": False,
            }
            lines.append((conn, {"ok": False, "error": error}))
            conn.closing = True
            buf.clear()

    def _readable(self, conns: list) -> None:
        """Answer one pass's lines, scoring its score requests together."""
        lines: list[tuple[_Conn, Any]] = []
        for conn in conns:
            self._recv(conn, lines)
        queued: list = []
        slots = []
        for conn, raw in lines:
            if conn.stopped:
                continue
            if isinstance(raw, dict):  # already answered: line-too-long
                slots.append((conn, raw))
            elif raw := raw.strip():
                slot, stop = self._take(raw, queued)
                slots.append((conn, slot))
                if stop:
                    conn.stopped = conn.closing = True
        self.engine.answer(queued)
        # The loop sends each connection's replies after the pass.
        for conn, slot in slots:
            conn.out += json.dumps(_reply(slot)).encode("utf-8") + b"\n"


def request_once(
    host: str, port: int, message: dict[str, Any], timeout: float = 30.0
) -> dict[str, Any]:
    """One request/response round-trip — the canonical tiny client.

    Raises
    ------
    ConnectionError
        When the server closes the connection before a complete reply
        arrives — either without sending anything, or mid-reply (bytes
        but no trailing newline).  Structured, instead of the opaque
        ``JSONDecodeError`` a partial reply used to surface as.
    """
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(json.dumps(message).encode("utf-8") + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
    if not buf:
        raise ConnectionError("server closed the connection without replying")
    if not buf.endswith(b"\n"):
        raise ConnectionError(
            f"server closed the connection mid-reply "
            f"({len(buf)} bytes received, no trailing newline)"
        )
    return json.loads(buf)
