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
One ``selectors`` loop on one thread serves every connection.  Each
pass reads every ready connection, hands the score requests it found to
the engine together, so they share micro-batches, and queues each
connection's replies in request order.  A client that does not read its
replies stalls only itself: the loop stops reading it while its unsent
replies exceed the line cap.
"""

from __future__ import annotations

import contextlib
import json
import selectors
import socket
import threading
from dataclasses import dataclass
from typing import Any

from ..utils.errors import DataFormatError, ReproError, SnapshotUnavailableError
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


class _Conn:
    """One client connection: unframed bytes in, unsent replies out."""

    __slots__ = ("sock", "inbuf", "outbuf", "events", "closing", "stopped")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.events = selectors.EVENT_READ
        #: Close once the replies are sent: EOF, an overlong line, shutdown.
        self.closing = False
        #: This connection asked for shutdown; its later lines are ignored.
        self.stopped = False


class ScoringServer:
    """Bind, serve, and shut down the scoring socket over an engine.

    The server owns its event-loop thread only; the engine (and its
    refresher thread) is managed by the caller — typically via
    ``with engine, ScoringServer(engine, config) as server: ...``.
    """

    def __init__(self, engine: ScoringEngine, config: ServerConfig | None = None) -> None:
        self.engine = engine
        self.config = config or ServerConfig()
        self._listener = socket.create_server((self.config.host, self.config.port))
        self._listener.setblocking(False)
        self.host, self.port = self._listener.getsockname()[:2]
        #: A byte on this pair wakes the loop for stop(); it is never read.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_w.setblocking(False)
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._listener, selectors.EVENT_READ, self._accept)
        self._sel.register(self._wake_r, selectors.EVENT_READ, lambda: None)
        self._thread: threading.Thread | None = None
        self._closing = False
        self._shutdown = threading.Event()
        self._error: Exception | None = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

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

    # -- the event loop ----------------------------------------------------

    def _loop(self) -> None:
        try:
            while not self._closing:
                lines: list[tuple[_Conn, Any]] = []
                read: list[_Conn] = []
                for key, mask in self._sel.select():
                    conn = key.data
                    if conn.__class__ is not _Conn:
                        conn()
                        continue
                    if mask & selectors.EVENT_WRITE:
                        self._flush(conn)  # may close it: then skip the read
                    if mask & selectors.EVENT_READ and not conn.closing:
                        self._recv(conn, lines)
                        read.append(conn)
                if lines:
                    self._answer(lines)
                for conn in read:
                    self._flush(conn)
        except Exception as exc:
            self._error = exc  # for wait(): a crash is not a shutdown
            raise
        finally:
            # A stopped loop serves nothing: release wait()ers.
            self._shutdown.set()

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:  # the dialler gave up before we got to it
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sel.register(sock, selectors.EVENT_READ, _Conn(sock))

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

    def _answer(self, lines: list[tuple[_Conn, Any]]) -> None:
        """Answer one pass's lines, scoring its score requests together."""
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
        for conn, slot in slots:
            conn.outbuf += json.dumps(_reply(slot)).encode("utf-8") + b"\n"

    def _flush(self, conn: _Conn) -> None:
        """Send what the socket takes now, then close the connection or
        wait on what it needs next."""
        if conn.outbuf:
            try:
                del conn.outbuf[: conn.sock.send(conn.outbuf)]
            except BlockingIOError:
                pass
            except OSError:  # the client is gone; nobody reads the rest
                conn.outbuf.clear()
                conn.closing = True
        if conn.closing and not conn.outbuf:
            self._close(conn)
            return
        events = selectors.EVENT_WRITE if conn.outbuf else 0
        # A client that does not read its replies is not read either.
        if not conn.closing and len(conn.outbuf) <= self.config.max_line_bytes:
            events |= selectors.EVENT_READ
        if events != conn.events:
            conn.events = events
            self._sel.modify(conn.sock, events, conn)

    def _close(self, conn: _Conn) -> None:
        self._sel.unregister(conn.sock)
        with contextlib.suppress(OSError):
            # FIN first: should unread request bytes make close() reset
            # the connection, the client has already seen the replies end.
            conn.sock.shutdown(socket.SHUT_WR)
        conn.sock.close()
        if conn.stopped:  # the shutdown reply is out
            self._shutdown.set()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ScoringServer":
        if self._thread is None and not self._closing:
            self._thread = threading.Thread(
                target=self._loop, name="serve-loop", daemon=True
            )
            self._thread.start()
        return self

    def wait(self, timeout: float | None = None) -> bool:
        """Block until shutdown (the serve-CLI's loop); re-raise a loop crash."""
        if self._shutdown.wait(timeout) and self._error is not None:
            raise self._error
        return self._shutdown.is_set()

    def stop(self) -> None:
        """Stop the loop and close every socket; releases wait()ers."""
        self._shutdown.set()
        if self._closing:
            return
        self._closing = True
        if self._thread is not None:
            self._wake_w.send(b"\0")
            self._thread.join(timeout=5.0)
        for key in list(self._sel.get_map().values()):
            key.fileobj.close()
        self._sel.close()
        self._wake_w.close()

    def __enter__(self) -> "ScoringServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


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
