"""The scoring service: a JSON-lines socket front end over the engine.

``python -m repro serve`` binds a local TCP socket (127.0.0.1, ephemeral
port by default) and speaks a newline-delimited JSON protocol — the
simplest framing that lets many concurrent clients drive the
micro-batcher hard from plain ``socket`` code, with no HTTP dependency.

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
Connections are handled by a thread per client; scoring itself funnels
through the engine's micro-batcher, so concurrent clients coalesce
into shared kernel calls.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from dataclasses import dataclass
from typing import Any

from ..utils.errors import (
    ConfigurationError,
    DataFormatError,
    ReproError,
    SnapshotUnavailableError,
)
from .engine import ScoringEngine

__all__ = ["ServerConfig", "ScoringServer", "request_once"]

#: Cap on one request line; a guard against unframed garbage, not a
#: real batch limit (64k examples of 16 features fit comfortably).
MAX_LINE_BYTES = 32 * 1024 * 1024


@dataclass(frozen=True)
class ServerConfig:
    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port; read it back from ``server.port``.
    port: int = 0
    #: Per-request timeout handed to the engine's batched path.
    request_timeout: float = 30.0
    #: Cap on one request line.  A longer request is answered with a
    #: ``line-too-long`` error and the connection is closed (the
    #: overflow bytes cannot be re-framed).
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


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # one client connection, many lines
        front: "ScoringServer" = self.server.front  # type: ignore[attr-defined]
        cap = front.config.max_line_bytes
        while True:
            try:
                line = self.rfile.readline(cap)
            except (ConnectionError, OSError):
                return
            if not line:
                return
            if len(line) >= cap and not line.endswith(b"\n"):
                # The request overflowed the cap: readline returned a
                # *partial* line.  Treating it as complete — and the
                # remainder as subsequent requests — corrupts the
                # framing, so reply with a structured error and close.
                reply = {
                    "ok": False,
                    "error": {
                        "type": "line-too-long",
                        "message": (
                            f"request line exceeds the server's "
                            f"{cap}-byte cap"
                        ),
                        "limit_bytes": cap,
                        "retriable": False,
                    },
                }
                try:
                    self.wfile.write(json.dumps(reply).encode("utf-8") + b"\n")
                    self.wfile.flush()
                except (ConnectionError, OSError):
                    pass
                return
            line = line.strip()
            if not line:
                continue
            reply, stop = front.dispatch(line)
            try:
                self.wfile.write(json.dumps(reply).encode("utf-8") + b"\n")
                self.wfile.flush()
            except (ConnectionError, OSError):
                return
            if stop:
                front.request_shutdown()
                return


class _TCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


class ScoringServer:
    """Bind, serve, and shut down the scoring socket over an engine.

    The server owns the listener thread only; the engine (and its
    batcher/refresher threads) is managed by the caller — typically via
    ``with engine, ScoringServer(engine, config) as server: ...``.
    """

    def __init__(self, engine: ScoringEngine, config: ServerConfig | None = None) -> None:
        self.engine = engine
        self.config = config or ServerConfig()
        self._tcp = _TCPServer(
            (self.config.host, self.config.port), _Handler, bind_and_activate=True
        )
        self._tcp.front = self  # type: ignore[attr-defined] - handler hook
        self._thread: threading.Thread | None = None
        self._shutdown = threading.Event()

    @property
    def host(self) -> str:
        return self._tcp.server_address[0]

    @property
    def port(self) -> int:
        return self._tcp.server_address[1]

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- request dispatch --------------------------------------------------

    def dispatch(self, raw: bytes) -> tuple[dict[str, Any], bool]:
        """Answer one request line; returns ``(reply, shutdown?)``."""
        try:
            try:
                msg = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"request is not valid JSON: {exc}") from None
            if not isinstance(msg, dict) or "op" not in msg:
                raise DataFormatError('request must be an object with an "op" key')
            op = msg["op"]
            if op == "ping":
                return {"ok": True, "op": "ping"}, False
            if op == "stats":
                return {"ok": True, "stats": self.engine.stats().to_dict()}, False
            if op == "shutdown":
                return {"ok": True, "op": "shutdown"}, True
            if op == "score":
                response = self.engine.request(
                    msg.get("examples"), timeout=self.config.request_timeout
                )
                return response.to_dict(), False
            raise DataFormatError(f"unknown op {op!r}")
        except SnapshotUnavailableError as err:
            return _error_payload(err), False
        except (DataFormatError, ConfigurationError) as err:
            self.engine.note_client_error()
            return _error_payload(err), False
        except Exception as err:  # noqa: BLE001 - protocol boundary
            self.engine.note_client_error()
            return _error_payload(err), False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ScoringServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._tcp.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="serve-listener",
            daemon=True,
        )
        self._thread.start()
        return self

    def request_shutdown(self) -> None:
        """Signal shutdown from a handler thread (the ``shutdown`` op)."""
        self._shutdown.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until a client requests shutdown (the serve-CLI's loop)."""
        return self._shutdown.wait(timeout)

    def stop(self) -> None:
        if self._thread is None:
            return
        # A caller-initiated stop must also release anyone blocked in
        # wait(): before this, only the shutdown *op* set the event and
        # a stop() from another thread left waiters hanging forever.
        self._shutdown.set()
        self._tcp.shutdown()
        self._thread.join(timeout=5.0)
        self._thread = None
        self._tcp.server_close()

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
