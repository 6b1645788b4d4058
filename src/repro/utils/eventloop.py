"""The one connection loop: a ``selectors`` loop on one thread.

The shard server and the scoring service are each a
:class:`ConnectionLoop` plus their protocol.  Replies never block the
loop: ``_send`` hands the kernel what it takes at once — in the steady
state the one ``send`` a ``sendall`` would make — and queues the rest,
and a peer past the cap of unsent bytes is not read until it drains, so
it stalls only itself.  A ``closing`` connection is closed once its
replies are out; a ``stopped`` one (its peer asked for shutdown)
releases ``wait()`` only then, so the shutdown ack is on the wire first.
"""

from __future__ import annotations

import contextlib
import logging
import selectors
import socket
import threading

__all__ = ["Conn", "ConnectionLoop"]

_log = logging.getLogger(__name__)

_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE

_GRACE = 2.0  # seconds stop() waits for the loop thread


class Conn:
    """One accepted connection: its socket and its unsent bytes."""

    __slots__ = ("sock", "out", "events", "closing", "stopped")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.out = bytearray()
        #: What the selector watches it for; 0 once the loop closed it.
        self.events = _READ
        #: Close once the replies are out: EOF, a refused frame, a goodbye.
        self.closing = False
        #: The peer asked for shutdown: wait() returns once this closes.
        self.stopped = False


class ConnectionLoop:
    """Listener, wake pair, selector and loop thread of one server.

    A server names its per-connection state in :attr:`conn_type` and
    defines ``_readable(conns)``, which reads and answers the connections
    one pass found readable.  *out_cap* is the most unsent bytes a
    connection may hold and still be read.
    """

    conn_type: type[Conn] = Conn

    def __init__(self, host: str, port: int, *, name: str, out_cap: int) -> None:
        self._out_cap = out_cap
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self.host, self.port = self._listener.getsockname()[:2]
        #: A byte on this pair wakes the loop for state another thread
        #: moved (a release, a pool reset, stop()).
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_w.setblocking(False)
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._listener, _READ, self._accept)
        self._sel.register(self._wake_r, _READ, lambda: self._wake_r.recv(4096))
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._closing = False
        self._done = threading.Event()
        self._error: Exception | None = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def _closed(self, conn: Conn) -> None:
        """The loop has closed *conn*."""

    def _timeout(self) -> float | None:
        """Seconds the next ``select`` may wait; ``None`` for ever."""
        return None

    def _run(self) -> None:
        try:
            while not self._closing:
                read = []
                for key, mask in self._sel.select(self._timeout()):
                    conn = key.data
                    if not isinstance(conn, Conn):
                        conn()  # the listener or the wake pair
                        continue
                    if mask & _WRITE:
                        self._push(conn, close=True)  # closed: skip the read
                    if mask & _READ and not conn.closing:
                        read.append(conn)
                self._readable(read)
                for conn in read:
                    self._push(conn, close=True)
        except Exception as exc:
            if not self._closing:  # stop() abandoned a wedged loop
                self._error = exc  # for wait(): a crash is not a shutdown
                raise
        finally:
            self._done.set()  # a stopped loop serves nothing: release wait()ers

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:  # the dialler gave up before we got to it
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sel.register(sock, _READ, self.conn_type(sock))

    def _wake(self) -> None:
        """Make the loop run a pass now; safe from any thread."""
        with contextlib.suppress(OSError):  # a full pair wakes it already
            self._wake_w.send(b"\0")

    def _send(self, conn: Conn, data: bytes) -> None:
        """Queue *data* for *conn*'s peer and send what the kernel takes."""
        conn.out += data
        self._push(conn)

    def _hangup(self, conn: Conn) -> None:
        """Close *conn* once its queued replies are out."""
        conn.closing = True
        self._push(conn)

    def _push(self, conn: Conn, close: bool = False) -> None:
        """Send what the kernel takes now; then watch *conn* for writing
        while bytes wait or it is closing, for reading while it is open
        and not too far behind.  With *close* (the loop's calls, never a
        protocol step's) a closing *conn* whose replies are out closes."""
        if not conn.events:
            return  # already closed
        if conn.out:
            try:
                del conn.out[: conn.sock.send(conn.out)]
            except BlockingIOError:
                pass
            except OSError:  # the peer is gone; nobody reads the rest
                conn.out.clear()
                conn.closing = True
        if close and conn.closing and not conn.out:
            self._sel.unregister(conn.sock)
            conn.events = 0
            with contextlib.suppress(OSError):
                # FIN first: should unread request bytes make close()
                # reset the connection, the peer has seen the replies end.
                conn.sock.shutdown(socket.SHUT_WR)
            conn.sock.close()
            self._closed(conn)
            if conn.stopped:  # the shutdown reply is out
                self._done.set()
            return
        events = _WRITE if conn.out or conn.closing else 0
        if not conn.closing and len(conn.out) <= self._out_cap:
            events |= _READ
        if events != conn.events:
            conn.events = events
            self._sel.modify(conn.sock, events, conn)

    def start(self):
        if self._thread.ident is None and not self._closing:
            self._thread.start()
        return self

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the server stops serving; re-raise a loop crash."""
        if self._done.wait(timeout) and self._error is not None:
            raise self._error
        return self._done.is_set()

    def stop(self) -> None:
        """Stop the loop and close every socket (idempotent).  A loop still
        busy after the grace is abandoned loudly; its sockets close anyway."""
        self._done.set()
        if self._closing:
            return
        self._closing = True
        if self._thread.ident is not None:
            self._wake()
            self._thread.join(_GRACE)
            if self._thread.is_alive():
                _log.warning("%s did not stop within %.1fs", self._thread.name, _GRACE)
        for key in list(self._sel.get_map().values()):
            with contextlib.suppress(OSError):  # the listener is not connected
                key.fileobj.shutdown(socket.SHUT_RDWR)
            key.fileobj.close()
        self._sel.close()
        self._wake_w.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
