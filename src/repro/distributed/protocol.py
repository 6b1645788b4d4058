"""Length-prefixed binary wire protocol of the parameter-server tier.

Unlike the serving path's newline-delimited JSON (one human-readable
line per request, see :mod:`repro.serving.service`), the training tier
moves raw float64 shard payloads — text framing would double the bytes
and dominate the hot loop with parsing.  Every message is one frame::

    +-------+------+--------+-------------+--------+-------+===========+
    | magic | type | ident  | payload_len | clock  |  crc  |  payload  |
    |  u8   |  u8  |  u16   |     u32     |  u64   |  u32  |   bytes   |
    +-------+------+--------+-------------+--------+-------+===========+

(big-endian, 20-byte header).  ``ident`` is a small type-specific slot
— the worker id for HELLO, the row count for PUSH — and ``clock``
carries the message's logical time: the worker's completed-work-item
counter on PULL_ALL/PUSH, the epoch on EPOCH_DONE/EPOCH_ACK.  ``crc``
is the CRC32 of
the 16 header bytes before it plus the entire payload: a flipped bit
anywhere in the frame is *detected and rejected* as a structured
:class:`WireProtocolError`, never decoded as garbage floats — a
corrupted push can therefore never be silently applied; the receiver
drops the connection and the sender heals by reconnect-and-replay.
Framing is explicit and checked: a bad magic byte, an oversized
payload, a checksum mismatch or an EOF inside a frame raises
:class:`WireProtocolError` — the failure mode the serving protocol's
``readline`` cap handled implicitly (and, before this PR, incorrectly).

Message types
-------------
``HELLO`` (worker -> server)
    Register ``ident`` as this connection's worker id.  An optional
    1-byte payload carries flags — bit 0 set means this is a *mid-run
    reconnect* (a live worker healing a dropped wire, counted under
    ``ps.reconnects_midrun``), empty means a fresh registration.
    Answered by ``HELLO_ACK`` whose payload is ``(n_params u64,
    n_shards u16, max_staleness i32, resume_clock u64)`` (-1 =
    unbounded); ``resume_clock`` is the last work-item clock the server
    holds for this worker id (0 for a fresh registration) — a
    reconnecting worker rewinds to it and replays from there, so the
    in-flight item whose push never landed is recomputed, never lost.
``PULL_ALL`` (worker -> server)
    Request *every* shard in a single round-trip.  The payload is the
    worker's last-seen version vector (:func:`pack_versions`); the
    server answers with one ``SHARDS`` frame in which any shard whose
    version still matches is a tiny cached header instead of its
    payload.  ``clock`` is the worker's completed-item count, which
    the bounded-staleness gate compares against the slowest live
    worker before answering.
``SHARDS`` (server -> worker)
    The multi-shard reply to ``PULL_ALL`` or ``PUSH_PULL``, one
    consistent cut of the model: per shard a ``(cached?, version)``
    header, then the float64 payload only when the worker's cached
    copy is out of date (:func:`pack_shard_entries` / :func:`unpack_shards`).
``PUSH`` (worker -> server, no ack)
    Apply one work item's delta; ``ident`` is the item's row count,
    ``clock`` the worker's item counter *after* the item.  The payload
    is sparse (``0x00 | n u32 | indices i64[n] | values f64[n]``,
    global coordinates), dense (``0x01 | values f64[d]``), or the
    1-byte empty marker ``0x02`` (no row produced a delta — the clock
    still advances, no shard version moves).
``PUSH_PULL`` (worker -> server)
    The fused steady-state frame: the push of work item *k* and the
    pull for item *k+1* share one round-trip.  Payload is
    ``push_len u32 | push payload | version vector``; the server
    applies the push first (preserving the ordered-stream guarantee
    that keeps one node at ``max_staleness=0`` bit-exact against
    serial SGD), then answers with ``SHARDS``.
``EPOCH_DONE`` (worker -> server)
    The worker finished epoch ``clock``; the reply (``EPOCH_ACK``,
    sent only once the parent releases the next epoch) doubles as the
    epoch barrier.  ``ident`` of the ack is 1 when the run is over.
``FAULT`` (worker -> server, no ack)
    A planned fault is about to fire (``ident``: 1 kill, 2 stall) —
    counted server-side before the worker dies or wedges.
``BYE`` (worker -> server, no ack)
    Clean disconnect; suppresses the dead-worker reap accounting.

Control plane (parent -> server)
--------------------------------
The shard server runs in its own *process*, and the training parent
speaks to it over the same framed wire on a dedicated connection — no
HELLO, no registration, and none of these frames participate in the
``ps.bytes_*`` accounting (they are supervision, not training traffic):

``CTRL_STATUS``
    Liveness probe + state poll; answered with a JSON payload carrying
    the worker registry (clocks, epochs done), counters, and the
    released epoch.  A probe that times out is the parent's signal to
    declare the server dead and fail over.  With ``clock > 0`` it is
    the parent's epoch wait: the server answers once every expected
    worker has finished epoch ``clock``, a connection closes, or
    ``ident`` milliseconds pass, and the payload's ``epoch_reached``
    says which.
``CTRL_RELEASE``
    ``release_epoch(clock, stop=bool(ident))``; acked.
``CTRL_SNAPSHOT``
    Answered with the raw float64 model (a consistent copy: the server
    applies every push in one step).
``CTRL_WRITE``
    Overwrite the model with the raw float64 payload (NaN scrub);
    acked.
``CTRL_RESET``
    ``reset_pool(expected_workers=ident)``; acked.
``CTRL_CHECKPOINT``
    ``checkpoint_now(boundary=bool(ident))``; the ack's payload is the
    written file's path (empty when checkpointing is not configured).
``CTRL_SHUTDOWN``
    Ack, then close the server and exit the process cleanly.
"""

from __future__ import annotations

import socket
import struct
import zlib

import numpy as np

from ..utils.errors import DataFormatError

__all__ = [
    "MAGIC",
    "MAX_FRAME_BYTES",
    "VERSION_NEVER",
    "HEADER_BYTES",
    "HELLO_MIDRUN",
    "MSG_HELLO",
    "MSG_HELLO_ACK",
    "MSG_PUSH",
    "MSG_EPOCH_DONE",
    "MSG_EPOCH_ACK",
    "MSG_FAULT",
    "MSG_BYE",
    "MSG_PULL_ALL",
    "MSG_SHARDS",
    "MSG_PUSH_PULL",
    "MSG_CTRL_STATUS",
    "MSG_CTRL_RELEASE",
    "MSG_CTRL_SNAPSHOT",
    "MSG_CTRL_WRITE",
    "MSG_CTRL_RESET",
    "MSG_CTRL_CHECKPOINT",
    "MSG_CTRL_SHUTDOWN",
    "CTRL_TYPES",
    "WireProtocolError",
    "Frame",
    "pack_frame",
    "send_frame",
    "recv_frame",
    "FrameReader",
    "pack_hello_ack",
    "unpack_hello_ack",
    "pack_push",
    "pack_push_empty",
    "unpack_push",
    "pack_versions",
    "unpack_versions",
    "pack_shard_entries",
    "unpack_shards",
    "pack_push_pull",
    "unpack_push_pull",
]

#: First byte of every frame; a connection speaking anything else
#: (an HTTP probe, a JSON client on the wrong port) fails fast.
MAGIC = 0xB5

#: Guard on one frame's payload — far above any real shard (a 2M-param
#: model is 16 MB), small enough to reject unframed garbage promptly.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: A worker that has never seen a shard sends this version; no server
#: version can ever equal it (counters start at 0 and only increment),
#: so the first pull after HELLO — or after a recovery respawn — is
#: always answered with the full payload.
VERSION_NEVER = 0xFFFFFFFFFFFFFFFF

_HEAD_FIELDS = struct.Struct("!BBHIQ")  # magic, type, ident, payload_len, clock
_HEAD_CRC = struct.Struct("!I")  # CRC32 over the fields above + payload
_HELLO_ACK = struct.Struct("!QHiQ")  # n_params, n_shards, max_staleness, resume
_VERSIONS_HEAD = struct.Struct("!H")  # shard count, then u64 versions
_SHARD_ENTRY = struct.Struct("!BQ")  # cached flag, version
_PUSH_LEN = struct.Struct("!I")  # sparse entry count / PUSH_PULL push bytes

#: Total frame-header bytes on the wire (field prefix + CRC32).
HEADER_BYTES = _HEAD_FIELDS.size + _HEAD_CRC.size

#: HELLO payload flag bit: this registration is a live worker healing
#: its own dropped connection mid-run (counted as a mid-run reconnect;
#: the HELLO_ACK answers with the worker's resume clock).
HELLO_MIDRUN = 0x01

MSG_HELLO = 1
MSG_HELLO_ACK = 2
# 3 and 4 were the single-shard PULL/SHARD pair; retired, never reused.
MSG_PUSH = 5
MSG_EPOCH_DONE = 6
MSG_EPOCH_ACK = 7
MSG_FAULT = 8
MSG_BYE = 9
MSG_PULL_ALL = 10
MSG_SHARDS = 11
MSG_PUSH_PULL = 12
MSG_CTRL_STATUS = 13
MSG_CTRL_RELEASE = 14
MSG_CTRL_SNAPSHOT = 15
MSG_CTRL_WRITE = 16
MSG_CTRL_RESET = 17
MSG_CTRL_CHECKPOINT = 18
MSG_CTRL_SHUTDOWN = 19

#: The parent-supervisor control plane (needs no HELLO registration and
#: stays out of the ``ps.bytes_*`` training-traffic accounting).
CTRL_TYPES = frozenset(range(MSG_CTRL_STATUS, MSG_CTRL_SHUTDOWN + 1))

_KNOWN_TYPES = frozenset(range(MSG_HELLO, MSG_CTRL_SHUTDOWN + 1)) - {3, 4}


class WireProtocolError(DataFormatError):
    """A malformed frame on the parameter-server wire."""


class Frame:
    """One decoded message (header fields + raw payload)."""

    __slots__ = ("msg_type", "ident", "clock", "payload", "nbytes")

    def __init__(
        self, msg_type: int, ident: int, clock: int, payload: bytes, nbytes: int
    ) -> None:
        self.msg_type = msg_type
        self.ident = ident
        self.clock = clock
        self.payload = payload
        #: Total wire bytes of the frame (header + payload), for the
        #: ``ps.bytes_*`` accounting.
        self.nbytes = nbytes


def pack_frame(
    msg_type: int, *, ident: int = 0, clock: int = 0, payload: bytes = b""
) -> bytes:
    """Encode one complete frame (checksummed header + payload)."""
    fields = _HEAD_FIELDS.pack(MAGIC, msg_type, ident, len(payload), clock)
    crc = zlib.crc32(payload, zlib.crc32(fields))
    return fields + _HEAD_CRC.pack(crc) + payload


def send_frame(
    sock: socket.socket,
    msg_type: int,
    *,
    ident: int = 0,
    clock: int = 0,
    payload: bytes = b"",
) -> int:
    """Write one frame; returns the bytes put on the wire."""
    buf = pack_frame(msg_type, ident=ident, clock=clock, payload=payload)
    sock.sendall(buf)
    return len(buf)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly *n* bytes; ``None`` on EOF before the first byte."""
    chunk = sock.recv(min(n, 1 << 20))
    if len(chunk) == n:
        return chunk  # the common case: no list, no join
    chunks: list[bytes] = []
    got = 0
    while chunk:
        chunks.append(chunk)
        got += len(chunk)
        if got == n:
            return b"".join(chunks)
        chunk = sock.recv(min(n - got, 1 << 20))
    if got == 0:
        return None
    raise WireProtocolError(f"connection closed mid-frame ({got} of {n} bytes)")


def _parse_header(buf, offset: int = 0) -> tuple[int, int, int, int, int]:
    """Validate the frame header at *offset*; returns ``(type, ident,
    length, clock, crc)``.

    Magic, type, size cap — all from the plain header fields, cheap
    rejects for peers not speaking the protocol at all, and all before
    a single payload byte is read or buffered.
    """
    magic, msg_type, ident, length, clock = _HEAD_FIELDS.unpack_from(buf, offset)
    if magic != MAGIC:
        raise WireProtocolError(
            f"bad magic byte 0x{magic:02x} (expected 0x{MAGIC:02x}); "
            "peer is not speaking the parameter-server protocol"
        )
    if msg_type not in _KNOWN_TYPES:
        raise WireProtocolError(f"unknown message type {msg_type}")
    if length > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"frame payload of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    (crc,) = _HEAD_CRC.unpack_from(buf, offset + _HEAD_FIELDS.size)
    return msg_type, ident, length, clock, crc


def _check_crc(fields, payload, crc: int, msg_type: int) -> None:
    want = zlib.crc32(payload, zlib.crc32(fields))
    if crc != want:
        raise WireProtocolError(
            f"frame checksum mismatch (type {msg_type}, {len(payload)}-byte "
            f"payload): got 0x{crc:08x}, computed 0x{want:08x} — frame "
            "rejected, not applied"
        )


def recv_frame(sock: socket.socket) -> Frame | None:
    """Read one frame; ``None`` on a clean EOF at a frame boundary.

    Validation order: magic, type, size cap (:func:`_parse_header`),
    then the payload read, then the CRC over header fields + payload.
    Only a checksum-clean frame is ever handed to a decoder, so a
    corrupted push is *rejected*, never applied as garbage floats.

    Reads exactly one frame's bytes (two ``recv`` calls), so it is safe
    on a socket nothing else buffers; a connection's steady reader uses
    :class:`FrameReader`, which applies the same checks to a buffer.
    """
    head = _recv_exact(sock, HEADER_BYTES)
    if head is None:
        return None
    msg_type, ident, length, clock, crc = _parse_header(head)
    payload = _recv_exact(sock, length) if length else b""
    if payload is None:
        raise WireProtocolError("connection closed before the frame payload")
    _check_crc(head[: _HEAD_FIELDS.size], payload, crc, msg_type)
    return Frame(msg_type, ident, clock, payload, HEADER_BYTES + length)


class FrameReader:
    """Buffered frame decoder for one connection: one syscall per frame.

    :meth:`feed` does one ``recv_into`` of whatever the kernel holds —
    a whole frame, several, or a fragment — and :meth:`pending` parses
    the next whole frame out of the buffer with the checks and order of
    :func:`recv_frame` (``None`` until one has arrived).  An event loop
    feeds on readable and drains :meth:`pending`; a blocking peer calls
    :meth:`read`, which alternates the two.  A reader belongs to exactly
    one socket: a redial gets a fresh reader, never the old tail.
    """

    __slots__ = ("_sock", "_buf", "_view", "_start", "_end")

    def __init__(self, sock, size: int = 1 << 16) -> None:
        self._sock = sock
        self._buf = bytearray(size)
        self._view = memoryview(self._buf)
        self._start = 0  # first unparsed byte
        self._end = 0  # one past the last received byte

    def _make_room(self, need: int) -> None:
        """Leave space for *need* unparsed bytes: slide the tail to the
        front; grow only past the buffer's size (a frame's length has
        passed the MAX_FRAME_BYTES check by then)."""
        if self._start + need <= len(self._buf):
            return
        have = self._end - self._start
        tail = bytes(self._view[self._start : self._end])
        if need > len(self._buf):
            self._view.release()
            self._buf = bytearray(need)
            self._view = memoryview(self._buf)
        self._view[:have] = tail
        self._start, self._end = 0, have

    def feed(self) -> bool:
        """Receive once into the buffer; ``False`` on EOF at a frame
        boundary, :class:`WireProtocolError` on EOF inside a frame."""
        if self._end == len(self._buf):
            # Whole frames fill the buffer unparsed (a peer writing
            # past a reply it has not read): grow, never read 0 bytes.
            self._make_room(2 * (self._end - self._start))
        n = self._sock.recv_into(self._view[self._end :])
        if n:
            self._end += n
            return True
        have = self._end - self._start
        if have:
            raise WireProtocolError(
                f"connection closed mid-frame ({have} bytes unparsed)"
            )
        return False

    def pending(self) -> Frame | None:
        """Next whole buffered frame; ``None`` until one has arrived."""
        start = self._start
        have = self._end - start
        if have < HEADER_BYTES:
            self._make_room(HEADER_BYTES)
            return None
        msg_type, ident, length, clock, crc = _parse_header(self._buf, start)
        nbytes = HEADER_BYTES + length
        if have < nbytes:
            self._make_room(nbytes)
            return None
        end = start + nbytes
        payload = bytes(self._view[start + HEADER_BYTES : end])
        _check_crc(
            self._view[start : start + _HEAD_FIELDS.size], payload, crc, msg_type
        )
        if end == self._end:
            self._start = self._end = 0
        else:
            self._start = end
        return Frame(msg_type, ident, clock, payload, nbytes)

    def read(self) -> Frame | None:
        """Next frame, blocking; ``None`` on a clean EOF at a frame boundary."""
        while True:
            frame = self.pending()
            if frame is not None or not self.feed():
                return frame


# -- typed payload helpers --------------------------------------------------


def pack_hello_ack(
    n_params: int,
    n_shards: int,
    max_staleness: int | None,
    resume_clock: int = 0,
) -> bytes:
    """Encode the registration ack.

    *resume_clock* is the last work-item clock the server holds for
    the registering worker id — 0 for a fresh registration, the
    worker's rolled-back position after a mid-run reconnect (the
    worker rewinds its epoch pass to it and replays forward).
    """
    return _HELLO_ACK.pack(
        n_params,
        n_shards,
        -1 if max_staleness is None else max_staleness,
        resume_clock,
    )


def unpack_hello_ack(payload: bytes) -> tuple[int, int, int | None, int]:
    if len(payload) != _HELLO_ACK.size:
        raise WireProtocolError(
            f"HELLO_ACK payload of {len(payload)} bytes "
            f"(expected {_HELLO_ACK.size})"
        )
    n_params, n_shards, staleness, resume = _HELLO_ACK.unpack(payload)
    return n_params, n_shards, None if staleness < 0 else staleness, resume


def pack_push(
    indices: np.ndarray | None, values: np.ndarray
) -> bytes:
    """Encode one delta: sparse ``(indices, values)`` or dense ``values``."""
    if indices is None:
        return b"\x01" + np.ascontiguousarray(values, dtype=np.float64).tobytes()
    idx = np.ascontiguousarray(indices, dtype=np.int64)
    val = np.ascontiguousarray(values, dtype=np.float64)
    return b"".join(
        (b"\x00", _PUSH_LEN.pack(idx.shape[0]), idx.tobytes(), val.tobytes())
    )


def pack_push_empty() -> bytes:
    """Encode a delta-free work item (every row's ``coef`` was 0).

    One marker byte instead of a full ``n_params`` zero vector: the
    push still travels — the worker's clock must advance and the row
    accounting stay exact — but no shard version moves and no payload
    bytes are wasted.
    """
    return b"\x02"


def unpack_push(payload: bytes) -> tuple[np.ndarray | None, np.ndarray]:
    """Decode a PUSH payload back into ``(indices | None, values)``.

    An empty-delta marker decodes as a zero-length sparse pair, which
    the server's apply loop treats as a no-op.
    """
    if not payload:
        raise WireProtocolError("empty PUSH payload")
    flag = payload[0]
    size = len(payload) - 1
    if flag == 0x02:
        if size:
            raise WireProtocolError(
                f"empty-delta PUSH carries {size} payload byte(s)"
            )
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    if flag == 0x01:
        if size % 8:
            raise WireProtocolError("dense PUSH payload is not float64-aligned")
        return None, np.frombuffer(payload[1:], dtype=np.float64)
    if flag != 0x00:
        raise WireProtocolError(f"unknown PUSH flag 0x{flag:02x}")
    if size < 4:
        raise WireProtocolError("truncated sparse PUSH payload")
    (n,) = _PUSH_LEN.unpack_from(payload, 1)
    need = 4 + n * 8 + n * 8
    if size != need:
        raise WireProtocolError(
            f"sparse PUSH payload of {size} bytes does not match "
            f"its {n}-entry header (expected {need})"
        )
    # Sliced copies, not offset views: the arrays stay 8-byte aligned.
    split = 5 + n * 8
    idx = np.frombuffer(payload[5:split], dtype=np.int64)
    val = np.frombuffer(payload[split:], dtype=np.float64)
    return idx, val


# -- versioned multi-shard payloads -----------------------------------------


def pack_versions(versions) -> bytes:
    """Encode a per-shard version vector (u16 count + u64 versions)."""
    versions = list(versions)
    return _VERSIONS_HEAD.pack(len(versions)) + struct.pack(
        f"!{len(versions)}Q", *versions
    )


def unpack_versions(payload: bytes) -> list[int]:
    """Decode a version vector; validates the count against the bytes."""
    if len(payload) < _VERSIONS_HEAD.size:
        raise WireProtocolError("truncated version vector")
    (n,) = _VERSIONS_HEAD.unpack_from(payload)
    need = _VERSIONS_HEAD.size + 8 * n
    if len(payload) != need:
        raise WireProtocolError(
            f"version vector of {len(payload)} bytes does not match its "
            f"{n}-entry header (expected {need})"
        )
    return list(struct.unpack_from(f"!{n}Q", payload, _VERSIONS_HEAD.size))


def pack_shard_entries(entries: list[tuple[int, bytes | None]]) -> bytes:
    """Encode a SHARDS reply payload.

    *entries* holds one ``(version, payload | None)`` per shard, in
    shard order; ``None`` means the worker's cached copy at that
    version is still current and only the 9-byte header ships.  Fresh
    payloads carry no length field — both ends know every shard's byte
    size from the HELLO_ACK shard layout.
    """
    parts: list[bytes] = [_VERSIONS_HEAD.pack(len(entries))]
    for version, payload in entries:
        if payload is None:
            parts.append(_SHARD_ENTRY.pack(1, version))
        else:
            parts.append(_SHARD_ENTRY.pack(0, version))
            parts.append(payload)
    return b"".join(parts)


def unpack_shards(
    payload: bytes, sizes: list[int]
) -> list[tuple[int, bytes | None]]:
    """Decode a SHARDS payload into ``(version, payload | None)`` entries.

    *sizes* is the expected byte length of each shard's fresh payload
    (``(hi - lo) * 8`` from the shard layout); the wire carries no
    per-shard length, so the caller's layout is the decode schema —
    a count or size mismatch raises :class:`WireProtocolError`.
    """
    if len(payload) < _VERSIONS_HEAD.size:
        raise WireProtocolError("truncated SHARDS payload")
    (n,) = _VERSIONS_HEAD.unpack_from(payload)
    if n != len(sizes):
        raise WireProtocolError(
            f"SHARDS reply with {n} entries against {len(sizes)} shard(s)"
        )
    entries: list[tuple[int, bytes | None]] = []
    off = _VERSIONS_HEAD.size
    for size in sizes:
        if len(payload) < off + _SHARD_ENTRY.size:
            raise WireProtocolError("SHARDS payload ends inside a shard header")
        cached, version = _SHARD_ENTRY.unpack_from(payload, off)
        off += _SHARD_ENTRY.size
        if cached == 1:
            entries.append((version, None))
            continue
        if cached != 0:
            raise WireProtocolError(f"unknown SHARDS cache flag 0x{cached:02x}")
        if len(payload) < off + size:
            raise WireProtocolError(
                f"SHARDS shard payload truncated ({len(payload) - off} of "
                f"{size} bytes)"
            )
        entries.append((version, payload[off : off + size]))
        off += size
    if off != len(payload):
        raise WireProtocolError(
            f"{len(payload) - off} trailing byte(s) after the last shard"
        )
    return entries


def pack_push_pull(push_payload: bytes, versions) -> bytes:
    """Encode the fused frame: item *k*'s push + item *k+1*'s pull."""
    return _PUSH_LEN.pack(len(push_payload)) + push_payload + pack_versions(versions)


def unpack_push_pull(payload: bytes) -> tuple[bytes, list[int]]:
    """Decode a PUSH_PULL payload into ``(push payload, version vector)``."""
    if len(payload) < _PUSH_LEN.size:
        raise WireProtocolError("truncated PUSH_PULL payload")
    (push_len,) = _PUSH_LEN.unpack_from(payload)
    body = payload[_PUSH_LEN.size :]
    if len(body) < push_len:
        raise WireProtocolError(
            f"PUSH_PULL push payload truncated ({len(body)} of {push_len} bytes)"
        )
    return body[:push_len], unpack_versions(body[push_len:])
