"""Tests for the parameter-server wire protocol (framing layer)."""

import socket
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import protocol as wire


def _raw_header(msg_type: int, payload_len: int = 0) -> bytes:
    """Hand-craft a checksummed 20-byte header (payload sent apart)."""
    fields = struct.pack("!BBHIQ", wire.MAGIC, msg_type, 0, payload_len, 0)
    return fields + struct.pack("!I", zlib.crc32(fields))


@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestFrameRoundTrip:
    def test_header_and_payload_survive(self, pair):
        a, b = pair
        payload = b"\x00\x01\x02" * 100
        sent = wire.send_frame(
            a, wire.MSG_PUSH, ident=42, clock=12345678901234, payload=payload
        )
        frame = wire.recv_frame(b)
        assert frame.msg_type == wire.MSG_PUSH
        assert frame.ident == 42
        assert frame.clock == 12345678901234
        assert frame.payload == payload
        assert frame.nbytes == sent

    def test_empty_payload(self, pair):
        a, b = pair
        wire.send_frame(a, wire.MSG_BYE)
        frame = wire.recv_frame(b)
        assert frame.msg_type == wire.MSG_BYE
        assert frame.payload == b""

    def test_back_to_back_frames_keep_boundaries(self, pair):
        a, b = pair
        wire.send_frame(a, wire.MSG_FAULT, ident=1, clock=10)
        wire.send_frame(a, wire.MSG_FAULT, ident=2, clock=11)
        first = wire.recv_frame(b)
        second = wire.recv_frame(b)
        assert (first.ident, first.clock) == (1, 10)
        assert (second.ident, second.clock) == (2, 11)

    def test_clean_eof_returns_none(self, pair):
        a, b = pair
        a.close()
        assert wire.recv_frame(b) is None


class TestFrameValidation:
    def test_header_is_twenty_bytes(self):
        assert wire.HEADER_BYTES == 20
        assert len(wire.pack_frame(wire.MSG_BYE)) == wire.HEADER_BYTES

    def test_bad_magic_rejected(self, pair):
        a, b = pair
        a.sendall(b"\x00" * wire.HEADER_BYTES)
        with pytest.raises(wire.WireProtocolError, match="magic"):
            wire.recv_frame(b)

    def test_unknown_type_rejected(self, pair):
        a, b = pair
        a.sendall(_raw_header(99))
        with pytest.raises(wire.WireProtocolError, match="unknown message type"):
            wire.recv_frame(b)

    @pytest.mark.parametrize("msg_type", [3, 4], ids=["PULL", "SHARD"])
    def test_retired_single_shard_types_rejected(self, pair, msg_type):
        a, b = pair
        a.sendall(_raw_header(msg_type))
        with pytest.raises(wire.WireProtocolError, match="unknown message type"):
            wire.recv_frame(b)

    def test_oversized_payload_rejected(self, pair):
        a, b = pair
        a.sendall(_raw_header(wire.MSG_PUSH, wire.MAX_FRAME_BYTES + 1))
        with pytest.raises(wire.WireProtocolError, match="cap"):
            wire.recv_frame(b)

    def test_eof_mid_frame_is_an_error_not_a_partial_parse(self, pair):
        """The failure mode the serving path's readline cap mishandled:
        a truncated message must raise, never decode partially."""
        a, b = pair
        a.sendall(_raw_header(wire.MSG_PUSH, 100))
        a.sendall(b"x" * 10)
        a.close()
        with pytest.raises(wire.WireProtocolError, match="closed"):
            wire.recv_frame(b)

    def test_corrupt_payload_byte_rejected(self, pair):
        """The lossy-wire guarantee: a flipped payload bit fails the
        CRC and raises, so a corrupted push can never be applied."""
        a, b = pair
        raw = bytearray(
            wire.pack_frame(wire.MSG_PUSH, ident=3, clock=9, payload=b"\x01" * 40)
        )
        raw[wire.HEADER_BYTES + 17] ^= 0xFF
        a.sendall(bytes(raw))
        with pytest.raises(wire.WireProtocolError, match="checksum"):
            wire.recv_frame(b)

    def test_corrupt_header_clock_rejected(self, pair):
        a, b = pair
        raw = bytearray(wire.pack_frame(wire.MSG_EPOCH_DONE, clock=7))
        raw[9] ^= 0x40  # inside the clock field
        a.sendall(bytes(raw))
        with pytest.raises(wire.WireProtocolError, match="checksum"):
            wire.recv_frame(b)

    def test_corrupt_gathered_frame_rejected(self, pair):
        """The last byte of a multi-part payload is under the CRC too."""
        a, b = pair
        parts = [np.linspace(0, 1, 8).tobytes(), b"\x05" * 12]
        raw = bytearray(
            wire.pack_frame(wire.MSG_SHARDS, payload=b"".join(parts))
        )
        raw[-1] ^= 0x01
        a.sendall(bytes(raw))
        with pytest.raises(wire.WireProtocolError, match="checksum"):
            wire.recv_frame(b)


class TestTypedPayloads:
    def test_hello_ack_round_trip(self):
        raw = wire.pack_hello_ack(12345, 8, 16)
        assert wire.unpack_hello_ack(raw) == (12345, 8, 16, 0)

    def test_hello_ack_unbounded_staleness(self):
        raw = wire.pack_hello_ack(10, 1, None)
        assert wire.unpack_hello_ack(raw) == (10, 1, None, 0)

    def test_hello_ack_carries_resume_clock(self):
        """A mid-run re-registration resumes from the last work-item
        clock whose push the server actually applied."""
        raw = wire.pack_hello_ack(10, 2, 4, resume_clock=987654321)
        assert wire.unpack_hello_ack(raw) == (10, 2, 4, 987654321)

    def test_sparse_push_round_trip(self):
        idx = np.array([3, 7, 11], dtype=np.int64)
        val = np.array([0.5, -1.25, 3.0])
        out_idx, out_val = wire.unpack_push(wire.pack_push(idx, val))
        assert np.array_equal(out_idx, idx)
        assert np.array_equal(out_val, val)

    def test_dense_push_round_trip(self):
        val = np.linspace(-1, 1, 17)
        out_idx, out_val = wire.unpack_push(wire.pack_push(None, val))
        assert out_idx is None
        assert np.array_equal(out_val, val)

    def test_empty_sparse_push(self):
        out_idx, out_val = wire.unpack_push(
            wire.pack_push(np.empty(0, np.int64), np.empty(0))
        )
        assert out_idx.size == 0
        assert out_val.size == 0

    def test_malformed_push_rejected(self):
        with pytest.raises(wire.WireProtocolError):
            wire.unpack_push(b"")
        with pytest.raises(wire.WireProtocolError):
            wire.unpack_push(b"\x02junk")
        with pytest.raises(wire.WireProtocolError):
            wire.unpack_push(b"\x00" + struct.pack("!I", 3) + b"short")
        with pytest.raises(wire.WireProtocolError):
            wire.unpack_push(b"\x01" + b"x" * 9)  # not float64-aligned

    def test_empty_push_is_one_byte(self):
        """The dense empty-delta fix: a coef-free item ships a marker,
        not an n_params zero vector."""
        raw = wire.pack_push_empty()
        assert raw == b"\x02"
        idx, val = wire.unpack_push(raw)
        assert idx.size == 0 and val.size == 0


class TestVersionedPayloads:
    def test_version_vector_round_trip(self):
        versions = [0, 7, wire.VERSION_NEVER, 123456789]
        assert wire.unpack_versions(wire.pack_versions(versions)) == versions

    def test_version_vector_validates_length(self):
        raw = wire.pack_versions([1, 2, 3])
        with pytest.raises(wire.WireProtocolError, match="does not match"):
            wire.unpack_versions(raw + b"x")
        with pytest.raises(wire.WireProtocolError, match="truncated"):
            wire.unpack_versions(b"\x00")

    def test_never_sentinel_cannot_collide(self):
        """Server versions start at 0 and only increment, so the fresh
        worker sentinel never matches and first pulls ship payloads."""
        assert wire.VERSION_NEVER == 2**64 - 1

    def test_shards_round_trip_mixed_cached_and_fresh(self):
        fresh_a = np.linspace(0, 1, 6).tobytes()
        fresh_b = np.linspace(-2, 2, 5).tobytes()
        entries = [(4, fresh_a), (9, None), (2, fresh_b)]
        payload = wire.pack_shard_entries(entries)
        sizes = [len(fresh_a), 8 * 7, len(fresh_b)]  # cached size unused
        out = wire.unpack_shards(payload, sizes)
        assert out == entries

    def test_cached_shard_costs_nine_bytes(self):
        only_header = wire.pack_shard_entries([(5, None)])
        full = wire.pack_shard_entries([(5, b"\x00" * 800)])
        assert len(only_header) == 2 + 9  # count head + cached entry
        assert len(full) == 2 + 9 + 800

    def test_shards_validation(self):
        fresh = np.zeros(4).tobytes()
        payload = wire.pack_shard_entries([(1, fresh)])
        with pytest.raises(wire.WireProtocolError, match="against"):
            wire.unpack_shards(payload, [len(fresh), len(fresh)])
        with pytest.raises(wire.WireProtocolError, match="truncated"):
            wire.unpack_shards(payload, [len(fresh) + 8])
        with pytest.raises(wire.WireProtocolError, match="trailing"):
            wire.unpack_shards(payload + b"x", [len(fresh)])
        bad_flag = payload[:2] + b"\x07" + payload[3:]
        with pytest.raises(wire.WireProtocolError, match="cache flag"):
            wire.unpack_shards(bad_flag, [len(fresh)])
        with pytest.raises(wire.WireProtocolError, match="inside a shard header"):
            wire.unpack_shards(payload[:4], [len(fresh)])

    def test_push_pull_round_trip(self):
        idx = np.array([1, 5], dtype=np.int64)
        val = np.array([0.25, -0.5])
        push = wire.pack_push(idx, val)
        seen = [3, wire.VERSION_NEVER, 0]
        out_push, out_seen = wire.unpack_push_pull(
            wire.pack_push_pull(push, seen)
        )
        assert out_push == push
        assert out_seen == seen
        out_idx, out_val = wire.unpack_push(out_push)
        assert np.array_equal(out_idx, idx)
        assert np.array_equal(out_val, val)

    def test_push_pull_with_empty_push(self):
        raw = wire.pack_push_pull(wire.pack_push_empty(), [1, 2])
        push, seen = wire.unpack_push_pull(raw)
        assert push == b"\x02"
        assert seen == [1, 2]

    def test_push_pull_validation(self):
        with pytest.raises(wire.WireProtocolError, match="truncated"):
            wire.unpack_push_pull(b"\x00")
        raw = wire.pack_push_pull(b"\x02", [1])
        with pytest.raises(wire.WireProtocolError, match="truncated"):
            wire.unpack_push_pull(raw[:5])  # push length says 1, body empty


class TestOneBufferReply:
    """A SHARDS reply is one payload buffer behind one header: what
    the ``sendmsg`` gather path used to assemble on the wire."""

    def test_parts_arrive_as_one_frame(self, pair):
        a, b = pair
        entries = [(1, np.arange(4.0).tobytes()), (2, None), (3, b"\x11" * 16)]
        sent = wire.send_frame(
            a, wire.MSG_SHARDS, clock=77, payload=wire.pack_shard_entries(entries)
        )
        frame = wire.recv_frame(b)
        assert frame.msg_type == wire.MSG_SHARDS
        assert frame.clock == 77
        assert frame.nbytes == sent
        assert wire.unpack_shards(frame.payload, [32, 0, 16]) == entries


class _Dribble:
    """A socket stand-in over a fixed byte stream that hands out at
    most ``chunks[i]`` bytes on its i-th read (cycled), then EOF."""

    def __init__(self, data: bytes, chunks=(1 << 30,)):
        self._data = data
        self._pos = 0
        self._chunks = list(chunks)
        self._calls = 0

    def _take(self, limit: int) -> bytes:
        cap = self._chunks[self._calls % len(self._chunks)]
        self._calls += 1
        out = self._data[self._pos : self._pos + min(limit, cap)]
        self._pos += len(out)
        return out

    def recv(self, n: int) -> bytes:
        return self._take(n)

    def recv_into(self, view) -> int:
        out = self._take(len(view))
        view[: len(out)] = out
        return len(out)


def _fields(frame) -> tuple:
    return (frame.msg_type, frame.ident, frame.clock, frame.payload, frame.nbytes)


#: The reader's two entry points: a blocking peer's ``read()``, and the
#: event loop's drive — after each ``feed()``, every whole ``pending()``.
ENTRIES = ("read", "feed")


def _frames_via(reader, entry: str):
    if entry == "read":
        while (frame := reader.read()) is not None:
            yield frame
        return
    while True:
        while (frame := reader.pending()) is not None:
            yield frame
        if not reader.feed():
            return


def _outcome(frames) -> tuple[list[tuple], str | None]:
    """Frames decoded before the first error, and that error (an EOF
    inside a frame reads as one kind, however many bytes were in)."""
    decoded = []
    try:
        for frame in frames:
            decoded.append(_fields(frame))
    except wire.WireProtocolError as err:
        return decoded, "eof" if "closed" in str(err) else str(err)
    return decoded, None


def _recv_frames(sock):
    while (frame := wire.recv_frame(sock)) is not None:
        yield frame


_frames = st.lists(
    st.tuples(
        st.sampled_from([wire.MSG_PUSH, wire.MSG_SHARDS, wire.MSG_FAULT, wire.MSG_BYE]),
        st.integers(0, 2**16 - 1),
        st.integers(0, 2**64 - 1),
        st.binary(max_size=200),
    ),
    min_size=1,
    max_size=6,
)
_chunks = st.lists(st.integers(1, 64), min_size=1, max_size=8)


def _stream(frames) -> bytes:
    return b"".join(
        wire.pack_frame(t, ident=i, clock=c, payload=p) for t, i, c, p in frames
    )


class TestFrameReader:
    """The buffered reader is ``recv_frame`` with fewer syscalls —
    same frames, same rejections, whatever the kernel's chunking, and
    through either entry point."""

    @settings(max_examples=150, deadline=None)
    @given(frames=_frames, chunks=_chunks, size=st.integers(20, 96))
    def test_any_chunking_yields_recv_frame_frames(self, frames, chunks, size):
        """1-byte dribble, several frames per read, frames larger than
        the buffer: all decode to exactly what ``recv_frame`` yields."""
        stream = _stream(frames)
        expected = _outcome(_recv_frames(_Dribble(stream)))
        assert [f[:4] for f in expected[0]] == frames and expected[1] is None
        for entry in ENTRIES:
            reader = wire.FrameReader(_Dribble(stream, chunks), size=size)
            assert _outcome(_frames_via(reader, entry)) == expected, entry

    def test_frames_larger_than_the_default_buffer(self):
        big = bytes(range(256)) * 1200  # 300 KB, default buffer is 64 KiB
        frames = [(wire.MSG_PUSH, 1, 1, big), (wire.MSG_BYE, 0, 0, b""),
                  (wire.MSG_SHARDS, 2, 2, big[:70_000])]
        for entry in ENTRIES:
            reader = wire.FrameReader(_Dribble(_stream(frames), [50_000]))
            decoded = [_fields(f)[:4] for f in _frames_via(reader, entry)]
            assert decoded == frames, entry

    def test_feed_without_pending_grows_the_buffer(self):
        """A peer writing past a reply it has not read fills the buffer
        with whole frames; ``feed()`` grows it, never reads 0 bytes."""
        frames = [(wire.MSG_FAULT, k, k, b"x" * 10) for k in range(4)]
        reader = wire.FrameReader(_Dribble(_stream(frames), [64]), size=40)
        for _ in range(3):  # 40 bytes a call: the 120-byte stream, unparsed
            assert reader.feed()
        assert [_fields(f)[:4] for f in _frames_via(reader, "feed")] == frames

    @settings(max_examples=150, deadline=None)
    @given(
        frames=_frames,
        chunks=_chunks,
        where=st.floats(0, 1, exclude_max=True),
        mask=st.integers(1, 255),
    )
    def test_any_flipped_byte_is_a_wire_error(self, frames, chunks, where, mask):
        """Frames ahead of the damage decode; at the damage the reader
        raises the WireProtocolError ``recv_frame`` raises — never
        another exception, never a frame that was not sent."""
        stream = bytearray(_stream(frames))
        stream[int(where * len(stream))] ^= mask
        expected = _outcome(_recv_frames(_Dribble(bytes(stream))))
        decoded, error = expected
        assert error is not None
        assert [f[:4] for f in decoded] == frames[: len(decoded)]
        assert len(decoded) < len(frames)
        for entry in ENTRIES:
            reader = wire.FrameReader(_Dribble(bytes(stream), chunks), size=64)
            assert _outcome(_frames_via(reader, entry)) == expected, entry

    def test_oversized_header_rejected_before_any_allocation(self):
        head = _raw_header(wire.MSG_PUSH, wire.MAX_FRAME_BYTES + 1)
        for entry in ENTRIES:
            reader = wire.FrameReader(_Dribble(head + b"x" * 64))
            tracemalloc.start()
            try:
                with pytest.raises(wire.WireProtocolError, match="cap"):
                    next(_frames_via(reader, entry))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, entry

    def test_eof_inside_a_frame_raises(self):
        raw = wire.pack_frame(wire.MSG_PUSH, payload=b"\x01" * 40)
        for cut in (5, wire.HEADER_BYTES, wire.HEADER_BYTES + 7):
            for entry in ENTRIES:
                reader = wire.FrameReader(_Dribble(raw[:cut]))
                with pytest.raises(wire.WireProtocolError, match="closed"):
                    next(_frames_via(reader, entry))

    def test_reads_a_real_socket(self, pair):
        a, b = pair
        reader = wire.FrameReader(b)
        wire.send_frame(a, wire.MSG_FAULT, ident=1, clock=10)
        wire.send_frame(a, wire.MSG_PUSH, ident=2, clock=11, payload=b"\x02")
        assert reader.read().clock == 10
        assert reader.read().payload == b"\x02"
        a.close()
        assert reader.read() is None
