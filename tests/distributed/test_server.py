"""Direct-socket tests of the shard server's hot path and teardown:
the routed sparse apply, the gate's conditional wake-up, prompt close."""

import socket
import statistics
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import ShardServer, shard_bounds
from repro.distributed import protocol as wire
from repro.distributed import server as server_module
from repro.telemetry import keys


def _dial(server: ShardServer, worker_id: int = 0) -> socket.socket:
    sock = socket.create_connection((server.host, server.port), timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    wire.send_frame(sock, wire.MSG_HELLO, ident=worker_id)
    assert wire.recv_frame(sock).msg_type == wire.MSG_HELLO_ACK
    return sock


def _pull_versions(sock: socket.socket, server: ShardServer) -> list[int]:
    """A cold PULL_ALL: every shard's current version.  The reply also
    proves every earlier frame on this stream has been applied."""
    n = server.n_shards
    wire.send_frame(
        sock, wire.MSG_PULL_ALL, payload=wire.pack_versions([wire.VERSION_NEVER] * n)
    )
    sizes = [(hi - lo) * 8 for lo, hi in shard_bounds(server.n_params, n)]
    entries = wire.unpack_shards(wire.recv_frame(sock).payload, sizes)
    return [version for version, _ in entries]


def _settled(server: ShardServer, key: str, value: float) -> None:
    """Counters trail the reply by a few instructions; wait them out."""
    deadline = time.monotonic() + 2.0
    while server.counters.get(key, 0.0) != value and time.monotonic() < deadline:
        time.sleep(0.005)
    assert server.counters.get(key, 0.0) == value


def _reference_apply(params, versions, bounds, indices, values) -> None:
    """The per-shard boolean-mask loop the routed apply replaced."""
    for shard, (lo, hi) in enumerate(bounds):
        sel = (indices >= lo) & (indices < hi)
        if not sel.any():
            continue
        np.add.at(params, indices[sel], values[sel])
        versions[shard] += 1


@st.composite
def _pushes(draw):
    n_params = draw(st.integers(1, 40))
    shards = draw(st.integers(1, min(8, n_params)))
    count = draw(st.integers(0, 30))
    indices = draw(
        st.lists(st.integers(0, n_params - 1), min_size=count, max_size=count)
    )
    values = draw(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=count, max_size=count
        )
    )
    return (
        n_params,
        shards,
        np.array(indices, dtype=np.int64),
        np.array(values, dtype=np.float64),
    )


class TestRoutedApply:
    @settings(max_examples=60, deadline=None)
    @given(push=_pushes())
    def test_matches_the_per_shard_mask_loop(self, push):
        """Same parameters bit for bit (duplicates accumulate in arrival
        order either way); every touched shard's version moves by
        exactly one, no other shard's moves at all."""
        n_params, shards, indices, values = push
        init = np.linspace(-1.0, 1.0, n_params)
        expected = init.copy()
        expected_versions = [0] * shards
        _reference_apply(
            expected, expected_versions, shard_bounds(n_params, shards),
            indices, values,
        )
        with ShardServer(init, shards) as server:
            sock = _dial(server)
            with sock:
                wire.send_frame(
                    sock, wire.MSG_PUSH, ident=1, clock=1,
                    payload=wire.pack_push(indices, values),
                )
                versions = _pull_versions(sock, server)
                wire.send_frame(sock, wire.MSG_BYE)
            assert np.array_equal(server.snapshot(), expected)
            assert versions == expected_versions

    @settings(max_examples=25, deadline=None)
    @given(push=_pushes(), bad=st.sampled_from([-1000, -1, 0, 999]), at=st.floats(0, 1))
    def test_out_of_range_index_changes_no_state(self, push, bad, at):
        """One bad coordinate anywhere in the delta rejects the whole
        frame: no parameter, version, clock or push counter moves."""
        n_params, shards, indices, values = push
        bad_index = bad if bad < 0 else n_params + bad
        pos = int(at * indices.shape[0])
        indices = np.insert(indices, pos, bad_index)
        values = np.insert(values, pos, 1.0)
        init = np.linspace(-1.0, 1.0, n_params)
        with ShardServer(init, shards) as server:
            sock = _dial(server)
            with sock:
                wire.send_frame(
                    sock, wire.MSG_PUSH, ident=1, clock=1,
                    payload=wire.pack_push(indices, values),
                )
                assert sock.recv(1) == b""  # dropped, not answered
            _settled(server, keys.PS_FRAMES_REJECTED, 1.0)
            assert np.array_equal(server.snapshot(), init)
            assert server.counters[keys.PS_PUSHES] == 0.0
            with _dial(server, worker_id=1) as probe:
                assert _pull_versions(probe, server) == [0] * shards


class TestGateWake:
    def test_blocked_pull_released_by_the_stragglers_push(self, monkeypatch):
        """K=1, two nodes.  A push wakes the gate only when a pull is
        blocked there — this is that case, and the wake-up must come
        from the push itself, not from the wait slice running out (the
        slice is stretched so the two cannot be confused)."""
        slice_ = server_module._WAIT_SLICE
        monkeypatch.setattr(server_module, "_WAIT_SLICE", 10.0)
        empty = wire.pack_push_empty()
        with ShardServer(
            np.zeros(16), 2, max_staleness=1, expected_workers=2
        ) as server:
            fast, slow = _dial(server, 0), _dial(server, 1)
            with fast, slow:
                seen = _pull_versions(fast, server)
                _pull_versions(slow, server)
                fused = dict(ident=1, payload=wire.pack_push_pull(empty, seen))
                # One item ahead of the straggler: inside the window.
                wire.send_frame(fast, wire.MSG_PUSH_PULL, clock=1, **fused)
                assert wire.recv_frame(fast).msg_type == wire.MSG_SHARDS
                # Two ahead: blocks at the gate.
                wire.send_frame(fast, wire.MSG_PUSH_PULL, clock=2, **fused)
                _settled(server, keys.PS_PULL_WAITS, 1.0)
                fast.settimeout(0.05)
                with pytest.raises(socket.timeout):
                    fast.recv(1)
                fast.settimeout(10.0)
                t0 = time.perf_counter()
                wire.send_frame(slow, wire.MSG_PUSH, ident=1, clock=1, payload=empty)
                assert wire.recv_frame(fast).msg_type == wire.MSG_SHARDS
                released_after = time.perf_counter() - t0
                assert released_after < slice_
                _settled(server, keys.PS_PULL_ROUNDS, 4.0)
                counters = dict(server.counters)
                for sock in (fast, slow):
                    wire.send_frame(sock, wire.MSG_BYE)
        assert counters[keys.PS_PULL_WAITS] == 1.0
        buckets = sum(
            v for k, v in counters.items()
            if k.startswith(keys.PS_STALENESS_BUCKET_PREFIX)
        )
        assert buckets == counters[keys.PS_PULL_ROUNDS]
        assert counters[keys.ps_staleness_bucket(2)] == 1.0


class TestCloseIsPrompt:
    """close() used to return at the accept loop's next 0.2 s poll."""

    @pytest.mark.parametrize("connections", [0, 2], ids=["idle", "two-live"])
    def test_close_returns_at_once_and_leaves_nothing(self, connections):
        took = []
        for _ in range(5):
            server = ShardServer(np.zeros(8), 2)
            socks = [_dial(server, k) for k in range(connections)]
            port = server.port
            t0 = time.perf_counter()
            server.close()
            took.append(time.perf_counter() - t0)
            assert not server._accept_thread.is_alive()
            assert not any(t.is_alive() for t in server._threads)
            assert server._listener.fileno() == -1
            assert server.counters[keys.PS_HANDLER_THREADS_LEAKED] == 0.0
            for sock in socks:
                assert sock.recv(1) == b""  # the server's end is closed
                sock.close()
            with pytest.raises(OSError):
                socket.create_connection(("127.0.0.1", port), timeout=1.0)
        assert statistics.median(took) < 0.1
