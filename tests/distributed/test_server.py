"""Direct-socket tests of the shard server's hot path and teardown:
the routed sparse apply, consistent cuts, the gate's conditional
wake-up, prompt close."""

import itertools
import socket
import statistics
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import ShardServer, shard_bounds
from repro.distributed import protocol as wire
from repro.distributed import server as server_module
from repro.distributed.checkpoint import CheckpointPolicy
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


@st.composite
def _schedules(draw):
    """Generated interleavings: per step a socket, a frame type, and an
    integer-valued sparse delta (ignored by PULL_ALL)."""
    n_params = draw(st.integers(2, 40))
    shards = draw(st.integers(1, min(8, n_params)))
    n_socks = draw(st.integers(2, 3))
    entry = st.tuples(st.integers(0, n_params - 1), st.integers(-8, 8))
    step = st.tuples(
        st.integers(0, n_socks - 1),
        st.sampled_from([wire.MSG_PUSH, wire.MSG_PUSH_PULL, wire.MSG_PULL_ALL]),
        st.lists(entry, max_size=6),
    )
    return n_params, shards, n_socks, draw(st.lists(step, min_size=1, max_size=24))


class _Node:
    """A raw-socket worker that keeps a shard cache, as a real node does,
    and remembers every push it sent (each as a model delta plus the
    shards it touched)."""

    def __init__(self, server: ShardServer, worker_id: int, bounds) -> None:
        self.sock = _dial(server, worker_id)
        self.bounds = bounds
        self.model = np.zeros(server.n_params)
        self.versions = [wire.VERSION_NEVER] * len(bounds)
        #: Cumulative (model delta, shard version counts) after k pushes.
        self.prefixes = [(np.zeros(server.n_params), np.zeros(len(bounds), int))]

    def send(self, msg_type: int, entries) -> bool:
        """Send one frame; returns whether a SHARDS reply follows."""
        idx = np.array([i for i, _ in entries], dtype=np.int64)
        val = np.array([v for _, v in entries], dtype=np.float64)
        push = wire.pack_push(idx, val)
        if msg_type == wire.MSG_PUSH:
            payload = push
        elif msg_type == wire.MSG_PUSH_PULL:
            payload = wire.pack_push_pull(push, self.versions)
        else:
            payload = wire.pack_versions(self.versions)
        wire.send_frame(self.sock, msg_type, ident=1, payload=payload)
        if msg_type != wire.MSG_PULL_ALL:
            delta, counts = self.prefixes[-1]
            delta = delta.copy()
            np.add.at(delta, idx, val)
            touched = {s for s, (lo, hi) in enumerate(self.bounds)
                       if ((idx >= lo) & (idx < hi)).any()}
            counts = counts + [s in touched for s in range(len(self.bounds))]
            self.prefixes.append((delta, counts))
        return msg_type != wire.MSG_PUSH

    def receive(self) -> None:
        """Fold one SHARDS reply into the cache."""
        sizes = [(hi - lo) * 8 for lo, hi in self.bounds]
        entries = wire.unpack_shards(wire.recv_frame(self.sock).payload, sizes)
        for shard, ((lo, hi), (version, payload)) in enumerate(
            zip(self.bounds, entries)
        ):
            if payload is None:
                assert version == self.versions[shard]  # a cache hit is current
            else:
                self.model[lo:hi] = np.frombuffer(payload, dtype=np.float64)
            self.versions[shard] = version


class TestConsistentCut:
    @settings(max_examples=40, deadline=None)
    @given(schedule=_schedules())
    def test_every_reply_is_init_plus_a_prefix_of_each_stream(self, schedule):
        """Integer-valued deltas keep every sum exact.  Each SHARDS
        reply must equal ``init`` plus exactly the pushes applied before
        it — all of the asking socket's own earlier pushes (one ordered
        stream) and some prefix of every other socket's — with each
        shard's version the number of those pushes that touched it."""
        n_params, shards, n_socks, steps = schedule
        bounds = shard_bounds(n_params, shards)
        init = np.arange(n_params, dtype=np.float64) * 3.0
        with ShardServer(init, shards) as server:
            nodes = [_Node(server, k, bounds) for k in range(n_socks)]
            for k, msg_type, entries in steps + [
                (k, wire.MSG_PULL_ALL, []) for k in range(n_socks)
            ]:
                node = nodes[k]
                if not node.send(msg_type, entries):
                    continue
                node.receive()
                others = [
                    range(len(n.prefixes)) if n is not node else [len(n.prefixes) - 1]
                    for n in nodes
                ]
                assert any(
                    np.array_equal(
                        node.model,
                        init + sum(n.prefixes[p][0] for n, p in zip(nodes, cut)),
                    )
                    and node.versions
                    == list(sum(n.prefixes[p][1] for n, p in zip(nodes, cut)))
                    for cut in itertools.product(*others)
                )
            # The last closing pull follows every push of every socket.
            final = init + sum(n.prefixes[-1][0] for n in nodes)
            assert np.array_equal(nodes[-1].model, final)
            assert nodes[-1].versions == list(sum(n.prefixes[-1][1] for n in nodes))
            for node in nodes:
                wire.send_frame(node.sock, wire.MSG_BYE)
                node.sock.close()
            assert np.array_equal(server.snapshot(), final)


class TestCutsBesideTheLoop:
    def test_checkpoint_cuts_stay_whole_while_three_sockets_push(
        self, tmp_path, monkeypatch
    ):
        """Three client threads push +1 to every coordinate while the
        test thread takes checkpoint cuts as fast as it can (kept in
        memory, not written), with the interpreter switching threads
        as often as it can: every cut's model, shard versions and
        worker clocks count the same number of applied pushes."""
        n, pushes = 64, 2000
        cuts = []
        monkeypatch.setattr(
            server_module,
            "write_checkpoint",
            lambda _dir, _seq, **cut: cuts.append(cut),
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            policy = CheckpointPolicy(dir=str(tmp_path))
            with ShardServer(np.zeros(n), 4, checkpoint=policy) as server:
                socks = [_dial(server, k) for k in range(3)]
                ones = wire.pack_push(None, np.ones(n))

                def push(sock):
                    for clock in range(1, pushes + 1):
                        wire.send_frame(
                            sock, wire.MSG_PUSH, ident=1, clock=clock, payload=ones
                        )
                    # The closing pull carries the clock, as a node's does.
                    never = wire.pack_versions([wire.VERSION_NEVER] * 4)
                    wire.send_frame(
                        sock, wire.MSG_PULL_ALL, clock=pushes, payload=never
                    )
                    wire.recv_frame(sock)

                threads = [threading.Thread(target=push, args=(s,)) for s in socks]
                for t in threads:
                    t.start()
                while any(t.is_alive() for t in threads):
                    server.checkpoint_now()
                for t in threads:
                    t.join(30.0)
                    assert not t.is_alive()
                server.checkpoint_now()
                for sock in socks:
                    sock.close()
        finally:
            sys.setswitchinterval(interval)
        for cut in cuts:
            applied = sum(cut["clocks"].values())
            assert cut["versions"] == [applied] * 4
            assert np.array_equal(cut["params"], np.full(n, float(applied)))
        assert applied == 3 * pushes


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
            # The listener, the loop's wake socket, every accepted peer.
            owned = [key.fileobj for key in server._sel.get_map().values()]
            assert len(owned) == 2 + connections
            port = server.port
            t0 = time.perf_counter()
            server.close()
            took.append(time.perf_counter() - t0)
            assert not server._thread.is_alive()
            assert all(s.fileno() == -1 for s in owned)
            assert server._listener.fileno() == -1
            for sock in socks:
                assert sock.recv(1) == b""  # the server's end is closed
                sock.close()
            with pytest.raises(OSError):
                socket.create_connection(("127.0.0.1", port), timeout=1.0)
        assert statistics.median(took) < 0.1
