"""Tests for the JSON-lines socket front end."""

import json
import socket
import statistics
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serving import (
    ScoringEngine,
    ScoringServer,
    ServedModel,
    ServerConfig,
    request_once,
)

N = 4
W = np.array([1.0, -2.0, 0.5, 4.0])


@pytest.fixture()
def server():
    engine = ScoringEngine("lr", N)
    engine.install(ServedModel(params=W, version=1, source="artifact"))
    with engine, ScoringServer(engine, ServerConfig()) as srv:
        yield srv


class TestProtocol:
    def test_ping(self, server):
        assert request_once(server.host, server.port, {"op": "ping"}) == {
            "ok": True,
            "op": "ping",
        }

    def test_score_dense_and_sparse(self, server):
        reply = request_once(
            server.host,
            server.port,
            {
                "op": "score",
                "examples": [
                    [1.0, 0.0, 0.0, 1.0],
                    {"indices": [0, 3], "values": [1.0, 1.0]},
                ],
            },
        )
        assert reply["ok"]
        assert reply["model_version"] == 1
        m0, m1 = (r["margin"] for r in reply["results"])
        assert m0 == pytest.approx(5.0) and m1 == pytest.approx(5.0)
        assert reply["results"][0]["label"] == 1
        assert 0.0 < reply["results"][0]["prob"] < 1.0
        assert reply["latency_ms"] >= 0.0

    def test_stats_op(self, server):
        request_once(
            server.host, server.port, {"op": "score", "examples": [[0.0] * N]}
        )
        reply = request_once(server.host, server.port, {"op": "stats"})
        assert reply["ok"]
        assert reply["stats"]["requests"] >= 1
        assert reply["stats"]["model_version"] == 1

    def test_multiple_requests_per_connection(self, server):
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            f = sock.makefile("rw", encoding="utf-8")
            for _ in range(3):
                f.write(json.dumps({"op": "ping"}) + "\n")
                f.flush()
                assert json.loads(f.readline())["ok"]

    def test_shutdown_op(self, server):
        reply = request_once(server.host, server.port, {"op": "shutdown"})
        assert reply["ok"]
        assert server.wait(5.0)


class TestProtocolErrors:
    @pytest.mark.parametrize(
        "raw,retriable",
        [
            (b"this is not json", False),
            (b"[1, 2, 3]", False),
            (b'{"no_op": true}', False),
            (b'{"op": "frobnicate"}', False),
            (b'{"op": "score", "examples": [[1.0]]}', False),
            (b'{"op": "score", "examples": []}', False),
        ],
    )
    def test_bad_requests_are_structured(self, server, raw, retriable):
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(raw + b"\n")
            reply = json.loads(sock.makefile().readline())
        assert reply["ok"] is False
        assert reply["error"]["retriable"] is retriable
        assert reply["error"]["type"] == "invalid-request"
        assert reply["error"]["message"]

    @pytest.mark.parametrize(
        "raw",
        [
            b'{"op": "score", "examples": [{"indices": [0], "values": [NaN]}]}',
            b'{"op": "score", "examples": [{"indices": [2, 1], "values": [1.0, Infinity]}]}',
            b'{"op": "score", "examples": [[1.0, 0.0, 0.0, 0.0], [0.0, -Infinity, 0.0, 0.0]]}',
        ],
    )
    def test_non_finite_features_are_rejected(self, server, raw):
        """Python's json reads NaN and Infinity; the engine must refuse
        them, not answer a NaN margin with a confident label in a reply
        that is no longer JSON."""
        def refuse(constant):
            raise AssertionError(f"reply carries the non-JSON constant {constant}")

        reply, stop = server.dispatch(raw)
        reply = json.loads(json.dumps(reply), parse_constant=refuse)
        assert not stop
        assert reply["ok"] is False
        assert reply["error"]["retriable"] is False
        assert reply["error"]["type"] == "invalid-request"
        assert "must be finite" in reply["error"]["message"]
        # and the next request on the same server is served normally
        ok, _ = server.dispatch(b'{"op": "score", "examples": [[1.0, 0.0, 0.0, 1.0]]}')
        assert json.loads(json.dumps(ok), parse_constant=refuse)["ok"] is True

    def test_client_errors_are_counted(self, server):
        before = server.engine.stats().errors
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(b"garbage\n")
            json.loads(sock.makefile().readline())
        assert server.engine.stats().errors == before + 1

    def test_cold_start_over_the_wire(self):
        engine = ScoringEngine("lr", N)  # no model installed
        with engine, ScoringServer(engine) as srv:
            reply = request_once(
                srv.host, srv.port, {"op": "score", "examples": [[0.0] * N]}
            )
            assert reply["ok"] is False
            assert reply["error"]["type"] == "snapshot-unavailable"
            assert reply["error"]["reason"] == "cold-start"
            assert reply["error"]["retriable"] is True


class TestFramingRegression:
    """Bugfix coverage: oversized lines, stop(), internal errors and
    partial replies each used to fail in a corrupting or opaque way."""

    @pytest.fixture()
    def small_cap_server(self):
        engine = ScoringEngine("lr", N)
        engine.install(ServedModel(params=W, version=1, source="artifact"))
        config = ServerConfig(max_line_bytes=1024)
        with engine, ScoringServer(engine, config) as srv:
            yield srv

    def test_oversized_request_gets_line_too_long_and_close(self, small_cap_server):
        """A request past the cap must be answered with a structured
        non-retriable error and the connection closed — before the fix
        the partial line parsed as one request and the overflow bytes
        as phantom follow-ups."""
        srv = small_cap_server
        huge = json.dumps(
            {"op": "score", "examples": [[1.0] * 4000]}
        ).encode("utf-8")
        assert len(huge) > 1024
        with socket.create_connection((srv.host, srv.port), timeout=10) as sock:
            sock.sendall(huge + b"\n")
            f = sock.makefile("rb")
            reply = json.loads(f.readline())
            assert reply["ok"] is False
            assert reply["error"]["type"] == "line-too-long"
            assert reply["error"]["retriable"] is False
            assert reply["error"]["limit_bytes"] == 1024
            # The server closed the connection: no phantom replies to
            # the overflow bytes, just EOF.
            assert f.readline() == b""

    def test_lines_before_an_oversized_one_are_answered(self, small_cap_server):
        """Lines read with an oversized one are answered first; then the
        line-too-long reply, and the connection closes."""
        srv = small_cap_server
        with socket.create_connection((srv.host, srv.port), timeout=10) as sock:
            sock.sendall(b'{"op": "ping"}\n' * 2 + b"x" * 2048 + b"\n")
            f = sock.makefile("rb")
            assert [json.loads(f.readline())["ok"] for _ in range(2)] == [True, True]
            assert json.loads(f.readline())["error"]["type"] == "line-too-long"
            assert f.readline() == b""

    def test_valid_request_after_oversized_on_fresh_connection(self, small_cap_server):
        """The framing bug's second half: after an oversized request
        the *server* must still serve correctly framed clients."""
        srv = small_cap_server
        huge = json.dumps(
            {"op": "score", "examples": [[1.0] * 4000]}
        ).encode("utf-8")
        with socket.create_connection((srv.host, srv.port), timeout=10) as sock:
            sock.sendall(huge + b"\n")
            json.loads(sock.makefile("rb").readline())
        reply = request_once(srv.host, srv.port, {"op": "ping"})
        assert reply == {"ok": True, "op": "ping"}

    def test_request_at_exactly_the_cap_boundary_is_served(self, small_cap_server):
        srv = small_cap_server
        pad = 1024 - len(json.dumps({"op": "ping", "pad": ""})) - 1
        msg = {"op": "ping", "pad": "x" * pad}
        line = json.dumps(msg).encode("utf-8") + b"\n"
        assert len(line) == 1024
        reply = request_once(srv.host, srv.port, msg)
        assert reply["ok"] is True

    def test_stop_unblocks_wait(self, server):
        """Regression: stop() never set the shutdown event, so a
        wait()er outlived the server forever."""
        import threading

        released = threading.Event()

        def waiter():
            if server.wait(timeout=30.0):
                released.set()

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        server.stop()
        assert released.wait(5.0), "stop() must release wait()ers"
        t.join(5.0)

    def test_internal_errors_are_retriable(self, server, monkeypatch):
        """Regression: a server-side fault is not a client bug — a fault
        reading the line (the last-resort branch) or scoring its batch
        must be marked retriable."""
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic internal fault")

        for stage in ("prepare", "_score_block"):
            with monkeypatch.context() as patch:
                patch.setattr(server.engine, stage, boom)
                reply = request_once(
                    server.host, server.port, {"op": "score", "examples": [[0.0] * N]}
                )
            assert reply["ok"] is False, stage
            assert reply["error"]["type"] == "internal"
            assert reply["error"]["retriable"] is True
        assert request_once(
            server.host, server.port, {"op": "score", "examples": [[0.0] * N]}
        )["ok"]


def _score_line(examples) -> bytes:
    line = json.dumps({"op": "score", "examples": examples}, separators=(",", ":"))
    return line.encode() + b"\n"


def _read_replies(sock, n):
    reader = sock.makefile("rb")
    return [json.loads(reader.readline()) for _ in range(n)]


class TestEventLoop:
    """One loop serves every connection: nothing one client does may
    stall another, and each connection's replies keep its order."""

    def test_slow_reader_does_not_stall_the_loop(self, server):
        """A client that pipelines 500 requests and reads none of the
        replies leaves more of them unsent than the kernel buffers hold
        (a 4 MiB send buffer at most on Linux); another connection is
        still served."""
        line = _score_line([[1, 0, 0, 1]] * 256)
        slow = socket.socket()
        slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        slow.settimeout(10)
        with slow:
            slow.connect((server.host, server.port))
            slow.sendall(line * 500)
            deadline = time.monotonic() + 10
            while server.engine.stats().requests < 500:
                assert time.monotonic() < deadline, "the loop stalled on a slow reader"
                time.sleep(0.01)
            t0 = time.perf_counter()
            ping = request_once(server.host, server.port, {"op": "ping"}, timeout=5)
            assert ping["ok"]
            assert time.perf_counter() - t0 < 1.0
            replies = _read_replies(slow, 500)
        assert all(len(reply["results"]) == 256 for reply in replies)

    def test_unread_replies_pause_reading_without_loss(self):
        """Past ``max_line_bytes`` of unsent replies the loop stops reading
        that connection, and resumes once the client reads: every request
        is answered once, in order."""
        engine = ScoringEngine("lr", N)
        engine.install(ServedModel(params=W, version=1, source="artifact"))
        n = 1200  # ~6 MB of replies: more than the kernel buffers hold
        stream = b"".join(
            _score_line([[i, 0, 0, 0]] + [[1, 0, 0, 1]] * 90) for i in range(n)
        )
        with engine, ScoringServer(engine, ServerConfig(max_line_bytes=1024)) as srv:
            slow = socket.socket()
            slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            slow.settimeout(10)
            with slow:
                slow.connect((srv.host, srv.port))
                writer = threading.Thread(target=slow.sendall, args=(stream,))
                writer.start()
                try:
                    # Wait for the count of scored requests to stop moving.
                    deadline = time.monotonic() + 10
                    scored, settled = -1, 0
                    while settled < 3:
                        assert time.monotonic() < deadline, "nothing was scored"
                        time.sleep(0.05)
                        last, scored = scored, engine.stats().requests
                        settled = settled + 1 if scored == last > 0 else 0
                    assert scored < n, "reading was never paused"
                    ping = request_once(srv.host, srv.port, {"op": "ping"}, timeout=5)
                    assert ping["ok"]
                    replies = _read_replies(slow, n)
                finally:
                    writer.join(10)
                assert not writer.is_alive()
        assert [reply["results"][0]["margin"] for reply in replies] == [
            float(i) for i in range(n)
        ]

    def test_reset_with_unsent_replies_closes_only_that_connection(self, server):
        """A client that resets its connection while replies are still
        queued for it (so the loop watches it for both reading and
        writing) is dropped; the loop keeps serving everyone else."""
        for _ in range(3):
            before = server.engine.stats().requests
            slow = socket.socket()
            slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            slow.settimeout(10)
            slow.connect((server.host, server.port))
            slow.sendall(_score_line([[1, 0, 0, 1]] * 256) * 300)
            deadline = time.monotonic() + 10
            while server.engine.stats().requests < before + 300:
                assert time.monotonic() < deadline, "the requests were not scored"
                time.sleep(0.01)
            # SO_LINGER 0: close() resets the connection instead of a FIN.
            slow.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            slow.close()
            ping = request_once(server.host, server.port, {"op": "ping"}, timeout=2)
            assert ping == {"ok": True, "op": "ping"}
        assert not server.wait(0), "the loop stopped"

    def test_a_crashed_loop_is_raised_by_wait(self, server, monkeypatch):
        """A fault that escapes the loop is not a clean shutdown: wait()
        raises it, so ``repro serve`` exits non-zero."""

        def crash(conn, lines):
            raise RuntimeError("loop fault")

        monkeypatch.setattr(server, "_recv", crash)
        monkeypatch.setattr(threading, "excepthook", lambda args: None)
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(b'{"op": "ping"}\n')
            with pytest.raises(RuntimeError, match="loop fault"):
                server.wait(10)

    def test_pipelined_lines_are_answered_in_order(self, server):
        """One sendall of several lines: one reply per line, in order, and
        the stats line counts the requests before it and none after."""
        lines = [
            _score_line([[1.0, 0.0, 0.0, 1.0]]),
            b"this is not json\n",
            b'{"op": "ping"}\n',
            b'{"op": "stats"}\n',
            _score_line([{"indices": [1], "values": [2.0]}]),
        ]
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(b"".join(lines))
            first, bad, ping, stats, last = _read_replies(sock, len(lines))
        assert first["results"][0]["margin"] == 5.0
        assert bad["ok"] is False and bad["error"]["type"] == "invalid-request"
        assert ping == {"ok": True, "op": "ping"}
        assert stats["stats"]["requests"] == 2 and stats["stats"]["errors"] == 1
        assert last["results"][0]["margin"] == -4.0

    def test_stop_is_prompt_and_leaves_no_thread(self):
        engine = ScoringEngine("lr", N)
        engine.install(ServedModel(params=W, version=1, source="artifact"))
        took = []
        with engine:
            for _ in range(5):
                before = set(threading.enumerate())
                srv = ScoringServer(engine).start()
                assert request_once(srv.host, srv.port, {"op": "ping"})["ok"]
                t0 = time.perf_counter()
                srv.stop()
                took.append(time.perf_counter() - t0)
                assert set(threading.enumerate()) <= before
        assert statistics.median(took) < 0.1, took

    def test_serving_adds_one_thread(self):
        engine = ScoringEngine("lr", N)  # no refresher
        engine.install(ServedModel(params=W, version=1, source="artifact"))
        before = threading.active_count()
        with engine, ScoringServer(engine) as srv:
            with socket.create_connection((srv.host, srv.port), timeout=10) as sock:
                sock.sendall(_score_line([[0.0] * N]) * 3)
                assert len(_read_replies(sock, 3)) == 3
                assert threading.active_count() == before + 1


# -- generated line schedules --------------------------------------------

_values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_dense = st.lists(_values, min_size=N, max_size=N)
_sparse = st.lists(st.integers(0, N - 1), unique=True, max_size=N).flatmap(
    lambda cols: st.lists(_values, min_size=len(cols), max_size=len(cols)).map(
        lambda vals: {"indices": cols, "values": vals}
    )
)
_MALFORMED_LINES = [
    b"this is not json",
    b'{"op": "frobnicate"}',
    b'{"op": "score", "examples": [[1.0]]}',
    b'{"op": "score", "examples": []}',
]
_line = st.one_of(
    st.lists(st.one_of(_dense, _sparse), min_size=1, max_size=6),
    st.sampled_from(_MALFORMED_LINES),
    st.sampled_from([b'{"op": "ping"}', b'{"op": "stats"}']),
)


@pytest.fixture(scope="module")
def shared_server():
    engine = ScoringEngine("lr", N)
    engine.install(ServedModel(params=W, version=1, source="artifact"))
    with engine, ScoringServer(engine, ServerConfig()) as srv:
        yield srv


class TestLineSchedules:
    """1-3 connections send generated mixes of score, malformed, ping and
    stats lines in arbitrary chunks; however the loop's passes cut and
    coalesce them, each connection gets one reply per line, in order,
    and each score reply is what ``engine.score`` says, bit for bit."""

    @given(data=st.data())
    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_one_reply_per_line_in_order(self, shared_server, data):
        srv = shared_server
        oracle = ScoringEngine("lr", N)
        oracle.install(ServedModel(params=W, version=1, source="artifact"))
        scripts = data.draw(
            st.lists(st.lists(_line, min_size=1, max_size=8), min_size=1, max_size=3),
            label="lines per connection",
        )
        streams = [
            b"".join(
                _score_line(line) if isinstance(line, list) else line + b"\n"
                for line in script
            )
            for script in scripts
        ]
        socks = [
            socket.create_connection((srv.host, srv.port), timeout=10) for _ in scripts
        ]
        try:
            for sock in socks:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sent = [0] * len(streams)
            while unsent := [k for k, s in enumerate(streams) if sent[k] < len(s)]:
                k = data.draw(st.sampled_from(unsent), label="connection")
                left = len(streams[k]) - sent[k]
                size = data.draw(st.integers(1, left), label="chunk")
                socks[k].sendall(streams[k][sent[k] : sent[k] + size])
                sent[k] += size
            replies = [
                _read_replies(sock, len(script)) for sock, script in zip(socks, scripts)
            ]
        finally:
            for sock in socks:
                sock.close()
        for script, got in zip(scripts, replies):
            for line, reply in zip(script, got):
                if isinstance(line, list):
                    want = [r.to_dict() for r in oracle.score(line).results]
                    assert reply["ok"], reply
                    assert json.dumps(reply["results"]) == json.dumps(want)
                elif line in _MALFORMED_LINES:
                    assert reply["ok"] is False
                    assert reply["error"]["type"] == "invalid-request"
                elif line == b'{"op": "ping"}':
                    assert reply == {"ok": True, "op": "ping"}
                else:
                    assert reply["ok"] and "requests" in reply["stats"]


class TestRequestOnceRegression:
    """request_once against byzantine servers: structured
    ConnectionError instead of an opaque JSONDecodeError."""

    @pytest.fixture()
    def byzantine(self):
        """A one-shot server sending whatever bytes the test sets."""
        import threading

        lst = socket.create_server(("127.0.0.1", 0))
        state = {"reply": b""}

        def serve():
            conn, _ = lst.accept()
            conn.makefile("rb").readline()  # consume the request
            if state["reply"]:
                conn.sendall(state["reply"])
            conn.close()

        t = threading.Thread(target=serve, daemon=True)
        t.start()
        try:
            yield state, lst.getsockname()
        finally:
            lst.close()
            t.join(5.0)

    def test_close_without_reply(self, byzantine):
        state, (host, port) = byzantine
        with pytest.raises(ConnectionError, match="without replying"):
            request_once(host, port, {"op": "ping"}, timeout=10.0)

    def test_close_mid_reply(self, byzantine):
        state, (host, port) = byzantine
        state["reply"] = b'{"ok": true, "op": "pi'  # no trailing newline
        with pytest.raises(ConnectionError, match="mid-reply"):
            request_once(host, port, {"op": "ping"}, timeout=10.0)
