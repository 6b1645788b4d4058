"""Tests for the JSON-lines socket front end."""

import json
import socket

import numpy as np
import pytest

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
        """Regression: a server-side fault is not a client bug — the
        dispatch's last-resort branch must mark it retriable."""
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic internal fault")

        monkeypatch.setattr(server.engine, "request", boom)
        reply = request_once(
            server.host, server.port, {"op": "score", "examples": [[0.0] * N]}
        )
        assert reply["ok"] is False
        assert reply["error"]["type"] == "internal"
        assert reply["error"]["retriable"] is True


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
