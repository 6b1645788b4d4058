"""Tests for server checkpointing, crash-restart failover, and the
recovery trajectory the manifest records."""

import logging
import multiprocessing as mp
import os
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.datasets import load
from repro.distributed import (
    PsSchedule,
    RemoteServerHandle,
    ShardServer,
    shard_bounds,
    train_ps,
)
from repro.distributed import protocol as wire
from repro.distributed.checkpoint import CheckpointPolicy, load_latest
from repro.distributed.supervisor import server_main
from repro.faults import FaultPlan, RecoveryPolicy
from repro.models import make_model
from repro.sgd import SGDConfig
from repro.telemetry import keys
from repro.utils.errors import ConfigurationError, ServerDiedError
from repro.utils.rng import derive_rng


@pytest.fixture(scope="module")
def setup():
    ds = load("covtype", "tiny")
    model = make_model("lr", ds)
    init = model.init_params(derive_rng(7, "pstest"))
    return model, ds, init


def _config(**kw):
    defaults = dict(step_size=0.05, max_epochs=3, seed=99)
    defaults.update(kw)
    return SGDConfig(**defaults)


def _ctx():
    return mp.get_context(
        "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    )


def _handle() -> RemoteServerHandle:
    return RemoteServerHandle(
        _ctx(),
        init_params=np.zeros(8),
        shards=2,
        max_staleness=None,
        expected_workers=1,
        checkpoint=None,
    )


def _dial(handle: RemoteServerHandle) -> socket.socket:
    """One scripted worker: registered as worker 0."""
    sock = socket.create_connection((handle.host, handle.port), timeout=10.0)
    wire.send_frame(sock, wire.MSG_HELLO, ident=0)
    assert wire.recv_frame(sock).msg_type == wire.MSG_HELLO_ACK
    return sock


class TestScheduleValidation:
    def test_checkpoint_triggers_need_dir(self):
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            PsSchedule(nodes=1, checkpoint_every=10)
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            PsSchedule(nodes=1, checkpoint_seconds=1.0)

    def test_server_faults_need_checkpointing(self, setup):
        model, ds, init = setup
        with pytest.raises(ConfigurationError, match="checkpoint"):
            train_ps(
                model, ds.X, ds.y, init, _config(),
                PsSchedule(nodes=1, epoch_timeout=30.0),
                fault_plan=FaultPlan.parse(["server-kill@2"]),
                recovery=RecoveryPolicy(max_restarts=2),
            )

    def test_server_faults_need_standalone_server(self):
        with pytest.raises(ConfigurationError, match="standalone"):
            ShardServer(
                np.zeros(8), 2,
                server_faults=[{"kind": "server-kill", "epoch": 1,
                               "seconds": 0.0}],
                pushes_per_epoch=4,
            )


class TestServerCheckpointing:
    def test_boundary_checkpoint_and_restore(self, tmp_path):
        init = np.linspace(-2, 2, 32)
        policy = CheckpointPolicy(dir=str(tmp_path))
        with ShardServer(init, 4, checkpoint=policy) as server:
            server.release_epoch(5)
            server.write_params(init * 3)
            path = server.checkpoint_now(boundary=True)
            assert path is not None and os.path.exists(path)
            assert server.counters[keys.PS_CHECKPOINTS_WRITTEN] == 1.0
        state = load_latest(str(tmp_path))
        assert state.boundary is True
        assert state.released_epoch == 5
        assert np.array_equal(state.params, init * 3)

        with ShardServer(init, 4, checkpoint=policy, restore=state) as fresh:
            assert np.array_equal(fresh.snapshot(), init * 3)
            assert fresh.counters[keys.PS_CHECKPOINTS_RESTORED] == 1.0

    def test_restore_rejects_wrong_shape(self, tmp_path):
        init = np.zeros(16)
        policy = CheckpointPolicy(dir=str(tmp_path))
        with ShardServer(init, 2, checkpoint=policy) as server:
            server.checkpoint_now(boundary=True)
        state = load_latest(str(tmp_path))
        with pytest.raises(ConfigurationError):
            ShardServer(np.zeros(8), 2, restore=state)

    def test_concurrent_writers_never_sweep_each_other(self, tmp_path):
        """The epoch-boundary flush and the background writer share one
        directory and its orphan sweep: written at once, neither may
        delete the other's in-flight temp file."""
        policy = CheckpointPolicy(dir=str(tmp_path))
        errors = []

        def write(n):
            try:
                for _ in range(n):
                    server.checkpoint_now()
            except OSError as err:
                errors.append(err)

        with ShardServer(np.zeros(4096), 4, checkpoint=policy) as server:
            threads = [threading.Thread(target=write, args=(25,)) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
                assert not t.is_alive()
        assert errors == []
        assert server.counters[keys.PS_CHECKPOINTS_WRITTEN] == 75.0

    def test_checkpoint_without_policy_is_a_noop(self):
        with ShardServer(np.zeros(8), 2) as server:
            assert server.checkpoint_now(boundary=True) is None


class TestRemoteServerHandle:
    def test_lifecycle_and_control_plane(self, tmp_path):
        init = np.linspace(0, 1, 24)
        handle = RemoteServerHandle(
            _ctx(),
            init_params=init,
            shards=3,
            max_staleness=None,
            expected_workers=1,
            checkpoint=CheckpointPolicy(dir=str(tmp_path)),
            probe_timeout=5.0,
        )
        try:
            assert handle.port > 0
            assert np.array_equal(handle.snapshot(), init)
            handle.write_params(init * 2)
            assert np.array_equal(handle.snapshot(), init * 2)
            handle.release_epoch(1)
            assert handle.checkpoint_now(boundary=True) is not None
            assert handle.counters.get(keys.PS_CHECKPOINTS_WRITTEN) == 1.0
        finally:
            handle.close()
        # Clean shutdown: the child exited on its own terms, counters
        # survived the close, no temp orphans.
        assert handle.counters.get(keys.PS_CHECKPOINTS_WRITTEN) == 1.0
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_respawn_restores_from_checkpoint(self, tmp_path):
        init = np.linspace(0, 1, 24)
        handle = RemoteServerHandle(
            _ctx(),
            init_params=init,
            shards=3,
            max_staleness=None,
            expected_workers=1,
            checkpoint=CheckpointPolicy(dir=str(tmp_path)),
            probe_timeout=2.0,
        )
        try:
            handle.write_params(init + 7.0)
            handle.release_epoch(2)
            assert handle.checkpoint_now(boundary=True) is not None
            old_port = handle.port
            handle._proc.kill()
            with pytest.raises(ServerDiedError):
                for _ in range(100):
                    handle.snapshot()
                    time.sleep(0.05)
            new_port = handle.respawn()
            assert new_port != 0
            assert new_port == handle.port or old_port != new_port
            # The restored generation holds the checkpointed cut.
            assert np.array_equal(handle.snapshot(), init + 7.0)
            assert (
                handle.counters.get(keys.PS_CHECKPOINTS_RESTORED, 0.0) >= 1.0
            )
        finally:
            handle.close()

    def test_epoch_wait_answers_on_arrival(self):
        """The server does the waiting: the reply leaves when the last
        worker arrives, not at the end of the slice."""
        handle = _handle()
        try:
            with _dial(handle) as sock:
                handle.release_epoch(1)
                threading.Timer(
                    0.1, wire.send_frame, (sock, wire.MSG_EPOCH_DONE), {"clock": 1}
                ).start()
                t0 = time.perf_counter()
                assert handle.wait_epoch(1, 2.0) is True
                assert time.perf_counter() - t0 < 0.5
        finally:
            handle.close()

    def test_epoch_wait_wakes_on_a_closed_connection(self):
        """A node that dies mid-epoch ends the wait early, so the
        watchdog blames it at once."""
        handle = _handle()
        try:
            sock = _dial(handle)
            threading.Timer(0.1, sock.close).start()
            t0 = time.perf_counter()
            assert handle.wait_epoch(1, 2.0) is False
            assert time.perf_counter() - t0 < 1.0
        finally:
            handle.close()


class TestServerFailover:
    def test_server_kill_fails_over_and_finishes(self, setup, tmp_path):
        model, ds, init = setup
        res = train_ps(
            model, ds.X, ds.y, init, _config(max_epochs=4),
            PsSchedule(nodes=2, epoch_timeout=30.0,
                       checkpoint_dir=str(tmp_path), checkpoint_every=50),
            fault_plan=FaultPlan.parse(["server-kill@2"]),
            recovery=RecoveryPolicy(max_restarts=2),
        )
        assert res.epochs_run == 4
        assert not res.diverged
        assert res.server_failovers == 1
        assert res.time_to_repair_seconds is not None
        assert res.time_to_repair_seconds > 0
        assert res.counters[keys.PS_SERVER_FAILOVERS] == 1.0
        assert res.counters[keys.PS_CHECKPOINTS_RESTORED] >= 1.0
        assert res.counters[keys.PS_RECONNECTS_MIDRUN] >= 1.0
        assert res.faults_injected >= 1
        failovers = [
            e for e in res.recovery if e["action"] == "server_failover"
        ]
        assert len(failovers) == 1
        assert failovers[0]["epoch"] == 2
        assert failovers[0]["time_to_repair_seconds"] > 0
        # Atomic writes: a SIGKILLed writer leaves no half-written
        # final file, at most ignorable .tmp orphans — and a clean
        # parent run unlinks even those on the next write.
        assert [n for n in os.listdir(tmp_path) if n.endswith(".ckpt")]

    def test_server_kill_without_recovery_raises(self, setup, tmp_path):
        model, ds, init = setup
        with pytest.raises(ServerDiedError):
            train_ps(
                model, ds.X, ds.y, init, _config(),
                PsSchedule(nodes=2, epoch_timeout=30.0,
                           checkpoint_dir=str(tmp_path)),
                fault_plan=FaultPlan.parse(["server-kill@2"]),
            )

    def test_server_stall_detected_by_probe_timeout(self, setup, tmp_path):
        """A wedged server answers nothing: the probe times out, the
        parent declares it dead, and failover proceeds exactly as for
        a crash."""
        model, ds, init = setup
        res = train_ps(
            model, ds.X, ds.y, init, _config(),
            PsSchedule(nodes=2, epoch_timeout=6.0,
                       checkpoint_dir=str(tmp_path)),
            fault_plan=FaultPlan.parse(["server-stall@2"]),
            recovery=RecoveryPolicy(max_restarts=2),
        )
        assert res.epochs_run == 3
        assert res.server_failovers == 1
        assert not res.diverged

    def test_failover_replay_is_serial_exact(self, setup, tmp_path):
        """The tentpole guarantee: one lock-step node, killed server,
        checkpoint restore, replayed epoch — still bit-identical to
        the serial trajectory."""
        model, ds, init = setup
        res = train_ps(
            model, ds.X, ds.y, init, _config(),
            PsSchedule(nodes=1, max_staleness=0, batch_size=1,
                       epoch_timeout=60.0, checkpoint_dir=str(tmp_path)),
            fault_plan=FaultPlan.parse(["server-kill@2"]),
            recovery=RecoveryPolicy(max_restarts=2),
        )
        assert res.server_failovers == 1
        expected = init.copy()
        rng = derive_rng(99, "ps/1/0")
        part = np.arange(ds.X.shape[0], dtype=np.int64)
        for _ in range(res.epochs_run):
            order = part[rng.permutation(part.shape[0])]
            model.serial_sgd_epoch(ds.X, ds.y, order, expected, 0.05)
        assert np.array_equal(res.params, expected)

    def test_healthy_run_with_checkpointing(self, setup, tmp_path):
        """Checkpointing on a healthy run: same result surface,
        failover machinery armed but idle."""
        model, ds, init = setup
        res = train_ps(
            model, ds.X, ds.y, init, _config(),
            PsSchedule(nodes=2, epoch_timeout=30.0,
                       checkpoint_dir=str(tmp_path)),
        )
        assert res.epochs_run == 3
        assert res.server_failovers == 0
        assert res.time_to_repair_seconds is None
        assert not res.diverged

    def test_server_death_without_checkpoint_is_fatal(
        self, setup, monkeypatch, started_processes
    ):
        """With nothing to restore from, a respawned server would hold
        ``init_params`` and the run would silently restart: the death is
        raised even with recovery budget left."""
        model, ds, init = setup
        real_release = RemoteServerHandle.release_epoch
        real_respawn = RemoteServerHandle.respawn
        respawns = []

        def release_epoch(self, epoch, *, stop=False):
            if epoch == 2 and not stop:
                self._proc.kill()
                self._proc.join(5.0)
            real_release(self, epoch, stop=stop)

        def respawn(self, **kw):
            respawns.append(kw)
            return real_respawn(self, **kw)

        monkeypatch.setattr(RemoteServerHandle, "release_epoch", release_epoch)
        monkeypatch.setattr(RemoteServerHandle, "respawn", respawn)
        with pytest.raises(ServerDiedError):
            train_ps(
                model, ds.X, ds.y, init, _config(),
                PsSchedule(nodes=2, epoch_timeout=30.0),
                recovery=RecoveryPolicy(max_restarts=2),
            )
        assert respawns == []
        assert len(started_processes) == 3
        assert not [p for p in started_processes if p.is_alive()]


class TestWedgedLoop:
    def test_wedged_loop_logged_at_close(self, caplog):
        """close() joins the loop with a 2 s grace; a loop wedged past
        it (here inside a status reply) is abandoned loudly, not
        silently, and its sockets are closed all the same."""
        server = ShardServer(np.zeros(8), 2)
        entered, release = threading.Event(), threading.Event()

        def wedged(reached):
            entered.set()
            release.wait(10.0)
            return b"{}"

        server._status_payload = wedged
        probe = socket.create_connection((server.host, server.port), timeout=10.0)
        try:
            wire.send_frame(probe, wire.MSG_CTRL_STATUS)
            assert entered.wait(10.0)
            with caplog.at_level(logging.WARNING, "repro.distributed.server"):
                server.close()
            assert any("did not stop" in r.getMessage() for r in caplog.records)
            assert server._listener.fileno() == -1
            assert probe.recv(1) == b""
        finally:
            release.set()
            server._thread.join(10.0)
            probe.close()
        assert not server._thread.is_alive()

    def test_clean_close_logs_nothing(self, caplog):
        with caplog.at_level(logging.WARNING, "repro.distributed.server"):
            with ShardServer(np.zeros(8), 2) as server:
                pass
        assert not server._thread.is_alive()
        assert not caplog.records


def _raw_peer(server: ShardServer, worker_id: int, rcvbuf: int | None = None):
    """A registered raw-socket worker; *rcvbuf* shrinks its receive buffer."""
    sock = socket.socket()
    if rcvbuf is not None:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.settimeout(1.0)
    sock.connect((server.host, server.port))
    wire.send_frame(sock, wire.MSG_HELLO, ident=worker_id)
    assert wire.recv_frame(sock).msg_type == wire.MSG_HELLO_ACK
    return sock


def _cold_pull(sock: socket.socket, server: ShardServer) -> None:
    never = wire.pack_versions([wire.VERSION_NEVER] * server.n_shards)
    wire.send_frame(sock, wire.MSG_PULL_ALL, payload=never)


def _until(predicate, what: str) -> None:
    deadline = time.monotonic() + 10.0
    while not predicate():
        assert time.monotonic() < deadline, what
        time.sleep(0.005)


def _within(seconds: float, fn):
    """``fn()``, which must return within *seconds*."""
    out = []
    caller = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    caller.start()
    caller.join(seconds)
    assert out, f"{fn.__name__} did not return within {seconds} s"
    return out[0]


def _answered_within(sock: socket.socket, msg_type: int, seconds: float):
    """The next frame on *sock*, which must be *msg_type* and arrive in time."""
    t0 = time.perf_counter()
    frame = wire.recv_frame(sock)
    assert frame is not None and frame.msg_type == msg_type
    assert time.perf_counter() - t0 < seconds
    return frame


def _round(sock: socket.socket, server: ShardServer, clock: int, seen: list) -> list:
    """One PUSH_PULL round (+1 at coordinate ``clock``), answered within 1 s;
    returns the versions it brought back."""
    push = wire.pack_push(np.array([clock], dtype=np.int64), np.ones(1))
    payload = wire.pack_push_pull(push, seen)
    wire.send_frame(sock, wire.MSG_PUSH_PULL, ident=1, clock=clock, payload=payload)
    reply = _answered_within(sock, wire.MSG_SHARDS, 1.0)
    sizes = [(hi - lo) * 8 for lo, hi in shard_bounds(server.n_params, server.n_shards)]
    return [version for version, _ in wire.unpack_shards(reply.payload, sizes)]


class TestStalledReader:
    """A peer that stops reading stalls only itself: its replies queue
    on the loop instead of wedging it.  The model is 8 MiB, more than
    the kernel buffers between the server and a 4 KiB receive buffer."""

    N, SHARDS = 1 << 20, 8

    def test_a_stalled_reader_stalls_only_itself(self):
        """One peer sends a cold PULL_ALL and does not read.  Another
        worker's rounds and a status probe on a third connection are
        each answered within 1 s; once the stalled peer reads, it gets
        one CRC-clean SHARDS reply holding the model at its cut."""
        init = np.arange(self.N, dtype=np.float64)
        with ShardServer(init, self.SHARDS) as server:
            stalled = _raw_peer(server, 0, rcvbuf=4096)
            with stalled:
                received = server.counters[keys.PS_BYTES_RECEIVED]
                _cold_pull(stalled, server)
                _until(
                    lambda: server.counters[keys.PS_BYTES_RECEIVED] > received,
                    "the stalled peer's pull never arrived",
                )
                # The round holds the registry mutex until its reply is
                # packed, so this copy is the model the reply carries.
                cut = _within(1.0, server.snapshot)
                assert np.array_equal(cut, init)
                with _raw_peer(server, 1) as worker:
                    seen = [wire.VERSION_NEVER] * self.SHARDS
                    for clock in range(1, 6):
                        seen = _round(worker, server, clock, seen)
                    with socket.create_connection(
                        (server.host, server.port), timeout=1.0
                    ) as probe:
                        wire.send_frame(probe, wire.MSG_CTRL_STATUS)
                        _answered_within(probe, wire.MSG_CTRL_STATUS, 1.0)
                    wire.send_frame(worker, wire.MSG_BYE)
                stalled.settimeout(10.0)
                reply = wire.recv_frame(stalled)  # checks the CRC
                assert reply.msg_type == wire.MSG_SHARDS
                bounds = shard_bounds(self.N, self.SHARDS)
                entries = wire.unpack_shards(
                    reply.payload, [(hi - lo) * 8 for lo, hi in bounds]
                )
                got = np.concatenate(
                    [np.frombuffer(payload, dtype=np.float64) for _, payload in entries]
                )
                assert np.array_equal(got, cut)
                assert not np.array_equal(got, server.snapshot())
                stalled.settimeout(0.2)
                with pytest.raises(socket.timeout):
                    stalled.recv(1)  # one reply, nothing behind it

    def test_reset_with_a_queued_reply_drops_only_that_peer(self):
        """A peer that resets (SO_LINGER 0) with most of an 8 MiB reply
        still queued is dropped and reaped as a dead worker; the loop
        keeps serving the others."""
        with ShardServer(np.zeros(self.N), self.SHARDS) as server:
            with _raw_peer(server, 0) as worker:
                seen = [wire.VERSION_NEVER] * self.SHARDS
                for k in range(1, 4):
                    rounds = server.counters[keys.PS_PULL_ROUNDS]
                    stalled = _raw_peer(server, k, rcvbuf=4096)
                    _cold_pull(stalled, server)
                    _until(
                        lambda: server.counters[keys.PS_PULL_ROUNDS] == rounds + 1,
                        "the stalled peer's pull was never served",
                    )
                    stalled.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                    )
                    stalled.close()
                    _until(
                        lambda: server.counters[keys.PS_DEAD_WORKERS_REAPED] == k,
                        "the reset peer was not reaped",
                    )
                    seen = _round(worker, server, k, seen)
                wire.send_frame(worker, wire.MSG_BYE)
            assert not server.wait(0), "the loop stopped"


class TestLoopLifecycle:
    def test_a_crashed_loop_is_raised_by_wait(self, monkeypatch):
        """A fault that escapes the loop is not a clean shutdown."""

        def crash(peers):
            raise RuntimeError("loop fault")

        monkeypatch.setattr(threading, "excepthook", lambda args: None)
        with ShardServer(np.zeros(8), 2) as server:
            monkeypatch.setattr(server, "_readable", crash)
            with socket.create_connection((server.host, server.port), timeout=10):
                with pytest.raises(RuntimeError, match="loop fault"):
                    server.wait(10)

    def test_a_crashed_standalone_server_exits_non_zero(self, monkeypatch):
        """The standalone server process surfaces the crash as its exit
        code, as ``repro serve`` does, instead of exiting 0."""

        def crash(self, peers):
            raise RuntimeError("loop fault")

        monkeypatch.setattr(ShardServer, "_readable", crash)
        monkeypatch.setattr(threading, "excepthook", lambda args: None)
        ctx = _ctx()
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=server_main,
            args=(send_conn, np.zeros(8), 2, None, 1, None, (), None, False),
            daemon=True,
        )
        proc.start()
        send_conn.close()
        try:
            assert recv_conn.poll(30.0)
            address = recv_conn.recv()
            socket.create_connection(address, timeout=10).close()
            proc.join(10.0)
            assert proc.exitcode not in (None, 0)
        finally:
            recv_conn.close()
            proc.kill()
            proc.join(5.0)

    def test_shutdown_ack_is_out_before_wait_returns(self):
        """A CTRL_SHUTDOWN behind an unread 8 MiB snapshot reply: wait()
        holds while the ack is queued, and the reader gets the snapshot,
        then the ack, then EOF — before wait() returns."""
        n = 1 << 20
        init = np.arange(n, dtype=np.float64)
        with ShardServer(init, 8) as server:
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(10.0)
            with sock:
                sock.connect((server.host, server.port))
                sock.sendall(
                    wire.pack_frame(wire.MSG_CTRL_SNAPSHOT)
                    + wire.pack_frame(wire.MSG_CTRL_SHUTDOWN)
                )
                assert not server.wait(0.5)
                snapshot = wire.recv_frame(sock)
                assert snapshot.msg_type == wire.MSG_CTRL_SNAPSHOT
                assert np.array_equal(np.frombuffer(snapshot.payload), init)
                assert wire.recv_frame(sock).msg_type == wire.MSG_CTRL_SHUTDOWN
                assert wire.recv_frame(sock) is None
            assert server.wait(5.0)


class TestRecoveryTrajectory:
    def test_combined_kill_and_stall_drill(self, setup):
        """The manifest's ``recovery`` list is a trajectory, in order:
        a node-kill at epoch 1 then a node-stall at epoch 2 must
        produce exactly two entries, in epoch order, with the counters
        agreeing with the log."""
        model, ds, init = setup
        res = train_ps(
            model, ds.X, ds.y, init, _config(),
            PsSchedule(nodes=2, epoch_timeout=2.0),
            fault_plan=FaultPlan.parse(["node-kill@1:w0", "node-stall@2:w1"]),
            recovery=RecoveryPolicy(max_restarts=3, mode="respawn"),
        )
        assert res.epochs_run == 3
        assert not res.diverged
        actions = [(e["action"], e["epoch"]) for e in res.recovery]
        assert actions == [("respawn", 1), ("respawn", 2)]
        assert res.restarts == 2
        assert res.repartitions == 0
        assert res.nodes_final == 2
        # The kill leaves a corpse with the fault exit code; the stall
        # leaves none (barrier timeout, worker_id unknown).
        assert res.recovery[0]["cause"]["exitcode"] == 23
        assert res.recovery[1]["cause"]["worker_id"] is None
        assert res.counters[keys.FAULT_WORKER_RESTARTS] == 2.0
        assert res.counters[keys.FAULT_REPARTITIONS] == 0.0
        assert res.faults_injected >= 2

    def test_kill_then_repartition_then_stall_respawn(self, setup):
        """Mixed modes: a repartition (kill) followed by a stall
        respawn rebuilds at the *degraded* width and the trajectory
        records both widths."""
        model, ds, init = setup
        res = train_ps(
            model, ds.X, ds.y, init, _config(),
            PsSchedule(nodes=3, epoch_timeout=2.0),
            fault_plan=FaultPlan.parse(["node-kill@1:w2", "node-stall@2:w0"]),
            recovery=RecoveryPolicy(max_restarts=3, mode="repartition"),
        )
        assert res.epochs_run == 3
        actions = [(e["action"], e["epoch"], e["nodes"]) for e in res.recovery]
        assert actions == [("repartition", 1, 2), ("respawn", 2, 2)]
        assert res.restarts == 1
        assert res.repartitions == 1
        assert res.nodes_final == 2
        assert res.degraded_epochs >= 1
