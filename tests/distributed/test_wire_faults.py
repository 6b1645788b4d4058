"""Tests for the lossy wire: the fault-injecting socket wrapper, the
plan resolvers that feed it, and the end-to-end healing guarantees."""

import socket

import numpy as np
import pytest

from repro.datasets import load
from repro.distributed import FaultyWire, PsSchedule, train_ps
from repro.distributed import protocol as wire
from repro.distributed.lossy import WIRE_FAULT_IDENTS
from repro.faults import FaultPlan
from repro.faults.plan import DEFAULT_DELAY_SECONDS, STALL_TIMEOUT_FACTOR
from repro.models import make_model
from repro.sgd import SGDConfig
from repro.telemetry import keys
from repro.utils.errors import ConfigurationError
from repro.utils.rng import derive_rng


@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


def _wrap(sock) -> FaultyWire:
    return FaultyWire(sock, derive_rng(0, "wire-fault-test"))


class TestFaultyWire:
    def test_unknown_kind_rejected(self, pair):
        a, _ = pair
        with pytest.raises(ConfigurationError, match="unknown wire fault"):
            _wrap(a).arm("frame-eaten")

    def test_unarmed_is_pure_passthrough(self, pair):
        a, b = pair
        wrapped = _wrap(a)
        wire.send_frame(wrapped, wire.MSG_PUSH, ident=1, clock=5,
                        payload=b"\x01" * 32)
        frame = wire.recv_frame(b)
        assert frame.payload == b"\x01" * 32

    def test_conn_drop_fires_before_the_frame_leaves(self, pair):
        a, b = pair
        wrapped = _wrap(a)
        wrapped.arm("conn-drop")
        with pytest.raises(ConnectionError):
            wire.send_frame(wrapped, wire.MSG_PUSH, payload=b"\x01" * 8)
        # Nothing escaped: the peer sees a clean EOF, not a torn frame.
        assert wire.recv_frame(b) is None

    def test_arming_is_one_shot(self, pair):
        a, b = pair
        wrapped = _wrap(a)
        wrapped.arm("frame-delay", 0.0)
        wire.send_frame(wrapped, wire.MSG_PULL_ALL, clock=1)
        wire.send_frame(wrapped, wire.MSG_PULL_ALL, clock=2)
        assert wire.recv_frame(b).clock == 1
        assert wire.recv_frame(b).clock == 2

    def test_frame_delay_delivers_intact(self, pair):
        a, b = pair
        wrapped = _wrap(a)
        wrapped.arm("frame-delay", 0.01)
        wire.send_frame(wrapped, wire.MSG_PUSH, ident=9, payload=b"\x07" * 24)
        frame = wire.recv_frame(b)
        assert frame.ident == 9
        assert frame.payload == b"\x07" * 24

    def test_frame_corrupt_fails_the_receiver_crc(self, pair):
        """The tentpole guarantee at the socket level: a flipped
        payload byte is *detected*, never decoded as garbage floats."""
        a, b = pair
        wrapped = _wrap(a)
        wrapped.arm("frame-corrupt")
        wire.send_frame(
            wrapped, wire.MSG_PUSH, payload=np.linspace(0, 1, 16).tobytes()
        )
        with pytest.raises(wire.WireProtocolError, match="checksum"):
            wire.recv_frame(b)

    def test_corruption_targets_the_payload_not_the_header(self):
        """Header fields survive so the receiver gets far enough to
        run the checksum — seeded position is always past the header."""
        captured = []

        class _Sink:
            def sendall(self, buf):
                captured.append(bytes(buf))

        original = wire.pack_frame(wire.MSG_PUSH, payload=b"\x00" * 64)
        for trial in range(16):
            wrapped = FaultyWire(_Sink(), derive_rng(trial, "corrupt-pos"))
            wrapped.arm("frame-corrupt")
            wrapped.sendall(original)
        for sent in captured:
            assert sent[: wire.HEADER_BYTES] == original[: wire.HEADER_BYTES]
            assert sent != original

    def test_attach_spans_a_reconnect(self, pair):
        a, b = pair
        wrapped = _wrap(a)
        wrapped.arm("conn-drop")
        with pytest.raises(ConnectionError):
            wire.send_frame(wrapped, wire.MSG_PUSH)
        a2, b2 = socket.socketpair()
        try:
            wrapped.attach(a2)
            wire.send_frame(wrapped, wire.MSG_PULL_ALL, clock=3)
            assert wire.recv_frame(b2).clock == 3
        finally:
            a2.close()
            b2.close()

    def test_fault_idents_extend_the_node_kinds(self):
        # 1=kill and 2=stall are taken by the node-fault FAULT frames.
        assert set(WIRE_FAULT_IDENTS) == {
            "conn-drop", "frame-delay", "frame-corrupt"
        }
        assert min(WIRE_FAULT_IDENTS.values()) >= 3


class TestPlanResolution:
    def test_resolve_wire_pins_workers_and_defaults(self):
        plan = FaultPlan.parse(
            ["conn-drop@1:w0", "frame-delay@2:w1", "frame-corrupt@3:w0",
             "node-kill@1:w1"],
            seed=5,
        )
        assigned = plan.resolve_wire(2, run_seed=5, epoch_timeout=10.0)
        assert sorted(assigned) == [0, 1]
        kinds_w0 = [s["kind"] for s in assigned[0]]
        assert kinds_w0 == ["conn-drop", "frame-corrupt"]
        # node kinds resolve through resolve_nodes, never here.
        assert all(
            s["kind"] != "node-kill" for specs in assigned.values()
            for s in specs
        )
        delay = assigned[1][0]
        assert delay["seconds"] == DEFAULT_DELAY_SECONDS
        assert assigned[0][0]["seconds"] == 0.0

    def test_resolve_wire_unpinned_worker_is_seeded(self):
        plan = FaultPlan.parse(["conn-drop@1"], seed=5)
        first = plan.resolve_wire(4, run_seed=0, epoch_timeout=10.0)
        second = plan.resolve_wire(4, run_seed=0, epoch_timeout=10.0)
        assert first == second  # same stream, same target

    def test_resolve_wire_rejects_out_of_range_worker(self):
        plan = FaultPlan.parse(["conn-drop@1:w5"], seed=5)
        with pytest.raises(ConfigurationError, match="only"):
            plan.resolve_wire(2, run_seed=5, epoch_timeout=10.0)

    def test_resolve_server_defaults(self):
        plan = FaultPlan.parse(
            ["server-kill@2", "server-stall@3", "conn-drop@1:w0"], seed=5
        )
        specs = plan.resolve_server(epoch_timeout=4.0)
        assert [s["kind"] for s in specs] == ["server-kill", "server-stall"]
        assert specs[0]["seconds"] == 0.0
        assert specs[1]["seconds"] == 4.0 * STALL_TIMEOUT_FACTOR


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


class TestLossyWireEndToEnd:
    def test_conn_drop_heals_without_recovery_budget(self, setup):
        model, ds, init = setup
        res = train_ps(
            model, ds.X, ds.y, init, _config(),
            PsSchedule(nodes=2, epoch_timeout=30.0),
            fault_plan=FaultPlan.parse(["conn-drop@2:w0"]),
        )
        assert res.epochs_run == 3
        assert not res.diverged
        assert res.counters[keys.PS_RECONNECTS_MIDRUN] >= 1.0
        assert res.counters[keys.FAULT_INJECTED] >= 1.0
        assert res.recovery == []  # healed worker-side, no budget spent

    def test_frame_corrupt_rejected_then_healed(self, setup):
        """Acceptance criterion: the corrupted push is CRC-rejected
        (never applied) and the worker reconnects and replays."""
        model, ds, init = setup
        res = train_ps(
            model, ds.X, ds.y, init, _config(),
            PsSchedule(nodes=2, epoch_timeout=30.0),
            fault_plan=FaultPlan.parse(["frame-corrupt@2:w1"]),
        )
        assert res.epochs_run == 3
        assert not res.diverged
        assert res.counters[keys.PS_FRAMES_REJECTED] >= 1.0
        assert res.counters[keys.PS_RECONNECTS_MIDRUN] >= 1.0
        assert res.recovery == []

    def test_frame_delay_absorbed_silently(self, setup):
        model, ds, init = setup
        res = train_ps(
            model, ds.X, ds.y, init, _config(),
            PsSchedule(nodes=2, epoch_timeout=30.0),
            fault_plan=FaultPlan.parse(["frame-delay@2:w0"]),
        )
        assert res.epochs_run == 3
        assert not res.diverged
        assert res.counters[keys.PS_RECONNECTS_MIDRUN] == 0.0
        assert res.counters.get(keys.PS_FRAMES_REJECTED, 0.0) == 0.0
        assert res.recovery == []

    def test_single_node_drop_stays_serial_exact(self, setup):
        """Healing is exactly-once both ways: even one lock-step node
        with a dropped connection mid-epoch replays to the bit-exact
        serial trajectory."""
        model, ds, init = setup
        res = train_ps(
            model, ds.X, ds.y, init, _config(),
            PsSchedule(nodes=1, max_staleness=0, batch_size=1,
                       epoch_timeout=60.0),
            fault_plan=FaultPlan.parse(["conn-drop@2:w0"]),
        )
        assert res.counters[keys.PS_RECONNECTS_MIDRUN] >= 1.0
        expected = init.copy()
        rng = derive_rng(99, "ps/1/0")
        part = np.arange(ds.X.shape[0], dtype=np.int64)
        for _ in range(res.epochs_run):
            order = part[rng.permutation(part.shape[0])]
            model.serial_sgd_epoch(ds.X, ds.y, order, expected, 0.05)
        assert np.array_equal(res.params, expected)

    def test_drop_with_a_half_frame_buffered_stays_serial_exact(
        self, setup, monkeypatch, tmp_path
    ):
        """The worker's buffered reader belongs to one socket.  Here the
        reply just before the drop arrives with the first 30 bytes of
        another frame behind it, so the drop fires with an unread
        half-frame buffered; the redial must start from an empty
        buffer (or the HELLO_ACK is parsed as that frame's payload and
        the node never comes back), and the replay stays exactly-once."""
        model, ds, init = setup
        n = ds.X.shape[0]
        # The drop hits the seeded item of epoch 2; the reply before it
        # answers the PUSH_PULL whose clock is that item's index.
        item = int(derive_rng(99, "ps-wire/1/0").integers(n))
        assert item > 0  # a PULL_ALL-opened item has no such reply
        half = wire.pack_frame(wire.MSG_SHARDS, payload=b"\x00" * 100)[:30]
        real_pack = wire.pack_frame
        # The patch runs in the forked server process: it records the
        # poisoned clock in a file, which the parent can read back.
        log = tmp_path / "poisoned"

        def pack_frame(msg_type, *, ident=0, clock=0, payload=b""):
            frame = real_pack(msg_type, ident=ident, clock=clock, payload=payload)
            if msg_type == wire.MSG_SHARDS and clock == n + item and not log.exists():
                log.write_text(str(clock))
                return frame + half  # one send: read together
            return frame

        monkeypatch.setattr(wire, "pack_frame", pack_frame)
        res = train_ps(
            model, ds.X, ds.y, init, _config(),
            PsSchedule(nodes=1, max_staleness=0, batch_size=1,
                       epoch_timeout=20.0),
            fault_plan=FaultPlan.parse(["conn-drop@2:w0"]),
        )
        poisoned = [int(log.read_text())] if log.exists() else []
        assert poisoned == [n + item]
        assert res.counters[keys.PS_RECONNECTS_MIDRUN] == 1.0
        expected = init.copy()
        rng = derive_rng(99, "ps/1/0")
        part = np.arange(n, dtype=np.int64)
        for _ in range(res.epochs_run):
            order = part[rng.permutation(part.shape[0])]
            model.serial_sgd_epoch(ds.X, ds.y, order, expected, 0.05)
        assert np.array_equal(res.params, expected)
