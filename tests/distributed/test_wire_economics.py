"""Regression tests for the amortised parameter-server wire.

The batched protocol's contract is arithmetic, not statistical: one
work item costs exactly one pull round-trip (PULL_ALL opens the epoch,
fused PUSH_PULL covers the middle, the last item pushes alone), every
answered round accounts for every shard as either a fresh payload or a
cached header, and the server's byte counter decomposes exactly into
frame arithmetic.  These tests pin that contract so a protocol change
that quietly re-inflates the wire fails loudly.
"""

import socket
import time

import numpy as np
import pytest

from repro.datasets import load
from repro.distributed import PsSchedule, ShardServer, train_ps
from repro.distributed import protocol as wire
from repro.models import make_model
from repro.sgd import SGDConfig
from repro.telemetry import keys
from repro.utils.rng import derive_rng

#: Frame-arithmetic constants (see protocol.py): 20-byte checksummed
#: header, 22-byte HELLO_ACK payload (n_params u64, n_shards u16,
#: max_staleness i32, resume_clock u64), 2-byte SHARDS count head,
#: 9-byte per-shard entry.
_HEADER = wire.HEADER_BYTES
_HELLO_ACK = _HEADER + 22
_EPOCH_ACK = _HEADER
_SHARDS_HEAD = 2
_SHARD_ENTRY = 9


@pytest.fixture(scope="module", params=["covtype", "w8a"], ids=["dense", "sparse"])
def setup(request):
    ds = load(request.param, "tiny")
    model = make_model("lr", ds)
    init = model.init_params(derive_rng(7, "wiretest"))
    return model, ds, init


def _config(**kw):
    defaults = dict(step_size=0.05, max_epochs=2, seed=99)
    defaults.update(kw)
    return SGDConfig(**defaults)


class TestSingleNodeEconomics:
    """Exact per-update round-trip and byte counts, one node."""

    @pytest.fixture(scope="class")
    def run(self, setup):
        model, ds, init = setup
        res = train_ps(
            model, ds.X, ds.y, init, _config(), PsSchedule(nodes=1)
        )
        return ds, res

    def test_one_round_trip_per_item(self, run):
        ds, res = run
        n, epochs = ds.X.shape[0], res.epochs_run
        assert res.counters[keys.PS_PULL_ROUNDS] == n * epochs
        assert res.counters[keys.UPDATES_APPLIED] == n * epochs
        assert res.pull_rounds_per_update == 1.0

    def test_every_shard_of_every_round_accounted(self, run):
        _, res = run
        assert (
            res.counters[keys.PS_PULLS] + res.counters[keys.PS_SHARD_CACHE_HITS]
            == res.counters[keys.PS_PULL_ROUNDS] * res.shards
        )

    def test_bytes_sent_decompose_exactly(self, run):
        """ps.bytes_sent is frame arithmetic, nothing hidden: one
        HELLO_ACK, one EPOCH_ACK per barrier, and per round a SHARDS
        frame whose payload is the full model minus the cached bytes."""
        ds, res = run
        rounds = res.counters[keys.PS_PULL_ROUNDS]
        n_params = ds.n_features
        expected = (
            _HELLO_ACK
            + _EPOCH_ACK * (res.epochs_run + 1)  # registration + epochs
            + rounds * (_HEADER + _SHARDS_HEAD + _SHARD_ENTRY * res.shards)
            + 8 * n_params * rounds
            - res.counters[keys.PS_BYTES_SAVED]
        )
        assert res.counters[keys.PS_BYTES_SENT] == expected

    def test_cached_bytes_never_reship(self, run):
        """bytes_saved is whole shards' worth of float64 payloads."""
        ds, res = run
        hits = res.counters[keys.PS_SHARD_CACHE_HITS]
        saved = res.counters[keys.PS_BYTES_SAVED]
        lo_size = 8 * (ds.n_features // res.shards)
        hi_size = 8 * (ds.n_features // res.shards + 1)
        assert lo_size * hits <= saved <= hi_size * hits

    def test_bytes_received_within_layout_bound(self, run):
        """The request direction: per update at most one PUSH_PULL
        (header, push length, the largest push the data can produce at
        batch_size=1, version vector), plus the run's fixed frames —
        HELLO, BYE, an EPOCH_DONE per barrier, and one more header per
        epoch, whose opening pull and closing push travel unfused."""
        ds, res = run
        if ds.is_sparse:
            push = 1 + 4 + 16 * int(np.diff(ds.X.indptr).max())
        else:
            push = 1 + 8 * ds.n_features
        request = _HEADER + 4 + push + 2 + 8 * res.shards
        fixed = _HEADER * (2 + (res.epochs_run + 1) + res.epochs_run)
        updates = res.counters[keys.UPDATES_APPLIED]
        assert 0 < res.counters[keys.PS_BYTES_RECEIVED] <= request * updates + fixed


class TestSerialEquivalence:
    def test_fused_protocol_stays_bit_exact(self, setup):
        """One lock-step node under PULL_ALL + fused PUSH_PULL still
        reproduces serial SGD bit for bit: the push of item k is
        applied before the pull for item k+1 is answered, on the same
        ordered stream, fusion or not."""
        model, ds, init = setup
        res = train_ps(
            model, ds.X, ds.y, init, _config(),
            PsSchedule(nodes=1, max_staleness=0),
        )
        expected = init.copy()
        rng = derive_rng(99, "ps/1/0")
        part = np.arange(ds.X.shape[0], dtype=np.int64)
        for _ in range(res.epochs_run):
            order = part[rng.permutation(part.shape[0])]
            model.serial_sgd_epoch(ds.X, ds.y, order, expected, 0.05)
        assert np.array_equal(res.params, expected)


class TestMultiNodeCache:
    def test_sparse_runs_hit_the_cache(self):
        """Sparse pushes bump few shards, so most shards of most rounds
        answer as cached headers — the protocol's whole point."""
        ds = load("w8a", "tiny")
        model = make_model("lr", ds)
        init = model.init_params(derive_rng(7, "wiretest"))
        res = train_ps(
            model, ds.X, ds.y, init, _config(),
            PsSchedule(nodes=2, epoch_timeout=60.0),
        )
        assert res.counters[keys.PS_SHARD_CACHE_HITS] > 0
        assert res.counters[keys.PS_BYTES_SAVED] > 0
        assert res.pull_rounds_per_update == 1.0


def _dial(server: ShardServer) -> tuple[socket.socket, int, int]:
    sock = socket.create_connection((server.host, server.port))
    wire.send_frame(sock, wire.MSG_HELLO, ident=0)
    ack = wire.recv_frame(sock)
    n_params, n_shards, _, _ = wire.unpack_hello_ack(ack.payload)
    return sock, n_params, n_shards


def _pull_all(sock, seen, sizes):
    wire.send_frame(
        sock, wire.MSG_PULL_ALL, payload=wire.pack_versions(list(seen))
    )
    frame = wire.recv_frame(sock)
    assert frame.msg_type == wire.MSG_SHARDS
    return wire.unpack_shards(frame.payload, sizes)


def _settled(server: ShardServer, expect: dict[str, float]) -> None:
    """Assert counter values, allowing the handler thread to catch up.

    The server sends each reply *before* bumping its counters, so a
    client that just received the frame can observe the pre-update
    value for a moment."""
    deadline = time.monotonic() + 2.0
    while time.monotonic() < deadline:
        if all(server.counters[k] == v for k, v in expect.items()):
            return
        time.sleep(0.005)
    assert {k: server.counters[k] for k in expect} == expect


class TestVersionSemantics:
    """Direct-socket checks of the server's version/cache contract."""

    @pytest.fixture()
    def server(self):
        init = np.linspace(-1.0, 1.0, 24)
        with ShardServer(init, 3) as srv:
            yield srv

    def test_first_pull_always_ships_payloads(self, server):
        sock, n_params, n_shards = _dial(server)
        sizes = [8 * n_params // n_shards] * n_shards
        entries = _pull_all(sock, [wire.VERSION_NEVER] * n_shards, sizes)
        assert all(payload is not None for _, payload in entries)
        _settled(server, {keys.PS_SHARD_CACHE_HITS: 0, keys.PS_PULLS: n_shards})
        sock.close()

    def test_unchanged_shards_answer_cached(self, server):
        sock, n_params, n_shards = _dial(server)
        sizes = [8 * n_params // n_shards] * n_shards
        entries = _pull_all(sock, [wire.VERSION_NEVER] * n_shards, sizes)
        seen = [version for version, _ in entries]
        entries = _pull_all(sock, seen, sizes)
        assert all(payload is None for _, payload in entries)
        _settled(
            server,
            {
                keys.PS_SHARD_CACHE_HITS: n_shards,
                keys.PS_BYTES_SAVED: 8 * n_params,
            },
        )
        sock.close()

    def test_empty_push_advances_clock_without_bumping_versions(self, server):
        """The dense empty-delta fix end to end: a 1-byte empty push
        counts as a work item but leaves every version — and therefore
        every worker cache — untouched."""
        sock, n_params, n_shards = _dial(server)
        sizes = [8 * n_params // n_shards] * n_shards
        seen = [v for v, _ in _pull_all(sock, [wire.VERSION_NEVER] * n_shards, sizes)]
        wire.send_frame(
            sock, wire.MSG_PUSH, ident=1, clock=1,
            payload=wire.pack_push_empty(),
        )
        entries = _pull_all(sock, seen, sizes)
        assert all(payload is None for _, payload in entries)
        _settled(server, {keys.PS_PUSHES: 1, keys.UPDATES_APPLIED: 1})
        sock.close()

    def test_sparse_push_bumps_only_touched_shards(self, server):
        sock, n_params, n_shards = _dial(server)
        sizes = [8 * n_params // n_shards] * n_shards
        seen = [v for v, _ in _pull_all(sock, [wire.VERSION_NEVER] * n_shards, sizes)]
        # Indices 0 and 1 live in shard 0 of the 24-param/3-shard layout.
        idx = np.array([0, 1], dtype=np.int64)
        val = np.array([0.5, -0.5])
        wire.send_frame(
            sock, wire.MSG_PUSH, ident=1, clock=1,
            payload=wire.pack_push(idx, val),
        )
        entries = _pull_all(sock, seen, sizes)
        assert entries[0][1] is not None  # touched: fresh payload
        assert entries[1][1] is None and entries[2][1] is None
        _settled(server, {keys.PS_SHARD_CACHE_HITS: n_shards - 1})
        sock.close()

    def test_out_of_band_rewrite_invalidates_caches(self, server):
        """write_params (the NaN scrub) bumps every version, so a
        matching stale version can never serve pre-scrub bytes."""
        sock, n_params, n_shards = _dial(server)
        sizes = [8 * n_params // n_shards] * n_shards
        seen = [v for v, _ in _pull_all(sock, [wire.VERSION_NEVER] * n_shards, sizes)]
        scrubbed = np.zeros(n_params)
        server.write_params(scrubbed)
        entries = _pull_all(sock, seen, sizes)
        assert all(payload is not None for _, payload in entries)
        rebuilt = np.concatenate(
            [np.frombuffer(p, dtype=np.float64) for _, p in entries]
        )
        assert np.array_equal(rebuilt, scrubbed)
        sock.close()

    def test_mismatched_version_vector_rejected(self, server):
        sock, _, n_shards = _dial(server)
        wire.send_frame(
            sock,
            wire.MSG_PULL_ALL,
            payload=wire.pack_versions([0] * (n_shards + 1)),
        )
        # The handler drops the connection on the protocol error.
        assert wire.recv_frame(sock) is None
        sock.close()
