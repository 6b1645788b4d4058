"""Tests for the micro-batched scoring engine and hot-swap refresher."""

import json
import socket
import threading
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serving.engine as engine_module
from repro.datasets import load
from repro.linalg.csr import CSRMatrix
from repro.models import LinearSVM, LogisticRegression
from repro.serving import (
    ArtifactSource,
    ScoringEngine,
    ScoringServer,
    ServedModel,
    ShmTrainHandle,
    SnapshotPublisher,
    SnapshotRefresher,
)
from repro.sgd import save_results, train
from repro.telemetry import Telemetry, keys
from repro.utils.errors import (
    ConfigurationError,
    DataFormatError,
    SnapshotUnavailableError,
)

N = 6
W = np.array([0.5, -1.0, 0.25, 0.0, 2.0, -0.5])


def _engine(task="lr", **kw):
    eng = ScoringEngine(task, N, **kw)
    eng.install(ServedModel(params=W, version=1, source="artifact"))
    return eng


def _gate(eng):
    """Hold the first kernel call until ``release`` is set.

    A server's loop is then stuck inside its first batch, so everything
    sent meanwhile is waiting when it next reads: which requests share a
    batch is fixed by the test, not by thread timing.  Returns
    ``(entered, release, sizes)``: ``sizes`` lists the example count of
    every batch scored, in order.
    """
    entered, release = threading.Event(), threading.Event()
    sizes = []
    score_block = eng._score_block

    def gated(X, model):
        sizes.append(X.n_rows)
        if len(sizes) == 1:
            entered.set()
            assert release.wait(10), "test never released the gate"
        return score_block(X, model)

    eng._score_block = gated
    return entered, release, sizes


def _score_behind_gate(eng, entered, release, first, queued):
    """Send the ``first`` request's score line on one connection; once the
    gate holds it, send one line per ``queued`` request on a second, then
    release.  Returns the replies to ``queued``, in order."""
    lines = [
        json.dumps({"op": "score", "examples": examples}).encode() + b"\n"
        for examples in (first, *queued)
    ]
    with ScoringServer(eng) as server:
        address = (server.host, server.port)
        one = socket.create_connection(address, timeout=10)
        two = socket.create_connection(address, timeout=10)
        with one, two:
            one.sendall(lines[0])
            assert entered.wait(10)
            two.sendall(b"".join(lines[1:]))
            release.set()
            assert json.loads(one.makefile("rb").readline())["ok"]
            reader = two.makefile("rb")
            replies = [json.loads(reader.readline()) for _ in queued]
    assert all(reply["ok"] for reply in replies), replies
    return replies


class TestValidation:
    def test_rejects_unservable_task(self):
        with pytest.raises(ConfigurationError):
            ScoringEngine("mlp", N)

    @pytest.mark.parametrize(
        "bad",
        [
            [1.0, 2.0, 3.0],  # wrong dense width
            {"indices": [0, N], "values": [1.0, 1.0]},  # index out of range
            {"indices": [2, 2], "values": [1.0, 1.0]},  # duplicate index
            {"indices": [1]},  # missing values
            "nonsense",
        ],
    )
    def test_malformed_examples(self, bad):
        with pytest.raises(DataFormatError):
            _engine().score([bad])

    def test_empty_request(self):
        with pytest.raises(DataFormatError):
            _engine().score([])


class TestScoring:
    def test_margins_match_model_predict(self):
        """Serving margins equal the training-side model's, dense and sparse."""
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((5, N))
        eng = _engine()
        resp = eng.score([row for row in dense])
        model = LogisticRegression(N)
        expected = model.predict_margin(dense, W)
        got = np.array([r.margin for r in resp.results])
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        probs = np.array([r.prob for r in resp.results])
        np.testing.assert_allclose(probs, 1.0 / (1.0 + np.exp(-expected)), atol=1e-12)

    def test_sparse_and_dense_forms_agree(self):
        eng = _engine()
        dense = [0.0, 3.0, 0.0, 0.0, -2.0, 0.0]
        sparse = {"indices": [1, 4], "values": [3.0, -2.0]}
        unsorted = {"indices": [4, 1], "values": [-2.0, 3.0]}  # sorted for us
        pair = ([1, 4], [3.0, -2.0])
        resp = eng.score([dense, sparse, unsorted, pair])
        margins = {r.margin for r in resp.results}
        assert len(margins) == 1

    def test_svm_has_no_probability(self):
        resp = _engine("svm").score([[1.0] * N])
        assert resp.results[0].prob is None
        expected = LinearSVM(N).predict_margin(np.ones((1, N)), W)[0]
        assert resp.results[0].margin == pytest.approx(expected, abs=1e-12)

    def test_labels_follow_margin_sign(self):
        resp = _engine().score(
            [{"indices": [4], "values": [1.0]}, {"indices": [1], "values": [1.0]}]
        )
        assert [r.label for r in resp.results] == [1, -1]

    def test_cold_start_is_retriable(self):
        eng = ScoringEngine("lr", N)
        with pytest.raises(SnapshotUnavailableError) as exc:
            eng.score([[0.0] * N])
        assert exc.value.reason == "cold-start"
        assert exc.value.retriable

    @pytest.mark.parametrize(
        "bad",
        [
            {"indices": [0], "values": [float("nan")]},
            {"indices": [3, 1], "values": [1.0, float("inf")]},
            [0.0, float("-inf"), 0.0, 0.0, 0.0, 0.0],
            ([2], [None]),  # NumPy reads None as NaN
        ],
    )
    def test_non_finite_features_are_rejected(self, bad):
        with pytest.raises(DataFormatError, match="^example 1: .*finite"):
            _engine().score([[1.0] * N, bad])


# -- the request parser, against a per-example NumPy oracle ---------------

D = 9
W_D = np.random.default_rng(11).standard_normal(D)


def _engine_d():
    eng = ScoringEngine("lr", D)
    eng.install(ServedModel(params=W_D, version=1, source="artifact"))
    return eng


@st.composite
def _example(draw):
    """One example in any accepted form, with its oracle ``(indices, values)``."""
    cols = draw(st.lists(st.integers(0, D - 1), unique=True, max_size=D))
    vals = draw(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=len(cols),
            max_size=len(cols),
        )
    )
    form = draw(st.sampled_from(["dense", "numpy", "dict", "pair"]))
    if form in ("dense", "numpy"):
        row = np.zeros(D)
        row[cols] = vals
        example = row if form == "numpy" else row.tolist()
        keep = np.flatnonzero(row)
        return example, (keep, row[keep])
    if form == "dict":  # indices in the drawn (unsorted) order
        example = {"indices": cols, "values": vals}
    else:
        pair = (cols, vals)
        if draw(st.booleans()):
            pair = (np.array(cols, dtype=np.int64), np.array(vals))
        example = pair if draw(st.booleans()) else list(pair)
    order = np.argsort(np.asarray(cols, dtype=np.int64), kind="stable")
    return example, (np.asarray(cols, dtype=np.int64)[order], np.asarray(vals)[order])


_MALFORMED = [
    [1.0] * (D + 1),  # dense, wrong width
    [[1.0] * D],  # dense, not flat
    "nonsense",
    {"indices": [D], "values": [1.0]},  # index out of range
    {"indices": [-1], "values": [1.0]},
    {"indices": [4, 2, 4], "values": [1.0, 2.0, 3.0]},  # duplicate index
    {"indices": [1, 2], "values": [1.0]},  # length mismatch
    {"indices": [1]},  # missing values
    {"indices": 3, "values": 1.0},  # not sequences
    {"indices": [0], "values": ["x"]},
    ([[1]], [[1.0]]),  # nested
    {"indices": [0], "values": [float("nan")]},
    [float("inf")] + [0.0] * (D - 1),
]

_requests = st.lists(_example(), min_size=1, max_size=70)


class TestRequestParser:
    """``_parse_examples`` turns a request into one CSR block; every
    example's row must equal what a per-example NumPy parse gives."""

    @given(_requests)
    @settings(max_examples=60, deadline=None)
    def test_block_rows_and_margins_match_the_oracle(self, drawn):
        examples = [example for example, _ in drawn]
        oracle = [rows for _, rows in drawn]
        eng = _engine_d()
        block = eng._parse_examples(examples)
        assert block.n == len(examples)
        assert block.indices.dtype == np.int32 and block.data.dtype == np.float64
        for i, (idx, val) in enumerate(oracle):
            lo, hi = block.indptr[i], block.indptr[i + 1]
            np.testing.assert_array_equal(block.indices[lo:hi], idx)
            np.testing.assert_array_equal(block.data[lo:hi], val)
        want = CSRMatrix.from_rows(oracle, D).matvec(W_D)
        got = np.array([r.margin for r in eng.score(examples).results])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", _MALFORMED)
    @given(drawn=_requests, data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_one_malformed_example_rejects_the_request(self, bad, drawn, data):
        examples = [example for example, _ in drawn]
        at = data.draw(st.integers(0, len(examples) - 1), label="position")
        examples[at] = bad
        with pytest.raises(DataFormatError, match=rf"^example {at}: "):
            _engine_d()._parse_examples(examples)

    @given(st.lists(_requests, min_size=2, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_stacked_blocks_equal_one_parse(self, requests):
        eng = _engine_d()
        parts = [[example for example, _ in drawn] for drawn in requests]
        stacked = eng._stack([eng._parse_examples(p) for p in parts])
        whole = eng._stack([eng._parse_examples([e for p in parts for e in p])])
        assert stacked.shape == whole.shape
        np.testing.assert_array_equal(stacked.indptr, whole.indptr)
        np.testing.assert_array_equal(stacked.indices, whole.indices)
        np.testing.assert_array_equal(stacked.data, whole.data)

    def test_parse_example_is_a_one_example_request(self):
        eng = _engine_d()
        idx, val = eng.parse_example({"indices": [5, 0, 2], "values": [1.5, -2, 0.0]})
        assert idx.dtype == np.int32
        assert idx.tolist() == [0, 2, 5] and val.tolist() == [-2.0, 0.0, 1.5]
        with pytest.raises(DataFormatError, match="^example 0: duplicate"):
            eng.parse_example(([1, 1], [1.0, 1.0]))


class TestHotSwap:
    def test_install_is_versioned(self):
        eng = _engine()
        assert not eng.install(ServedModel(params=W, version=1, source="artifact"))
        assert eng.install(ServedModel(params=2 * W, version=2, source="artifact"))
        assert eng.active.version == 2
        assert eng.stats().hot_swaps == 1

    def test_install_rejects_wrong_width(self):
        with pytest.raises(ConfigurationError):
            _engine().install(
                ServedModel(params=np.ones(N + 1), version=9, source="artifact")
            )

    def test_swap_mid_flight_never_drops_requests(self):
        """Requests racing a storm of hot-swaps all complete, each under
        a single coherent version (the one its batch pinned).  A request
        is scored on the calling thread, so the swapper runs only when
        the interpreter switches threads: keep requesting until swaps
        have landed."""
        eng = _engine()
        stop = threading.Event()

        def swapper():
            version = 2
            while not stop.is_set():
                eng.install(
                    ServedModel(params=W * version, version=version, source="artifact")
                )
                version += 1
        x = {"indices": [0], "values": [1.0]}
        with eng:
            t = threading.Thread(target=swapper, daemon=True)
            t.start()
            try:
                responses, seen = [], set()
                deadline = time.monotonic() + 10
                while len(responses) < 200 or (
                    len(seen) < 2 and time.monotonic() < deadline
                ):
                    responses.append(eng.request([x, x]))
                    seen.add(responses[-1].model_version)
            finally:
                stop.set()
                t.join(timeout=10)
        assert len(responses) >= 200
        for resp in responses:
            # both examples in the request scored under the same version
            assert resp.results[0].margin == resp.results[1].margin
            assert resp.results[0].margin == pytest.approx(
                W[0] * resp.model_version, abs=1e-12
            )
        versions = {r.model_version for r in responses}
        assert len(versions) > 1, "no swap landed mid-load"


class TestMicroBatching:
    def test_request_without_start_fails(self):
        with pytest.raises(ConfigurationError):
            _engine().request([[0.0] * N])

    def test_concurrent_requests_coalesce(self):
        """Score lines that arrive while a batch is scored form one batch."""
        tel = Telemetry()
        eng = _engine(telemetry=tel)
        entered, release, sizes = _gate(eng)
        x = {"indices": [2], "values": [1.0]}
        with eng:
            replies = _score_behind_gate(eng, entered, release, [x], [[x]] * 8)
        assert sizes == [1, 8]
        assert all(reply["results"][0]["margin"] == W[2] for reply in replies)
        stats = eng.stats()
        assert stats.requests == 9
        assert stats.batches == 2
        assert sum(stats.batch_size_histogram.values()) == stats.batches
        counters = tel.counters()
        assert counters[keys.SERVE_REQUESTS] == 9
        assert counters[keys.SERVE_EXAMPLES] == 9
        assert counters[keys.SERVE_BATCHES] == 2

    def test_batches_never_exceed_max_batch(self):
        """Whole requests are added only while they fit: under a cap of 4,
        queued requests of 1, 2 and 4 examples make batches of 3 and 4;
        a first request over the cap is scored alone."""
        eng = _engine(max_batch=4)
        entered, release, sizes = _gate(eng)
        x = {"indices": [2], "values": [1.0]}
        with eng:
            replies = _score_behind_gate(
                eng, entered, release, [x], [[x] * k for k in (1, 2, 4, 6, 1, 1)]
            )
        assert sizes == [1, 3, 4, 6, 2]
        assert [len(reply["results"]) for reply in replies] == [1, 2, 4, 6, 1, 1]

    def test_lone_request_never_sleeps(self, monkeypatch):
        """A lone request is scored at once: no coalescing window, no
        quiet polls."""
        sleeps = []
        fake_time = types.SimpleNamespace(
            perf_counter=time.perf_counter, time=time.time, sleep=sleeps.append
        )
        monkeypatch.setattr(engine_module, "time", fake_time)
        eng = _engine()
        x = {"indices": [2], "values": [1.0]}
        with eng:
            for _ in range(20):
                assert eng.request([x]).results[0].margin == W[2]
        assert sleeps == []
        assert eng.stats().batches == 20

    def test_stop_fails_queued_requests_retriably(self):
        eng = _engine()
        eng.start()
        eng.stop()
        with pytest.raises(ConfigurationError):
            eng.request([[0.0] * N])

    def test_stop_racing_submit_fails_promptly(self, monkeypatch):
        """stop() landing while a request is parsed fails that request at
        once: the started-engine check follows the parse."""
        eng = _engine().start()
        pending_request = engine_module._PendingRequest

        def stop_first(rows):
            eng.stop()
            return pending_request(rows)

        monkeypatch.setattr(engine_module, "_PendingRequest", stop_first)
        t0 = time.perf_counter()
        with pytest.raises(ConfigurationError, match="started engine"):
            eng.request([[0.0] * N])
        assert time.perf_counter() - t0 < 4.0


class TestArtifactServing:
    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("artifact") / "model.json"
        result = train(
            "lr", "w8a", architecture="cpu-par", strategy="synchronous",
            scale="tiny", step_size=0.5, max_epochs=5,
        )
        save_results(result, path)
        return path, result

    def test_from_artifact_serves_trained_params(self, artifact):
        path, result = artifact
        eng = ScoringEngine.from_artifact(path, watch=False)
        assert eng.task == "lr"
        assert eng.refresher is None
        x = {"indices": [0, 3], "values": [1.0, 1.0]}
        resp = eng.score([x])
        assert resp.model_source == "artifact"
        expected = result.params[0] + result.params[3]
        assert resp.results[0].margin == pytest.approx(expected, abs=1e-12)

    def test_artifact_without_params_is_rejected(self, artifact, tmp_path):
        import json

        path, result = artifact
        doc = json.loads(path.read_text())
        doc["results"][0].pop("params")
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match="without parameters"):
            ScoringEngine.from_artifact(bare, watch=False)

    def test_missing_artifact_is_retriable(self, tmp_path):
        source = ArtifactSource(tmp_path / "missing.json")
        with pytest.raises(SnapshotUnavailableError) as exc:
            source.poll()
        assert exc.value.reason == "no-artifact"

    def test_rewrite_hot_swaps(self, artifact, tmp_path):
        import json
        import os

        path, result = artifact
        copy = tmp_path / "model.json"
        copy.write_text(path.read_text())
        eng = ScoringEngine.from_artifact(copy, watch=True, refresh_interval=0.02)
        x = {"indices": [0], "values": [1.0]}
        with eng:
            r1 = eng.request([x])
            assert r1.model_version == 1
            doc = json.loads(copy.read_text())
            doc["results"][0]["params"] = [
                2.0 * float(v) for v in doc["results"][0]["params"]
            ]
            copy.write_text(json.dumps(doc))
            os.utime(copy)  # ensure a fresh mtime even on coarse clocks
            deadline = time.time() + 10
            while time.time() < deadline:
                r2 = eng.request([x])
                if r2.model_version == 2:
                    break
                time.sleep(0.02)
            assert r2.model_version == 2
            assert r2.results[0].margin == pytest.approx(
                2 * r1.results[0].margin, abs=1e-12
            )
        assert eng.refresher.installs >= 1


class TestSnapshotServing:
    def test_from_snapshot_live_publisher(self):
        ds = load("w8a", "tiny")
        pub = SnapshotPublisher.create(
            ds.n_features, meta={"task": "lr", "n_features": ds.n_features}
        )
        try:
            handle = ShmTrainHandle.attach(pub)
            eng = ScoringEngine.from_snapshot(handle, refresh_interval=0.01)
            x = {"indices": [0], "values": [1.0]}
            with eng:
                # cold start first: nothing published yet
                with pytest.raises(SnapshotUnavailableError):
                    eng.request([x])
                w = np.zeros(ds.n_features)
                w[0] = 4.0
                pub.publish(w, epoch=1, loss=0.5)
                deadline = time.time() + 10
                while time.time() < deadline:
                    try:
                        resp = eng.request([x])
                        break
                    except SnapshotUnavailableError:
                        time.sleep(0.01)
                assert resp.model_source == "shm"
                assert resp.results[0].margin == pytest.approx(4.0)
        finally:
            pub.close()

    def test_from_snapshot_requires_task_metadata(self):
        pub = SnapshotPublisher.create(8, meta={})
        try:
            with pytest.raises(ConfigurationError, match="task"):
                ScoringEngine.from_snapshot(ShmTrainHandle.attach(pub))
        finally:
            pub.close()

    def test_dead_trainer_keeps_last_model_and_counts_source_errors(self):
        """Graceful degradation: the segment vanishing mid-serve is a
        counted source error, not an outage."""
        tel = Telemetry()
        pub = SnapshotPublisher.create(8, meta={"task": "lr", "n_features": 8})
        handle = ShmTrainHandle.attach(pub, telemetry=tel)
        eng = ScoringEngine.from_snapshot(handle, telemetry=tel, refresh_interval=0.01)
        pub.publish(np.ones(8), epoch=1)
        assert eng.refresher.poll_once()  # installs version 1
        pub.close()  # trainer dies, segment unlinked
        # the handle's mapping survives; polling sees no new version
        assert not eng.refresher.poll_once()
        resp = eng.score([{"indices": [0], "values": [2.0]}])
        assert resp.results[0].margin == pytest.approx(2.0)
        # a poll that *fails hard* is counted, and serving continues
        eng.refresher.source = _ExplodingSource()
        assert not eng.refresher.poll_once()
        assert eng.stats().source_errors == 1
        assert tel.counters()[keys.SERVE_SOURCE_ERRORS] == 1
        assert eng.score([{"indices": [0], "values": [2.0]}]).results[0].margin == 2.0
        handle.close()


class _ExplodingSource:
    def poll(self):
        raise OSError("segment ripped out from under us")

    def close(self):
        pass


class TestRefresherValidation:
    def test_interval_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SnapshotRefresher(_ExplodingSource(), interval=0.0)
