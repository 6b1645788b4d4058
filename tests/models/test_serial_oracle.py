"""Bit-for-bit oracle tests for the serial SGD kernel and the round engine.

``frozen_serial_sgd_epoch`` is the plain per-example loop the kernel
was first written as (NumPy-scalar labels, 1-D ``@``, fancy-index
read-modify-write).  It is kept here unchanged as the reference every
faster formulation of :meth:`LinearModel.serial_sgd_epoch` must match
exactly — ``np.array_equal``, not a tolerance.

``frozen_round`` is the asynchronous engine's round as it was first
vectorised: the round's rows gathered on their own, then its dense
deltas applied one ``params += delta`` at a time.  The engine's
chunked gather and single reduction must match it the same way.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asyncsim import AsyncSchedule, engine, run_async_epoch
from repro.datasets import load
from repro.linalg import CSRMatrix
from repro.models import LinearSVM, LogisticRegression
from repro.models.linear import LinearModel
from repro.sgd import reference
from repro.utils import make_rng
from repro.utils.errors import DivergenceError


def frozen_serial_sgd_epoch(model, X, y, order, params, step) -> None:
    """The reference loop; do not optimise."""
    dmargin = model._dmargin_scalar
    l2 = model.l2
    if isinstance(X, CSRMatrix):
        indptr, indices, data = X.indptr, X.indices, X.data
        for i in order:
            lo, hi = indptr[i], indptr[i + 1]
            if lo == hi:
                if l2:
                    params -= (step * l2) * params
                continue
            idx = indices[lo:hi]
            val = data[lo:hi]
            yi = y[i]
            margin = val @ params[idx]
            coef = yi * dmargin(yi * margin)
            if l2:
                params -= (step * l2) * params
            if coef != 0.0:
                params[idx] -= (step * coef) * val
        return
    Xd = np.asarray(X, dtype=np.float64)
    for i in order:
        xi = Xd[i]
        yi = y[i]
        margin = xi @ params
        coef = yi * dmargin(yi * margin)
        if l2:
            params -= (step * l2) * params
        if coef != 0.0:
            params -= (step * coef) * xi


@st.composite
def problems(draw):
    """A small dataset (dense or CSR with empty rows), model, order, step."""
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 64))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, d)) * draw(st.sampled_from([0.1, 1.0, 5.0]))
    sparse = draw(st.booleans())
    if sparse:
        dense[rng.random((n, d)) < draw(st.sampled_from([0.3, 0.7, 1.0]))] = 0.0
        X = CSRMatrix.from_dense(dense)
    else:
        X = dense
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    cls = draw(st.sampled_from([LogisticRegression, LinearSVM]))
    model = cls(d, l2=draw(st.sampled_from([0.0, 0.1])))
    order = rng.integers(0, n, size=draw(st.integers(0, 3 * n)))
    step = draw(st.sampled_from([0.01, 0.5, 2.0]))
    return model, X, y, order, model.init_params(rng), step


class TestSerialEpochOracle:
    @settings(max_examples=300, deadline=None)
    @given(problems())
    def test_matches_frozen_loop(self, problem):
        model, X, y, order, w0, step = problem
        live, frozen = w0.copy(), w0.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            model.serial_sgd_epoch(X, y, order, live, step)
            frozen_serial_sgd_epoch(model, X, y, order, frozen, step)
        assert np.array_equal(live, frozen, equal_nan=True)

    @pytest.mark.parametrize("cls", [LogisticRegression, LinearSVM], ids=["lr", "svm"])
    @pytest.mark.parametrize("name", ["w8a", "covtype"])
    def test_matches_frozen_loop_on_tiny_data(self, cls, name):
        ds = load(name, "tiny")
        model = cls(ds.n_features)
        order = make_rng(5).permutation(ds.n_examples)
        live = model.init_params(make_rng(0))
        frozen = live.copy()
        for _ in range(3):
            model.serial_sgd_epoch(ds.X, ds.y, order, live, 0.5)
            frozen_serial_sgd_epoch(model, ds.X, ds.y, order, frozen, 0.5)
        assert np.array_equal(live, frozen)


class TestDenseBatchedUpdates:
    @settings(max_examples=100, deadline=None)
    @given(problems())
    def test_equals_stacked_example_updates(self, problem):
        model, X, y, order, w0, step = problem
        if isinstance(X, CSRMatrix) and not model.l2:
            X = X.to_dense()
        idx, batched = model.batched_updates(X, y, order, w0, step)
        updates = model.example_updates(X, y, order, w0, step)
        assert idx is None and all(i is None for i, _ in updates)
        assert batched.shape == (len(updates), model.n_params)
        assert all(np.array_equal(a, b) for a, (_, b) in zip(batched, updates))


def frozen_round(model, X, y, rows, snapshot, step, params) -> None:
    """One round as first vectorised: gather its rows, compute every
    delta at *snapshot*, apply them to *params* in row order; do not
    optimise."""
    rows = np.asarray(rows, dtype=np.int64)
    yb = y[rows]
    if isinstance(X, CSRMatrix):
        segments = [X.row(int(i)) for i in rows]
        counts = np.array([idx.size for idx, _ in segments], dtype=np.int64)
        if not model.l2:
            indices = np.concatenate([idx for idx, _ in segments])
            data = np.concatenate([val for _, val in segments])
            indptr = np.concatenate([[0], np.cumsum(counts)])
            margins = np.zeros(rows.size)
            if indices.size:
                prod = data * snapshot[indices]
                nonempty = counts > 0
                margins[nonempty] = np.add.reduceat(prod, indptr[:-1][nonempty])
            coef = yb * model._dmargin_fn(yb * margins)
            np.add.at(params, indices, (-step * np.repeat(coef, counts)) * data)
            return
        Xb = X.take_rows(rows)
        coef = yb * model._dmargin_fn(yb * Xb.matvec(snapshot))
        deltas = -step * (coef[:, None] * Xb.to_dense() + model.l2 * snapshot)
    else:
        Xb = np.asarray(X, dtype=np.float64)[rows]
        coef = yb * model._dmargin_fn(yb * (Xb @ snapshot))
        deltas = (-step * coef)[:, None] * Xb
        if model.l2:
            deltas -= step * model.l2 * snapshot[None, :]
    for delta in deltas:
        params += delta


def frozen_async_epoch(model, X, y, order, params, step, schedule) -> None:
    """The engine's aligned-round and pipelined loops over ``frozen_round``."""
    if schedule.pipeline_lag <= 1:
        C = schedule.concurrency
        for start in range(0, order.size, C):
            frozen_round(model, X, y, order[start : start + C], params, step, params)
        return
    block, lag = schedule.pipeline_block, schedule.pipeline_lag
    epoch_start = params.copy()
    ring = [np.empty_like(params) for _ in range(lag)]
    for j, start in enumerate(range(0, order.size, block)):
        stale = ring[j % lag] if j >= lag else epoch_start
        frozen_round(model, X, y, order[start : start + block], stale, step, params)
        np.copyto(ring[j % lag], params)


#: Values that make a delta overflow, turn infinite or NaN.
SPECIALS = [np.inf, -np.inf, np.nan, 1e308, -1e308]


@st.composite
def round_problems(draw):
    """A dataset with some non-finite or huge entries, a model, a schedule."""
    n = draw(st.integers(1, 150))
    d = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = rng.standard_normal((n, d)) * draw(st.sampled_from([0.1, 1.0, 5.0]))
    special = rng.random((n, d)) < draw(st.sampled_from([0.0, 0.002, 0.02]))
    dense[special] = rng.choice(SPECIALS, size=int(special.sum()))
    if draw(st.booleans()):
        dense[rng.random((n, d)) < draw(st.sampled_from([0.3, 0.7, 1.0]))] = 0.0
        X = CSRMatrix.from_dense(dense)
    else:
        X = dense
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    cls = draw(st.sampled_from([LogisticRegression, LinearSVM]))
    model = cls(d, l2=draw(st.sampled_from([0.0, 0.0, 0.1])))
    w0 = model.init_params(rng)
    if draw(st.booleans()):
        w0[rng.integers(0, d)] = draw(st.sampled_from(SPECIALS))
    if draw(st.booleans()):
        schedule = AsyncSchedule(draw(st.sampled_from([2, 56])))
    else:
        block = draw(st.sampled_from([1, 2, 32]))
        schedule = AsyncSchedule(block * draw(st.integers(2, 3)), pipeline_block=block)
    step = draw(st.sampled_from([0.01, 0.5, 2.0]))
    # A one-round chunk, a few rounds, and the default size.
    chunk_bytes = draw(st.sampled_from([1, 4096, engine._CHUNK_BYTES]))
    return model, X, y, w0, step, schedule, chunk_bytes


class TestRoundEngineOracle:
    @settings(max_examples=400, deadline=None)
    @given(round_problems(), st.integers(0, 2**32 - 1))
    def test_matches_frozen_round(self, problem, seed):
        model, X, y, w0, step, schedule, chunk_bytes = problem
        order = np.random.default_rng(seed).permutation(X.shape[0])
        live, frozen = w0.copy(), w0.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            with mock.patch.object(engine, "_CHUNK_BYTES", chunk_bytes):
                try:
                    run_async_epoch(
                        model, X, y, live, step, schedule, np.random.default_rng(seed)
                    )
                except DivergenceError:
                    pass
            frozen_async_epoch(model, X, y, order, frozen, step, schedule)
        assert live.view(np.int64).tolist() == frozen.view(np.int64).tolist()

    @settings(max_examples=200, deadline=None)
    @given(round_problems())
    def test_batched_updates_match_frozen_round(self, problem):
        model, X, y, w0, step, _schedule, _chunk = problem
        rows = np.arange(X.shape[0])[::-1]
        live, frozen = w0.copy(), w0.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            engine._apply_batched(live, model.batched_updates(X, y, rows, w0, step))
            frozen_round(model, X, y, rows, w0, step, frozen)
        assert live.view(np.int64).tolist() == frozen.view(np.int64).tolist()

    @pytest.mark.parametrize("cls", [LogisticRegression, LinearSVM], ids=["lr", "svm"])
    @pytest.mark.parametrize("name", ["w8a", "covtype"])
    @pytest.mark.parametrize(
        "schedule",
        [AsyncSchedule(56), AsyncSchedule(512, pipeline_block=32)],
        ids=["c56", "pipelined"],
    )
    def test_matches_frozen_round_on_tiny_data(self, cls, name, schedule):
        ds = load(name, "tiny")
        model = cls(ds.n_features)
        live = model.init_params(make_rng(0))
        frozen = live.copy()
        rng, twin = make_rng(5), make_rng(5)
        for _ in range(3):
            run_async_epoch(model, ds.X, ds.y, live, 0.5, schedule, rng)
            order = twin.permutation(ds.n_examples)
            frozen_async_epoch(model, ds.X, ds.y, order, frozen, 0.5, schedule)
        assert np.array_equal(live, frozen)


@pytest.mark.parametrize(
    "task, name", [("lr", "w8a"), ("svm", "covtype")], ids=["lr-w8a", "svm-covtype"]
)
def test_protocol_reference_unchanged_by_the_kernel(task, name, monkeypatch):
    """The cold reference solve reads the same float with the live kernel
    as with the frozen loop swapped in (members run inline, in-process)."""
    ds = load(name, "tiny")
    model = (LogisticRegression if task == "lr" else LinearSVM)(ds.n_features)
    w0 = model.init_params(make_rng(0))
    monkeypatch.setattr(reference, "_usable_cpus", lambda: 1)
    live = reference._protocol_reference(model, ds.X, ds.y, w0)

    def oracle(self, X, y, order, params, step):
        frozen_serial_sgd_epoch(self, X, y, order, params, step)

    monkeypatch.setattr(LinearModel, "serial_sgd_epoch", oracle)
    assert reference._protocol_reference(model, ds.X, ds.y, w0) == live
