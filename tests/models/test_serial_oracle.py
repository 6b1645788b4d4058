"""Bit-for-bit oracle tests for the serial SGD kernel.

``frozen_serial_sgd_epoch`` is the plain per-example loop the kernel
was first written as (NumPy-scalar labels, 1-D ``@``, fancy-index
read-modify-write).  It is kept here unchanged as the reference every
faster formulation of :meth:`LinearModel.serial_sgd_epoch` must match
exactly — ``np.array_equal``, not a tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load
from repro.linalg import CSRMatrix
from repro.models import LinearSVM, LogisticRegression
from repro.models.linear import LinearModel
from repro.sgd import reference
from repro.utils import make_rng


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
