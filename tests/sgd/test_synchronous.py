"""Tests for the synchronous SGD runners."""

import numpy as np
import pytest

from repro.datasets import load, load_mlp
from repro.linalg import axpy, recording, trace_paused
from repro.linalg.trace import Trace
from repro.models import make_model
from repro.sgd import SGDConfig, train_minibatch_synchronous, train_synchronous
from repro.sgd.convergence import LossCurve
from repro.telemetry import Telemetry, keys
from repro.utils import derive_rng


def frozen_train_synchronous(model, X, y, init_params, config, tel):
    """The full-batch loop as first written: a loss evaluation and the
    next epoch's gradient each run their own forward pass; do not
    optimise."""
    params = np.array(init_params, dtype=np.float64, copy=True)
    n = X.shape[0]
    curve = LossCurve()
    with trace_paused():
        initial = model.loss(X, y, params)
    tel.count(keys.LOSS_EVALS)
    curve.record(0, initial)
    limit = config.divergence_factor * max(initial, 1e-12)

    def step():
        grad = model.full_grad(X, y, params)
        params[:] = axpy(-config.step_size, grad, params, name="model_update",
                         cost_scales=False, parallelism_scales=False)

    epoch_trace = Trace()
    for epoch in range(1, config.max_epochs + 1):
        if epoch == 1:
            with recording() as epoch_trace:
                step()
        else:
            step()
        tel.count(keys.EPOCHS)
        tel.count(keys.GRAD_EVALS, n)
        tel.count(keys.UPDATES_APPLIED)
        if not np.all(np.isfinite(params)):
            curve.record(epoch, float("inf"))
            break
        if epoch % config.eval_every == 0 or epoch == config.max_epochs:
            with trace_paused():
                loss = model.loss(X, y, params)
            tel.count(keys.LOSS_EVALS)
            curve.record(epoch, loss)
            if not np.isfinite(loss) or loss > limit:
                curve.losses[-1] = float("inf")
                break
            if config.target_loss is not None and loss <= config.target_loss:
                break
    return curve, params, epoch_trace


def _problem(task, name):
    ds = load_mlp(name, "tiny") if task == "mlp" else load(name, "tiny")
    model = make_model(task, ds)
    return model, ds, model.init_params(derive_rng(0, f"init/{task}"))


@pytest.fixture()
def setup(tiny_dense):
    model = make_model("lr", tiny_dense)
    init = model.init_params(derive_rng(0, "init"))
    return model, tiny_dense, init


class TestFullBatch:
    def test_loss_monotone_for_small_step(self, setup):
        model, ds, init = setup
        res = train_synchronous(model, ds.X, ds.y, init, SGDConfig(step_size=1.0, max_epochs=20))
        losses = res.curve.losses
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_matches_manual_gradient_descent(self, setup):
        model, ds, init = setup
        res = train_synchronous(model, ds.X, ds.y, init, SGDConfig(step_size=0.5, max_epochs=3))
        w = init.copy()
        for _ in range(3):
            w -= 0.5 * model.full_grad(ds.X, ds.y, w)
        np.testing.assert_allclose(res.params, w, atol=1e-12)

    def test_initial_params_not_mutated(self, setup):
        model, ds, init = setup
        before = init.copy()
        train_synchronous(model, ds.X, ds.y, init, SGDConfig(step_size=0.5, max_epochs=2))
        np.testing.assert_array_equal(init, before)

    def test_epoch_trace_captured_once(self, setup):
        model, ds, init = setup
        res = train_synchronous(model, ds.X, ds.y, init, SGDConfig(step_size=0.5, max_epochs=5))
        names = [op.name for op in res.epoch_trace]
        # one gradient pipeline + one model update — not five
        assert names.count("model_update") == 1
        assert names[-1] == "model_update"

    def test_early_stop_at_target(self, setup):
        model, ds, init = setup
        free = train_synchronous(model, ds.X, ds.y, init, SGDConfig(step_size=1.0, max_epochs=50))
        target = free.curve.losses[10]
        res = train_synchronous(
            model, ds.X, ds.y, init,
            SGDConfig(step_size=1.0, max_epochs=50, target_loss=target),
        )
        assert len(res.curve) <= 12  # stopped around epoch 10

    def test_divergent_step_reported_infinite(self, setup):
        model, ds, init = setup
        res = train_synchronous(
            model, ds.X, ds.y, init, SGDConfig(step_size=1e9, max_epochs=30)
        )
        assert res.curve.diverged

    def test_deterministic(self, setup):
        model, ds, init = setup
        cfg = SGDConfig(step_size=1.0, max_epochs=5)
        a = train_synchronous(model, ds.X, ds.y, init, cfg)
        b = train_synchronous(model, ds.X, ds.y, init, cfg)
        np.testing.assert_array_equal(a.params, b.params)
        assert a.curve.losses == b.curve.losses


class TestOneForwardPerEpoch:
    """The fused loop against the frozen two-forward loop: equal curves,
    parameters, epoch traces and counters, whichever exit it takes."""

    @pytest.mark.parametrize("eval_every", [1, 3])
    @pytest.mark.parametrize(
        "task, name",
        [("lr", "covtype"), ("lr", "w8a"), ("svm", "covtype"), ("svm", "w8a"),
         ("mlp", "covtype"), ("mlp", "w8a")],
    )
    @pytest.mark.parametrize("stop", ["epochs", "target", "divergence"])
    def test_matches_frozen_loop(self, task, name, eval_every, stop):
        model, ds, init = _problem(task, name)
        step = {"lr": 1.0, "svm": 0.1, "mlp": 2.0}[task]
        target = None
        if stop == "target":
            free = train_synchronous(
                model, ds.X, ds.y, init, SGDConfig(step_size=step, max_epochs=12)
            )
            target = free.curve.losses[-5]
        elif stop == "divergence":
            step = 1e9
        config = SGDConfig(
            step_size=step, max_epochs=11, eval_every=eval_every, target_loss=target
        )
        live_tel, frozen_tel = Telemetry(), Telemetry()
        with np.errstate(over="ignore"):
            live = train_synchronous(model, ds.X, ds.y, init, config, live_tel)
            curve, params, trace = frozen_train_synchronous(
                model, ds.X, ds.y, init, config, frozen_tel
            )
        if stop == "divergence":
            assert curve.diverged
        elif stop == "target":
            assert curve.epochs[-1] < 11
        assert live.curve.epochs == curve.epochs
        assert np.array_equal(
            np.asarray(live.curve.losses).view(np.int64),
            np.asarray(curve.losses).view(np.int64),
        )
        assert np.array_equal(live.params.view(np.int64), params.view(np.int64))
        assert live.epoch_trace.ops == trace.ops
        assert live_tel.counters() == frozen_tel.counters()


class TestMiniBatch:
    def test_reduces_loss(self, setup):
        model, ds, init = setup
        res = train_minibatch_synchronous(
            model, ds.X, ds.y, init, SGDConfig(step_size=0.5, max_epochs=5, batch_size=32)
        )
        assert res.curve.final_loss < res.curve.initial_loss

    def test_trace_contains_all_rounds(self, setup):
        model, ds, init = setup
        res = train_minibatch_synchronous(
            model, ds.X, ds.y, init, SGDConfig(step_size=0.5, max_epochs=2, batch_size=64)
        )
        n_batches = -(-ds.n_examples // 64)
        names = [op.name for op in res.epoch_trace]
        assert names.count("model_update") == n_batches

    def test_batch_size_n_equals_full_batch_per_epoch_updates(self, setup):
        model, ds, init = setup
        res = train_minibatch_synchronous(
            model, ds.X, ds.y, init,
            SGDConfig(step_size=0.5, max_epochs=1, batch_size=ds.n_examples),
        )
        assert [op.name for op in res.epoch_trace].count("model_update") == 1
