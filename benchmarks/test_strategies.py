"""Benchmark: Hogwild simulated at two concurrencies, and for real.

The paper's asynchronous strategy is Hogwild [27].  This compares the
simulated serial run (C=1) with simulated 56-thread Hogwild on sparse
data, plus the genuine lock-free shared-memory backend.  Quality checks
encode Hogwild's defining property: on sparse data its stale reads cost
little statistical efficiency.
"""

from __future__ import annotations

import math

import pytest

from repro.asyncsim import AsyncSchedule, run_async_epoch
from repro.datasets import load
from repro.models import make_model
from repro.parallel import ShmSchedule, train_shm
from repro.sgd import SGDConfig
from repro.utils import derive_rng

from conftest import publish

EPOCHS = 10
STEP = 1.0


@pytest.fixture(scope="module")
def setup():
    ds = load("news", "small")
    model = make_model("lr", ds)
    init = model.init_params(derive_rng(0, "bench-strategies"))
    return model, ds, init


@pytest.fixture(scope="module")
def losses(setup):
    model, ds, init = setup
    out = {}

    w = init.copy()
    rng = derive_rng(0, "s-serial")
    for _ in range(EPOCHS):
        run_async_epoch(model, ds.X, ds.y, w, STEP, AsyncSchedule(concurrency=1), rng)
    out["serial"] = model.loss(ds.X, ds.y, w)

    w = init.copy()
    rng = derive_rng(0, "s-hogwild")
    for _ in range(EPOCHS):
        run_async_epoch(model, ds.X, ds.y, w, STEP, AsyncSchedule(concurrency=56), rng)
    out["hogwild-56"] = model.loss(ds.X, ds.y, w)

    return out


class TestStrategyQuality:
    def test_publish(self, losses, artifact_dir):
        lines = [f"{k:>22}: {v:.4f}" for k, v in losses.items()]
        publish(artifact_dir, "strategies.txt", "\n".join(lines))

    def test_all_strategies_learn(self, setup, losses):
        model, ds, init = setup
        initial = model.loss(ds.X, ds.y, init)
        for key in ("serial", "hogwild-56"):
            assert losses[key] < 0.65 * initial, key

    def test_hogwild_close_to_serial_on_sparse(self, losses):
        """Hogwild's headline property [27]: on sparse data the lock-free
        run matches serial statistical efficiency closely."""
        assert losses["hogwild-56"] <= losses["serial"] * 1.3 + 0.02


class TestRealHogwildBenchmark:
    def test_benchmark_real_processes(self, setup):
        model, ds, init = setup
        res = train_shm(
            model, ds.X, ds.y, init,
            SGDConfig(step_size=STEP, max_epochs=4),
            ShmSchedule(workers=2),
        )
        assert math.isfinite(res.curve.final_loss)
        assert res.curve.final_loss < res.curve.initial_loss

