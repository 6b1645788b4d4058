"""Benchmark: the related-work parallelisation strategies, side by side.

Beyond the paper's own configurations, this compares the alternatives
its related-work section surveys — Cyclades [39] and model
averaging [42] — against Hogwild on a common footing, plus the genuine
lock-free shared-memory backend.  Quality checks encode each
algorithm's defining property.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.asyncsim import (
    AsyncSchedule,
    CycladesSchedule,
    run_async_epoch,
    run_cyclades_epoch,
)
from repro.datasets import load
from repro.models import make_model
from repro.parallel import ShmSchedule, train_shm
from repro.sgd import SGDConfig
from repro.sgd.averaging import AveragingSchedule, train_model_averaging
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

    w = init.copy()
    rng = derive_rng(0, "s-cyclades")
    eff = 1.0
    for _ in range(EPOCHS):
        eff = run_cyclades_epoch(
            model, ds.X, ds.y, w, STEP,
            CycladesSchedule(batch_size=256, workers=56), rng,
        )
    out["cyclades"] = model.loss(ds.X, ds.y, w)
    out["cyclades_efficiency"] = eff

    res = train_model_averaging(
        model, ds.X, ds.y, init,
        SGDConfig(step_size=STEP, max_epochs=EPOCHS),
        AveragingSchedule(workers=8),
    )
    out["averaging-8"] = res.curve.final_loss
    return out


class TestStrategyQuality:
    def test_publish(self, losses, artifact_dir):
        lines = [f"{k:>22}: {v:.4f}" for k, v in losses.items()]
        publish(artifact_dir, "strategies.txt", "\n".join(lines))

    def test_all_strategies_learn(self, setup, losses):
        model, ds, init = setup
        initial = model.loss(ds.X, ds.y, init)
        for key in ("serial", "hogwild-56", "cyclades", "averaging-8"):
            assert losses[key] < 0.65 * initial, key

    def test_hogwild_close_to_serial_on_sparse(self, losses):
        """Hogwild's headline property [27]: on sparse data the lock-free
        run matches serial statistical efficiency closely."""
        assert losses["hogwild-56"] <= losses["serial"] * 1.3 + 0.02

    def test_cyclades_serially_equivalent_quality(self, losses):
        """Cyclades is *exactly* serial-equivalent in distribution; its
        loss must sit with the serial family."""
        assert abs(losses["cyclades"] - losses["serial"]) < 0.1 * losses["serial"] + 0.02

    def test_cyclades_degenerates_on_text(self, losses):
        """An honest negative result: even news20-sparsity text has hot
        words that weld every batch into one conflict component, so the
        schedule's parallel efficiency collapses — Cyclades pays off on
        bounded-degree workloads (see the MF test below), not tf-idf."""
        assert losses["cyclades_efficiency"] < 0.25

    def test_cyclades_pays_on_bounded_degree_mf(self):
        """The Cyclades paper's own domain: matrix factorisation, where
        an update touches exactly one user and one item factor and the
        conflict graph genuinely shatters."""
        from repro.asyncsim import schedule_batch
        from repro.linalg import CSRMatrix

        # One batch of ratings as a bipartite design matrix: row k has a
        # one in its user's column and a one in its item's column; users
        # uniform, items Zipf-popular.
        n_users, n_items, n_batch = 2000, 1500, 256
        rng = derive_rng(2, "bench-strategies/mf")
        popularity = np.arange(1, n_items + 1, dtype=np.float64) ** -0.7
        users = rng.integers(0, n_users, size=n_batch)
        items = rng.choice(n_items, size=n_batch, p=popularity / popularity.sum())
        X = CSRMatrix(
            indptr=2 * np.arange(n_batch + 1),
            indices=np.column_stack((users, n_users + items)).ravel(),
            data=np.ones(2 * n_batch),
            shape=(n_batch, n_users + n_items),
        )
        batch = schedule_batch(X, np.arange(n_batch))
        assert batch.parallel_efficiency(56) > 0.25

    def test_averaging_statistically_weaker(self, losses):
        """The classic averaging penalty: replicas over partitions lag
        the shared-model strategies after equal epochs."""
        assert losses["averaging-8"] >= losses["hogwild-56"] - 1e-9


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

    def test_benchmark_cyclades_scheduling(self, setup):
        from repro.asyncsim import schedule_batch

        _, ds, _ = setup
        rows = np.arange(512)
        batch = schedule_batch(ds.X, rows)
        assert batch.n_examples == 512
