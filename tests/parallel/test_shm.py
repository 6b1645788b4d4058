"""Tests for the measured shared-memory Hogwild backend.

With one worker there are no races, so the run is asserted against
plain sequential incremental SGD; with several workers the assertions
are functional (buffer integrity, counter accounting, teardown) because
true Hogwild is racy by construction.
"""

import os
import time

import numpy as np
import pytest

from repro.datasets import load
from repro.models import make_model
from repro.parallel import ShmSchedule, default_shm_workers, train_shm
from repro.parallel import shm as shm_mod
from repro.sgd import SGDConfig
from repro.telemetry import Telemetry, keys
from repro.utils.errors import ConfigurationError, WorkerError
from repro.utils.rng import derive_rng


@pytest.fixture(scope="module", params=["covtype", "w8a"], ids=["dense", "sparse"])
def setup(request):
    ds = load(request.param, "tiny")
    model = make_model("lr", ds)
    init = model.init_params(derive_rng(7, "shmtest"))
    return model, ds, init


def _config(**kw):
    defaults = dict(step_size=0.05, max_epochs=3, seed=99)
    defaults.update(kw)
    return SGDConfig(**defaults)


class TestScheduleValidation:
    def test_rejects_bad_workers(self):
        with pytest.raises(ConfigurationError):
            ShmSchedule(workers=0)

    def test_rejects_bad_batch(self):
        with pytest.raises(ConfigurationError):
            ShmSchedule(workers=1, batch_size=0)

    def test_rejects_bad_timeout(self):
        with pytest.raises(ConfigurationError):
            ShmSchedule(workers=1, epoch_timeout=0.0)

    def test_rejects_unsupported_model(self, tiny_mlp_data):
        model = make_model("mlp", tiny_mlp_data)
        init = model.init_params(derive_rng(7, "shmtest"))
        with pytest.raises(ConfigurationError):
            train_shm(
                model,
                tiny_mlp_data.X,
                tiny_mlp_data.y,
                init,
                _config(),
                ShmSchedule(workers=1),
            )

    def test_default_workers_bounded_by_host(self):
        assert 1 <= default_shm_workers() <= max(4, os.cpu_count() or 1)


def _serial_orders(ds, epochs, seed=99):
    """The shuffles worker 0 of a one-worker pool draws, epoch by epoch."""
    rng = derive_rng(seed, "shm/1/0")
    part = np.arange(ds.X.shape[0], dtype=np.int64)
    return [part[rng.permutation(part.shape[0])] for _ in range(epochs)]


class TestSingleWorkerDeterminism:
    def test_matches_sequential_sgd(self, setup):
        """One worker = no races: the b=1 item is serial incremental
        SGD's own expression, so the run equals it bit for bit."""
        _, ds, init = setup
        for task in ("lr", "svm"):
            model = make_model(task, ds)
            res = train_shm(model, ds.X, ds.y, init, _config(), ShmSchedule(workers=1))
            expected = init.copy()
            for order in _serial_orders(ds, res.epochs_run):
                model.serial_sgd_epoch(ds.X, ds.y, order, expected, 0.05)
            assert np.array_equal(res.params, expected), task

    def test_hogbatch_matches_batched_updates(self, setup):
        """The b>1 kernels keep an anchor too: one worker at b=8 equals
        ``model.batched_updates`` applied item by item."""
        model, ds, init = setup
        res = train_shm(
            model, ds.X, ds.y, init, _config(), ShmSchedule(workers=1, batch_size=8)
        )
        expected = init.copy()
        for order in _serial_orders(ds, res.epochs_run):
            for lo in range(0, order.shape[0], 8):
                idx, values = model.batched_updates(
                    ds.X, ds.y, order[lo : lo + 8], expected, 0.05
                )
                if idx is None:
                    for delta in values:
                        expected += delta
                else:
                    np.add.at(expected, idx, values)
        assert np.array_equal(res.params, expected)
        assert res.counters[keys.ASYNC_ROUNDS] == 3 * -(-ds.X.shape[0] // 8)

    def test_repeated_runs_identical(self, setup):
        model, ds, init = setup
        a = train_shm(model, ds.X, ds.y, init, _config(), ShmSchedule(workers=1))
        b = train_shm(model, ds.X, ds.y, init, _config(), ShmSchedule(workers=1))
        assert np.array_equal(a.params, b.params)
        assert a.curve.losses == b.curve.losses

    def test_no_conflicts_or_staleness_alone(self, setup):
        model, ds, init = setup
        res = train_shm(model, ds.X, ds.y, init, _config(), ShmSchedule(workers=1))
        assert res.counters[keys.STALE_READS] == 0
        assert res.counters[keys.UPDATE_CONFLICTS] == 0


class TestConcurrentIntegrity:
    def test_buffer_finite_and_learning_under_races(self, setup):
        """Lock-free concurrent writes must leave a finite, improving
        model — per-word atomicity means no torn doubles."""
        model, ds, init = setup
        res = train_shm(
            model,
            ds.X,
            ds.y,
            init,
            _config(max_epochs=5),
            ShmSchedule(workers=3, batch_size=4),
        )
        assert np.all(np.isfinite(res.params))
        assert res.workers == 3
        assert not res.diverged
        assert res.curve.final_loss < res.curve.initial_loss

    def test_hogbatch_minibatches_learn(self, setup):
        """Measured Hogbatch (batch_size > 1): fewer, coarser updates
        must still drive the loss down and account for every example."""
        model, ds, init = setup
        res = train_shm(
            model,
            ds.X,
            ds.y,
            init,
            _config(max_epochs=6),
            ShmSchedule(workers=2, batch_size=8),
        )
        assert res.batch_size == 8
        assert not res.diverged
        assert res.curve.final_loss < res.curve.initial_loss
        assert res.counters[keys.UPDATES_APPLIED] == ds.X.shape[0] * 6

    def test_slow_parent_loss_eval_does_not_break_workers(self, setup):
        """Regression: workers wait at the epoch barriers untimed —
        liveness is the parent watchdog's job.  A parent-side loss
        evaluation slower than epoch_timeout must not break the
        barrier under healthy workers."""
        model, ds, init = setup

        class SlowLoss(type(model)):
            def loss(self, X, y, params):
                time.sleep(0.45)
                return super().loss(X, y, params)

        slow = object.__new__(SlowLoss)
        slow.__dict__.update(model.__dict__)
        res = train_shm(
            slow,
            ds.X,
            ds.y,
            init,
            _config(),
            ShmSchedule(workers=2, epoch_timeout=0.3),
        )
        assert res.epochs_run == 3
        assert not res.diverged

    def test_wall_clock_measured(self, setup):
        model, ds, init = setup
        res = train_shm(model, ds.X, ds.y, init, _config(), ShmSchedule(workers=2))
        assert res.wall_seconds_total > 0
        assert res.wall_seconds_per_epoch == pytest.approx(
            res.wall_seconds_total / res.epochs_run
        )


class TestTelemetryConsistency:
    def test_counter_accounting(self, setup):
        """Every example is applied exactly once per epoch, whatever the
        worker count, and the totals land in the telemetry registry."""
        model, ds, init = setup
        tel = Telemetry()
        epochs = 3
        res = train_shm(
            model,
            ds.X,
            ds.y,
            init,
            _config(max_epochs=epochs),
            ShmSchedule(workers=2),
            tel,
        )
        n = ds.X.shape[0]
        assert res.counters[keys.UPDATES_APPLIED] == n * epochs
        counters = tel.counters()
        assert counters[keys.UPDATES_APPLIED] == n * epochs
        assert counters[keys.GRAD_EVALS] == n * epochs
        assert counters[keys.EPOCHS] == epochs
        # initial + one eval per epoch
        assert counters[keys.LOSS_EVALS] == epochs + 1
        assert keys.UPDATE_CONFLICTS in counters
        assert keys.STALE_READS in counters

    def test_wall_gauges_published(self, setup):
        model, ds, init = setup
        tel = Telemetry()
        res = train_shm(
            model, ds.X, ds.y, init, _config(), ShmSchedule(workers=1), tel
        )
        gauges = tel.gauges()
        assert gauges[keys.WALL_SECONDS_PER_EPOCH] == res.wall_seconds_per_epoch
        assert gauges[keys.WALL_SECONDS_TOTAL] == res.wall_seconds_total


class TestTeardown:
    def test_worker_death_raises_worker_error(self, setup, monkeypatch):
        """A worker dying mid-run must surface promptly as WorkerError,
        with every process joined and both shared segments unlinked."""
        model, ds, init = setup
        real = shm_mod._worker_loop

        def dying(**plan):
            if plan["worker_id"] == 1:
                os._exit(17)
            return real(**plan)

        monkeypatch.setattr(shm_mod, "_worker_loop", dying)
        with pytest.raises(WorkerError):
            train_shm(
                model,
                ds.X,
                ds.y,
                init,
                _config(),
                ShmSchedule(workers=2, epoch_timeout=30.0),
            )
        import glob

        assert not glob.glob("/dev/shm/psm_*")

    def test_clean_run_leaves_no_segments(self, setup):
        import glob

        model, ds, init = setup
        train_shm(model, ds.X, ds.y, init, _config(), ShmSchedule(workers=2))
        assert not glob.glob("/dev/shm/psm_*")
