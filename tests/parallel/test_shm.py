"""Tests for the measured shared-memory Hogwild backend.

With one worker there are no races, so the run is asserted against
plain sequential incremental SGD; with several workers the assertions
are functional (buffer integrity, counter accounting, teardown) because
true Hogwild is racy by construction.
"""

import os
import time
from types import SimpleNamespace

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


def _scripted_peer(model, act):
    """A stand-in model whose link derivative first runs *act*: the one
    call an item makes between reading the model and writing it, so
    *act* plays a peer landing inside exactly that window."""

    def scalar(margin):
        act()
        return model._dmargin_scalar(margin)

    def vector(margins):
        act()
        return model._dmargin_fn(margins)

    return SimpleNamespace(_dmargin_scalar=scalar, _dmargin_fn=vector)


class TestRaceCounters:
    """What ``async.update_conflicts`` / ``async.stale_reads`` count,
    pinned in-process: the item body and the per-item skeleton are plain
    functions, driven here against a scripted peer."""

    def _footprint(self, ds, rows):
        if hasattr(ds.X, "gather_rows_arrays"):
            return ds.X.gather_rows_arrays(np.atleast_1d(rows))[1]
        return np.arange(ds.X.shape[1])

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_conflicts_are_footprint_coordinates_written_in_window(
        self, setup, batch_size
    ):
        model, ds, init = setup
        w = init.copy()
        rows = 5 if batch_size == 1 else np.arange(5, 5 + batch_size)
        footprint = self._footprint(ds, rows)
        inside = np.unique(footprint)[:3]
        outside = np.setdiff1d(np.arange(w.shape[0]), footprint)[:2]
        written = np.concatenate([inside, outside])

        def peer_writes():
            w[written] += 1.0

        body = shm_mod._item_body(
            _scripted_peer(model, peer_writes), ds.X, ds.y, w, 0.05, batch_size, True
        )
        hit = body(rows)
        if outside.size:  # sparse: coordinates the rows do not touch never count
            assert hit == np.isin(footprint, inside).sum() >= 3
        else:  # dense: the footprint is the model, every written coordinate counts
            assert hit == written.size == 3

        quiet = shm_mod._item_body(model, ds.X, ds.y, w, 0.05, batch_size, True)
        assert quiet(rows) == 0

        untracked = shm_mod._item_body(
            _scripted_peer(model, peer_writes), ds.X, ds.y, w, 0.05, batch_size, False
        )
        assert untracked(rows) == 0

    @pytest.mark.parametrize("track", [True, False])
    def test_stale_reads_follow_the_peers_published_word(self, setup, track):
        model, ds, init = setup
        w = init.copy()
        words = memoryview(bytearray(8 * (shm_mod._N_CTL + 2 * shm_mod._N_SLOTS)))
        words = words.cast("q")
        progress = words[shm_mod._N_CTL + shm_mod._SLOT_UPDATES :: shm_mod._N_SLOTS]
        mine, peer = shm_mod._N_CTL, shm_mod._N_CTL + shm_mod._N_SLOTS
        raced = {2, 3, 7}  # items during which the peer commits an update
        calls = iter(range(10))

        def peer_commits():
            if next(calls) in raced:
                words[peer + shm_mod._SLOT_UPDATES] += 1

        body = shm_mod._item_body(
            _scripted_peer(model, peer_commits), ds.X, ds.y, w, 0.05, 1, track
        )
        killed = shm_mod._run_pass(
            body, list(range(10)), [1] * 10, words, mine, progress
        )
        assert not killed
        assert words[mine + shm_mod._SLOT_UPDATES] == 10
        assert words[mine + shm_mod._SLOT_ITEMS] == 10
        assert words[mine + shm_mod._SLOT_STALE] == len(raced)
        assert words[mine + shm_mod._SLOT_CONFLICTS] == 0  # the peer wrote no coordinate

        # A still peer: a second pass adds items, not stale reads.
        still = shm_mod._item_body(model, ds.X, ds.y, w, 0.05, 1, track)
        shm_mod._run_pass(still, list(range(10)), [1] * 10, words, mine, progress)
        assert words[mine + shm_mod._SLOT_ITEMS] == 20
        assert words[mine + shm_mod._SLOT_STALE] == len(raced)

    def test_killed_pass_flushes_what_it_committed(self, setup):
        model, ds, init = setup
        w = init.copy()
        words = memoryview(bytearray(8 * (shm_mod._N_CTL + shm_mod._N_SLOTS))).cast("q")
        progress = words[shm_mod._N_CTL + shm_mod._SLOT_UPDATES :: shm_mod._N_SLOTS]
        body = shm_mod._item_body(model, ds.X, ds.y, w, 0.05, 1, False)
        killed = shm_mod._run_pass(
            body, list(range(10)), [1] * 10, words, shm_mod._N_CTL, progress, 4
        )
        assert killed
        assert words[shm_mod._N_CTL + shm_mod._SLOT_UPDATES] == 4
        assert words[shm_mod._N_CTL + shm_mod._SLOT_ITEMS] == 4


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
        # More workers than this host has cores: every locally tallied
        # counter still reaches the block exactly once.
        n = ds.X.shape[0]
        assert res.counters[keys.UPDATES_APPLIED] == 5 * n
        assert res.counters[keys.ASYNC_ROUNDS] == 5 * sum(
            -(-len(range(k, n, 3)) // 4) for k in range(3)
        )

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
        n = ds.X.shape[0]
        assert res.counters[keys.UPDATES_APPLIED] == n * 6
        assert res.counters[keys.ASYNC_ROUNDS] == 6 * sum(
            -(-len(range(k, n, 2)) // 8) for k in range(2)
        )

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
        assert counters[keys.ASYNC_ROUNDS] == n * epochs
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
