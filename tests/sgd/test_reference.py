"""Tests for the budgeted reference-loss protocol."""

import glob
import multiprocessing as mp
from multiprocessing.process import BaseProcess

import numpy as np
import pytest

from repro.experiments import shutdown_grid_pool
from repro.experiments.pool import acquire_pool
from repro.models import make_model
from repro.sgd import reference as refmod
from repro.sgd import reference_loss, train
from repro.sgd.reference import clear_reference_cache
from repro.utils import derive_rng
from repro.utils.pool import Pool


def _same(a, b) -> bool:
    """Bit-for-bit equality of member results (floats, lists, arrays)."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and (
            a.tobytes() == b.tobytes()
        )
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _solve_counting_starts(problem, _heartbeat):
    """Pool task: a reference solve, and how many processes it started."""
    started = []
    original = BaseProcess.start

    def start(self):
        started.append(self)
        original(self)

    BaseProcess.start = start
    try:
        return reference_loss(*problem), len(started)
    finally:
        BaseProcess.start = original


@pytest.fixture()
def lr_setup(tiny_sparse):
    model = make_model("lr", tiny_sparse)
    init = model.init_params(derive_rng(0, "init"))
    return model, tiny_sparse, init


class TestReferenceLoss:
    def test_below_initial(self, lr_setup):
        model, ds, init = lr_setup
        ref = reference_loss(model, ds.X, ds.y, init)
        assert ref < model.loss(ds.X, ds.y, init)

    def test_substantially_optimises(self, lr_setup):
        model, ds, init = lr_setup
        ref = reference_loss(model, ds.X, ds.y, init)
        assert ref < 0.25 * model.loss(ds.X, ds.y, init)

    def test_non_negative(self, lr_setup):
        model, ds, init = lr_setup
        assert reference_loss(model, ds.X, ds.y, init) >= 0.0

    def test_in_process_cache(self, lr_setup):
        model, ds, init = lr_setup
        clear_reference_cache()
        a = reference_loss(model, ds.X, ds.y, init, key="t/one")
        b = reference_loss(model, ds.X, ds.y, init, key="t/one")
        assert a == b

    def test_disk_cache_roundtrip(self, lr_setup, tmp_path, monkeypatch):
        model, ds, init = lr_setup
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_reference_cache()
        a = reference_loss(model, ds.X, ds.y, init, key="t/disk")
        clear_reference_cache()  # force re-read from disk
        b = reference_loss(model, ds.X, ds.y, init, key="t/disk")
        assert a == b
        assert (tmp_path / "reference_losses.json").exists()

    def test_corrupt_disk_cache_tolerated(self, lr_setup, tmp_path, monkeypatch):
        model, ds, init = lr_setup
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        (tmp_path / "reference_losses.json").write_text("{not json")
        clear_reference_cache()
        ref = reference_loss(model, ds.X, ds.y, init, key="t/corrupt")
        assert np.isfinite(ref)

    @pytest.mark.parametrize("task", ["lr", "svm", "mlp"])
    def test_pooled_members_equal_inline(
        self, task, tiny_sparse, tiny_mlp_data, monkeypatch, started_processes
    ):
        """Where the members run is placement only: on a transient pool
        and on the live warm pool they equal the inline loop bit for bit."""
        ds = tiny_mlp_data if task == "mlp" else tiny_sparse
        model = make_model(task, ds)
        problem = (model, ds.X, ds.y, model.init_params(derive_rng(0, "init")))
        shutdown_grid_pool()
        with monkeypatch.context() as m:
            m.setattr(refmod, "_usable_cpus", lambda: 1)
            inline = refmod._run_members(*problem)
        assert not started_processes

        width = min(6, refmod._usable_cpus())
        assert _same(refmod._run_members(*problem), inline)
        assert len(started_processes) == (width if width > 1 else 0)
        assert mp.active_children() == []  # the transient pool is gone

        warm, _created = acquire_pool(2, shared=False, specs=(), descriptors=())
        try:
            assert _same(refmod._run_members(*problem), inline)
            assert len(warm.workers) == 2  # the members forked the warm pool
        finally:
            shutdown_grid_pool()

    def test_solve_inside_a_daemon_starts_no_process(self, lr_setup):
        """A pool worker is a daemon and cannot fork: a solve there runs
        its members inline and gets the same value."""
        model, ds, init = lr_setup
        problem = (model, ds.X, ds.y, init)
        pool = Pool(1)
        try:
            [(value, started)] = pool.map([(_solve_counting_starts, problem)])
        finally:
            pool.close()
        assert started == 0
        assert value == reference_loss(*problem)

    def test_lone_train_leaves_no_process(
        self, tmp_path, monkeypatch, started_processes
    ):
        """A cold run's reference solve forks a transient pool and leaves
        no child process or shared-memory segment behind."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        shutdown_grid_pool()
        clear_reference_cache()
        segments = set(glob.glob("/dev/shm/psm_*"))
        train("lr", "w8a", scale="tiny", max_epochs=2, seed=4242)
        if refmod._usable_cpus() > 1:
            assert started_processes  # the members ran on a pool
        assert mp.active_children() == []
        assert set(glob.glob("/dev/shm/psm_*")) <= segments

    def test_disk_cache_merges_concurrent_entries(
        self, lr_setup, tmp_path, monkeypatch
    ):
        """A write merges on top of entries other processes added after
        our initial read — no read-modify-write lost updates."""
        import json

        from repro.sgd import reference as refmod

        model, ds, init = lr_setup
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_reference_cache()
        reference_loss(model, ds.X, ds.y, init, key="t/mine")
        # Simulate a concurrent writer landing between our read and the
        # next write: its entry must survive our subsequent store.
        path = tmp_path / "reference_losses.json"
        other = json.loads(path.read_text())
        other["t/theirs"] = 0.875
        path.write_text(json.dumps(other))
        refmod._store_disk_cache({"t/mine2": 0.5})
        merged = json.loads(path.read_text())
        assert merged["t/theirs"] == 0.875
        assert merged["t/mine2"] == 0.5
        assert "t/mine" in merged

    def test_disk_cache_write_is_atomic(self, lr_setup, tmp_path, monkeypatch):
        model, ds, init = lr_setup
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_reference_cache()
        reference_loss(model, ds.X, ds.y, init, key="t/atomic")
        assert not list(tmp_path.glob("*.tmp"))

    def test_svm_reference(self, tiny_sparse):
        model = make_model("svm", tiny_sparse)
        init = model.init_params(derive_rng(0, "init"))
        ref = reference_loss(model, tiny_sparse.X, tiny_sparse.y, init)
        assert 0.0 <= ref < model.loss(tiny_sparse.X, tiny_sparse.y, init)

    def test_mlp_reference(self, tiny_mlp_data):
        model = make_model("mlp", tiny_mlp_data)
        init = model.init_params(derive_rng(0, "init"))
        ref = reference_loss(model, tiny_mlp_data.X, tiny_mlp_data.y, init)
        assert 0.0 <= ref < model.loss(tiny_mlp_data.X, tiny_mlp_data.y, init)


class TestBatchSolve:
    @pytest.fixture()
    def problems(self, tiny_sparse, tiny_mlp_data):
        out = []
        for task in ("lr", "svm", "mlp"):
            ds = tiny_mlp_data if task == "mlp" else tiny_sparse
            model = make_model(task, ds)
            init = model.init_params(derive_rng(0, f"init/{task}"))
            out.append((model, ds.X, ds.y, init, f"batch/{task}"))
        return out

    def test_batch_equals_per_key_solves(
        self, problems, tmp_path, monkeypatch, started_processes
    ):
        """One batch is placement only: inline, on a transient pool and
        on the warm pool its values and its disk-cache bytes equal those
        of one reference_loss call per key."""
        shutdown_grid_pool()

        def cache_in(name):
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / name))
            clear_reference_cache()
            return tmp_path / name / "reference_losses.json"

        per_key_path = cache_in("per-key")
        with monkeypatch.context() as m:
            m.setattr(refmod, "_usable_cpus", lambda: 1)
            per_key = [reference_loss(*p[:4], key=p[4]) for p in problems]
            path = cache_in("inline")
            assert refmod.reference_losses(problems) == per_key
            assert path.read_bytes() == per_key_path.read_bytes()
        assert not started_processes

        path = cache_in("transient")
        assert refmod.reference_losses(problems) == per_key
        assert path.read_bytes() == per_key_path.read_bytes()
        width = min(3 * refmod._MEMBERS, refmod._usable_cpus())
        assert len(started_processes) == (width if width > 1 else 0)
        assert mp.active_children() == []  # the transient pool is gone

        warm, _created = acquire_pool(2, shared=False, specs=(), descriptors=())
        try:
            path = cache_in("warm")
            assert refmod.reference_losses(problems) == per_key
            assert path.read_bytes() == per_key_path.read_bytes()
            assert len(warm.workers) == 2  # the batch ran on the warm pool
        finally:
            shutdown_grid_pool()

    def test_cached_keys_are_not_solved(self, problems, monkeypatch):
        clear_reference_cache()
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        refmod.seed_reference_cache({p[4]: 0.25 for p in problems})
        monkeypatch.setattr(refmod, "_solve_batch", None)  # a solve would raise
        assert refmod.reference_losses(problems) == [0.25] * len(problems)
        clear_reference_cache()
