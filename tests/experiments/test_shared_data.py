"""Shared-memory dataset lifecycle and the warm worker pool.

The grid's performance machinery must be invisible in the numbers and
in /dev/shm: workers map the published datasets read-only, results stay
bit-identical with sharing on or off, the segments are unlinked on
every exit path (success, worker failure, quarantine), consecutive
grids reuse one warm pool, and reference optima are solved once per
(task, dataset) and dedupe through the result store.
"""

import os
import sys

import numpy as np
import pytest

from repro.datasets import load
from repro.datasets.registry import cache_contains, cache_evict
from repro.experiments import (
    ExperimentContext,
    GridCell,
    GridExecutor,
    ResultStore,
    SharedDatasetRegistry,
    active_registry,
    shutdown_grid_pool,
    warm_pool_info,
)
from repro.faults import CellRetryPolicy, FaultPlan
from repro.sgd import reference as refmod
from repro.sgd.reference import clear_reference_cache
from repro.telemetry import Telemetry, keys
from repro.utils.errors import WorkerError

TASKS = ("lr",)
DATASETS = ("covtype", "w8a")


def make_ctx(**kw):
    return ExperimentContext(
        scale="tiny",
        tasks=TASKS,
        datasets=DATASETS,
        sync_max_epochs=150,
        async_max_epochs=50,
        tolerance=0.05,
        **kw,
    )


def async_cells():
    return [
        GridCell("lr", dataset, architecture, "asynchronous")
        for dataset in DATASETS
        for architecture in ("cpu-par", "gpu")
    ]


def shm_segments() -> set[str]:
    try:
        return {p for p in os.listdir("/dev/shm") if p.startswith("psm_")}
    except FileNotFoundError:  # non-Linux: no listable shm mount
        return set()


#: Feature count of the dataset whose reference members fail, set by
#: the test before the pool forks (the workers inherit it).
_FAILING_WIDTH: list[int] = []
_POOL_TASK = refmod._pool_task


def _failing_pool_task(call, heartbeat):
    """A reference pool task whose members raise for one dataset."""
    fn, _model, X, *_rest = call
    if fn is refmod._sgd_member and X.shape[1] in _FAILING_WIDTH:
        raise RuntimeError("injected reference member failure")
    return _POOL_TASK(call, heartbeat)


@pytest.fixture()
def bench_environment(monkeypatch):
    """The environment ``python3 -m bench run`` exports to the program."""
    from bench import harness

    before = dict(os.environ)
    monkeypatch.setattr(sys, "path", list(sys.path))
    harness.prepare_environment()
    exported = {k: v for k, v in os.environ.items() if before.get(k) != v}
    os.environ.clear()
    os.environ.update(before)
    for name, value in exported.items():
        monkeypatch.setenv(name, value)


@pytest.fixture(autouse=True)
def clean_grid_state():
    """Each test starts and ends with no warm pool and no live segments."""
    shutdown_grid_pool()
    yield
    shutdown_grid_pool()


class TestRegistryLifecycle:
    def test_publish_attach_roundtrip_sparse(self):
        registry = SharedDatasetRegistry()
        try:
            desc = registry.publish("w8a", "tiny", None)
            assert desc.kind == "csr"
            # The installed cache view is the shm-backed dataset ...
            ds = load("w8a", "tiny")
            assert not ds.X.data.flags.writeable
            assert not ds.y.flags.writeable
            # ... and its arrays equal a locally generated copy
            # (evict the cache so load() regenerates instead of
            # returning the shm view back to us).
            cache_evict("w8a", "tiny", None)
            fresh = load("w8a", "tiny")
            np.testing.assert_array_equal(ds.X.indptr, fresh.X.indptr)
            np.testing.assert_array_equal(ds.X.indices, fresh.X.indices)
            np.testing.assert_array_equal(ds.X.data, fresh.X.data)
            np.testing.assert_array_equal(ds.y, fresh.y)
        finally:
            registry.close()

    def test_publish_dense_read_only(self):
        registry = SharedDatasetRegistry()
        try:
            desc = registry.publish("covtype", "tiny", None)
            assert desc.kind == "dense"
            ds = load("covtype", "tiny")
            assert not ds.X.flags.writeable
            with pytest.raises(ValueError):
                ds.X[0, 0] = 1.0
        finally:
            registry.close()

    def test_close_unlinks_and_evicts(self):
        before = shm_segments()
        registry = SharedDatasetRegistry()
        registry.publish("covtype", "tiny", None)
        assert shm_segments() != before
        registry.close()
        assert shm_segments() == before
        assert not cache_contains("covtype", "tiny", None)
        registry.close()  # idempotent

    def test_publish_skips_unknown_dataset(self):
        from repro.experiments.shared_data import ensure_published

        registry, published = ensure_published(
            [("no-such-dataset", "tiny", None, False), ("covtype", "tiny", None, False)]
        )
        assert published == 1
        assert registry.dataset_count == 1


class TestGridWithSharedData:
    def test_bit_identical_and_clean_teardown(self):
        before = shm_segments()
        serial = {
            cell: make_ctx().run(*cell.key) for cell in async_cells()
        }
        ctx = make_ctx(jobs=2)
        parallel = GridExecutor(ctx).execute(async_cells())
        assert shm_segments() != before  # segments live while the grid runs
        for cell, expected in serial.items():
            got = parallel[cell]
            assert got.curve.losses == expected.curve.losses
            assert got.time_per_iter == expected.time_per_iter
        shutdown_grid_pool()
        assert shm_segments() == before

    def test_no_shared_data_opt_out(self):
        before = shm_segments()
        ctx = make_ctx(jobs=2, shared_data=False)
        results = GridExecutor(ctx).execute(async_cells())
        assert len(results) == len(async_cells())
        assert shm_segments() == before
        assert active_registry() is None

    def test_segments_unlinked_after_worker_failure(self):
        before = shm_segments()
        ctx = make_ctx(jobs=2, fault_plan=FaultPlan.parse(["cell-kill@2"]))
        with pytest.raises(WorkerError):
            GridExecutor(ctx).execute(async_cells())
        # The failure retired the pool; the segments are reclaimed by
        # the explicit shutdown (or atexit), never leaked.
        assert warm_pool_info() is None
        shutdown_grid_pool()
        assert shm_segments() == before

    def test_segments_unlinked_after_quarantine(self):
        before = shm_segments()
        ctx = make_ctx(
            jobs=2,
            keep_going=True,
            fault_plan=FaultPlan.parse(["cell-nan@1"]),
            retry=CellRetryPolicy(
                max_attempts=1, divergence_retries=0, base_delay=0.01
            ),
        )
        results = GridExecutor(ctx).execute(async_cells())
        assert len(results) < len(async_cells())  # something was quarantined
        assert ctx.failures
        shutdown_grid_pool()
        assert shm_segments() == before


class TestWarmPool:
    def test_pool_reused_across_grids(self):
        tel1 = Telemetry()
        GridExecutor(make_ctx(jobs=2, telemetry=tel1)).execute(async_cells())
        assert tel1.counters()[keys.GRID_POOL_CREATED] == 1
        info = warm_pool_info()
        assert info is not None and info["jobs"] == 2

        tel2 = Telemetry()
        GridExecutor(make_ctx(jobs=2, telemetry=tel2)).execute(async_cells())
        counters = tel2.counters()
        assert keys.GRID_POOL_CREATED not in counters
        assert counters[keys.GRID_POOL_REUSED] == 1
        assert warm_pool_info()["generation"] == info["generation"]

    def test_keep_going_runs_on_the_same_pool(self):
        """Keep-going is a policy on the one runner, not a second one:
        it creates, reuses and shares the warm pool like fail-fast."""
        policy = CellRetryPolicy(base_delay=0.01)
        first = GridExecutor(
            make_ctx(jobs=2, keep_going=True, retry=policy, telemetry=Telemetry())
        )
        first.execute(async_cells())
        assert first.ctx.telemetry.counters()[keys.GRID_POOL_CREATED] == 1
        generation = warm_pool_info()["generation"]
        first_pids = {r["worker_pid"] for r in first.cell_records}
        assert len(first_pids) == 2

        # A healed crash replaces the worker that died and nothing else.
        second = GridExecutor(
            make_ctx(
                jobs=2,
                keep_going=True,
                retry=policy,
                telemetry=Telemetry(),
                fault_plan=FaultPlan.parse(["cell-kill@1:w1"]),
            )
        )
        second.execute(async_cells())
        assert not second.ctx.failures
        counters = second.ctx.telemetry.counters()
        assert keys.GRID_POOL_CREATED not in counters
        assert keys.GRID_POOL_RETIRED not in counters
        assert counters[keys.GRID_POOL_REUSED] == 1
        assert warm_pool_info()["generation"] == generation
        # One crash, one retry: every other cell ran exactly one attempt.
        assert counters[keys.GRID_RETRY_CRASHES] == 1
        assert counters[keys.GRID_RETRY_ATTEMPTS] == 1
        pids = {r["worker_pid"] for r in second.cell_records}
        assert len(pids) == 2  # the survivor and the replacement
        assert len(pids & first_pids) == 1

    def test_cold_grid_starts_only_its_own_workers(
        self, bench_environment, tmp_path, monkeypatch, started_processes
    ):
        """Reference solves included, a cold jobs=2 grid over two
        (task, dataset) pairs starts its 2 workers and no other process:
        the members run on the grid's own pool."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_reference_cache()
        tel = Telemetry()
        GridExecutor(make_ctx(jobs=2, telemetry=tel)).execute(async_cells())
        assert tel.counters()[keys.GRID_REFERENCE_COMPUTED] == len(DATASETS)
        assert len(started_processes) == 2

    def test_job_count_change_rebuilds_pool(self):
        GridExecutor(make_ctx(jobs=2)).execute(async_cells())
        first = warm_pool_info()["generation"]
        GridExecutor(make_ctx(jobs=3)).execute(async_cells())
        assert warm_pool_info()["generation"] == first + 1

    def test_resumed_grid_keeps_pool_warm(self, tmp_path):
        store = ResultStore(tmp_path / "grid")
        GridExecutor(make_ctx(jobs=2, store=store)).execute(async_cells())
        info = warm_pool_info()
        assert info is not None

        tel = Telemetry()
        ctx = make_ctx(jobs=2, store=store, resume=True, telemetry=tel)
        GridExecutor(ctx).execute(async_cells())
        counters = tel.counters()
        assert counters[keys.GRID_CELLS_RESUMED] == len(async_cells())
        assert keys.GRID_CELLS_EXECUTED not in counters
        # Nothing ran, so the warm pool was neither used nor rebuilt.
        assert warm_pool_info() == info


class TestReferenceDedup:
    def test_reference_solved_once_and_stored(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        clear_reference_cache()
        store = ResultStore(tmp_path / "grid")
        tel = Telemetry()
        cells = [
            GridCell("lr", "covtype", arch, "asynchronous")
            for arch in ("cpu-par", "gpu")
        ]
        GridExecutor(make_ctx(jobs=2, store=store, telemetry=tel)).execute(cells)
        counters = tel.counters()
        assert counters[keys.GRID_REFERENCE_COMPUTED] == 1
        assert store.references()  # persisted for future resumes

    def test_reference_reused_from_store(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        store = ResultStore(tmp_path / "grid")
        cells = [
            GridCell("lr", "covtype", arch, "asynchronous")
            for arch in ("cpu-par", "gpu")
        ]
        GridExecutor(make_ctx(jobs=2, store=store)).execute(cells)
        assert store.references()

        clear_reference_cache()  # fresh process simulation: memory gone
        tel = Telemetry()
        ctx = make_ctx(jobs=2, store=store, telemetry=tel)
        GridExecutor(ctx).execute(cells)
        counters = tel.counters()
        assert keys.GRID_REFERENCE_COMPUTED not in counters
        assert counters[keys.GRID_REFERENCE_REUSED] >= 1

    def test_failed_batch_leaves_its_pairs_unresolved(self, tmp_path, monkeypatch):
        """A member that raises for one key fails the grid's reference
        batch: no pair of it is resolved in the parent, the cells solve
        their own reference in their workers, and the grid's results
        equal a clean run's."""
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        clear_reference_cache()
        clean = GridExecutor(make_ctx(jobs=2)).execute(async_cells())
        shutdown_grid_pool()  # the next pool forks with the patch in place
        clear_reference_cache()

        monkeypatch.setattr(refmod, "_pool_task", _failing_pool_task)
        _FAILING_WIDTH[:] = [load("w8a", "tiny").n_features]
        store = ResultStore(tmp_path / "grid")
        tel = Telemetry()
        try:
            ctx = make_ctx(jobs=2, store=store, telemetry=tel)
            failed = GridExecutor(ctx).execute(async_cells())
        finally:
            _FAILING_WIDTH.clear()
        counters = tel.counters()
        assert keys.GRID_REFERENCE_COMPUTED not in counters
        assert keys.GRID_REFERENCE_REUSED not in counters
        assert store.references() == {}  # neither pair was resolved
        assert not ctx.failures
        assert failed.keys() == clean.keys()
        for cell, want in clean.items():
            got = failed[cell]
            assert got.curve.losses == want.curve.losses
            assert got.time_per_iter == want.time_per_iter
            assert got.optimal_loss == want.optimal_loss
            assert np.array_equal(got.params, want.params)
