"""The parallel grid executor: bit-identity, dedup, resume, failures.

The acceptance bar for the process-pool fan-out is *bit-identical*
results: every cell produced with ``jobs=4`` must equal the serial
path's output exactly — loss curves, modelled times, divergence flags.
Alongside that: the shared-base dedup must preserve the serial path's
curve-object sharing, resume must replay the store instead of
recomputing, a dead worker must surface as a structured
:class:`WorkerError`, and worker telemetry must fold into the parent
with totals matching a serial instrumented run.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro.experiments import (
    ExperimentContext,
    GridCell,
    GridExecutor,
    ResultStore,
)
from repro.faults import FaultPlan
from repro.telemetry import Telemetry, keys
from repro.utils.errors import ConfigurationError, WorkerError

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


def all_cells():
    return [
        GridCell(task, dataset, architecture, strategy)
        for task in TASKS
        for dataset in DATASETS
        for strategy in ("synchronous", "asynchronous")
        for architecture in ("cpu-seq", "cpu-par", "gpu")
    ]


def assert_results_identical(a, b):
    assert a.curve.epochs == b.curve.epochs
    assert a.curve.losses == b.curve.losses
    assert a.time_per_iter == b.time_per_iter
    assert a.optimal_loss == b.optimal_loss
    assert a.step_size == b.step_size
    assert a.diverged == b.diverged


@pytest.fixture(scope="module")
def serial_results():
    ctx = make_ctx()
    return {cell: ctx.run(*cell.key) for cell in all_cells()}


class TestBitIdentity:
    def test_jobs4_matches_serial(self, serial_results):
        """The acceptance criterion: --jobs 4 output == --jobs 1 output."""
        ctx = make_ctx(jobs=4)
        parallel = GridExecutor(ctx).execute(all_cells())
        for cell, expected in serial_results.items():
            assert_results_identical(parallel[cell], expected)

    def test_sync_cells_share_curve_object(self):
        """The dedup preserves the serial path's curve sharing."""
        ctx = make_ctx(jobs=2)
        results = GridExecutor(ctx).execute(all_cells())
        seq = results[GridCell("lr", "covtype", "cpu-seq", "synchronous")]
        par = results[GridCell("lr", "covtype", "cpu-par", "synchronous")]
        gpu = results[GridCell("lr", "covtype", "gpu", "synchronous")]
        assert seq.curve is par.curve is gpu.curve

    def test_prefetch_then_run_hits_cache(self, serial_results):
        ctx = make_ctx(jobs=2)
        ctx.prefetch(all_cells())
        for cell in all_cells():
            assert cell.key in ctx._cache
            assert_results_identical(ctx.run(*cell.key), serial_results[cell])

    def test_serial_context_prefetch_is_noop(self):
        ctx = make_ctx()  # jobs=1, no store
        ctx.prefetch(all_cells())
        assert ctx._cache == {}


class TestDedup:
    def test_sync_bases_deduplicated(self):
        tel = Telemetry()
        ctx = make_ctx(jobs=2, telemetry=tel)
        GridExecutor(ctx).execute(all_cells())
        counters = tel.counters()
        # 12 cells: 6 sync (2 bases + 4 recosted) + 6 async.
        assert counters[keys.GRID_CELLS_REQUESTED] == 12
        assert counters[keys.GRID_CELLS_EXECUTED] == 8
        assert counters[keys.GRID_CELLS_DEDUPED] == 4
        assert counters[keys.GRID_CELLS_RECOSTED] == 4
        assert keys.GRID_CELLS_RESUMED not in counters

    def test_cached_cells_not_rerun(self):
        tel = Telemetry()
        ctx = make_ctx(jobs=2, telemetry=tel)
        cells = all_cells()
        GridExecutor(ctx).execute(cells)
        executed = tel.counters()[keys.GRID_CELLS_EXECUTED]
        GridExecutor(ctx).execute(cells)  # everything already cached
        assert tel.counters()[keys.GRID_CELLS_EXECUTED] == executed


class TestTelemetryMerge:
    def test_counter_totals_match_serial(self):
        """Worker counters folded into the parent equal a serial run's
        totals (the ``grid.*`` bookkeeping keys are grid-only)."""
        serial_tel = Telemetry()
        serial_ctx = make_ctx(telemetry=serial_tel)
        for cell in all_cells():
            serial_ctx.run(*cell.key)

        grid_tel = Telemetry()
        ctx = make_ctx(jobs=4, telemetry=grid_tel)
        GridExecutor(ctx).execute(all_cells())

        serial_counters = {
            k: v
            for k, v in serial_tel.counters().items()
            if not k.startswith("grid.")
        }
        grid_counters = {
            k: v
            for k, v in grid_tel.counters().items()
            if not k.startswith("grid.")
        }
        assert grid_counters == serial_counters

    def test_gauges_record_jobs_and_wall(self):
        tel = Telemetry()
        ctx = make_ctx(jobs=2, telemetry=tel)
        GridExecutor(ctx).execute(all_cells())
        gauges = tel.gauges()
        assert gauges[keys.GRID_JOBS] == 2
        assert gauges[keys.GRID_WALL_SECONDS] > 0

    def test_worker_spans_imported_under_grid_span(self):
        tel = Telemetry()
        ctx = make_ctx(jobs=2, telemetry=tel)
        GridExecutor(ctx).execute(all_cells()[:3])
        records = tel.tracer.records()
        grid_spans = [r for r in records if r.name == "grid.execute"]
        assert len(grid_spans) == 1
        imported = [r for r in records if r.parent_id == grid_spans[0].span_id]
        assert imported  # worker root spans re-parented under the grid span


class TestResume:
    def test_resume_skips_completed_cells(self, tmp_path, serial_results):
        store = ResultStore(tmp_path / "grid")
        first = make_ctx(jobs=2, store=store)
        GridExecutor(first).execute(all_cells())
        assert len(store) == 8  # 2 sync bases + 6 async cells

        tel = Telemetry()
        resumed_ctx = make_ctx(jobs=2, store=store, resume=True, telemetry=tel)
        results = GridExecutor(resumed_ctx).execute(all_cells())
        counters = tel.counters()
        assert keys.GRID_CELLS_EXECUTED not in counters
        assert counters[keys.GRID_CELLS_RESUMED] == 8
        for cell, expected in serial_results.items():
            assert_results_identical(results[cell], expected)

    def test_partial_store_fills_the_gap(self, tmp_path):
        """Cells missing from the store are recomputed, not skipped."""
        store = ResultStore(tmp_path / "grid")
        sync_only = [c for c in all_cells() if c.strategy == "synchronous"]
        GridExecutor(make_ctx(jobs=2, store=store)).execute(sync_only)
        stored = len(store)

        tel = Telemetry()
        ctx = make_ctx(jobs=2, store=store, resume=True, telemetry=tel)
        GridExecutor(ctx).execute(all_cells())
        counters = tel.counters()
        assert counters[keys.GRID_CELLS_RESUMED] == stored
        assert counters[keys.GRID_CELLS_EXECUTED] == 6  # the async cells

    def test_config_change_misses_store(self, tmp_path):
        store = ResultStore(tmp_path / "grid")
        GridExecutor(make_ctx(jobs=2, store=store)).execute(all_cells())
        tel = Telemetry()
        # A different tolerance changes every cell's config hash.
        ctx = make_ctx(jobs=2, store=store, resume=True, telemetry=tel)
        ctx.tolerance = 0.10
        GridExecutor(ctx).execute(all_cells())
        assert keys.GRID_CELLS_RESUMED not in tel.counters()

    def test_resume_without_store_rejected(self):
        ctx = make_ctx(jobs=2, resume=True)
        with pytest.raises(ConfigurationError):
            GridExecutor(ctx).execute(all_cells())


class TestWorkerFailure:
    def test_dead_worker_raises_structured_error(self):
        """A worker killed mid-cell surfaces as a structured WorkerError."""
        # Submission order: covtype's sync base, then its async cells.
        cell = GridCell("lr", "covtype", "cpu-seq", "asynchronous")
        tel = Telemetry()
        ctx = make_ctx(
            jobs=2, telemetry=tel, fault_plan=FaultPlan.parse(["cell-kill@2"])
        )
        with pytest.raises(WorkerError) as err:
            GridExecutor(ctx).execute(all_cells())
        assert err.value.phase == "pool"
        # One job per worker: the error names the cell that killed its
        # worker, and the exit code it died with.
        assert cell.label() in str(err.value)
        assert "exit code 23" in str(err.value)
        assert err.value.exitcode == 23
        assert tel.counters()[keys.GRID_WORKER_FAILURES] == 1

    def test_crash_names_its_cell_and_spares_the_neighbours(self, tmp_path):
        """The first submitted cell kills its worker while two others
        are in flight: the error names the killer, and the in-flight
        cells land in the store before it is raised."""
        cells = [c for c in all_cells() if c.strategy == "asynchronous"]
        store = ResultStore(tmp_path / "grid")
        ctx = make_ctx(jobs=3, store=store, fault_plan=FaultPlan.parse(["cell-kill@1"]))
        with pytest.raises(WorkerError) as err:
            GridExecutor(ctx).execute(cells)
        assert err.value.phase == "pool"
        assert cells[0].label() in str(err.value)
        assert "exit code 23" in str(err.value)
        # Jobs 2 and 3 were dispatched alongside the killer; nothing
        # was dispatched after it died.
        assert len(store) == 2
        assert multiprocessing.active_children() == []

    def test_stalled_worker_trips_the_watchdog(self):
        """Fail-fast runs the same watchdog as keep-going: a wedged
        worker is killed at the deadline instead of hanging the grid."""
        from repro.faults import CellRetryPolicy

        ctx = make_ctx(
            jobs=2,
            retry=CellRetryPolicy(deadline=1.5, heartbeat_timeout=None),
            fault_plan=FaultPlan.parse(["cell-stall@1:600"]),
        )
        start = time.monotonic()
        with pytest.raises(WorkerError) as err:
            GridExecutor(ctx).execute(all_cells())
        assert time.monotonic() - start < 10.0
        assert err.value.phase == "pool"
        assert "deadline watchdog" in str(err.value)
        assert multiprocessing.active_children() == []

    def test_worker_exception_wrapped(self):
        """A cell that raises inside the worker is reported with the
        failing cell's identity."""
        bad = GridCell("lr", "no-such-dataset", "cpu-seq", "asynchronous")
        ctx = make_ctx(jobs=2)
        with pytest.raises(WorkerError) as err:
            GridExecutor(ctx).execute([bad] + all_cells())
        assert err.value.phase == "grid-cell"
        assert "no-such-dataset" in str(err.value)

    def test_completed_cells_flushed_before_pool_abort(self, tmp_path):
        """Regression: cells that finished before the failing one must
        be in the store when the grid raises — an aborted run loses
        only the cell that failed, and --resume replays the rest."""
        bad = GridCell("lr", "no-such-dataset", "cpu-seq", "asynchronous")
        good = [c for c in all_cells() if c.strategy == "asynchronous"]
        store = ResultStore(tmp_path / "grid")
        ctx = make_ctx(jobs=2, store=store)
        with pytest.raises(WorkerError):
            GridExecutor(ctx).execute(good + [bad])
        assert len(store) == len(good)

        tel = Telemetry()
        resumed = make_ctx(jobs=2, store=store, resume=True, telemetry=tel)
        GridExecutor(resumed).execute(good)
        assert tel.counters()[keys.GRID_CELLS_RESUMED] == len(good)
        assert keys.GRID_CELLS_EXECUTED not in tel.counters()

    def test_completed_cells_flushed_before_inparent_abort(self, tmp_path):
        """Same guarantee on the jobs=1 in-parent path."""
        bad = GridCell("lr", "no-such-dataset", "cpu-seq", "asynchronous")
        good = GridCell("lr", "covtype", "cpu-seq", "asynchronous")
        store = ResultStore(tmp_path / "grid")
        ctx = make_ctx(store=store)  # jobs=1
        with pytest.raises(WorkerError) as err:
            GridExecutor(ctx).execute([good, bad])
        assert err.value.phase == "grid-cell"
        assert len(store) == 1


class TestManifestRecords:
    def test_records_cover_every_cell_with_provenance(self):
        ctx = make_ctx(jobs=2)
        executor = GridExecutor(ctx)
        executor.execute(all_cells())
        records = executor.cell_records
        assert len(records) == 12
        sources = {r["source"] for r in records}
        assert sources == {"executed", "recosted"}
        for record in records:
            assert record["manifest"]["schema"] == "repro.telemetry/manifest/v1"
            assert record["manifest"]["config"]["task"] == record["cell"]["task"]

    def test_one_git_fork_per_process(self, tmp_path, monkeypatch):
        """Every cell record carries a manifest with the git sha; asking
        ``git`` for it is memoised per repository root, not per cell."""
        import subprocess

        from repro.telemetry import gitinfo

        (tmp_path / ".git").mkdir()
        monkeypatch.setattr(gitinfo, "__file__", str(tmp_path / "gitinfo.py"))
        calls = []

        def fake_run(cmd, **kwargs):
            calls.append((cmd, kwargs["cwd"]))
            return subprocess.CompletedProcess(cmd, 0, stdout="f00d\n", stderr="")

        monkeypatch.setattr(subprocess, "run", fake_run)
        gitinfo._sha_at.cache_clear()
        try:
            executor = GridExecutor(make_ctx(jobs=2))
            executor.execute(all_cells())
        finally:
            gitinfo._sha_at.cache_clear()
        assert len(executor.cell_records) == 12
        assert {r["manifest"]["git_sha"] for r in executor.cell_records} == {"f00d"}
        assert calls == [(["git", "rev-parse", "HEAD"], tmp_path)]

    def test_repo_root_walked_once(self, monkeypatch):
        """The records' git sha does not re-walk the directory tree per
        cell: the walk is memoised per module path."""
        from repro.telemetry import gitinfo

        walks = []
        repo_root = gitinfo.repo_root

        def counting_repo_root(start=None):
            walks.append(start)
            return repo_root(start)

        monkeypatch.setattr(gitinfo, "repo_root", counting_repo_root)
        executor = GridExecutor(make_ctx(jobs=2))
        executor.execute(all_cells())
        assert len(executor.cell_records) == 12
        assert len(walks) <= 1
        assert len({r["manifest"]["git_sha"] for r in executor.cell_records}) == 1

    def test_grid_manifest_assembles(self):
        from repro.telemetry import GRID_MANIFEST_SCHEMA, build_grid_manifest

        tel = Telemetry()
        ctx = make_ctx(jobs=2, telemetry=tel)
        executor = GridExecutor(ctx)
        executor.execute(all_cells()[:3])
        manifest = build_grid_manifest(
            executor.cell_records, tel, jobs=2, settings={"scale": "tiny"}
        )
        assert manifest["schema"] == GRID_MANIFEST_SCHEMA
        assert manifest["jobs"] == 2
        assert len(manifest["cells"]) == 3
        assert manifest["counters"][keys.GRID_CELLS_REQUESTED] == 3


#: Names of the threads a pool worker started (filled in the worker by
#: :func:`_count_thread_starts`; the parent's copy stays empty).
_THREAD_STARTS = []


def _count_thread_starts(_arg):
    """Pool worker setup: record every thread the worker starts."""
    start = threading.Thread.start

    def counting_start(thread):
        _THREAD_STARTS.append(thread.name)
        start(thread)

    threading.Thread.start = counting_start


def _thread_starts(_arg, _heartbeat):
    """Pool task: the worker's thread starts so far."""
    return list(_THREAD_STARTS)


def _fake_job(payload):
    """Stands in for a grid cell: sleeps, then (if asked) forks while the
    worker's beat is armed and reports the child's heartbeat slot."""
    time.sleep(payload["sleep"])
    child_stamp = _forked_attempt(payload["sleep"]) if payload.get("fork") else None
    return {"result": child_stamp, "telemetry": None, "pid": os.getpid()}


def _forked_attempt(sleep):
    """Run one attempt in a forked child; its heartbeat slot's value."""
    from repro.experiments import executor

    slot = multiprocessing.RawValue("d", 0.0)
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child
        try:
            executor._run_attempt(({"sleep": sleep}, sleep / 4), slot)
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    return slot.value


class TestWorkerBeat:
    """A pool worker keeps one heartbeat thread, armed per attempt."""

    INTERVAL = 0.02

    @pytest.fixture
    def worker(self, monkeypatch):
        from repro.experiments import executor
        from repro.utils.pool import Pool

        monkeypatch.setattr(executor, "_execute_job", _fake_job)
        pool = Pool(jobs=1, setup=(_count_thread_starts, None))
        try:
            yield pool.checkout()
        finally:
            pool.close()

    def attempt(self, worker, **payload):
        from repro.experiments.executor import _run_attempt

        worker.heartbeat.value = 0.0
        worker.conn.send((_run_attempt, ({"sleep": 0.0, **payload}, self.INTERVAL)))
        reply = worker.conn.recv()
        assert reply["ok"], reply
        return reply

    def test_one_thread_for_ten_attempts(self, worker):
        for _ in range(10):
            self.attempt(worker, sleep=2 * self.INTERVAL)
            assert worker.heartbeat.value > 0.0  # armed for every attempt
        worker.conn.send((_thread_starts, None))
        assert worker.conn.recv() == ["grid-beat"]

    def test_silent_between_attempts(self, worker):
        for _ in range(2):
            self.attempt(worker, sleep=2 * self.INTERVAL)
            stamp = worker.heartbeat.value
            assert stamp > 0.0
            time.sleep(3 * self.INTERVAL + 0.05)
            assert worker.heartbeat.value == stamp

    def test_forked_child_beats_on_its_own(self, worker):
        """A child forked mid-attempt inherits the worker's beat object
        but not its thread; its own attempt must still beat."""
        reply = self.attempt(worker, sleep=0.2, fork=True)
        assert reply["result"] > 0.0
        self.attempt(worker, sleep=2 * self.INTERVAL)
        assert worker.heartbeat.value > 0.0
