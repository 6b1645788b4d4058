"""The resilient (keep-going) grid: retry, watchdog, quarantine, gaps.

The acceptance bar mirrors the executor's: a keep-going grid with no
faults must stay *bit-identical* to the serial path, transient faults
must heal through retries, persistent faults must quarantine as
structured :class:`CellFailure` records while every healthy cell
completes, stalls must be detected within the configured watchdog
window, and the table drivers must render partial grids with explicit
gap markers instead of aborting.
"""

import math
import time

import pytest

from repro.experiments import (
    CellFailure,
    ExperimentContext,
    GridCell,
    GridExecutor,
    ResultStore,
)
from repro.experiments.resilience import nan_to_gap, render_failure_section
from repro.faults import CellRetryPolicy, FaultPlan
from repro.telemetry import Telemetry, keys
from repro.utils.errors import CellQuarantinedError, WorkerError

TASKS = ("lr",)
DATASETS = ("covtype", "w8a")

#: Fast policy for tests: retries immediate, watchdog snappy.
FAST = dict(base_delay=0.01, heartbeat_timeout=30.0)


def make_ctx(**kw):
    kw.setdefault("keep_going", True)
    kw.setdefault("retry", CellRetryPolicy(**FAST))
    kw.setdefault("tasks", TASKS)
    kw.setdefault("datasets", DATASETS)
    return ExperimentContext(
        scale="tiny",
        sync_max_epochs=150,
        async_max_epochs=50,
        tolerance=0.05,
        **kw,
    )


def async_cells():
    """Async-only cells: one job each, submission index == position + 1."""
    return [
        GridCell("lr", dataset, architecture, "asynchronous")
        for dataset in DATASETS
        for architecture in ("cpu-seq", "cpu-par", "gpu")
    ]


def sync_cells():
    return [
        GridCell("lr", "covtype", architecture, "synchronous")
        for architecture in ("cpu-seq", "cpu-par", "gpu")
    ]


def assert_results_identical(a, b):
    assert a.curve.epochs == b.curve.epochs
    assert a.curve.losses == b.curve.losses
    assert a.time_per_iter == b.time_per_iter
    assert a.step_size == b.step_size
    assert a.diverged == b.diverged


@pytest.fixture(scope="module")
def serial_async():
    ctx = ExperimentContext(
        scale="tiny",
        tasks=TASKS,
        datasets=DATASETS,
        sync_max_epochs=150,
        async_max_epochs=50,
        tolerance=0.05,
    )
    return {cell: ctx.run(*cell.key) for cell in async_cells()}


class TestHealthyKeepGoing:
    def test_bit_identical_to_serial(self, serial_async):
        """keep_going changes supervision, never the numbers."""
        ctx = make_ctx(jobs=2)
        results = GridExecutor(ctx).execute(async_cells())
        assert not ctx.failures
        for cell, expected in serial_async.items():
            assert_results_identical(results[cell], expected)

    def test_jobs1_also_supervised(self, serial_async):
        """keep_going forces the resilient path even at jobs=1."""
        ctx = make_ctx(jobs=1)
        results = GridExecutor(ctx).execute(async_cells()[:2])
        for cell in async_cells()[:2]:
            assert_results_identical(results[cell], serial_async[cell])


class TestCrashRecovery:
    def test_transient_crash_healed_by_retry(self, serial_async):
        """cell-kill@1:w1 fires on attempt 1 only; attempt 2 heals it."""
        tel = Telemetry()
        ctx = make_ctx(
            jobs=2,
            telemetry=tel,
            fault_plan=FaultPlan.parse(["cell-kill@1:w1"]),
        )
        results = GridExecutor(ctx).execute(async_cells())
        assert not ctx.failures
        for cell, expected in serial_async.items():
            assert_results_identical(results[cell], expected)
        counters = tel.counters()
        assert counters[keys.GRID_RETRY_CRASHES] == 1
        assert counters[keys.GRID_RETRY_ATTEMPTS] == 1
        assert keys.GRID_QUARANTINE_CELLS not in counters

    def test_persistent_crash_quarantined(self):
        """A fault firing on every attempt exhausts the cap and
        quarantines; the rest of the grid completes."""
        tel = Telemetry()
        ctx = make_ctx(
            jobs=2,
            telemetry=tel,
            retry=CellRetryPolicy(max_attempts=2, **FAST),
            fault_plan=FaultPlan.parse(["cell-kill@1"]),
        )
        cells = async_cells()
        results = GridExecutor(ctx).execute(cells)
        assert cells[0] not in results
        assert set(results) == set(cells[1:])
        failure = ctx.failures[cells[0].key]
        assert failure.kind == "crash"
        assert failure.phase == "train"
        assert failure.attempts == 2
        assert len(failure.worker_pids) == 2
        assert not failure.budget_exhausted
        assert [e["kind"] for e in failure.error_chain] == ["crash", "crash"]
        assert "exit code 23" in failure.error_chain[-1]["message"]
        counters = tel.counters()
        assert counters[keys.GRID_QUARANTINE_CELLS] == 1
        assert counters[keys.GRID_RETRY_CRASHES] == 2

    def test_budget_exhaustion_flagged(self):
        """An empty shared budget forces quarantine on the first failure."""
        ctx = make_ctx(
            jobs=1,
            retry=CellRetryPolicy(max_attempts=3, max_restarts=0, **FAST),
            fault_plan=FaultPlan.parse(["cell-kill@1"]),
        )
        GridExecutor(ctx).execute(async_cells()[:1])
        (failure,) = ctx.failures.values()
        assert failure.budget_exhausted
        assert failure.attempts == 1  # no retry was affordable


class TestStallWatchdog:
    def test_stall_detected_within_window(self):
        """A wedged worker is killed by the heartbeat watchdog well
        before its 600-second sleep would ever return."""
        policy = CellRetryPolicy(max_attempts=1, base_delay=0.01, heartbeat_timeout=2.0)
        ctx = make_ctx(
            jobs=1,
            retry=policy,
            fault_plan=FaultPlan.parse(["cell-stall@1:600"]),
        )
        start = time.monotonic()
        GridExecutor(ctx).execute(async_cells()[:1])
        elapsed = time.monotonic() - start
        (failure,) = ctx.failures.values()
        assert failure.kind == "stall"
        assert "heartbeat watchdog" in failure.error_chain[-1]["message"]
        assert elapsed < 10 * policy.watchdog_window

    def test_deadline_watchdog(self):
        """With a per-attempt deadline tighter than the heartbeat, the
        deadline fires first."""
        ctx = make_ctx(
            jobs=1,
            retry=CellRetryPolicy(
                max_attempts=1, base_delay=0.01, heartbeat_timeout=None, deadline=1.5
            ),
            fault_plan=FaultPlan.parse(["cell-stall@1:600"]),
        )
        GridExecutor(ctx).execute(async_cells()[:1])
        (failure,) = ctx.failures.values()
        assert failure.kind == "stall"
        assert "deadline watchdog" in failure.error_chain[-1]["message"]


class TestDivergenceSentinel:
    def test_transient_divergence_healed_with_step_backoff(self, serial_async):
        """cell-nan@1:w1 poisons attempt 1; the sentinel retries at half
        the step size and the healed run records the backed-off step."""
        ctx = make_ctx(jobs=1, fault_plan=FaultPlan.parse(["cell-nan@1:w1"]))
        cell = async_cells()[0]
        results = GridExecutor(ctx).execute([cell])
        assert not ctx.failures
        assert results[cell].step_size == pytest.approx(
            0.5 * serial_async[cell].step_size
        )

    def test_healed_cell_is_stored_at_the_step_it_ran(self, tmp_path):
        """A healed cell is stored under its backed-off step: a context
        asking for that step resumes it, one asking for the original
        step trains it again."""
        store = ResultStore(tmp_path / "grid")
        cell = async_cells()[0]
        ctx = make_ctx(
            jobs=1, store=store, fault_plan=FaultPlan.parse(["cell-nan@1:w1"])
        )
        executor = GridExecutor(ctx)
        healed = executor.execute([cell])[cell].step_size
        original = ctx.step_for(
            cell.task, cell.dataset, cell.strategy, cell.architecture
        )
        assert healed == pytest.approx(0.5 * original)
        assert executor.cell_records[-1]["manifest"]["config"]["step_size"] == healed

        def executed(**kw):
            tel = Telemetry()
            fresh = make_ctx(jobs=1, store=store, resume=True, telemetry=tel, **kw)
            GridExecutor(fresh).execute([cell])
            return tel.counters().get(keys.GRID_CELLS_EXECUTED, 0)

        override = (cell.task, cell.dataset, cell.strategy, cell.architecture)
        assert executed(step_overrides={override: healed}) == 0
        assert executed() == 1

    def test_persistent_divergence_quarantined(self):
        tel = Telemetry()
        ctx = make_ctx(
            jobs=1,
            telemetry=tel,
            retry=CellRetryPolicy(divergence_retries=1, **FAST),
            fault_plan=FaultPlan.parse(["cell-nan@1"]),
        )
        GridExecutor(ctx).execute(async_cells()[:1])
        (failure,) = ctx.failures.values()
        assert failure.kind == "divergence"
        assert failure.phase == "collect"
        assert failure.attempts == 2  # original + one step-backoff retry
        assert tel.counters()[keys.GRID_RETRY_DIVERGENCES] == 2


class TestQuarantineSemantics:
    def test_sync_base_quarantine_covers_all_architectures(self):
        """A dead sync base gaps out all three architectures it covers."""
        ctx = make_ctx(
            jobs=1,
            retry=CellRetryPolicy(max_attempts=1, **FAST),
            fault_plan=FaultPlan.parse(["cell-kill@1"]),
        )
        results = GridExecutor(ctx).execute(sync_cells())
        assert results == {}
        base_key = ("lr", "covtype", "cpu-seq", "synchronous")
        failure = ctx.failures[base_key]
        assert set(failure.covers) == {
            "lr/covtype/cpu-seq/synchronous",
            "lr/covtype/cpu-par/synchronous",
            "lr/covtype/gpu/synchronous",
        }
        for arch in ("cpu-seq", "cpu-par", "gpu"):
            assert ctx.failure_for("lr", "covtype", arch, "synchronous") is failure

    def test_quarantine_is_sticky_on_the_context(self):
        ctx = make_ctx(
            jobs=1,
            retry=CellRetryPolicy(max_attempts=1, **FAST),
            fault_plan=FaultPlan.parse(["cell-kill@1"]),
        )
        cell = async_cells()[0]
        GridExecutor(ctx).execute([cell])
        assert ctx.try_run(*cell.key) is None
        with pytest.raises(CellQuarantinedError) as err:
            ctx.run(*cell.key)
        assert err.value.failure is ctx.failures[cell.key]
        # A second execute skips the quarantined cell instead of
        # spending another retry budget on it.
        tel_records = GridExecutor(ctx)
        results = tel_records.execute([cell])
        assert results == {}
        assert tel_records.cell_records[-1]["source"] == "quarantined"

    def test_failure_persisted_to_store_and_manifest(self, tmp_path):
        from repro.telemetry import build_grid_manifest

        store = ResultStore(tmp_path / "grid")
        ctx = make_ctx(
            jobs=1,
            store=store,
            retry=CellRetryPolicy(max_attempts=1, **FAST),
            fault_plan=FaultPlan.parse(["cell-kill@1"]),
        )
        cells = async_cells()[:2]
        executor = GridExecutor(ctx)
        executor.execute(cells)
        # The healthy cell's result and the failed cell's post-mortem
        # land in the same store directory; len() counts only results.
        assert len(store) == 1
        (stored,) = store.failures()
        assert stored == ctx.failures[cells[0].key]
        manifest = build_grid_manifest(executor.cell_records, jobs=1)
        assert [f["failure"]["kind"] for f in manifest["failures"]] == ["crash"]
        assert {c["source"] for c in manifest["cells"]} == {"executed", "quarantined"}

    def test_failfast_behaviour_preserved(self):
        """Without keep_going, a dead worker still aborts the grid."""
        cells = async_cells()
        ctx = make_ctx(
            jobs=2,
            keep_going=False,
            retry=None,
            fault_plan=FaultPlan.parse(["cell-kill@1"]),
        )
        with pytest.raises(WorkerError) as err:
            GridExecutor(ctx).execute(cells)
        assert err.value.phase == "pool"


class TestDegradedRendering:
    @pytest.fixture()
    def gapped_ctx(self):
        """A context whose lr/covtype async cpu-seq cell is quarantined."""
        ctx = make_ctx(
            jobs=2,
            retry=CellRetryPolicy(max_attempts=1, **FAST),
            fault_plan=FaultPlan.parse(["cell-kill@1"]),
        )
        ctx.prefetch(ctx.grid_cells(strategies=("asynchronous",)))
        assert ctx.failures
        return ctx

    def test_table3_partial_gap_row(self, gapped_ctx):
        from repro.experiments import run_table3

        t3 = run_table3(gapped_ctx)
        row = t3.row("lr", "covtype")
        assert row.is_gap
        assert math.isnan(row.ttc_cpu_seq)
        # The surviving architectures keep their numbers.
        assert math.isfinite(row.tpi_gpu) and math.isfinite(row.tpi_cpu_par)
        rendered = t3.render()
        assert "quarantined cells (1" in rendered
        assert "lr/covtype/cpu-seq/asynchronous" in rendered
        # Healthy rows keep a full complement of numbers.
        assert not t3.row("lr", "w8a").is_gap

    def test_table2_gap_row_from_quarantined_base(self):
        from repro.experiments import run_table2

        ctx = make_ctx(
            jobs=1,
            datasets=("covtype",),
            retry=CellRetryPolicy(max_attempts=1, **FAST),
            fault_plan=FaultPlan.parse(["cell-kill@1"]),
        )
        t2 = run_table2(ctx)
        row = t2.row("lr", "covtype")
        assert row.is_gap
        rendered = t2.render()
        assert "quarantined cells" in rendered
        assert "gaps:" in rendered  # the base lists all covered cells

    def test_shape_checks_skip_gap_rows(self, gapped_ctx):
        """The report's checks must not raise or read NaN off a gap row;
        the completeness check is what fails, and it names the gap."""
        from repro.experiments import ARTIFACTS, run_table3

        checks = ARTIFACTS["table3"].checks(run_table3(gapped_ctx), gapped_ctx)
        failed = {c.name: c.detail for c in checks if not c.passed}
        assert failed == {"table3/complete": "missing or quarantined: lr/covtype"}


class TestResilienceHelpers:
    def test_nan_to_gap(self):
        assert nan_to_gap(math.nan) is None
        assert nan_to_gap(math.inf) == math.inf
        assert nan_to_gap(1.5) == 1.5
        assert nan_to_gap("lr") == "lr"

    def test_cell_failure_round_trip(self):
        failure = CellFailure(
            task="lr",
            dataset="covtype",
            architecture="cpu-seq",
            strategy="asynchronous",
            kind="crash",
            phase="train",
            attempts=2,
            error_chain=({"type": "WorkerCrash", "message": "x", "attempt": 1},),
            elapsed_seconds=1.25,
            worker_pids=(41, 42),
            budget_exhausted=True,
            covers=("lr/covtype/cpu-seq/asynchronous",),
        )
        assert CellFailure.from_dict(failure.describe()) == failure

    def test_summary_names_the_last_error(self):
        failure = CellFailure(
            task="lr",
            dataset="w8a",
            architecture="gpu",
            strategy="asynchronous",
            kind="stall",
            phase="train",
            attempts=3,
            error_chain=({"type": "WorkerStall", "message": "silent 2.0s"},),
        )
        summary = failure.summary()
        assert "lr/w8a/gpu/asynchronous" in summary
        assert "stall after 3 attempt(s)" in summary
        assert "WorkerStall: silent 2.0s" in summary

    def test_render_failure_section_empty_is_empty(self):
        assert render_failure_section([]) == ""
