"""Process-pool execution of the experiment grid.

The paper's result set is a grid of independent cells — (dataset ×
task × architecture × strategy) — each an isolated optimisation run.
Serial drivers walk the grid one cell at a time through
:meth:`ExperimentContext.run`; this module fans the *independent* work
over ``jobs`` worker processes while preserving every semantic of the
serial path:

* **Dedup before fan-out.**  Synchronous statistical efficiency is
  architecture-independent (Section IV-A), so the three synchronous
  cells of a (task, dataset) pair share one ``cpu-seq`` optimisation
  run; only that base run goes to a worker, and the parent re-costs it
  per architecture through :meth:`ExperimentContext._run_sync` — which
  also preserves the serial path's curve-object sharing between the
  re-costed results.
* **Bit-identical results.**  Workers run the same
  :meth:`ExperimentContext.config_for` runs with the same derived seeds
  the serial loop would use; nothing about placement changes the
  numbers, which the test suite asserts by comparing ``jobs=4`` against
  ``jobs=1`` cell by cell.
* **Deterministic telemetry merge.**  Each worker carries its own
  :class:`~repro.telemetry.Telemetry`; the parent folds the snapshots
  back in *submission order* (not completion order), so counter totals
  and span ordering are reproducible run to run and match a serial
  run's totals (modulo the ``grid.*`` bookkeeping keys, which only a
  grid run emits).
* **Resumability.**  With a :class:`~repro.experiments.store.ResultStore`
  attached, every completed cell is persisted *the moment it finishes*
  — an aborted grid never loses the cells that did complete — and
  ``resume=True`` replays stored cells instead of recomputing them.
* **Warm pools, shared datasets, deduped references.**  The worker
  pool survives across ``execute()`` calls (``repro.experiments.pool``),
  dataset arrays are published once into read-only shared-memory
  segments every worker maps instead of re-generating
  (``repro.experiments.shared_data``), and reference optima are solved
  once per (task, dataset), every cold pair of a grid in one batch on
  the same workers — persisted through the result store — and shipped
  to workers in the payload.  All three are pure placement
  optimisations: the numbers are bit-identical with any of them
  disabled (``shared_data=False`` falls back to per-worker
  materialisation over copy-on-write fork memory).

There is **one runner**: an event loop in the parent over the warm
pool's supervised workers, each holding at most one job.  Results are
collected (and persisted) as they land; a worker that dies, outlives
its per-attempt deadline or lets its heartbeat go silent is killed and
replaced alone, and the failure names exactly the cell it held.  The
two modes of docs/RESILIENCE.md differ only in what happens to a failed
attempt:

* **fail-fast** (the default): the first failure stops dispatching,
  whatever is in flight lands and is persisted, the pool is retired and
  a structured :class:`~repro.utils.errors.WorkerError` is raised.
* **keep-going** (``ExperimentContext.keep_going``): the attempt is
  retried under a :class:`~repro.faults.CellRetryPolicy` (exponential
  backoff, shared budget, step-size backoff for non-finite results) and
  a cell that exhausts its budget is *quarantined* as a structured
  :class:`~repro.experiments.resilience.CellFailure` record — the grid
  completes, degraded, instead of aborting.

Grid-level fault kinds (``cell-kill`` / ``cell-stall`` / ``cell-nan``)
from a :class:`~repro.faults.FaultPlan` chaos-test exactly these paths,
in either mode.  ``jobs=1`` without keep-going runs in the parent — no
pool, no pickling — and is the serial reference the fan-out is compared
against.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from multiprocessing.connection import wait as _conn_wait
from typing import TYPE_CHECKING, Any

from ..datasets import load_for
from ..faults.recovery import CellRetryPolicy
from ..sgd.config import RunConfig
from ..sgd.reference import (
    cached_reference,
    reference_losses,
    reference_problem,
    seed_reference_cache,
)
from ..sgd.runner import ARCHITECTURES, STRATEGIES, TrainResult, run
from ..telemetry import keys
from ..telemetry.manifest import build_manifest
from ..telemetry.session import Telemetry, ensure_telemetry
from ..utils.errors import ConfigurationError, DivergenceError, WorkerError
from . import pool as grid_pool
from . import shared_data
from .resilience import CellFailure

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .common import ExperimentContext

__all__ = ["GridCell", "GridExecutor", "ARCHITECTURES", "STRATEGIES"]

#: Exit code of a worker killed by an injected ``cell-kill`` fault
#: (distinctive, so post-mortems can tell injected deaths from real
#: ones).
_KILL_EXIT_CODE = 23

#: Fallback sleep for a ``cell-stall`` fault with no explicit seconds:
#: long enough that any sane watchdog fires first.
_DEFAULT_STALL_SECONDS = 3600.0

#: The :class:`RunConfig` fields that, with the job kind, the tolerance
#: and a sync base's hardware fingerprint, key every stored cell; any
#: other field joins the key only when it differs from
#: ``RunConfig(**these)``.  Fixed: changing them silently invalidates
#: every store on disk.
_STORE_KEY_FIELDS = (
    "task",
    "dataset",
    "architecture",
    "strategy",
    "scale",
    "seed",
    "step_size",
    "max_epochs",
)


@dataclass(frozen=True)
class GridCell:
    """One cell of the experiment grid."""

    task: str
    dataset: str
    architecture: str
    strategy: str

    @property
    def key(self) -> tuple[str, str, str, str]:
        """The :class:`ExperimentContext` cache key for this cell."""
        return (self.task, self.dataset, self.architecture, self.strategy)

    def label(self) -> str:
        return f"{self.task}/{self.dataset}/{self.architecture}/{self.strategy}"


@dataclass
class _Job:
    """One unit of worker work (a sync base run or one async cell)."""

    kind: str  # "sync-base" | "async"
    cell: GridCell  # the cell the worker actually trains
    #: The run's ``"config"``, the ``"telemetry"`` flag and the shipped
    #: ``"reference"`` optimum; a dispatch adds any grid fault.
    payload: dict[str, Any]
    #: Sync bases: the machine models pricing the result (store key).
    hardware: dict[str, Any] | None = None
    #: Requested cells satisfied by this job (> 1 only for sync bases).
    covers: list[GridCell] = field(default_factory=list)
    result: TrainResult | None = None
    source: str = "executed"
    worker_pid: int | None = None
    #: Set instead of ``result`` when keep-going mode quarantined the
    #: cell (``source`` becomes ``"quarantined"``).
    failure: CellFailure | None = None

    @property
    def config(self) -> dict[str, Any]:
        """The result-store key material of this job."""
        values = self.payload["config"].to_dict()
        key = {name: values.pop(name) for name in _STORE_KEY_FIELDS}
        base = RunConfig(**key).to_dict()
        key["tolerance"] = values.pop("early_stop_tolerance")
        key.update((name, v) for name, v in values.items() if v != base[name])
        key["kind"] = self.kind
        if self.hardware is not None:
            key["hardware"] = self.hardware
        return key


def _apply_grid_fault(payload: dict[str, Any]) -> str | None:
    """Fire a scheduled grid fault inside the worker, if armed.

    ``cell-kill`` and ``cell-stall`` act here (the process dies or
    wedges); ``cell-nan`` returns ``"nan"`` so the caller can poison
    the finished result.  A fault with a ``wK`` worker token only fires
    on attempts 1..K — the vehicle for *transient* faults that a retry
    heals.
    """
    fault = payload.get("grid_fault")
    if fault is None:
        return None
    attempt = payload.get("grid_attempt", 1)
    fire_through = fault.get("attempts")
    if fire_through is not None and attempt > fire_through:
        return None
    kind = fault["kind"]
    if kind == "cell-kill":  # pragma: no cover - dies by design
        os._exit(_KILL_EXIT_CODE)
    if kind == "cell-stall":
        time.sleep(fault.get("seconds") or _DEFAULT_STALL_SECONDS)
        return None
    return "nan"


def _execute_job(payload: dict[str, Any]) -> dict[str, Any]:
    """Train one configuration (runs in a worker, or in-parent for jobs=1)."""
    references = payload.get("reference")
    if references:
        # The parent already solved (or loaded) this cell's reference
        # optimum; seeding the cache keeps the solve out of the worker.
        seed_reference_cache(references)
    tel = Telemetry() if payload["telemetry"] else None
    result = run(payload["config"], telemetry=tel)
    return {
        "result": result,
        "telemetry": tel.snapshot_for_merge() if tel is not None else None,
        "pid": os.getpid(),
    }


class _Beat:
    """A worker process's one heartbeat thread, armed per attempt.

    Armed, it stamps the attempt's heartbeat slot at once and then every
    *interval* seconds; disarmed, it waits and never stamps (both under
    one lock, so no stamp lands after :meth:`disarm` returns).
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._wake = threading.Condition()
        self._slot = None
        self._interval = 0.0
        threading.Thread(target=self._run, name="grid-beat", daemon=True).start()

    def arm(self, slot, interval: float) -> None:
        with self._wake:
            self._slot, self._interval = slot, interval
            self._wake.notify()

    def disarm(self) -> None:
        with self._wake:
            self._slot = None
            self._wake.notify()

    def _run(self) -> None:
        with self._wake:
            while True:
                if self._slot is None:
                    self._wake.wait()
                else:
                    self._slot.value = time.time()
                    self._wake.wait(self._interval)


_beat: _Beat | None = None


def _worker_beat() -> _Beat:
    """This process's :class:`_Beat`, started on first use.

    Keyed on the pid: a child forked from a worker inherits the
    worker's beat object but not its thread, so it starts its own.
    """
    global _beat
    if _beat is None or _beat.pid != os.getpid():
        _beat = _Beat()
    return _beat


def _run_attempt(task: tuple[dict[str, Any], float], heartbeat) -> dict[str, Any]:
    """One attempt of one job inside a pool worker (a pool task).

    Injected kill/stall faults fire *before* the worker's beat is armed,
    so a stalled worker's heartbeat stays at the parent's dispatch stamp
    and the watchdog sees the silence.  The beat is the worker's one
    thread (:func:`_worker_beat`), armed with this attempt's slot and
    interval and disarmed on the way out, so an idle worker never
    beats.  Everything the worker has to say is the returned dict:
    ``{"ok": True, ...}`` with the trained result, or ``{"ok": False,
    ...}`` describing the exception.  A worker that dies without
    replying is a crash.
    """
    payload, interval = task
    poison = _apply_grid_fault(payload)
    beat = _worker_beat()
    beat.arm(heartbeat, interval)
    try:
        out = _execute_job(payload)
        if poison == "nan":
            out["result"].diverged = True
        return {"ok": True, **out}
    except Exception as exc:  # noqa: BLE001 - ships the failure home
        return {"ok": False, "type": type(exc).__name__, "message": str(exc)}
    finally:
        beat.disarm()


#: What a keep-going grid counts for each kind of failed attempt.
_FAILURE_COUNTER = {
    "crash": keys.GRID_RETRY_CRASHES,
    "stall": keys.GRID_RETRY_STALLS,
    "divergence": keys.GRID_RETRY_DIVERGENCES,
    "exception": keys.GRID_WORKER_FAILURES,
}


#: What a grid counts for each landed job, by where its result came from.
_SOURCE_COUNTER = {
    "executed": keys.GRID_CELLS_EXECUTED,
    "resumed": keys.GRID_CELLS_RESUMED,
}


def _result_is_finite(result: TrainResult) -> bool:
    """The divergence sentinel's check: every reported loss is finite."""
    if result.diverged:
        return False
    return all(math.isfinite(loss) for loss in result.curve.losses)


@dataclass
class _CellState:
    """Parent-side supervision state of one job on the pool."""

    job: _Job
    fault: dict[str, Any] | None = None
    attempts: int = 0
    resubmissions: int = 0  # backoff exponent
    divergence_retries: int = 0
    #: The job's run, its step halved per divergence retry.
    config: RunConfig = field(init=False)
    errors: list[dict[str, Any]] = field(default_factory=list)
    pids: list[int | None] = field(default_factory=list)
    first_dispatch: float = 0.0  # monotonic; set by attempt 1
    worker: Any = None  # the pool worker holding the current attempt
    dispatched_at: float = 0.0
    snapshot: dict[str, Any] | None = None  # telemetry of the attempt that landed

    def __post_init__(self) -> None:
        self.config = self.job.payload["config"]


def _hw_fingerprint(ctx: "ExperimentContext") -> dict[str, Any]:
    """Hashable description of the machine models costing a sync base.

    Part of the store key for synchronous runs: their ``time_per_iter``
    is computed from these models, so changing a spec must miss.
    """
    return {
        "cpu": {
            "spec": asdict(ctx.cpu.spec),
            "policy": asdict(ctx.cpu.policy),
            "irregular_penalty": ctx.cpu.irregular_penalty,
            "model_coherence": ctx.cpu.model_coherence,
        },
        "gpu": {
            "spec": asdict(ctx.gpu.spec),
            "irregular_penalty": ctx.gpu.irregular_penalty,
            "warp_shuffle": ctx.gpu.warp_shuffle,
        },
    }


class GridExecutor:
    """Plans, deduplicates, fans out and merges one grid of cells."""

    def __init__(self, ctx: "ExperimentContext") -> None:
        self.ctx = ctx
        #: Per-cell provenance records for the grid manifest, in the
        #: requested cell order.
        self.cell_records: list[dict[str, Any]] = []

    # -- planning -----------------------------------------------------

    def _job(self, config: RunConfig, covered: GridCell | None = None) -> _Job:
        """The job running *config*, first requested as *covered*; a
        synchronous one is a base run (stored with its trace)."""
        ctx = self.ctx
        sync = config.strategy == "synchronous"
        cell = GridCell(
            config.task, config.dataset_name, config.architecture, config.strategy
        )
        return _Job(
            kind="sync-base" if sync else "async",
            cell=cell,
            payload={
                "config": config,
                "telemetry": ensure_telemetry(ctx.telemetry).enabled,
            },
            hardware=_hw_fingerprint(ctx) if sync else None,
            covers=[covered or cell],
        )

    def _plan(self, cells: list[GridCell]) -> list[_Job]:
        """Map requested cells onto the minimal set of worker jobs.

        Cells this context already quarantined are *not* re-planned:
        quarantine is sticky for the lifetime of the context (a fresh
        context — or a resumed run, which ignores failure files —
        retries them).
        """
        ctx = self.ctx
        jobs: list[_Job] = []
        sync_bases: dict[tuple[str, str], _Job] = {}
        for cell in cells:
            if cell.key in ctx._cache:
                continue
            if ctx.failure_for(*cell.key) is not None:
                continue
            if cell.strategy == "synchronous":
                group = (cell.task, cell.dataset)
                base_key = (cell.task, cell.dataset, "cpu-seq", "synchronous")
                if group in sync_bases:
                    sync_bases[group].covers.append(cell)
                    continue
                if base_key in ctx._cache:
                    # Base already ran (this or an earlier grid); the
                    # merge step re-costs straight from the cache.
                    continue
                job = self._job(ctx.config_for(*base_key), cell)
                sync_bases[group] = job
                jobs.append(job)
            else:
                jobs.append(self._job(ctx.config_for(*cell.key), cell))
        return jobs

    # -- execution ----------------------------------------------------

    def _try_resume(self, job: _Job) -> bool:
        """Fill *job* from the result store; True on a usable hit."""
        ctx = self.ctx
        if not ctx.resume or ctx.store is None:
            return False
        stored = ctx.store.load(job.config)
        if stored is None:
            return False
        if job.kind == "sync-base" and stored.epoch_trace is None:
            # An old store entry without the trace cannot be re-costed
            # for the other architectures; recompute instead.
            return False
        job.result = stored
        job.source = "resumed"
        return True

    def _persist(self, job: _Job) -> None:
        """Flush one completed job to the store, immediately.

        Called the moment a result lands (in-parent or in the pool's
        event loop), so partial progress survives any later failure of
        the same grid.
        """
        store = self.ctx.store
        if store is not None:
            store.save(job.config, job.result, include_trace=job.kind == "sync-base")

    def _dataset_specs(self, to_run: list[_Job]) -> tuple[shared_data.DatasetSpec, ...]:
        """Unique (dataset, scale, seed, mlp?) specs the jobs will load."""
        specs: list[shared_data.DatasetSpec] = []
        seen: set[shared_data.DatasetSpec] = set()
        for job in to_run:
            config = job.payload["config"]
            spec = (config.dataset, config.scale, config.seed, config.task == "mlp")
            if spec not in seen:
                seen.add(spec)
                specs.append(spec)
        return tuple(specs)

    def _publish_shared(self, to_run: list[_Job], tel) -> tuple:
        """Copy the jobs' datasets into shared memory; return descriptors."""
        registry, published = shared_data.ensure_published(self._dataset_specs(to_run))
        if registry is None or registry.dataset_count == 0:
            return ()
        if published:
            tel.count(keys.GRID_SHM_PUBLISHED, published)
        tel.set_gauge(keys.GRID_SHM_DATASETS, registry.dataset_count)
        tel.set_gauge(keys.GRID_SHM_SEGMENTS, registry.segment_count)
        tel.set_gauge(keys.GRID_SHM_BYTES, registry.bytes_shared)
        return registry.descriptors()

    def _prepare_references(self, to_run: list[_Job], tel) -> None:
        """Resolve each job's reference optimum once per (task, dataset).

        A serial grid solves the reference lazily inside :func:`run`
        and shares it through the in-process cache; a fan-out without
        this step would instead solve it once per *worker*.  Loading
        each pair's optimum in the parent (cache, then store) and
        solving every remaining pair in one batch
        (:func:`~repro.sgd.reference.reference_losses`, on the live pool
        when there is one), then shipping the value in the payload,
        keeps the count at one solve per (task, dataset) regardless of
        placement — and persists it through the result store so resumed
        grids never re-solve at all.

        A pair whose dataset fails to load, and every pair of a batch
        that raises, stays unresolved: its cells then solve (or fail)
        in their workers exactly as they would without this step.
        """
        ctx = self.ctx
        resolved: dict[tuple[str, str], tuple[str, float] | None] = {}
        cold: dict[tuple[str, str], tuple] = {}  # pair -> reference problem
        for job in to_run:
            pair = (job.cell.task, job.cell.dataset)
            if pair in resolved or pair in cold:
                continue
            config = job.payload["config"]
            try:
                ds = load_for(config.task, config.dataset, config.scale, config.seed)
            except Exception:
                resolved[pair] = None
                continue
            model, init, key = reference_problem(
                config.task, config.dataset, ds, config.seed
            )
            value = cached_reference(key)
            if value is None and ctx.store is not None:
                value = ctx.store.load_reference(key)
                if value is not None:
                    seed_reference_cache({key: value})
            if value is None:
                cold[pair] = (model, ds.X, ds.y, init, key)
                continue
            tel.count(keys.GRID_REFERENCE_REUSED)
            resolved[pair] = self._keep_reference(key, value)
        if cold:
            try:
                values = reference_losses(list(cold.values()))
            except Exception:
                values = []  # every pair of the batch stays unresolved
            for (pair, problem), value in zip(cold.items(), values):
                tel.count(keys.GRID_REFERENCE_COMPUTED)
                resolved[pair] = self._keep_reference(problem[4], value)
        for job in to_run:
            entry = resolved.get((job.cell.task, job.cell.dataset))
            if entry is not None:
                job.payload["reference"] = {entry[0]: entry[1]}

    def _keep_reference(self, key: str, value: float) -> tuple[str, float]:
        """Persist one resolved optimum to the store; return its entry."""
        if self.ctx.store is not None:
            self.ctx.store.save_reference(key, value)
        return key, value

    def _run_jobs(self, jobs: list[_Job], tel, parent_span) -> None:
        """Replay store hits; run the rest in the parent or on the warm pool."""
        ctx = self.ctx
        to_run = [job for job in jobs if not self._try_resume(job)]
        if not to_run:
            return
        fan_out = ctx.keep_going or (ctx.jobs > 1 and len(to_run) > 1)
        if not fan_out:
            if ctx.store is not None:
                self._prepare_references(to_run, tel)
            # In-parent, the serial reference: grid faults are not
            # injected here (a cell-kill would take the parent down
            # with it) and a failing cell aborts the grid, with a
            # structured wrapper and per-cell flushing.
            for job in to_run:
                try:
                    out = _execute_job(job.payload)
                except Exception as exc:
                    tel.count(keys.GRID_WORKER_FAILURES)
                    raise WorkerError(
                        f"grid cell {job.cell.label()} failed in-parent: {exc}",
                        phase="grid-cell",
                    ) from exc
                job.result = out["result"]
                job.worker_pid = out["pid"]
                self._persist(job)
                if out["telemetry"] is not None:
                    tel.merge_snapshot(out["telemetry"], parent_span=parent_span)
            return
        descriptors = self._publish_shared(to_run, tel) if ctx.shared_data else ()
        workers = max(1, ctx.jobs)
        pool, created = grid_pool.acquire_pool(
            workers,
            shared=ctx.shared_data,
            specs=self._dataset_specs(to_run),
            descriptors=descriptors,
        )
        tel.count(keys.GRID_POOL_CREATED if created else keys.GRID_POOL_REUSED)
        tel.set_gauge(keys.GRID_POOL_WORKERS, workers)
        try:
            # The pool is live: the reference batch runs on its workers.
            self._prepare_references(to_run, tel)
            self._supervise(pool, to_run, tel, parent_span)
        except BaseException:
            # Warm reuse is for grids that ran to the end: any abort —
            # a fail-fast failure, an interrupt — retires the pool,
            # killing whatever is still in flight, so no zombie task
            # can bleed into the next grid.  (Shared-data segments
            # survive; they are read-only inputs.)
            tel.count(keys.GRID_POOL_RETIRED)
            grid_pool.retire_pool()
            raise

    def _supervise(self, pool, to_run: list[_Job], tel, parent_span) -> None:
        """The one event loop: dispatch, collect, watch, retry or abort.

        Every idle pool worker is handed one job; the parent waits on
        the workers' pipes, so a reply and a death (EOF) both wake it.
        Results are collected as they land (each immediately
        persisted); wedged workers are killed by the deadline/heartbeat
        watchdog and replaced alone.  What happens to a failed attempt
        is the one thing ``ctx.keep_going`` decides (``_failed``).
        Telemetry snapshots are buffered and merged in submission order
        after the loop, so the merge stays deterministic even though
        completion order is not.
        """
        ctx = self.ctx
        policy = ctx.retry if ctx.retry is not None else CellRetryPolicy()
        # Injected grid faults are keyed by 1-based submission index.
        plan = ctx.fault_plan
        faults = plan.resolve_grid(len(to_run)) if plan is not None else {}
        states = [
            _CellState(job=job, fault=faults.get(i))
            for i, job in enumerate(to_run, start=1)
        ]
        pending: deque[_CellState] = deque(states)
        delayed: list[tuple[float, int, _CellState]] = []
        running: dict[Any, _CellState] = {}  # worker pipe -> its one job
        budget = policy.max_restarts
        max_workers = min(pool.jobs, len(to_run))
        push_seq = itertools.count()  # heap tie-break: first failed, first retried
        abort: WorkerError | None = None  # fail-fast: the first failure
        if policy.heartbeat_timeout is not None:
            beat_interval = max(0.01, min(policy.heartbeat_timeout / 4.0, 0.5))
        else:
            beat_interval = 0.5

        def _dispatch(state: _CellState) -> None:
            state.attempts += 1
            payload = {**state.job.payload, "config": state.config}
            if state.fault is not None:
                payload["grid_fault"] = state.fault
                payload["grid_attempt"] = state.attempts
            worker = pool.checkout()
            state.worker, state.dispatched_at = worker, time.monotonic()
            if state.attempts == 1:
                state.first_dispatch = state.dispatched_at
            state.pids.append(worker.proc.pid)
            worker.heartbeat.value = time.time()
            try:
                worker.conn.send((_run_attempt, (payload, beat_interval)))
            except OSError:
                # The worker died while idle: its pipe reads EOF below
                # and the loss is charged to this attempt as a crash.
                pass
            running[worker.conn] = state

        def _failed(
            state: _CellState,
            kind: str,
            entry: dict[str, Any],
            exitcode: int | None = None,
        ) -> None:
            nonlocal budget, abort
            if not ctx.keep_going:
                # Fail-fast: nothing new is dispatched; what is in
                # flight lands (and persists) before the first failure
                # is raised.
                tel.count(keys.GRID_WORKER_FAILURES)
                if abort is None:
                    abort = WorkerError(
                        f"grid cell {state.job.cell.label()} failed in worker: "
                        f"{entry['type']}: {entry['message']}",
                        phase="grid-cell" if kind == "exception" else "pool",
                        exitcode=exitcode,
                    )
                pending.clear()
                return
            entry = {**entry, "attempt": state.attempts, "kind": kind}
            state.errors.append(entry)
            tel.count(_FAILURE_COUNTER[kind])
            if kind == "divergence":
                retry_ok = state.divergence_retries < policy.divergence_retries
            else:
                retry_ok = state.attempts < policy.max_attempts
            if not retry_ok or budget <= 0:
                # Quarantine: out of attempts, or (retry_ok) out of budget.
                job = state.job
                job.failure = CellFailure(
                    **asdict(job.cell),
                    kind=kind,
                    phase="collect" if kind == "divergence" else "train",
                    attempts=state.attempts,
                    error_chain=tuple(state.errors),
                    elapsed_seconds=time.monotonic() - state.first_dispatch,
                    worker_pids=tuple(state.pids),
                    budget_exhausted=retry_ok,
                    covers=tuple(c.label() for c in job.covers),
                )
                job.source = "quarantined"
                tel.count(keys.GRID_QUARANTINE_CELLS, len(job.covers))
                if retry_ok:
                    tel.count(keys.GRID_QUARANTINE_BUDGET_EXHAUSTED)
                return
            budget -= 1
            if kind == "divergence":
                state.divergence_retries += 1
                step_size = state.config.step_size * policy.step_backoff
                state.config = replace(state.config, step_size=step_size)
            delay = policy.retry_delay(state.resubmissions)
            state.resubmissions += 1
            tel.count(keys.GRID_RETRY_ATTEMPTS)
            tel.count(keys.GRID_RETRY_BACKOFF_SECONDS, delay)
            heapq.heappush(delayed, (time.monotonic() + delay, next(push_seq), state))

        def _collect(state: _CellState) -> None:
            worker = state.worker
            try:
                msg = worker.conn.recv()
            except (EOFError, OSError):
                exitcode = pool.discard(worker)
                _failed(
                    state,
                    "crash",
                    {
                        "type": "WorkerCrash",
                        "message": (
                            f"worker pid {worker.proc.pid} died without a result "
                            f"(exit code {exitcode})"
                        ),
                    },
                    exitcode,
                )
                return
            pool.checkin(worker)
            if not msg["ok"]:
                _failed(
                    state,
                    "exception",
                    {"type": msg["type"], "message": msg["message"]},
                )
                return
            job = state.job
            result = msg["result"]
            # The divergence sentinel is keep-going's: under fail-fast a
            # diverging configuration is a *result* (the paper's ∞
            # entries), not a failed attempt.
            if ctx.keep_going and not _result_is_finite(result):
                err = DivergenceError(
                    f"non-finite loss from grid cell {job.cell.label()} "
                    f"at step size {state.config.step_size:g}",
                    cell=job.cell.label(),
                    step_size=state.config.step_size,
                    attempt=state.attempts,
                )
                _failed(
                    state, "divergence", {"type": "DivergenceError", **err.describe()}
                )
                return
            # The divergence sentinel may have changed the step: the
            # store key must describe the run that actually produced
            # this result.
            job.payload["config"] = state.config
            job.result = result
            job.worker_pid = msg["pid"]
            self._persist(job)
            state.snapshot = msg["telemetry"]

        def _bounds(state: _CellState, now_m: float, now_w: float):
            """(name, limit, elapsed) of each bound armed on a running attempt."""
            if policy.deadline is not None:
                yield "deadline", policy.deadline, now_m - state.dispatched_at
            if policy.heartbeat_timeout is not None:
                silence = now_w - state.worker.heartbeat.value
                yield "heartbeat", policy.heartbeat_timeout, silence

        def _watchdog() -> None:
            now_m, now_w = time.monotonic(), time.time()
            for state in list(running.values()):
                blown = [
                    (why, elapsed)
                    for why, limit, elapsed in _bounds(state, now_m, now_w)
                    if elapsed > limit
                ]
                if not blown:
                    continue
                why, elapsed = blown[0]
                worker = state.worker
                del running[worker.conn]
                pool.discard(worker)
                _failed(
                    state,
                    "stall",
                    {
                        "type": "WorkerStall",
                        "message": (
                            f"worker pid {worker.proc.pid} killed by the {why} "
                            f"watchdog after {elapsed:.1f}s"
                        ),
                    },
                )

        def _tick_timeout() -> float:
            """Sleep until the next retry is due or the next bound can blow."""
            now_m, now_w = time.monotonic(), time.time()
            candidates = [0.5]
            if delayed:
                candidates.append(delayed[0][0] - now_m)
            for state in running.values():
                for _, limit, elapsed in _bounds(state, now_m, now_w):
                    candidates.append(limit - elapsed)
            return max(0.02, min(candidates))

        while pending or delayed or running:
            now_m = time.monotonic()
            while delayed and delayed[0][0] <= now_m:
                pending.append(heapq.heappop(delayed)[2])
            while pending and len(running) < max_workers:
                _dispatch(pending.popleft())
            # With nothing running this is the sleep until a retry is due.
            for conn in _conn_wait(list(running), timeout=_tick_timeout()):
                _collect(running.pop(conn))
            _watchdog()
        # Deterministic merge: submission order, final attempts only.
        for state in states:
            if state.snapshot is not None:
                tel.merge_snapshot(state.snapshot, parent_span=parent_span)
        if abort is not None:
            raise abort

    # -- merge and provenance -----------------------------------------

    def _merge(self, cells: list[GridCell], jobs: list[_Job], tel) -> None:
        """Fold job results (and quarantines) into the context."""
        ctx = self.ctx
        for job in jobs:
            if job.result is None:
                failure = job.failure
                assert failure is not None, (
                    "job finished with neither result nor failure"
                )
                ctx.failures[job.cell.key] = failure
                if ctx.store is not None:
                    ctx.store.save_failure(job.config, failure)
                continue
            tel.count(_SOURCE_COUNTER[job.source])
            ctx._cache[job.cell.key] = job.result
            if len(job.covers) > 1:
                tel.count(keys.GRID_CELLS_DEDUPED, len(job.covers) - 1)

    def _record(self, cell: GridCell, source: str, pid, outcome, config) -> None:
        """Append *cell*'s provenance: its quarantine, or its result and
        the config that produced it."""
        record: dict[str, Any] = {"cell": dict(vars(cell)), "source": source}
        if isinstance(outcome, CellFailure):
            self.cell_records.append({**record, "failure": outcome.describe()})
            return
        if outcome.step_size != config.step_size:
            # Healed by the divergence sentinel: record the step the
            # result was actually produced at.
            config = replace(config, step_size=outcome.step_size)
        record["manifest"] = build_manifest(outcome, None, config).to_dict()
        if pid is not None:
            record["worker_pid"] = pid
        self.cell_records.append(record)

    @contextmanager
    def _grid(self, requested: int):
        """One call's ``grid.execute`` span: yields (telemetry, parent span)."""
        ctx = self.ctx
        if ctx.resume and ctx.store is None:
            raise ConfigurationError("resume=True requires a result store")
        tel = ensure_telemetry(ctx.telemetry)
        start = time.perf_counter()
        with tel.span("grid.execute", jobs=ctx.jobs, cells=requested) as span:
            tel.count(keys.GRID_CELLS_REQUESTED, requested)
            yield tel, span if tel.enabled else None
        tel.set_gauge(keys.GRID_JOBS, ctx.jobs)
        tel.set_gauge(keys.GRID_WALL_SECONDS, time.perf_counter() - start)

    def run_configs(self, configs: list[RunConfig]) -> list[TrainResult | CellFailure]:
        """Run each configuration as one job: :meth:`execute` without its
        cell dedup, cache or re-costing.  Outcomes in *configs* order; a
        job a keep-going run quarantined yields its :class:`CellFailure`."""
        jobs = [self._job(config) for config in configs]
        with self._grid(len(jobs)) as (tel, parent_span):
            self._run_jobs(jobs, tel, parent_span)
            for job in jobs:
                if job.result is not None:
                    tel.count(_SOURCE_COUNTER[job.source])
                outcome, config = job.result or job.failure, job.payload["config"]
                self._record(job.cell, job.source, job.worker_pid, outcome, config)
        return [job.result or job.failure for job in jobs]

    def execute(self, cells: list[GridCell]) -> dict[GridCell, TrainResult]:
        """Produce every requested cell; returns cell -> result.

        Quarantined cells (keep-going mode) are absent from the result
        map; their :class:`CellFailure` lands in ``ctx.failures`` and
        as a ``source="quarantined"`` record in the grid manifest.
        """
        ctx = self.ctx
        # Stable de-duplication of the request itself.
        unique: list[GridCell] = []
        seen: set[tuple] = set()
        for cell in cells:
            if cell.key not in seen:
                seen.add(cell.key)
                unique.append(cell)
        cells = unique

        with self._grid(len(cells)) as (tel, parent_span):
            cached = {cell for cell in cells if cell.key in ctx._cache}
            jobs = self._plan(cells)
            self._run_jobs(jobs, tel, parent_span)
            self._merge(cells, jobs, tel)

            # Derive every requested cell in the parent.  Synchronous
            # re-costing shares the base's curve object, exactly like
            # the serial path.
            job_by_cell = {}
            for job in jobs:
                for covered in job.covers:
                    job_by_cell[covered.key] = job
            results: dict[GridCell, TrainResult] = {}
            for cell in cells:
                failure = ctx.failure_for(*cell.key)
                if failure is not None and cell.key not in ctx._cache:
                    self._record(cell, "quarantined", None, failure, None)
                    continue
                job = job_by_cell.get(cell.key)
                if cell in cached:
                    source = "cached"
                elif cell.strategy == "synchronous" and (
                    job is None or cell.key != job.cell.key
                ):
                    source = "recosted"
                    tel.count(keys.GRID_CELLS_RECOSTED)
                else:
                    source = job.source if job is not None else "recosted"
                result = results[cell] = ctx.run(*cell.key)
                pid = job.worker_pid if job is not None else None
                self._record(cell, source, pid, result, ctx.config_for(*cell.key))
        return results
