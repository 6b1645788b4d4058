"""Canonical metric names shared by every instrumented layer.

Counters and gauges are keyed by dotted strings; this module is the
single vocabulary so producers (runners, the asynchrony engine, the
hardware models) and consumers (manifests, benchmarks, tests) agree on
spelling.  The prefixes partition the namespace:

* ``sgd.``   — work performed by the numerical optimisation itself
  (gradient evaluations, model updates, epochs);
* ``async.`` — events specific to the asynchrony simulator (stale
  reads, scheduling rounds);
* ``hw.``    — *modelled* hardware activity derived by the analytical
  machine models (bytes moved, flops, coherence conflicts, kernel
  launches) — these describe the paper's machines, not the host;
* ``sim.``   — simulated-time outputs (seconds per epoch at paper
  scale), the quantities the paper reports as hardware efficiency;
* ``fault.`` — fault-injection and recovery events in the measured
  shared-memory backend (injected faults, worker restarts,
  repartitions, degraded epochs) — see :mod:`repro.faults`;
* ``grid.`` — the parallel experiment-grid executor (cells scheduled,
  deduplicated, resumed from the on-disk store, executed in workers)
  — see :mod:`repro.experiments.executor`;
* ``serve.`` — the scoring service (requests scored, micro-batches
  formed, snapshot reads/retries/hot-swaps, latency percentiles) — see
  :mod:`repro.serving`;
* ``ps.`` — the distributed parameter-server backend (shard pulls and
  delta pushes, bytes on the wire, observed staleness, blocked pulls,
  worker reconnects and dead-worker reaps) — see
  :mod:`repro.distributed`.
"""

from __future__ import annotations

__all__ = [
    "GRAD_EVALS",
    "UPDATES_APPLIED",
    "EPOCHS",
    "LOSS_EVALS",
    "STALE_READS",
    "ASYNC_ROUNDS",
    "UPDATE_CONFLICTS",
    "BYTES_MOVED",
    "FLOPS_MODELLED",
    "KERNEL_LAUNCHES",
    "COHERENCE_CONFLICTS",
    "ATOMIC_HOTLINE_UPDATES",
    "SIM_SECONDS_PER_EPOCH",
    "SIM_SECONDS_TOTAL",
    "WALL_SECONDS_PER_EPOCH",
    "WALL_SECONDS_TOTAL",
    "FAULT_INJECTED",
    "FAULT_WORKER_RESTARTS",
    "FAULT_REPARTITIONS",
    "FAULT_DEGRADED_EPOCHS",
    "GRID_CELLS_REQUESTED",
    "GRID_CELLS_EXECUTED",
    "GRID_CELLS_DEDUPED",
    "GRID_CELLS_RESUMED",
    "GRID_CELLS_RECOSTED",
    "GRID_WORKER_FAILURES",
    "GRID_JOBS",
    "GRID_WALL_SECONDS",
    "GRID_RETRY_ATTEMPTS",
    "GRID_RETRY_BACKOFF_SECONDS",
    "GRID_RETRY_CRASHES",
    "GRID_RETRY_STALLS",
    "GRID_RETRY_DIVERGENCES",
    "GRID_QUARANTINE_CELLS",
    "GRID_QUARANTINE_BUDGET_EXHAUSTED",
    "GRID_POOL_CREATED",
    "GRID_POOL_REUSED",
    "GRID_POOL_RETIRED",
    "GRID_POOL_WORKERS",
    "GRID_SHM_PUBLISHED",
    "GRID_SHM_DATASETS",
    "GRID_SHM_SEGMENTS",
    "GRID_SHM_BYTES",
    "GRID_REFERENCE_COMPUTED",
    "GRID_REFERENCE_REUSED",
    "SERVE_REQUESTS",
    "SERVE_EXAMPLES",
    "SERVE_BATCHES",
    "SERVE_ERRORS",
    "SERVE_RETRIABLE_ERRORS",
    "SERVE_HOT_SWAPS",
    "SERVE_SNAPSHOT_READS",
    "SERVE_SNAPSHOT_RETRIES",
    "SERVE_SOURCE_ERRORS",
    "SERVE_REQUESTS_PER_SECOND",
    "SERVE_LATENCY_P50_MS",
    "SERVE_LATENCY_P99_MS",
    "SERVE_QUEUE_DEPTH_PEAK",
    "SERVE_BATCH_SIZE_MEAN",
    "SERVE_SNAPSHOT_VERSION",
    "SERVE_SNAPSHOT_AGE_SECONDS",
    "SERVE_BATCH_BUCKET_PREFIX",
    "serve_batch_bucket",
    "PS_PULLS",
    "PS_PULL_ROUNDS",
    "PS_PUSHES",
    "PS_BYTES_SENT",
    "PS_BYTES_RECEIVED",
    "PS_BYTES_SAVED",
    "PS_SHARD_CACHE_HITS",
    "PS_PULL_WAITS",
    "PS_RECONNECTS",
    "PS_RECONNECTS_MIDRUN",
    "PS_CONNECT_RETRIES",
    "PS_DEAD_WORKERS_REAPED",
    "PS_FRAMES_REJECTED",
    "PS_CHECKPOINTS_WRITTEN",
    "PS_CHECKPOINTS_RESTORED",
    "PS_SERVER_FAILOVERS",
    "PS_TIME_TO_REPAIR_SECONDS",
    "PS_PULL_ROUNDS_PER_UPDATE",
    "PS_STALENESS_BUCKET_PREFIX",
    "ps_staleness_bucket",
]

#: Per-example gradient evaluations (a full-batch gradient over N rows
#: counts N; an incremental step counts 1).
GRAD_EVALS = "sgd.gradient_evals"

#: Model updates applied to the shared parameter vector (one per epoch
#: for batch GD, one per example/mini-batch for Hogwild/Hogbatch).
UPDATES_APPLIED = "sgd.updates_applied"

#: Optimisation epochs actually executed.
EPOCHS = "sgd.epochs"

#: Full-dataset loss evaluations (excluded from iteration timing, but
#: counted so their cost is visible).
LOSS_EVALS = "sgd.loss_evals"

#: Gradients computed against a stale model snapshot (the asynchrony
#: simulator's whole point: staleness of reads).
STALE_READS = "async.stale_reads"

#: Scheduling rounds executed by the asynchrony engine.
ASYNC_ROUNDS = "async.rounds"

#: *Measured* racy coordinate writes observed by the shared-memory
#: backend: model coordinates whose value changed between a work item's
#: gradient read and its update write (the lock-free Hogwild race the
#: simulator can only model).
UPDATE_CONFLICTS = "async.update_conflicts"

#: Modelled memory traffic (bytes) the hardware models priced.
BYTES_MOVED = "hw.bytes_moved"

#: Modelled floating-point operations the hardware models priced.
FLOPS_MODELLED = "hw.flops_modelled"

#: Modelled GPU kernel launches (synchronous primitives / batch steps).
KERNEL_LAUNCHES = "hw.kernel_launches"

#: Modelled coherence-conflicted model cache lines per costed epoch
#: (CPU Hogwild: lines whose update pays an ownership transfer).
COHERENCE_CONFLICTS = "hw.coherence_conflict_lines"

#: Modelled serialised atomic updates to the hottest model line per
#: costed epoch (GPU Hogwild's contention floor).
ATOMIC_HOTLINE_UPDATES = "hw.atomic_hotline_updates"

#: Gauge: modelled seconds per optimisation epoch at paper scale.
SIM_SECONDS_PER_EPOCH = "sim.seconds_per_epoch"

#: Gauge: modelled seconds for the whole run (epochs x per-epoch time).
SIM_SECONDS_TOTAL = "sim.seconds_total"

#: Gauge: *measured* wall-clock seconds per optimisation epoch on the
#: host (shared-memory backend; loss evaluation excluded, matching the
#: paper's iteration-time protocol).  Sits next to ``sim.*`` so the
#: analytical model's predictions and real measurements share a record.
WALL_SECONDS_PER_EPOCH = "wall.seconds_per_epoch"

#: Gauge: measured wall-clock seconds across all optimisation epochs.
WALL_SECONDS_TOTAL = "wall.seconds_total"

#: Faults actually injected into shm workers by a
#: :class:`repro.faults.FaultPlan` (counted by the workers themselves
#: at the injection site, so a kill is counted before the process
#: dies).
FAULT_INJECTED = "fault.injected"

#: Full-pool respawns performed by the recovery policy (worker death
#: in ``respawn`` mode, or any barrier timeout).
FAULT_WORKER_RESTARTS = "fault.worker_restarts"

#: Pool rebuilds that re-partitioned a dead worker's examples over the
#: survivors (``repartition`` mode).
FAULT_REPARTITIONS = "fault.repartitions"

#: Optimisation epochs executed in a degraded state: fewer workers
#: than requested, or a NaN-scrubbed model snapshot.
FAULT_DEGRADED_EPOCHS = "fault.degraded_epochs"

#: Grid cells requested from the executor (after in-memory cache hits).
GRID_CELLS_REQUESTED = "grid.cells_requested"

#: Cells whose optimisation actually ran (in a worker or in-parent).
GRID_CELLS_EXECUTED = "grid.cells_executed"

#: Synchronous cells that shared another architecture's base
#: optimisation run instead of scheduling their own (the cpu-seq
#: dedup: one run, re-costed per architecture).
GRID_CELLS_DEDUPED = "grid.cells_deduped"

#: Cells skipped because the on-disk result store already held them
#: (``--resume``).
GRID_CELLS_RESUMED = "grid.cells_resumed"

#: Synchronous cells derived in-parent by re-costing a shared base run
#: on a different machine model.
GRID_CELLS_RECOSTED = "grid.cells_recosted"

#: Grid jobs that raised (or whose worker process died); each failure
#: surfaces as a structured :class:`repro.utils.errors.WorkerError`.
GRID_WORKER_FAILURES = "grid.worker_failures"

#: Gauge: worker processes the last executor fan-out used.
GRID_JOBS = "grid.jobs"

#: Gauge: measured wall-clock seconds of the last executor fan-out.
GRID_WALL_SECONDS = "grid.wall_seconds"

#: Cell re-submissions performed by the resilient (keep-going) grid:
#: every retry after a crash, stall, worker exception or divergence
#: consumes one unit of the shared :class:`repro.faults.CellRetryPolicy`
#: budget and counts here.
GRID_RETRY_ATTEMPTS = "grid.retry.attempts"

#: Cumulative exponential-backoff delay (seconds) scheduled before
#: grid-cell re-submissions.
GRID_RETRY_BACKOFF_SECONDS = "grid.retry.backoff_seconds"

#: Grid workers observed dead (process exit without a result).
GRID_RETRY_CRASHES = "grid.retry.crashes"

#: Grid workers killed by the deadline/heartbeat watchdog.
GRID_RETRY_STALLS = "grid.retry.stalls"

#: Cell results rejected by the divergence sentinel (non-finite loss),
#: each answered with a step-size-backoff retry while budget remains.
GRID_RETRY_DIVERGENCES = "grid.retry.divergences"

#: Requested cells quarantined after exhausting their retry budget —
#: recorded as structured ``CellFailure`` entries and *skipped*, not
#: fatal, under ``--keep-going``.
GRID_QUARANTINE_CELLS = "grid.quarantine.cells"

#: Quarantines forced early because the grid-wide shared retry budget
#: (``CellRetryPolicy.max_restarts``) was already spent.
GRID_QUARANTINE_BUDGET_EXHAUSTED = "grid.quarantine.budget_exhausted"

#: Warm worker pools built for a grid fan-out (first run, or a
#: requirements change: different job count / shared-data setting /
#: datasets published after the previous pool forked).
GRID_POOL_CREATED = "grid.pool.created"

#: Grid fan-outs served by an already-warm worker pool (no spawn cost).
GRID_POOL_REUSED = "grid.pool.reused"

#: Warm pools torn down because a grid aborted (fail-fast failure,
#: interrupt) — the next fan-out rebuilds from cold.
GRID_POOL_RETIRED = "grid.pool.retired"

#: Gauge: worker capacity of the warm pool serving the last fan-out.
GRID_POOL_WORKERS = "grid.pool.workers"

#: Datasets newly copied into shared-memory segments by this fan-out
#: (publication is incremental; already-shared datasets don't recount).
GRID_SHM_PUBLISHED = "grid.shm.datasets_published"

#: Gauge: datasets currently published in shared memory.
GRID_SHM_DATASETS = "grid.shm.datasets"

#: Gauge: shared-memory segments currently backing those datasets
#: (dense: X + y; CSR: indptr + indices + data + y).
GRID_SHM_SEGMENTS = "grid.shm.segments"

#: Gauge: total bytes of dataset arrays living in shared memory.
GRID_SHM_BYTES = "grid.shm.bytes"

#: Reference optima solved in the parent before fan-out (once per
#: (task, dataset) — workers inherit the value instead of re-solving).
GRID_REFERENCE_COMPUTED = "grid.reference.computed"

#: Reference optima served from a cache (in-process, on-disk, or the
#: grid result store) instead of being re-solved.
GRID_REFERENCE_REUSED = "grid.reference.reused"

#: Score requests answered by the scoring service (success or
#: structured error; one request may carry several examples).
SERVE_REQUESTS = "serve.requests"

#: Examples scored (the unit micro-batches are capped in).
SERVE_EXAMPLES = "serve.examples"

#: Micro-batches pushed through the vectorised margin kernels — the
#: ratio ``serve.examples / serve.batches`` is the realised coalescing
#: factor.
SERVE_BATCHES = "serve.batches"

#: Requests answered with a structured non-retriable error (malformed
#: payload, wrong feature count, unknown op).
SERVE_ERRORS = "serve.errors"

#: Requests answered with a structured *retriable* error
#: (:class:`repro.utils.errors.SnapshotUnavailableError`: cold start,
#: trainer gone before first publish).
SERVE_RETRIABLE_ERRORS = "serve.retriable_errors"

#: Model hot-swaps: a newer snapshot installed atomically while
#: in-flight requests finished on the previous one.
SERVE_HOT_SWAPS = "serve.hot_swaps"

#: Consistent snapshot reads completed against the shared buffer.
SERVE_SNAPSHOT_READS = "serve.snapshot.reads"

#: Seqlock retries across all snapshot reads (a publish overlapped the
#: reader's copy; the read was re-run — never served torn).
SERVE_SNAPSHOT_RETRIES = "serve.snapshot.retries"

#: Snapshot-source refresh failures survived (trainer died, segment
#: gone); the service kept answering from the last installed model.
SERVE_SOURCE_ERRORS = "serve.source_errors"

#: Gauge: sustained request throughput over the measurement window.
SERVE_REQUESTS_PER_SECOND = "serve.requests_per_second"

#: Gauge: median request latency (milliseconds, parsed -> scored).
SERVE_LATENCY_P50_MS = "serve.latency_p50_ms"

#: Gauge: 99th-percentile request latency (milliseconds).
SERVE_LATENCY_P99_MS = "serve.latency_p99_ms"

#: Gauge: most score requests coalesced in one loop pass (the most
#: requests handed to one ``ScoringEngine.answer`` call).
SERVE_QUEUE_DEPTH_PEAK = "serve.queue_depth_peak"

#: Gauge: mean realised micro-batch size (examples per kernel call).
SERVE_BATCH_SIZE_MEAN = "serve.batch_size_mean"

#: Gauge: version of the model snapshot currently being served.
SERVE_SNAPSHOT_VERSION = "serve.snapshot.version"

#: Gauge: age (seconds) of the served snapshot at the last stats flush.
SERVE_SNAPSHOT_AGE_SECONDS = "serve.snapshot.age_seconds"

#: Prefix of the micro-batch size histogram counters; bucket keys are
#: produced by :func:`serve_batch_bucket` (powers of two, e.g.
#: ``serve.batch_size_bucket.le_8`` counts batches of 5..8 examples).
SERVE_BATCH_BUCKET_PREFIX = "serve.batch_size_bucket."

#: Largest histogram bucket; batches above the previous power of two
#: land in ``serve.batch_size_bucket.gt_128``.
_SERVE_BUCKET_CAP = 128


def serve_batch_bucket(size: int) -> str:
    """Histogram counter key for a realised micro-batch of *size* rows."""
    if size > _SERVE_BUCKET_CAP:
        return f"{SERVE_BATCH_BUCKET_PREFIX}gt_{_SERVE_BUCKET_CAP}"
    edge = 1
    while edge < size:
        edge *= 2
    return f"{SERVE_BATCH_BUCKET_PREFIX}le_{edge}"


#: Shard *payloads* the parameter server actually shipped — fresh
#: (version-changed) shards only; cached shards count under
#: :data:`PS_SHARD_CACHE_HITS` instead.  Under the legacy per-shard
#: PULL frame every answered shard counts here.
PS_PULLS = "ps.pulls"

#: Pull round-trips the server answered (one per PULL_ALL, fused
#: PUSH_PULL, or legacy per-shard PULL).  The wire-economics headline:
#: ``ps.pull_rounds / sgd.updates_applied`` is the round-trips one SGD
#: item costs (≤ 1.0 with the batched protocol).
PS_PULL_ROUNDS = "ps.pull_rounds"

#: Delta pushes applied by the parameter server (one per work item; a
#: push may touch several shards, each under its own lock).
PS_PUSHES = "ps.pushes"

#: Bytes the server wrote to worker sockets (shard payloads + acks).
PS_BYTES_SENT = "ps.bytes_sent"

#: Bytes the server read from worker sockets (pushes, pulls, control).
PS_BYTES_RECEIVED = "ps.bytes_received"

#: Shard payload bytes the version cache kept *off* the wire (a cached
#: shard answers with a 9-byte header instead of its float64 payload).
PS_BYTES_SAVED = "ps.bytes_saved"

#: Shards answered with a cached header because the worker's last-seen
#: version still matched the server's (no payload shipped).
PS_SHARD_CACHE_HITS = "ps.shard_cache_hits"

#: Pulls that blocked on the bounded-staleness gate before being
#: answered (the worker was more than ``max_staleness`` work items
#: ahead of the slowest live worker).
PS_PULL_WAITS = "ps.pull_waits"

#: Worker registrations for an id the server had already seen — a
#: respawned worker re-joining after a recovery action.
PS_RECONNECTS = "ps.reconnects"

#: The subset of :data:`PS_RECONNECTS` performed by a *live* worker
#: healing its own dropped connection mid-run (HELLO carries the
#: reconnect flag) — a server failover or an injected ``conn-drop``
#: absorbed without any parent recovery action.
PS_RECONNECTS_MIDRUN = "ps.reconnects_midrun"

#: Frames the server refused to act on — CRC mismatch, bad framing, or
#: a malformed payload (:class:`~repro.distributed.protocol.WireProtocolError`).
#: The connection is dropped, the push is never applied, and the worker
#: heals by reconnect-and-replay.
PS_FRAMES_REJECTED = "ps.frames_rejected"

#: Checkpoints the shard server's background writer (or a
#: parent-triggered epoch-boundary flush) persisted to disk.
PS_CHECKPOINTS_WRITTEN = "ps.checkpoints_written"

#: Server starts seeded from an on-disk checkpoint instead of the
#: initial parameters — one per crash-restart failover (and one for an
#: explicit warm start).
PS_CHECKPOINTS_RESTORED = "ps.checkpoints_restored"

#: Crash-restart failovers the parent supervisor performed: server
#: declared dead (exit or liveness-probe timeout), respawned from the
#: newest valid checkpoint on a fresh port.
PS_SERVER_FAILOVERS = "ps.server_failovers"

#: Gauge: seconds from the parent detecting server death to the first
#: push applied by the restored server (the failover's time-to-repair;
#: the last failover of the run wins).
PS_TIME_TO_REPAIR_SECONDS = "ps.time_to_repair_seconds"

#: Failed dial attempts workers sat out (with exponential backoff)
#: before their connection succeeded — reconnect storms made visible.
PS_CONNECT_RETRIES = "ps.connect_retries"

#: Gauge: measured pull round-trips per applied update for the run
#: (``ps.pull_rounds / sgd.updates_applied``).
PS_PULL_ROUNDS_PER_UPDATE = "ps.pull_rounds_per_update"

#: Connections the server reaped without a clean BYE (worker died or
#: was torn down mid-run); reaped workers leave the staleness gate so
#: survivors never block on a corpse.
PS_DEAD_WORKERS_REAPED = "ps.dead_workers_reaped"

#: Prefix of the observed-staleness histogram; bucket keys come from
#: :func:`ps_staleness_bucket` (powers of two of the work-item lag a
#: pull *round* observed against the slowest live worker, e.g.
#: ``ps.staleness_bucket.le_4`` counts rounds observing lag 3..4).
#: One observation per round-trip: bucket sums equal
#: :data:`PS_PULL_ROUNDS`.  The measured counterpart of the asynchrony
#: simulator's staleness parameter.
PS_STALENESS_BUCKET_PREFIX = "ps.staleness_bucket."

#: Largest staleness bucket; lags above the previous power of two land
#: in ``ps.staleness_bucket.gt_64``.
_PS_STALENESS_CAP = 64


def ps_staleness_bucket(lag: int) -> str:
    """Histogram counter key for a pull round that observed *lag* items."""
    if lag <= 0:
        return f"{PS_STALENESS_BUCKET_PREFIX}le_0"
    if lag > _PS_STALENESS_CAP:
        return f"{PS_STALENESS_BUCKET_PREFIX}gt_{_PS_STALENESS_CAP}"
    edge = 1
    while edge < lag:
        edge *= 2
    return f"{PS_STALENESS_BUCKET_PREFIX}le_{edge}"
