"""Per-layer probes: each layer's cost, measured from outside.

A probe times calls into one layer's public functions on fixed seeded
inputs (covtype ``small`` for dense, w8a ``small`` for sparse), so the
numbers do not depend on which workload's traced run printed them.
``METRICS`` is the glossary: unit, direction, whether the metric is in
``BENCHMARK.json`` (``core``) or only printed by ``python -m bench run
--traced`` in the run of the workload that owns the layer.

The train stack nests — kernel time in ``models.serial`` in
``asyncsim.c1`` in ``parallel.w1`` in ``distributed.n1`` — so each
layer also reports its *tax*: the rate of the layer beneath divided by
its own, on the same inputs.
"""

from __future__ import annotations

import json
import socket
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import repro
from repro import datasets, linalg
from repro.asyncsim import AsyncSchedule, run_async_epoch
from repro.distributed import PsSchedule, ShardServer, train_ps, write_checkpoint
from repro.distributed import protocol as wire
from repro.experiments import (
    ExperimentContext,
    GridCell,
    GridExecutor,
    ResultStore,
    SharedDatasetRegistry,
    shutdown_grid_pool,
)
from repro.hardware import AsyncWorkload, CpuModel, GpuModel
from repro.linalg.dense_ops import batch_sgd_deltas
from repro.linalg.sparse_ops import csr_gather_rows, csr_submatvec
from repro.parallel import ShmSchedule, train_shm
from repro.serving import (
    ScoringEngine,
    ScoringServer,
    ServedModel,
    ShmTrainHandle,
    SnapshotPublisher,
)
from repro.sgd import (
    SGDConfig,
    default_step_size,
    reference_loss,
    save_results,
    train_asynchronous,
    train_synchronous,
)
from repro.telemetry import Telemetry
from repro.utils.rng import derive_rng

from .workloads import ARCHITECTURES, spawn_server, stop_server


@dataclass(frozen=True)
class Metric:
    unit: str
    better: str
    #: In BENCHMARK.json: printed by every traced run of every workload.
    core: bool = True


HI, LO = "higher", "lower"

METRICS: dict[str, Metric] = {
    # linalg -- ns per element / non-zero, read against copy_gbps
    "linalg.gemv_ns_per_elem": Metric("ns", LO),
    "linalg.csr_matvec_ns_per_nnz": Metric("ns", LO),
    "linalg.gemm_gflops": Metric("GFLOP/s", HI, False),
    "linalg.csr_gather_rows_ns_per_nnz": Metric("ns", LO),
    "linalg.batch_sgd_deltas_ns_per_elem": Metric("ns", LO),
    "linalg.csr_submatvec_ns_per_nnz": Metric("ns", LO),
    "linalg.record_op_ns": Metric("ns", LO, False),
    "linalg.copy_gbps": Metric("GB/s", HI),
    # models -- the L1 baseline every tax is taken over
    "models.serial_updates_per_s.dense": Metric("1/s", HI),
    "models.serial_updates_per_s.sparse": Metric("1/s", HI),
    "models.batched_updates_per_s.dense": Metric("1/s", HI),
    "models.batched_updates_per_s.sparse": Metric("1/s", HI, False),
    "models.loss_eval_ms.dense": Metric("ms", LO),
    "models.loss_eval_ms.sparse": Metric("ms", LO, False),
    "models.mlp_batch_update_ms": Metric("ms", LO, False),
    # asyncsim
    "asyncsim.updates_per_s.c1": Metric("1/s", HI),
    "asyncsim.updates_per_s.c56": Metric("1/s", HI),
    "asyncsim.updates_per_s.pipelined": Metric("1/s", HI, False),
    "asyncsim.tax_over_serial": Metric("ratio", LO),
    # hardware -- host time to price one epoch; modelled time is exact
    "hardware.cpu_price_us_per_epoch": Metric("us", LO),
    "hardware.gpu_price_us_per_epoch": Metric("us", LO, False),
    "hardware.modelled_seconds_sum": Metric("s", LO, False),
    # sgd
    "sgd.facade_overhead_ms": Metric("ms", LO),
    "sgd.sync_epoch_ms.dense": Metric("ms", LO),
    "sgd.sync_epoch_ms.sparse": Metric("ms", LO),
    "sgd.epochs_to_tol_sum": Metric("count", LO, False),
    "sgd.reference_loss_s.lr-covtype": Metric("s", LO, False),
    "sgd.reference_loss_s.lr-w8a-tiny": Metric("s", LO, False),
    "sgd.reference_loss_s.svm-w8a": Metric("s", LO, False),
    # parallel (train_shm direct)
    "parallel.updates_per_s.w1": Metric("1/s", HI),
    "parallel.updates_per_s.w2": Metric("1/s", HI),
    "parallel.updates_per_s.w2.sparse": Metric("1/s", HI, False),
    "parallel.tax_over_serial": Metric("ratio", LO),
    "parallel.scaling_1to2": Metric("ratio", HI),
    "parallel.epoch_ms": Metric("ms", LO),
    "parallel.startup_ms": Metric("ms", LO),
    "parallel.conflicts_per_update": Metric("count", LO),
    "parallel.stale_reads_per_update": Metric("count", LO, False),
    "parallel.notrack_updates_per_s.w2": Metric("1/s", HI, False),
    # distributed (train_ps direct + a raw-socket client)
    "distributed.updates_per_s.n1": Metric("1/s", HI),
    "distributed.updates_per_s.n2": Metric("1/s", HI),
    "distributed.updates_per_s.n2.dense": Metric("1/s", HI, False),
    "distributed.us_per_update.n1": Metric("us", LO),
    "distributed.tax_over_serial": Metric("ratio", LO),
    "distributed.tax_over_shm": Metric("ratio", LO),
    "distributed.scaling_1to2": Metric("ratio", HI),
    "distributed.roundtrip_us": Metric("us", LO),
    "distributed.frame_pack_us": Metric("us", LO),
    "distributed.frame_unpack_us": Metric("us", LO),
    "distributed.rounds_per_update": Metric("count", LO),
    "distributed.bytes_per_update": Metric("B", LO),
    "distributed.cache_hit_share": Metric("ratio", HI),
    "distributed.pull_waits_per_update": Metric("count", LO, False),
    "distributed.k16.updates_per_s.n2": Metric("1/s", HI, False),
    "distributed.server_process.updates_per_s.n2": Metric("1/s", HI, False),
    "distributed.checkpoint_write_ms": Metric("ms", LO, False),
    "distributed.startup_ms": Metric("ms", LO),
    # experiments
    "experiments.cells_per_s.j1": Metric("1/s", HI),
    "experiments.cells_per_s.j2": Metric("1/s", HI),
    "experiments.scaling_1to2": Metric("ratio", HI),
    "experiments.fanout_overhead_ms_per_cell": Metric("ms", LO),
    "experiments.pool_cold_start_ms": Metric("ms", LO),
    "experiments.keepgoing_cells_per_s.j2": Metric("1/s", HI, False),
    "experiments.no_shared_cells_per_s.j2": Metric("1/s", HI, False),
    "experiments.store_save_us": Metric("us", LO),
    "experiments.store_load_us": Metric("us", LO),
    "experiments.resume_cells_per_s": Metric("1/s", HI, False),
    "experiments.shared_publish_ms": Metric("ms", LO, False),
    "experiments.big_cells_per_s.j2": Metric("1/s", HI, False),
    # serving (in-process engine/server)
    "serving.score_examples_per_s.k1": Metric("1/s", HI),
    "serving.score_examples_per_s.k64": Metric("1/s", HI),
    "serving.request_examples_per_s.k1": Metric("1/s", HI),
    "serving.request_examples_per_s.k64": Metric("1/s", HI, False),
    "serving.queue_ms_per_request": Metric("ms", LO),
    "serving.parse_us_per_example.dense": Metric("us", LO),
    "serving.parse_us_per_example.sparse": Metric("us", LO),
    "serving.dispatch_us.k1": Metric("us", LO),
    "serving.dispatch_us.k64": Metric("us", LO),
    "serving.ping_roundtrip_us": Metric("us", LO),
    "serving.server_start_ms": Metric("ms", LO),
    "serving.batch_size_mean": Metric("count", HI, False),
    "serving.batches_per_request": Metric("count", LO, False),
    "serving.snapshot_publish_us": Metric("us", LO, False),
    "serving.snapshot_read_us": Metric("us", LO, False),
    # telemetry -- end-to-end runs pass none; these police its budget
    "telemetry.span_ns": Metric("ns", LO),
    "telemetry.count_ns": Metric("ns", LO),
    "telemetry.overhead_share.train-sim": Metric("ratio", LO, False),
    "telemetry.overhead_share.train-shm": Metric("ratio", LO, False),
    "telemetry.overhead_share.train-ps": Metric("ratio", LO, False),
    # datasets
    "datasets.generate_s.covtype": Metric("s", LO),
    "datasets.generate_s.w8a": Metric("s", LO),
    "datasets.generate_s.real-sim": Metric("s", LO, False),
    "datasets.generate_s.rcv1": Metric("s", LO, False),
    "datasets.generate_s.news": Metric("s", LO, False),
    # the benchmark itself
    "bench.trace_overhead_share": Metric("ratio", LO),
    "bench.harness_self_share": Metric("ratio", LO),
    "bench.spans_recorded": Metric("count", LO),
}

LAYERS = (
    "datasets", "linalg", "models", "asyncsim", "hardware", "sgd",
    "parallel", "distributed", "experiments", "serving", "telemetry",
)

#: Which layers' full probe sets each workload's own traced run prints.
OWNED_LAYERS = {
    "train-sim": ("datasets", "linalg", "models", "asyncsim", "hardware", "sgd", "telemetry"),
    "train-shm": ("parallel",),
    "train-ps": ("distributed",),
    "grid-fanout": ("experiments",),
    "serve-single": ("serving",),
    "serve-batch": ("serving",),
}


def per_call(fn: Callable[[], object], min_s: float) -> float:
    """Median seconds per call over five batches of >= ``min_s / 5`` each."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        dt = time.perf_counter() - t0
        if dt >= min_s / 5:
            break
        n = max(2 * n, int(n * (min_s / 5) / max(dt, 1e-9)) + 1)
    times = [dt / n]
    for _ in range(4):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times)


class Probe:
    """Inputs and knobs shared by the layer probes of one run."""

    def __init__(self, seed: int, full: bool, quick: bool, tmp: Path) -> None:
        self.seed = seed
        #: every metric of the layer, 200 ms loops; else core, 50 ms
        self.full = full
        self.quick = quick
        self.min_s = 0.01 if quick else 0.2 if full else 0.05
        self.scale = "tiny" if quick else "small"
        self.tmp = tmp
        self.dense = self.dataset("covtype", self.scale)
        self.sparse = self.dataset("w8a", self.scale)
        self.rng = derive_rng(seed, "bench/probes")
        self.values: dict[str, float] = {}

    def dataset(self, name: str, scale: str):
        """A private copy, never the library's cached one: the grid's
        shared-data registry swaps cached datasets for shared-memory
        views and unmaps them on shutdown, under whoever still holds one."""
        return datasets.generate(datasets.scaled_profile(name, scale), seed=self.seed)

    def model(self, task: str, ds):
        model = repro.make_model(task, ds)
        return model, model.init_params(derive_rng(self.seed, f"bench/init/{task}"))

    def config(self, task: str, epochs: int) -> SGDConfig:
        return SGDConfig(
            step_size=default_step_size(task, "asynchronous"), max_epochs=epochs,
            batch_size=1, seed=self.seed,
        )

    def serial_rate(self, kind: str) -> float:
        """Updates/s of a bare ``serial_sgd_epoch`` — what every tax divides."""
        key = f"models.serial_updates_per_s.{kind}"
        if key not in self.values:
            ds, task = (self.dense, "lr") if kind == "dense" else (self.sparse, "svm")
            model, params = self.model(task, ds)
            order = np.arange(ds.n_examples)
            step = default_step_size(task, "asynchronous")
            t = per_call(
                lambda: model.serial_sgd_epoch(ds.X, ds.y, order, params, step),
                self.min_s,
            )
            self.values[key] = ds.n_examples / t
        return self.values[key]


# -- layer probes --------------------------------------------------------------------------


def probe_datasets(p: Probe) -> None:
    names = repro.DATASET_NAMES if p.full else ("covtype", "w8a")
    for name in names:
        profile = datasets.scaled_profile(name, p.scale)
        p.values[f"datasets.generate_s.{name}"] = per_call(
            lambda: datasets.generate(profile, seed=p.seed), p.min_s
        )


#: The copy roofline streams an array of this size: at least 4x the
#: last-level cache of any part we run on (a guest that reports its
#: host's shared 256 MiB L3 does not get to keep it to itself).
COPY_BYTES = 128 << 20


def probe_linalg(p: Probe) -> None:
    v, X, A = p.values, p.dense.X, p.sparse.X
    w = p.rng.standard_normal(X.shape[1])
    x = p.rng.standard_normal(A.n_cols)
    v["linalg.gemv_ns_per_elem"] = per_call(lambda: linalg.gemv(X, w), p.min_s) * 1e9 / X.size
    v["linalg.csr_matvec_ns_per_nnz"] = (
        per_call(lambda: linalg.csr_matvec(A, x), p.min_s) * 1e9 / A.nnz
    )
    rows56 = p.rng.integers(0, A.n_rows, size=56)
    rows64 = p.rng.integers(0, A.n_rows, size=64)
    v["linalg.csr_gather_rows_ns_per_nnz"] = (
        per_call(lambda: csr_gather_rows(A, rows56), p.min_s) * 1e9
        / A.row_nnz[rows56].sum()
    )
    v["linalg.csr_submatvec_ns_per_nnz"] = (
        per_call(lambda: csr_submatvec(A, rows64, x), p.min_s) * 1e9
        / A.row_nnz[rows64].sum()
    )
    Xb = X[p.rng.integers(0, X.shape[0], size=56)]
    coef = p.rng.standard_normal(56)
    v["linalg.batch_sgd_deltas_ns_per_elem"] = (
        per_call(lambda: batch_sgd_deltas(Xb, coef, 0.1), p.min_s) * 1e9 / Xb.size
    )
    # The roofline the ns/element numbers are read against.  Bytes moved
    # are computed from the array size (read once + written once), not
    # measured.
    src = np.ones(COPY_BYTES // 8)
    dst = np.empty_like(src)
    v["linalg.copy_gbps"] = 2 * src.nbytes / per_call(lambda: np.copyto(dst, src), p.min_s) / 1e9
    if p.full:
        B = p.rng.standard_normal((X.shape[1], 64))
        v["linalg.gemm_gflops"] = (
            2.0 * X.shape[0] * X.shape[1] * 64 / per_call(lambda: linalg.gemm(X, B), p.min_s) / 1e9
        )
        small, vec = np.ones((8, 8)), np.ones(8)
        off = per_call(lambda: linalg.gemv(small, vec), p.min_s)
        with linalg.recording():
            on = per_call(lambda: linalg.gemv(small, vec), p.min_s)
        v["linalg.record_op_ns"] = (on - off) * 1e9


def probe_models(p: Probe) -> None:
    v = p.values
    kinds = (("dense", p.dense, "lr"), ("sparse", p.sparse, "svm"))
    for kind, ds, task in kinds:
        p.serial_rate(kind)
        if kind == "sparse" and not p.full:
            continue
        model, params = p.model(task, ds)
        step = default_step_size(task, "asynchronous")
        rows = p.rng.integers(0, ds.n_examples, size=56)
        v[f"models.batched_updates_per_s.{kind}"] = 56 / per_call(
            lambda: model.batched_updates(ds.X, ds.y, rows, params, step), p.min_s
        )
        v[f"models.loss_eval_ms.{kind}"] = (
            per_call(lambda: model.loss(ds.X, ds.y, params), p.min_s) * 1e3
        )
    if p.full:
        ds = datasets.mlp_dataset(p.dataset("covtype", "tiny"))
        mlp, params = p.model("mlp", ds)
        rows = np.arange(min(512, ds.n_examples))
        v["models.mlp_batch_update_ms"] = (
            per_call(lambda: mlp.batch_update(ds.X, ds.y, rows, params, 0.1), p.min_s) * 1e3
        )


def probe_asyncsim(p: Probe) -> None:
    v, ds = p.values, p.dense
    model, params = p.model("lr", ds)
    step = default_step_size("lr", "asynchronous")
    schedules = {"c1": AsyncSchedule(1), "c56": AsyncSchedule(56)}
    if p.full:
        schedules["pipelined"] = AsyncSchedule(512, pipeline_block=32)
    for label, schedule in schedules.items():
        rng = derive_rng(p.seed, f"bench/asyncsim/{label}")
        t = per_call(
            lambda: run_async_epoch(model, ds.X, ds.y, params, step, schedule, rng),
            p.min_s,
        )
        v[f"asyncsim.updates_per_s.{label}"] = ds.n_examples / t
    v["asyncsim.tax_over_serial"] = p.serial_rate("dense") / v["asyncsim.updates_per_s.c1"]


def probe_hardware(p: Probe) -> None:
    model, _ = p.model("lr", p.dense)
    workload = AsyncWorkload.for_linear(p.dense, model)
    cpu, gpu = CpuModel(), GpuModel()
    p.values["hardware.cpu_price_us_per_epoch"] = (
        per_call(lambda: cpu.async_epoch_time(workload, cpu.spec.max_threads), p.min_s) * 1e6
    )
    if p.full:
        p.values["hardware.gpu_price_us_per_epoch"] = (
            per_call(lambda: gpu.async_epoch_time(workload), p.min_s) * 1e6
        )


def probe_sgd(p: Probe) -> None:
    v = p.values
    # The facade's own cost: repro.train minus the runner it wraps, on
    # identical inputs (tiny, so the warm-up's reference solve is cheap;
    # one epoch, so the difference is not lost in the epochs' noise).
    ds = p.dataset("covtype", "tiny")
    model = repro.make_model("lr", ds)
    init = model.init_params(derive_rng(p.seed, "init/lr/covtype"))
    epochs = 1

    def facade():
        repro.train("lr", ds, "cpu-seq", "asynchronous", scale="tiny",
                    max_epochs=epochs, early_stop_tolerance=None, seed=p.seed)

    facade()  # solves and caches the reference loss
    inner = per_call(
        lambda: train_asynchronous(
            model, ds.X, ds.y, init, p.config("lr", epochs), AsyncSchedule(1)
        ),
        p.min_s,
    )
    v["sgd.facade_overhead_ms"] = (per_call(facade, p.min_s) - inner) * 1e3
    for kind, data, task in (("dense", p.dense, "lr"), ("sparse", p.sparse, "svm")):
        model, init = p.model(task, data)
        config = SGDConfig(step_size=default_step_size(task, "synchronous"), max_epochs=10)
        v[f"sgd.sync_epoch_ms.{kind}"] = (
            per_call(lambda: train_synchronous(model, data.X, data.y, init, config), p.min_s)
            * 1e3 / 10
        )
    if p.full:
        for label, task, name, scale in (
            ("lr-covtype", "lr", "covtype", p.scale),
            ("lr-w8a-tiny", "lr", "w8a", "tiny"),
            ("svm-w8a", "svm", "w8a", p.scale),
        ):
            data = p.dataset(name, scale)
            model, init = p.model(task, data)
            t0 = time.perf_counter()
            reference_loss(model, data.X, data.y, init, key=None)
            v[f"sgd.reference_loss_s.{label}"] = time.perf_counter() - t0


def _shm_run(p: Probe, ds, task: str, workers: int, epochs: int, track: bool = True):
    model, init = p.model(task, ds)
    t0 = time.perf_counter()
    res = train_shm(
        model, ds.X, ds.y, init, p.config(task, epochs),
        ShmSchedule(workers=workers, track_conflicts=track),
    )
    return res, time.perf_counter() - t0


def probe_parallel(p: Probe) -> None:
    v, ds = p.values, p.dense
    epochs = 12 if p.full else 4
    one, _ = _shm_run(p, ds, "lr", 1, epochs)
    two, wall = _shm_run(p, ds, "lr", 2, epochs)
    updates = two.epochs_run * ds.n_examples
    v["parallel.updates_per_s.w1"] = ds.n_examples / one.wall_seconds_per_epoch
    v["parallel.updates_per_s.w2"] = ds.n_examples / two.wall_seconds_per_epoch
    v["parallel.tax_over_serial"] = p.serial_rate("dense") / v["parallel.updates_per_s.w1"]
    v["parallel.scaling_1to2"] = v["parallel.updates_per_s.w2"] / v["parallel.updates_per_s.w1"]
    v["parallel.epoch_ms"] = two.wall_seconds_per_epoch * 1e3
    v["parallel.startup_ms"] = (wall - two.epochs_run * two.wall_seconds_per_epoch) * 1e3
    v["parallel.conflicts_per_update"] = two.counters["async.update_conflicts"] / updates
    if p.full:
        v["parallel.stale_reads_per_update"] = two.counters["async.stale_reads"] / updates
        lean, _ = _shm_run(p, ds, "lr", 2, epochs, track=False)
        v["parallel.notrack_updates_per_s.w2"] = ds.n_examples / lean.wall_seconds_per_epoch
        cross, _ = _shm_run(p, p.sparse, "svm", 2, epochs)
        v["parallel.updates_per_s.w2.sparse"] = (
            p.sparse.n_examples / cross.wall_seconds_per_epoch
        )


def _ps_run(p: Probe, model, X, y, init, task, nodes, epochs, **schedule):
    t0 = time.perf_counter()
    res = train_ps(
        model, X, y, init, p.config(task, epochs), PsSchedule(nodes=nodes, **schedule)
    )
    return res, time.perf_counter() - t0


def _roundtrip_us(p: Probe, n_params: int, shards: int) -> float:
    """PUSH_PULL round-trips with no worker compute: an empty push plus
    a pull whose version vector is current — the wire + apply floor."""
    with ShardServer(np.zeros(n_params), shards) as server:
        with socket.create_connection((server.host, server.port)) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            wire.send_frame(sock, wire.MSG_HELLO, ident=0)
            wire.recv_frame(sock)
            payload = wire.pack_push_pull(wire.pack_push_empty(), [0] * shards)
            clock = 0

            def roundtrip():
                nonlocal clock
                clock += 1
                wire.send_frame(sock, wire.MSG_PUSH_PULL, clock=clock, payload=payload)
                wire.recv_frame(sock)

            t = per_call(roundtrip, p.min_s)
            wire.send_frame(sock, wire.MSG_BYE)
    return t * 1e6


def probe_distributed(p: Probe) -> None:
    v, ds = p.values, p.sparse
    # Core runs one epoch over a 600-row slice (a full small epoch is
    # ~2 s per node count); the full set runs the whole dataset.
    n = ds.n_examples if p.full else min(600, ds.n_examples)
    X, y = ds.X.take_rows(np.arange(n)), ds.y[:n]
    model, init = p.model("svm", ds)
    epochs = 2 if p.full else 1
    one, _ = _ps_run(p, model, X, y, init, "svm", 1, epochs)
    two, wall = _ps_run(p, model, X, y, init, "svm", 2, epochs)
    shm_one = train_shm(model, X, y, init, p.config("svm", epochs), ShmSchedule(workers=1))
    updates = two.epochs_run * n
    c = two.counters
    v["distributed.updates_per_s.n1"] = n / one.wall_seconds_per_epoch
    v["distributed.updates_per_s.n2"] = n / two.wall_seconds_per_epoch
    v["distributed.us_per_update.n1"] = one.wall_seconds_per_epoch / n * 1e6
    v["distributed.tax_over_serial"] = (
        p.serial_rate("sparse") / v["distributed.updates_per_s.n1"]
    )
    v["distributed.tax_over_shm"] = (
        (n / shm_one.wall_seconds_per_epoch) / v["distributed.updates_per_s.n1"]
    )
    v["distributed.scaling_1to2"] = (
        v["distributed.updates_per_s.n2"] / v["distributed.updates_per_s.n1"]
    )
    v["distributed.rounds_per_update"] = c["ps.pull_rounds"] / updates
    v["distributed.bytes_per_update"] = (c["ps.bytes_sent"] + c["ps.bytes_received"]) / updates
    v["distributed.cache_hit_share"] = c["ps.shard_cache_hits"] / c["ps.pulls"]
    v["distributed.startup_ms"] = (wall - two.epochs_run * two.wall_seconds_per_epoch) * 1e3
    v["distributed.roundtrip_us"] = _roundtrip_us(p, model.n_params, two.shards)
    payload = np.zeros(model.n_params).tobytes()  # one full w8a-sized model
    v["distributed.frame_pack_us"] = (
        per_call(lambda: wire.pack_frame(wire.MSG_PUSH, payload=payload), p.min_s) * 1e6
    )
    frame = wire.pack_frame(wire.MSG_PUSH, payload=payload)
    left, right = socket.socketpair()
    with left, right:

        def ship():
            left.sendall(frame)
            wire.recv_frame(right)

        v["distributed.frame_unpack_us"] = per_call(ship, p.min_s) * 1e6
    if p.full:
        v["distributed.pull_waits_per_update"] = c["ps.pull_waits"] / updates
        gated, _ = _ps_run(p, model, X, y, init, "svm", 2, epochs, max_staleness=16)
        v["distributed.k16.updates_per_s.n2"] = n / gated.wall_seconds_per_epoch
        own, _ = _ps_run(p, model, X, y, init, "svm", 2, epochs, server_process=True)
        v["distributed.server_process.updates_per_s.n2"] = n / own.wall_seconds_per_epoch
        dmodel, dinit = p.model("lr", p.dense)
        cross, _ = _ps_run(p, dmodel, p.dense.X, p.dense.y, dinit, "lr", 2, epochs)
        v["distributed.updates_per_s.n2.dense"] = (
            p.dense.n_examples / cross.wall_seconds_per_epoch
        )
        ckpt_dir = str(p.tmp / "ckpt")
        seq = iter(range(1, 1 << 30))
        v["distributed.checkpoint_write_ms"] = per_call(
            lambda: write_checkpoint(
                ckpt_dir, next(seq), params=init, versions=[0] * two.shards,
                released_epoch=0, clocks={0: 0, 1: 0},
            ),
            p.min_s,
        ) * 1e3


def _grid(p: Probe, scale: str, jobs: int, **extra) -> tuple[float, int]:
    cells = [
        GridCell("svm", dataset, arch, strategy)
        for dataset in ("covtype", "news")
        for arch in ARCHITECTURES
        for strategy in ("synchronous", "asynchronous")
    ]
    ctx = ExperimentContext(
        scale=scale, seed=p.seed, tolerance=1e-12, sync_max_epochs=60,
        async_max_epochs=60, datasets=("covtype", "news"), tasks=("svm",),
        jobs=jobs, **extra,
    )
    t0 = time.perf_counter()
    results = GridExecutor(ctx).execute(cells)
    return time.perf_counter() - t0, len(results)


def probe_experiments(p: Probe) -> None:
    v = p.values
    repeats = 1 if p.quick else 5 if p.full else 2
    _grid(p, "tiny", 1)  # solves the references; not timed
    shutdown_grid_pool()
    cold_2, cells = _grid(p, "tiny", 2)
    # jobs=1 and jobs=2 in alternation, so a host that changes speed
    # between them cannot pass for scaling (jobs=1 leaves the pool warm).
    walls = [(_grid(p, "tiny", 1)[0], _grid(p, "tiny", 2)[0]) for _ in range(repeats)]
    wall_1 = statistics.median(w[0] for w in walls)
    wall_2 = statistics.median(w[1] for w in walls)
    v["experiments.cells_per_s.j1"] = cells / wall_1
    v["experiments.cells_per_s.j2"] = cells / wall_2
    v["experiments.scaling_1to2"] = wall_1 / wall_2
    v["experiments.fanout_overhead_ms_per_cell"] = (wall_2 - wall_1 / 2) / cells * 1e3
    v["experiments.pool_cold_start_ms"] = (cold_2 - wall_2) * 1e3
    # One stored cell, saved and loaded through the result store.
    result = repro.train("svm", "covtype", "cpu-seq", "asynchronous", scale="tiny",
                         max_epochs=10, early_stop_tolerance=None, seed=p.seed)
    store = ResultStore(p.tmp / "store")
    config = {"task": "svm", "dataset": "covtype", "seed": p.seed}
    v["experiments.store_save_us"] = per_call(lambda: store.save(config, result), p.min_s) * 1e6
    v["experiments.store_load_us"] = per_call(lambda: store.load(config), p.min_s) * 1e6
    if p.full:
        v["experiments.keepgoing_cells_per_s.j2"] = cells / statistics.median(
            _grid(p, "tiny", 2, keep_going=True)[0] for _ in range(repeats)
        )
        v["experiments.no_shared_cells_per_s.j2"] = cells / statistics.median(
            _grid(p, "tiny", 2, shared_data=False)[0] for _ in range(repeats)
        )
        resumable = ResultStore(p.tmp / "resume")
        _grid(p, "tiny", 2, store=resumable)
        v["experiments.resume_cells_per_s"] = cells / statistics.median(
            _grid(p, "tiny", 2, store=resumable, resume=True)[0] for _ in range(repeats)
        )
        shutdown_grid_pool()
        t0 = time.perf_counter()
        registry = SharedDatasetRegistry()
        for name in ("covtype", "news"):
            registry.publish(name, p.scale, p.seed)
        v["experiments.shared_publish_ms"] = (time.perf_counter() - t0) * 1e3
        registry.close()
        # Simulation-dominated cells, where fan-out should approach 2x.
        _grid(p, p.scale, 2)
        v["experiments.big_cells_per_s.j2"] = cells / _grid(p, p.scale, 2)[0]
    shutdown_grid_pool()


def _spawned_server_start_ms(artifact: Path) -> float:
    """Wall time from spawning ``python -m repro serve`` to its ready line."""
    t0 = time.perf_counter()
    proc, address = spawn_server(artifact, subprocess.DEVNULL)
    elapsed = (time.perf_counter() - t0) * 1e3
    stop_server(proc, address)
    return elapsed


def probe_serving(p: Probe) -> None:
    v = p.values
    dense_rows = [row.tolist() for row in p.dense.X[:64]]
    sparse_rows = []
    for i in range(64):
        idx, val = p.sparse.X.row(i)
        sparse_rows.append({"indices": idx.tolist(), "values": val.tolist()})
    weights = p.rng.standard_normal(p.dense.n_features)
    engine = ScoringEngine("lr", p.dense.n_features)
    engine.install(ServedModel(params=weights, version=1, source="artifact"))
    sparse_engine = ScoringEngine("lr", p.sparse.n_features)
    v["serving.parse_us_per_example.dense"] = (
        per_call(lambda: engine.parse_example(dense_rows[0]), p.min_s) * 1e6
    )
    v["serving.parse_us_per_example.sparse"] = (
        per_call(lambda: sparse_engine.parse_example(sparse_rows[0]), p.min_s) * 1e6
    )
    score = {
        k: per_call(lambda: engine.score(dense_rows[:k]), p.min_s) for k in (1, 64)
    }
    v["serving.score_examples_per_s.k1"] = 1 / score[1]
    v["serving.score_examples_per_s.k64"] = 64 / score[64]
    raw = {
        k: json.dumps({"op": "score", "examples": dense_rows[:k]}).encode()
        for k in (1, 64)
    }
    with engine, ScoringServer(engine) as server:
        request_1 = per_call(lambda: engine.request(dense_rows[:1]), p.min_s)
        v["serving.request_examples_per_s.k1"] = 1 / request_1
        v["serving.queue_ms_per_request"] = (request_1 - score[1]) * 1e3
        if p.full:
            v["serving.request_examples_per_s.k64"] = 64 / per_call(
                lambda: engine.request(dense_rows), p.min_s
            )
        for k in (1, 64):
            v[f"serving.dispatch_us.k{k}"] = (
                per_call(lambda: server.dispatch(raw[k]), p.min_s) * 1e6
            )
        with socket.create_connection((server.host, server.port)) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = sock.makefile("rb")

            def ping():
                sock.sendall(b'{"op": "ping"}\n')
                reader.readline()

            v["serving.ping_roundtrip_us"] = per_call(ping, p.min_s) * 1e6
    # What `repro serve` costs to bring up: interpreter, imports, artifact
    # load, bind — the part of a serve workload's setup_s that is serving's.
    result = repro.train("lr", "covtype", "cpu-seq", "asynchronous", scale="tiny",
                         max_epochs=2, early_stop_tolerance=None, seed=p.seed)
    artifact = p.tmp / "probe-model.json"
    save_results(result, artifact)
    v["serving.server_start_ms"] = _spawned_server_start_ms(artifact)
    if p.full:
        descriptor = p.tmp / "snapshot.json"
        with SnapshotPublisher.create(weights.shape[0], descriptor=descriptor) as publisher:
            epoch = iter(range(1, 1 << 30))
            v["serving.snapshot_publish_us"] = per_call(
                lambda: publisher.publish(weights, epoch=next(epoch), loss=0.5), p.min_s
            ) * 1e6
            with ShmTrainHandle.attach(descriptor) as handle:
                v["serving.snapshot_read_us"] = per_call(handle.snapshot, p.min_s) * 1e6


def probe_telemetry(p: Probe) -> None:
    tel = Telemetry()

    def span():
        with tel.span("bench.probe"):
            pass

    p.values["telemetry.span_ns"] = per_call(span, p.min_s) * 1e9
    p.values["telemetry.count_ns"] = per_call(lambda: tel.count("bench.probe"), p.min_s) * 1e9


PROBES: dict[str, Callable[[Probe], None]] = {
    "datasets": probe_datasets,
    "linalg": probe_linalg,
    "models": probe_models,
    "asyncsim": probe_asyncsim,
    "hardware": probe_hardware,
    "sgd": probe_sgd,
    "parallel": probe_parallel,
    "distributed": probe_distributed,
    "experiments": probe_experiments,
    "serving": probe_serving,
    "telemetry": probe_telemetry,
}


def run(workload, tracer, plain, traced, *, seed, quick, own, tmp) -> dict[str, float]:
    """Every per-layer value of one traced run.

    ``own=False`` (the BENCHMARK.json contract): every layer probed with
    short loops, the non-core probes skipped.  ``own=True``: every probe
    of the layers this workload owns, plus what only its window can give.
    """
    probe = Probe(seed, full=own, quick=quick, tmp=tmp)
    layers = OWNED_LAYERS[workload.name] if own else LAYERS
    for layer in layers:
        with tracer.span(f"probe.{layer}", layer):
            PROBES[layer](probe)
    values = dict(probe.values)
    if own:
        values.update(workload.window_metrics())
    self_s = tracer.self_times()
    window_span = next(s for s in tracer.spans if s.name == "window")
    values["bench.trace_overhead_share"] = 1.0 - traced.work_per_s / plain.work_per_s
    values["bench.harness_self_share"] = self_s["bench"] / window_span.duration
    values["bench.spans_recorded"] = float(len(tracer.spans))
    return values
