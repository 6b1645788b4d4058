"""The six workloads, and the one table of their sizes.

Every workload drives the program through a public entry point only:
``repro.train`` (train-*), ``GridExecutor.execute`` (grid-fanout), a
``python -m repro serve`` subprocess over its socket (serve-*).  Each has
the same four steps — cold ``setup``, timed ``window``, ``check`` outside
the window, ``teardown`` — so :mod:`bench.runner` treats them alike.

Two things set the sizes.  The driver's cap (4 + 22 x 6 runs in 3420 s,
so a run has ~20 s for set-up, an 8 s window and its checks) allows one
``small`` (task, dataset) pair per train workload, because a cold
reference-loss solve costs 3-4 s per ``small`` pair even fanned over two
processes.  And the yardstick (:class:`bench.harness.Yardstick`) can only
be sampled between calls into the program, so one call is kept to
0.1-0.4 s: on this host that is what lets a window's median hold to a
few percent (README, "Noise floor").  ``train-ps`` is the exception: a
``repro.train(backend="ps")`` call ends on a 0.2 s tick of the shard
server's accept loop, so it stays 2 s long to keep that step under 10 %.
"""

from __future__ import annotations

import functools
import json
import select
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import repro
from repro.experiments import (
    ExperimentContext,
    GridCell,
    GridExecutor,
    shutdown_grid_pool,
)
from repro.sgd import default_step_size, save_results
from repro.serving import request_once
from repro.telemetry import Telemetry
from repro.utils.rng import derive_rng

from .harness import Slice, Window, Yardstick, percentile, sequential_window, tail_latency

ARCHITECTURES = ("cpu-seq", "cpu-par", "gpu")

#: name -> sizes.  ``QUICK`` overrides shrink every workload to ``tiny``
#: so bench/tests can run all six in seconds.
SIZES: dict[str, dict] = {
    "train-sim": {
        # (task, dataset, scale, asynchronous epochs, synchronous epochs).
        # One small pair is all the cold-solve budget allows; the sparse
        # and MLP pairs ride along at tiny with more epochs, so each
        # still carries a visible share of a pass.  No call is longer
        # than ~0.1 s; a pass of all 14 is ~0.7 s.
        "pairs": (
            ("lr", "covtype", "small", 10, 50),
            ("lr", "w8a", "tiny", 50, 125),
        ),
        "mlp": ("covtype", "tiny", 10, 100),
    },
    "train-shm": {
        "task": "lr", "dataset": "covtype", "scale": "small",
        "workers": 2, "epochs": 4, "warmup_epochs": 2, "anchor_epochs": 3,
    },
    "train-ps": {
        "task": "svm", "dataset": "w8a", "scale": "small",
        "workers": 2, "epochs": 1, "warmup_epochs": 1, "anchor_epochs": 1,
    },
    "grid-fanout": {
        "tasks": ("lr", "svm"),
        "datasets": ("covtype", "real-sim", "rcv1", "news"),
        "scale": "tiny", "epochs": 15, "jobs": 2,
    },
    # A slice is ``slice_requests`` back-to-back requests on every
    # connection: >= 100 requests, so it carries its own p90.
    "serve-single": {
        "task": "lr", "dataset": "covtype", "scale": "tiny", "train_epochs": 20,
        "examples_per_request": 1, "pool": 256, "warmup": 200, "connections": 2,
        "slice_requests": 100,
    },
    "serve-batch": {
        # w8a, not rcv1: at tiny rcv1 has 1 non-zero per row, w8a keeps
        # its 10 (rcv1 at small has 8 but a 6 s cold solve).
        "task": "lr", "dataset": "w8a", "scale": "tiny", "train_epochs": 20,
        "examples_per_request": 64, "pool": 256, "warmup": 50, "connections": 2,
        "slice_requests": 50,
    },
}

QUICK: dict[str, dict] = {
    "train-sim": {
        "pairs": (("lr", "covtype", "tiny", 4, 8), ("lr", "w8a", "tiny", 4, 8)),
        "mlp": ("covtype", "tiny", 2, 4),
    },
    "train-shm": {"scale": "tiny", "epochs": 3},
    "train-ps": {"scale": "tiny", "epochs": 1},
    "grid-fanout": {"datasets": ("covtype", "news"), "epochs": 4},
    "serve-single": {"train_epochs": 2, "warmup": 10},
    "serve-batch": {"train_epochs": 2, "warmup": 5},
}

WORKLOAD_NAMES = tuple(SIZES)


def sizes_for(name: str, quick: bool) -> dict:
    return {**SIZES[name], **(QUICK[name] if quick else {})}


# -- the benchmark's own reference arithmetic --------------------------------------


def facade_init(task: str, dataset: str, ds, seed: int) -> np.ndarray:
    """The initial model ``repro.train`` builds for (task, dataset, seed)."""
    model = repro.make_model(task, ds)
    return model.init_params(derive_rng(seed, f"init/{task}/{dataset}"))


def serial_sgd(task, dataset, scale, seed, epochs, step, stream="bench/serial"):
    """Plain sequential SGD — a bare ``serial_sgd_epoch`` loop.

    The L1 baseline every backend is compared with: bit for bit at one
    worker (with the backend's shuffle *stream*), as a loss ratio above.
    Returns ``(params, final_loss)``.
    """
    ds = repro.load(dataset, scale, seed)
    model = repro.make_model(task, ds)
    params = facade_init(task, dataset, ds, seed)
    rng = derive_rng(seed, stream)
    part = np.arange(ds.n_examples, dtype=np.int64)
    for _ in range(epochs):
        order = part[rng.permutation(part.shape[0])]
        model.serial_sgd_epoch(ds.X, ds.y, order, params, step)
    return params, float(model.loss(ds.X, ds.y, params))


def _grad_evals(result) -> float:
    return float(result.curve.epochs[-1] * result.dataset_stats["n_examples"])


def _bit_identical(a, b) -> bool:
    """Two TrainResults of a deterministic run: same curve, time, model."""
    return (
        a.curve.losses == b.curve.losses
        and a.time_per_iter == b.time_per_iter
        and np.array_equal(a.params, b.params)
    )


def _telemetry_share(operation) -> float:
    """Extra wall time of ``operation(telemetry=Telemetry())`` over
    ``operation()``, as a share — what the program's own telemetry costs."""
    t0 = time.perf_counter()
    operation()
    t1 = time.perf_counter()
    operation(telemetry=Telemetry())
    return (time.perf_counter() - t1) / (t1 - t0) - 1.0


class Workload:
    """Common shape; see the module docstring."""

    name: str
    #: The layer whose public entry point the window calls.
    layer: str
    #: What ``work_per_s`` counts.
    unit: str
    #: Cores the program keeps busy, i.e. how wide the yardstick runs.
    cores = 2
    #: Share of an operation's time that stretches with the host's speed
    #: (:meth:`bench.harness.Yardstick.factor`): 1 where the program
    #: computes throughout, less where it sleeps on timers and waits for
    #: wake-ups.  Fitted on this commit (README, "Noise floor").
    host_share = 1.0

    #: Checks run outside the window; each counts as one attempted
    #: operation and reports at most one failure.
    CHECKS = 1

    def __init__(self, seed: int, quick: bool, tmp: Path, yard: Yardstick) -> None:
        self.seed = seed
        self.sizes = sizes_for(self.name, quick)
        self.tmp = tmp
        self.yard = yard

    def setup(self) -> None:
        raise NotImplementedError

    def window(self, seconds: float, tracer) -> Window:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def loss_ratio(self) -> float:
        raise NotImplementedError

    def window_metrics(self) -> dict[str, float]:
        """Per-layer numbers only this workload's own window can give
        (printed by its own traced run, not part of BENCHMARK.json)."""
        return {}

    def teardown(self) -> None:
        pass


# -- train-sim ---------------------------------------------------------------------


class TrainSim(Workload):
    name = "train-sim"
    layer = "sgd"
    unit = "gradient evaluations"
    cores = 1

    def cells(self) -> list[dict]:
        s = self.sizes
        out = []
        for task, dataset, scale, a_epochs, s_epochs in s["pairs"]:
            for arch in ARCHITECTURES:
                for strategy, epochs in (
                    ("asynchronous", a_epochs),
                    ("synchronous", s_epochs),
                ):
                    out.append(dict(task=task, dataset=dataset, scale=scale,
                                    architecture=arch, strategy=strategy,
                                    max_epochs=epochs))
        dataset, scale, a_epochs, s_epochs = s["mlp"]
        for strategy, epochs in (("asynchronous", a_epochs), ("synchronous", s_epochs)):
            out.append(dict(task="mlp", dataset=dataset, scale=scale,
                            architecture="cpu-par", strategy=strategy,
                            max_epochs=epochs))
        return out

    def _train_all(self, between=lambda: None, **extra) -> list:
        results = []
        for cell in self.cells():
            between()
            results.append(
                repro.train(**cell, early_stop_tolerance=None, seed=self.seed, **extra)
            )
        return results

    def _pass(self) -> float:
        results = self._train_all(self.yard.sample)
        self.passes.append(results)
        return sum(_grad_evals(r) for r in results)

    def setup(self) -> None:
        self.passes: list[list] = []
        self._pass()  # cold: dataset generation, reference solves, warm-up

    def window(self, seconds, tracer) -> Window:
        self.passes = []
        return sequential_window(
            self._pass, seconds, tracer, "train-sim.pass", self.layer, self.yard,
            self.host_share,
        )

    def check(self) -> list[str]:
        """Deterministic simulator: every pass is bit-identical."""
        first = self.passes[0]
        for k, later in enumerate(self.passes[1:], start=2):
            for cell, a, b in zip(self.cells(), first, later):
                if not _bit_identical(a, b):
                    return [f"pass {k} differs from pass 1 on {cell}"]
        return []

    def loss_ratio(self) -> float:
        """Final losses of the lr/svm cells over plain serial SGD run for
        the asynchronous epoch budget on the same data (MLP has no serial
        kernel and is left out)."""
        serial = {
            (task, dataset): serial_sgd(
                task, dataset, scale, self.seed, a_epochs,
                default_step_size(task, "asynchronous"),
            )[1]
            for task, dataset, scale, a_epochs, _ in self.sizes["pairs"]
        }
        got = want = 0.0
        for cell, result in zip(self.cells(), self.passes[0]):
            if cell["task"] != "mlp":
                got += result.curve.final_loss
                want += serial[(cell["task"], cell["dataset"])]
        return got / want

    def window_metrics(self) -> dict[str, float]:
        first = self.passes[0]
        return {
            # Simulated time and epochs-to-tolerance repeat exactly: a
            # host-speed change must leave both identical.
            "hardware.modelled_seconds_sum": sum(r.time_per_iter for r in first),
            "sgd.epochs_to_tol_sum": float(
                sum(r.epochs_to(0.02) or r.curve.epochs[-1] for r in first)
            ),
            f"telemetry.overhead_share.{self.name}": _telemetry_share(self._train_all),
        }


# -- train-shm / train-ps ------------------------------------------------------------


class _TrainMeasured(Workload):
    """One ``repro.train`` call per operation on a measured backend."""

    layer = "sgd"
    unit = "gradient evaluations"
    backend: str
    #: facade keyword that sets the worker count
    workers_kw: str
    #: shuffle stream of the backend's worker 0 of 1 (the serial anchor)
    anchor_stream: str
    anchor_kwargs: dict = {}
    CHECKS = 2

    def _train(self, epochs: int, workers: int, **extra):
        s = self.sizes
        return repro.train(
            s["task"], s["dataset"], backend=self.backend, scale=s["scale"],
            max_epochs=epochs, early_stop_tolerance=None, seed=self.seed,
            **{self.workers_kw: workers}, **extra,
        )

    def _train_op(self, **extra):
        return self._train(self.sizes["epochs"], self.sizes["workers"], **extra)

    def _op(self) -> float:
        result = self._train_op()
        self.results.append(result)
        return _grad_evals(result)

    def setup(self) -> None:
        self.results: list = []
        self._train(self.sizes["warmup_epochs"], self.sizes["workers"])

    def window(self, seconds, tracer) -> Window:
        self.results = []
        return sequential_window(
            self._op, seconds, tracer, f"{self.name}.train", self.layer, self.yard,
            self.host_share,
        )

    def _serial(self, epochs: int, stream: str):
        s = self.sizes
        return serial_sgd(
            s["task"], s["dataset"], s["scale"], self.seed, epochs,
            default_step_size(s["task"], "asynchronous"), stream,
        )

    @functools.cached_property
    def serial_loss(self) -> float:
        """Final loss of plain serial SGD on the operation's epoch budget."""
        return self._serial(self.sizes["epochs"], "bench/serial")[1]

    def _anchor_matches(self, got: np.ndarray, want: np.ndarray) -> bool:
        raise NotImplementedError

    def _counter_failures(self, result) -> list[str]:
        counters = result.measured["counters"]
        expected = _grad_evals(result)
        out = []
        for key in ("sgd.updates_applied", "sgd.gradient_evals"):
            if counters.get(key) != expected:
                out.append(f"{key}={counters.get(key)} but epochs x n = {expected}")
        return out

    def check(self) -> list[str]:
        s = self.sizes
        failures = []
        # One worker has no races: it must reproduce the serial trajectory.
        alone = self._train(s["anchor_epochs"], 1, **self.anchor_kwargs)
        want, _ = self._serial(s["anchor_epochs"], self.anchor_stream)
        if not self._anchor_matches(alone.params, want):
            failures.append(
                f"1-worker {self.backend} run does not match plain serial SGD"
            )
        # Every timed call: counters add up, and racing workers trade at
        # most 5 % of the loss serial SGD reaches on the same budget.
        problems = []
        for result in self.results:
            problems += self._counter_failures(result)
            ratio = result.curve.final_loss / self.serial_loss
            if not abs(ratio - 1.0) <= 0.05:
                problems.append(
                    f"final loss {result.curve.final_loss:.6g} is not within 5 % "
                    f"of serial SGD's {self.serial_loss:.6g}"
                )
        if problems:
            failures.append("; ".join(sorted(set(problems))))
        return failures

    def loss_ratio(self) -> float:
        finals = [r.curve.final_loss for r in self.results]
        return float(np.mean(finals)) / self.serial_loss

    def window_metrics(self) -> dict[str, float]:
        return {f"telemetry.overhead_share.{self.name}": _telemetry_share(self._train_op)}


class TrainShm(_TrainMeasured):
    name = "train-shm"
    backend = "shm"
    workers_kw = "threads"
    anchor_stream = "shm/1/0"

    def _anchor_matches(self, got, want) -> bool:
        # 1e-12, as the repo's own anchor test: the vectorised margin
        # reduces in another order than the scalar dot.
        return bool(np.allclose(got, want, rtol=0.0, atol=1e-12))


class TrainPs(_TrainMeasured):
    name = "train-ps"
    backend = "ps"
    workers_kw = "nodes"
    anchor_stream = "ps/1/0"
    anchor_kwargs = {"max_staleness": 0}
    # Half of an update is two processes waiting to be woken by a socket.
    host_share = 0.5

    def _anchor_matches(self, got, want) -> bool:
        return bool(np.array_equal(got, want))

    def _counter_failures(self, result) -> list[str]:
        out = super()._counter_failures(result)
        counters = result.measured["counters"]
        rounds = counters["ps.pull_rounds"] / counters["sgd.updates_applied"]
        if rounds > 1.05:
            out.append(f"{rounds:.3f} pull round-trips per update (> 1.05)")
        return out


# -- grid-fanout -------------------------------------------------------------------------


class GridFanout(Workload):
    name = "grid-fanout"
    layer = "experiments"
    unit = "grid cells"

    def cells(self) -> list[GridCell]:
        s = self.sizes
        return [
            GridCell(task, dataset, arch, strategy)
            for task in s["tasks"]
            for dataset in s["datasets"]
            for arch in ARCHITECTURES
            for strategy in ("synchronous", "asynchronous")
        ]

    def context(self, jobs: int, **extra) -> ExperimentContext:
        s = self.sizes
        return ExperimentContext(
            scale=s["scale"], seed=self.seed, tolerance=1e-12,
            sync_max_epochs=s["epochs"], async_max_epochs=s["epochs"],
            datasets=tuple(s["datasets"]), tasks=tuple(s["tasks"]),
            jobs=jobs, **extra,
        )

    def execute(self, jobs: int, **extra) -> dict:
        ctx = self.context(jobs, **extra)
        results = GridExecutor(ctx).execute(self.cells())
        if ctx.failures or len(results) != len(self.cells()):
            raise RuntimeError(
                f"{len(ctx.failures)} quarantined, {len(results)} of "
                f"{len(self.cells())} cells returned"
            )
        return results

    def _op(self) -> float:
        self.last = self.execute(self.sizes["jobs"])
        return float(len(self.last))

    def setup(self) -> None:
        self._op()  # cold: pool spin-up, dataset publication, reference solves

    def window(self, seconds, tracer) -> Window:
        return sequential_window(
            self._op, seconds, tracer, "grid.execute", self.layer, self.yard,
            self.host_share,
        )

    def check(self) -> list[str]:
        """Fan-out is placement only: jobs=2 equals jobs=1 bit for bit."""
        serial = self.execute(1)
        for cell, want in serial.items():
            if not _bit_identical(self.last[cell], want):
                return [f"jobs={self.sizes['jobs']} differs from jobs=1 on {cell.label()}"]
        return []

    def loss_ratio(self) -> float:
        s = self.sizes
        ctx = self.context(1)
        serial = {
            (task, dataset): serial_sgd(
                task, dataset, s["scale"], self.seed, s["epochs"],
                ctx.step_for(task, dataset, "asynchronous", "cpu-seq"),
            )[1]
            for task in s["tasks"]
            for dataset in s["datasets"]
        }
        got = sum(r.curve.final_loss for r in self.last.values())
        want = sum(serial[(c.task, c.dataset)] for c in self.last)
        return got / want

    def teardown(self) -> None:
        shutdown_grid_pool()


# -- serve-single / serve-batch ------------------------------------------------------------


def spawn_server(artifact: Path, log) -> tuple[subprocess.Popen, tuple[str, int]]:
    """Start ``python -m repro serve`` on *artifact*; returns the process
    and the address from its ready line (``serving <task> on <host>:<port>``)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--model", str(artifact), "--no-watch"],
        stdout=subprocess.PIPE, stderr=log,
    )
    ready, _, _ = select.select([proc.stdout], [], [], 60.0)
    line = proc.stdout.readline().decode() if ready else ""
    if " on " not in line:
        stop_server(proc, None)
        raise RuntimeError(f"server did not come up: {line!r}")
    host, port = line.strip().rsplit(" on ", 1)[1].rsplit(":", 1)
    return proc, (host, int(port))


def stop_server(proc: subprocess.Popen, address: tuple[str, int] | None) -> None:
    """Ask the server to shut down, then make sure it has ended."""
    if address is not None:
        try:
            request_once(*address, {"op": "shutdown"}, timeout=5.0)
        except (OSError, ValueError):
            pass
    try:
        proc.wait(timeout=10.0 if address else 0.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def _logistic_loss(margins: np.ndarray, labels: np.ndarray) -> float:
    return float(np.logaddexp(0.0, -labels * margins).sum())


class _Serve(Workload):
    """Closed loop: each connection sends its next request when the
    previous reply is complete (the JSON-lines handler answers one line
    at a time per connection).  The window is cut into slices of
    ``slice_requests`` requests per connection, the connections pausing
    for a yardstick sample (~3 ms) between slices."""

    layer = "serving"
    unit = "examples scored"
    proc: subprocess.Popen | None = None
    CHECKS = 0  # the window itself verifies every reply

    def setup(self) -> None:
        s = self.sizes
        result = repro.train(
            s["task"], s["dataset"], "cpu-seq", "asynchronous", scale=s["scale"],
            max_epochs=s["train_epochs"], early_stop_tolerance=None, seed=self.seed,
        )
        self.artifact = self.tmp / "model.json"
        save_results(result, self.artifact)
        self._build_requests(result.params)
        self._start_server()
        self._drive(s["warmup"] // s["connections"])

    def _build_requests(self, weights: np.ndarray) -> None:
        s = self.sizes
        ds = repro.load(s["dataset"], s["scale"], self.seed)
        dense = ds.X if isinstance(ds.X, np.ndarray) else ds.X.to_dense()
        rng = derive_rng(self.seed, f"bench/requests/{self.name}")
        rows = rng.integers(0, ds.n_examples, size=(s["pool"], s["examples_per_request"]))
        self.requests = []
        for request_rows in rows:
            if isinstance(ds.X, np.ndarray):
                examples = [dense[r].tolist() for r in request_rows]
            else:
                examples = []
                for r in request_rows:
                    idx, val = ds.X.row(int(r))
                    examples.append({"indices": idx.tolist(), "values": val.tolist()})
            body = json.dumps({"op": "score", "examples": examples})
            self.requests.append(body.encode("utf-8") + b"\n")
        # The benchmark's own scoring: plain NumPy X.w on the same rows.
        self.want_margins = dense[rows] @ weights
        self.labels = ds.y[rows]

    def _start_server(self) -> None:
        self.socks, self.readers = [], []
        with open(self.tmp / "server.log", "wb") as log:
            self.proc, self.address = spawn_server(self.artifact, log)
        for _ in range(self.sizes["connections"]):
            sock = socket.create_connection(self.address, timeout=30.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.socks.append(sock)
        self.readers = [sock.makefile("rb") for sock in self.socks]
        # Each connection walks the request pool from its own offset.
        pool = len(self.requests)
        self.cursors = [k * pool // len(self.socks) for k in range(len(self.socks))]

    def _drive(self, n: int, tracer=None) -> list[tuple[int, float, bytes]]:
        """*n* back-to-back requests on every connection at once; returns
        ``(request index, latency ms, raw reply)`` per request."""
        pool = len(self.requests)
        per_thread: list[list] = [[] for _ in self.socks]
        errors: list[str] = []

        def loop(k: int) -> None:
            sock, reader, at = self.socks[k], self.readers[k], self.cursors[k]
            try:
                for _ in range(n):
                    request = self.requests[at]
                    t0 = time.perf_counter()
                    if tracer is None:
                        sock.sendall(request)
                        reply = reader.readline()
                    else:
                        with tracer.span("serve.request", self.layer):
                            sock.sendall(request)
                            reply = reader.readline()
                    per_thread[k].append((at, (time.perf_counter() - t0) * 1e3, reply))
                    at = (at + 1) % pool
            except OSError as exc:
                errors.append(f"connection {k}: {exc}")
            self.cursors[k] = at

        threads = [
            threading.Thread(target=loop, args=(k,), name=f"loadgen-{k}")
            for k in range(len(self.socks))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise RuntimeError("; ".join(errors))
        return [sample for samples in per_thread for sample in samples]

    def window(self, seconds, tracer) -> Window:
        n = self.sizes["slice_requests"]
        traced = tracer if tracer.enabled else None
        raw = []
        start = time.perf_counter()
        self.yard.sample()
        while True:
            t0 = time.perf_counter()
            samples = self._drive(n, traced)
            t1 = time.perf_counter()
            self.yard.sample()
            raw.append((samples, t0, t1))
            if t1 - start >= seconds:
                break
        return self._verify(raw)

    def _verify(self, raw) -> Window:
        """Outside the timed slices: every reply ``ok``, margins equal to
        the benchmark's own X.w to 1e-9 relative, labels matching."""
        win = Window()
        per_request = self.sizes["examples_per_request"]
        served_loss = own_loss = 0.0
        for samples, t0, t1 in raw:
            latencies = []
            for at, latency_ms, reply_line in samples:
                win.attempted += 1
                problem = None
                try:
                    reply = json.loads(reply_line)
                    if reply.get("ok") is not True:
                        problem = f"reply not ok: {reply.get('error')}"
                    else:
                        margins = np.array([r["margin"] for r in reply["results"]])
                        labels = np.array([r["label"] for r in reply["results"]])
                        want = self.want_margins[at]
                        if margins.shape != want.shape or not np.allclose(
                            margins, want, rtol=1e-9, atol=1e-12
                        ):
                            problem = "margins differ from NumPy X.w"
                        elif not np.array_equal(labels, np.where(want >= 0, 1, -1)):
                            problem = "labels differ from sign(X.w)"
                except (ValueError, KeyError, TypeError) as exc:
                    problem = f"unreadable reply: {exc}"
                if problem is not None:
                    win.fail(f"request {at}: {problem}")
                    continue
                latencies.append(latency_ms)
                served_loss += _logistic_loss(margins, self.labels[at])
                own_loss += _logistic_loss(want, self.labels[at])
            if latencies:
                win.slices.append(Slice(
                    t1 - t0, per_request * len(latencies), len(latencies),
                    percentile(latencies, 50.0), tail_latency(latencies),
                    self.yard.factor(t0, t1, self.host_share),
                ))
        self._loss_ratio = served_loss / own_loss if own_loss else float("nan")
        return win

    def check(self) -> list[str]:
        return []

    def loss_ratio(self) -> float:
        """Loss of the served margins over the loss of the benchmark's own
        NumPy margins on the scored examples (1.0 unless serving alters
        the model's arithmetic)."""
        return self._loss_ratio

    def window_metrics(self) -> dict[str, float]:
        stats = request_once(*self.address, {"op": "stats"})["stats"]
        return {
            "serving.batch_size_mean": stats["batch_size_mean"],
            "serving.batches_per_request": stats["batches"] / max(stats["requests"], 1),
        }

    def teardown(self) -> None:
        if self.proc is None:
            return
        for reader, sock in zip(self.readers, self.socks):
            reader.close()
            sock.close()
        stop_server(self.proc, self.address)
        self.proc = None


class ServeSingle(_Serve):
    name = "serve-single"
    # Most of a one-example request is the micro-batcher's coalescing
    # sleeps and thread wake-ups.
    host_share = 0.4


class ServeBatch(_Serve):
    name = "serve-batch"


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (TrainSim, TrainShm, TrainPs, GridFanout, ServeSingle, ServeBatch)
}
