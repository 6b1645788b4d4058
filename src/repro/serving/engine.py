"""Micro-batched scoring over a hot-swappable model snapshot.

The inference half of the train-and-serve system.  Each request is
parsed once, on the thread that read it, into one CSR block (a row per
example): the example list is walked once to pick out the index and
value sequences, each form is converted with one NumPy call for the
whole request, and range, finiteness, order and duplicate checks run
once over whole arrays.  Requests that arrive together (one pass of the
service's event loop) are coalesced into micro-batches, and a batch is
the concatenation of its blocks scored by one margin kernel, the CSR
segment-reduce (:meth:`CSRMatrix.matvec`), so serving cost scales the
way the paper's Section II kernel analysis says it should: per batch
and per non-zero, not one Python-level pass per example.  No thread or
queue sits between: a lone request is scored as soon as it is parsed.

Model management is a **versioned double buffer**: the active
:class:`ServedModel` is swapped by plain attribute assignment (atomic
under CPython), every batch pins the model it started with, and a
background :class:`SnapshotRefresher` installs newer versions from
either a live shared-memory training run (:class:`ShmTrainHandle`, the
seqlock protocol of :mod:`repro.serving.snapshot`) or a model artifact
file that changed on disk.  In-flight requests are therefore never
dropped or blocked by a hot-swap — they finish on the version they
started with, and the next batch picks up the new one.

Cold starts and dead trainers degrade gracefully: scoring raises (and
the socket layer serves) the structured, *retriable*
:class:`~repro.utils.errors.SnapshotUnavailableError` instead of
crashing, while the refresher keeps polling for a model.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Any, NamedTuple, Sequence

import numpy as np

from ..linalg.csr import CSRMatrix
from ..models.linear import LinearSVM, LogisticRegression
from ..models.losses import stable_sigmoid
from ..telemetry import keys
from ..telemetry.session import AnyTelemetry, ensure_telemetry
from ..utils.errors import (
    ConfigurationError,
    DataFormatError,
    SnapshotUnavailableError,
)
from .snapshot import ModelSnapshot, ShmTrainHandle

__all__ = [
    "SERVABLE_TASKS",
    "ServedModel",
    "ExampleScore",
    "ScoreResponse",
    "EngineStats",
    "ScoringEngine",
    "SnapshotRefresher",
    "ArtifactSource",
    "SnapshotSource",
]

#: Tasks the scoring engine can serve: the margin-based linear models.
#: (The MLP trains through the simulator only and has no serving path.)
SERVABLE_TASKS: tuple[str, ...] = ("lr", "svm")

#: Latency samples kept for percentile estimation (ring buffer).
_LATENCY_HISTORY = 4096

#: What a sparse example's indices and values may be.
_SEQUENCES = (list, tuple, np.ndarray)

#: What NumPy raises on input it cannot convert.
_UNPARSABLE = (TypeError, ValueError, OverflowError)


@dataclass(frozen=True)
class ServedModel:
    """One immutable, installable model version (double-buffer slot)."""

    params: np.ndarray = field(repr=False)
    #: Monotonic version within one source; install() rejects stale ones.
    version: int
    #: "shm" (live training snapshot) or "artifact" (model file).
    source: str
    #: Training epoch the parameters came from (None for artifacts).
    epoch: int | None = None
    #: Training loss at that point, when known.
    loss: float | None = None
    #: Publish time at the source (snapshot publish / file mtime).
    published_unix: float | None = None

    @classmethod
    def from_snapshot(cls, snap: ModelSnapshot) -> "ServedModel":
        return cls(
            params=snap.params,
            version=snap.version,
            source="shm",
            epoch=snap.epoch,
            loss=snap.loss,
            published_unix=snap.published_unix,
        )

    @property
    def age_seconds(self) -> float:
        if self.published_unix is None:
            return 0.0
        return max(0.0, time.time() - self.published_unix)


@dataclass(frozen=True)
class ExampleScore:
    """Scores for one example under one model version."""

    margin: float
    #: Predicted class in the paper's ±1 label convention.
    label: int
    #: P(y=+1) for logistic regression; ``None`` for the SVM.
    prob: float | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"margin": self.margin, "label": self.label}
        if self.prob is not None:
            out["prob"] = self.prob
        return out


@dataclass(frozen=True)
class ScoreResponse:
    """One answered request: per-example scores plus model provenance."""

    results: tuple[ExampleScore, ...]
    model_version: int
    model_source: str
    model_epoch: int | None
    #: Parse-to-answer latency; filled by the micro-batching path,
    #: ``0.0`` for direct synchronous scoring.
    latency_ms: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": True,
            "results": [r.to_dict() for r in self.results],
            "model_version": self.model_version,
            "model_source": self.model_source,
            "model_epoch": self.model_epoch,
            "latency_ms": self.latency_ms,
        }


@dataclass(frozen=True)
class EngineStats:
    """Point-in-time serving statistics (manifest / ``stats`` op)."""

    requests: int
    examples: int
    batches: int
    errors: int
    retriable_errors: int
    hot_swaps: int
    source_errors: int
    requests_per_second: float
    latency_p50_ms: float
    latency_p99_ms: float
    queue_depth_peak: int
    batch_size_mean: float
    batch_size_histogram: dict[str, int]
    model_version: int | None
    model_source: str | None
    model_epoch: int | None
    snapshot_age_seconds: float | None

    def to_dict(self) -> dict[str, Any]:
        from dataclasses import asdict

        return asdict(self)


class _Block(NamedTuple):
    """One parsed request: CSR arrays holding a row per example."""

    n: int
    indptr: np.ndarray  # int64, n + 1 offsets
    indices: np.ndarray  # int32
    data: np.ndarray  # float64


class _PendingRequest:
    """One parsed request: its block, then its response or error."""

    __slots__ = ("block", "response", "error", "t_parsed")

    def __init__(self, block: _Block) -> None:
        self.block = block
        self.response: ScoreResponse | None = None
        self.error: Exception | None = None
        self.t_parsed = time.perf_counter()


class ScoringEngine:
    """Score examples against the active model, coalescing micro-batches.

    Three entry points, all synchronous on the calling thread:

    * :meth:`score` — one vectorised kernel call for the given examples
      (the unbatched baseline);
    * :meth:`prepare` then :meth:`answer` — the served path: the requests
      handed to one ``answer`` call (one pass of the service's event
      loop) are scored as micro-batches of whole requests up to
      ``max_batch`` rows, each under the model version its batch pinned;
    * :meth:`request` — that path for one request.

    ``start()``/``stop()`` open and close the served path and run the
    optional :class:`SnapshotRefresher`; the engine is also a context
    manager.
    """

    def __init__(
        self,
        task: str,
        n_features: int,
        telemetry: AnyTelemetry | None = None,
        max_batch: int = 64,
        refresher: "SnapshotRefresher | None" = None,
    ) -> None:
        if task not in SERVABLE_TASKS:
            raise ConfigurationError(
                f"task {task!r} is not servable; the scoring engine drives "
                f"the margin-based linear models {SERVABLE_TASKS}"
            )
        if n_features < 1:
            raise ConfigurationError(f"n_features must be >= 1, got {n_features}")
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        self.task = task
        self.n_features = int(n_features)
        self.max_batch = int(max_batch)
        self._model = (
            LogisticRegression(self.n_features)
            if task == "lr"
            else LinearSVM(self.n_features)
        )
        self._tel = ensure_telemetry(telemetry)
        self._active: ServedModel | None = None
        self._install_lock = threading.Lock()
        self.refresher = refresher
        if refresher is not None:
            refresher.bind(self)

        self._running = False

        self._stats_lock = threading.Lock()
        self._latencies_ms: deque[float] = deque(maxlen=_LATENCY_HISTORY)
        self._batch_sizes: deque[int] = deque(maxlen=_LATENCY_HISTORY)
        self._batch_histogram: dict[str, int] = {}
        self._requests = 0
        self._examples = 0
        self._batches = 0
        self._errors = 0
        self._retriable_errors = 0
        self._hot_swaps = 0
        self._source_errors = 0
        self._queue_peak = 0
        self._t_first: float | None = None
        self._t_last: float | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_artifact(
        cls,
        path: str | Path,
        telemetry: AnyTelemetry | None = None,
        max_batch: int = 64,
        watch: bool = True,
        refresh_interval: float = 0.25,
    ) -> "ScoringEngine":
        """Serve a model artifact written by :func:`repro.sgd.save_results`.

        With ``watch=True`` (the default) a refresher re-loads the file
        whenever it changes on disk — rewriting the artifact hot-swaps
        the served model.
        """
        source = ArtifactSource(path)
        model = source.poll()
        assert model is not None  # first poll always loads
        engine = cls(
            source.task,
            model.params.shape[0],
            telemetry=telemetry,
            max_batch=max_batch,
            refresher=(
                SnapshotRefresher(source, interval=refresh_interval)
                if watch
                else None
            ),
        )
        engine.install(model)
        return engine

    @classmethod
    def from_snapshot(
        cls,
        source: str | Path | ShmTrainHandle,
        telemetry: AnyTelemetry | None = None,
        max_batch: int = 64,
        refresh_interval: float = 0.05,
    ) -> "ScoringEngine":
        """Serve a (possibly live) shm training run's snapshots.

        *source* is a snapshot descriptor path, a segment name, or an
        already-attached :class:`ShmTrainHandle`.  The engine may start
        cold (no snapshot published yet): requests then receive the
        structured retriable error until the refresher installs the
        first version.
        """
        tel = ensure_telemetry(telemetry)
        handle = (
            source
            if isinstance(source, ShmTrainHandle)
            else ShmTrainHandle.attach(source, telemetry=tel)
        )
        task = handle.meta.get("task")
        if task is None:
            raise ConfigurationError(
                "snapshot source carries no task metadata; publish with "
                "meta={'task': ..., 'n_features': ...}"
            )
        n_features = int(handle.meta.get("n_features", handle._n_params))
        engine = cls(
            task,
            n_features,
            telemetry=tel,
            max_batch=max_batch,
            refresher=SnapshotRefresher(
                SnapshotSource(handle), interval=refresh_interval
            ),
        )
        try:
            engine.install(ServedModel.from_snapshot(handle.snapshot()))
        except SnapshotUnavailableError:
            pass  # cold start: the refresher will install version 1
        return engine

    # -- model management --------------------------------------------------

    @property
    def active(self) -> ServedModel | None:
        """The model new batches will be scored under (may be ``None``)."""
        return self._active

    def install(self, model: ServedModel) -> bool:
        """Atomically make *model* the active version (hot-swap).

        Stale or duplicate versions from the same source are ignored.
        Returns ``True`` when the active model changed.  In-flight
        batches keep the version they pinned at batch start — a swap
        never drops or blocks them.
        """
        if model.params.shape != (self.n_features,):
            raise ConfigurationError(
                f"model has {model.params.shape[0]} parameters, engine "
                f"serves {self.n_features} features"
            )
        with self._install_lock:
            current = self._active
            if (
                current is not None
                and model.source == current.source
                and model.version <= current.version
            ):
                return False
            swap = current is not None
            self._active = model
        if swap:
            with self._stats_lock:
                self._hot_swaps += 1
            self._tel.count(keys.SERVE_HOT_SWAPS)
        return True

    def require_model(self) -> ServedModel:
        """The active model, or the structured retriable cold-start error."""
        model = self._active
        if model is None:
            hint = ""
            if self.refresher is not None and self.refresher.last_error is not None:
                hint = f" (source: {self.refresher.last_error})"
            raise SnapshotUnavailableError(
                "no model installed yet — the trainer has not published a "
                "snapshot" + hint,
                reason="cold-start",
            )
        return model

    def note_source_error(self) -> None:
        """Refresher callback: a snapshot source failed (trainer dead?)."""
        with self._stats_lock:
            self._source_errors += 1
        self._tel.count(keys.SERVE_SOURCE_ERRORS)

    # -- example parsing ---------------------------------------------------

    def parse_example(self, example: Any) -> tuple[np.ndarray, np.ndarray]:
        """Normalise one wire/API example to a sparse ``(indices, values)`` row.

        Accepted forms: a dense sequence of ``n_features`` floats, a
        ``{"indices": [...], "values": [...]}`` mapping, or an
        ``(indices, values)`` pair.  A one-example request through the
        request parser, so it raises the same structured, non-retriable
        :class:`~repro.utils.errors.DataFormatError` for anything
        malformed.
        """
        block = self._parse_examples([example])
        return block.indices, block.data

    def _parse_examples(self, examples: Sequence[Any]) -> _Block:
        """One request as one CSR block, row *i* holding example *i*.

        Every check runs once over whole arrays.  An entry's key is
        ``row * n_features + index``: keys must rise strictly through
        the block, so one sort by key repairs unsorted rows (and the
        interleaving of sparse and dense examples), after which equal
        neighbours are duplicate indices.  Errors name the position of
        the first malformed example found.
        """
        if not isinstance(examples, (list, tuple)) or not examples:
            raise DataFormatError("a score request carries a non-empty example list")
        n, d = len(examples), self.n_features
        sparse_at: list[int] = []
        idx_parts: list[Any] = []
        val_parts: list[Any] = []
        dense_at: list[int] = []
        dense_parts: list[Any] = []
        for at, example in enumerate(examples):
            if isinstance(example, dict):
                if "indices" not in example or "values" not in example:
                    raise DataFormatError(
                        f"example {at}: sparse example must carry 'indices' "
                        "and 'values'"
                    )
                idx, val = example["indices"], example["values"]
            elif (
                isinstance(example, (tuple, list))
                and len(example) == 2
                and not np.isscalar(example[0])
            ):
                idx, val = example
            else:
                dense_at.append(at)
                dense_parts.append(example)
                continue
            if not (isinstance(idx, _SEQUENCES) and isinstance(val, _SEQUENCES)):
                raise DataFormatError(
                    f"example {at}: indices and values must be lists or 1-D arrays"
                )
            sparse_at.append(at)
            idx_parts.append(idx)
            val_parts.append(val)

        keys: list[np.ndarray] = []
        values: list[np.ndarray] = []
        if sparse_at:
            try:
                lengths = list(map(len, idx_parts))
                if lengths != list(map(len, val_parts)):
                    raise ValueError("indices/values length mismatch")
                total = sum(lengths)
                idx = np.fromiter(chain.from_iterable(idx_parts), np.int64, total)
                val = np.fromiter(chain.from_iterable(val_parts), np.float64, total)
            except _UNPARSABLE:
                raise _sparse_error(sparse_at, idx_parts, val_parts) from None
            rows = np.asarray(sparse_at).repeat(lengths)
            outside = (idx < 0) | (idx >= d)
            if np.count_nonzero(outside):
                k = outside.argmax()
                raise DataFormatError(
                    f"example {rows[k]}: feature index {idx[k]} out of range [0, {d})"
                )
            keys.append(rows * d + idx)
            values.append(val)
        if dense_at:
            try:
                dense = np.asarray(dense_parts, dtype=np.float64)
            except _UNPARSABLE:
                dense = None
            if dense is None or dense.shape != (len(dense_parts), d):
                raise _dense_error(dense_at, dense_parts, d)
            flat = dense.ravel()
            nonzero = flat.nonzero()[0]
            values.append(flat[nonzero])
            if sparse_at:  # re-key the dense rows by their example positions
                rows, cols = np.divmod(nonzero, d)
                nonzero = np.asarray(dense_at)[rows] * d + cols
            keys.append(nonzero)
        key = keys[0] if len(keys) == 1 else np.concatenate(keys)
        data = values[0] if len(values) == 1 else np.concatenate(values)

        finite = np.isfinite(data)
        if np.count_nonzero(finite) < finite.size:
            raise DataFormatError(
                f"example {key[finite.argmin()] // d}: feature values must be finite"
            )
        # Dense keys rise by construction; sparse ones may be out of order.
        if sparse_at and np.count_nonzero(key[1:] <= key[:-1]):
            order = key.argsort()
            key, data = key[order], data[order]
            same = np.flatnonzero(key[1:] == key[:-1])
            if same.size:
                row, col = divmod(int(key[same[0]]), d)
                raise DataFormatError(f"example {row}: duplicate feature index {col}")
        indptr = key.searchsorted(np.arange(0, (n + 1) * d, d))
        return _Block(n, indptr, (key % d).astype(np.int32), data)

    # -- scoring -----------------------------------------------------------

    def _stack(self, blocks: list[_Block]) -> CSRMatrix:
        """One CSR matrix over a batch's blocks, rows in request order."""
        if len(blocks) == 1:
            n, indptr, indices, data = blocks[0]
            return CSRMatrix(indptr, indices, data, (n, self.n_features), check=False)
        offsets = [np.zeros(1, dtype=np.int64)]
        base = 0
        for block in blocks:
            offsets.append(block.indptr[1:] + base)
            base += block.indptr[-1]
        return CSRMatrix(
            np.concatenate(offsets),
            np.concatenate([block.indices for block in blocks]),
            np.concatenate([block.data for block in blocks]),
            (sum(block.n for block in blocks), self.n_features),
            check=False,
        )

    def _score_block(self, X: CSRMatrix, model: ServedModel) -> list[ExampleScore]:
        """Score every row of *X* (a batch's blocks) with one margin kernel:
        the segment-reduce, whose per-row sums, unlike a dense GEMV's last
        bit, do not depend on which requests share the batch."""
        margins = X.matvec(model.params)
        labels = np.where(margins >= 0.0, 1, -1).tolist()
        if self.task != "lr":
            return list(map(ExampleScore, margins.tolist(), labels))
        probs = stable_sigmoid(margins).tolist()
        return list(map(ExampleScore, margins.tolist(), labels, probs))

    def score(self, examples: Sequence[Any]) -> ScoreResponse:
        """Score *examples* synchronously (one kernel call, no queue)."""
        block = self._parse_examples(examples)
        model = self.require_model()
        results = self._score_block(self._stack([block]), model)
        self._note_batch([block.n], block.n, 1)
        self._note_request(latency_ms=0.0)
        return ScoreResponse(
            results=tuple(results),
            model_version=model.version,
            model_source=model.source,
            model_epoch=model.epoch,
        )

    # -- micro-batched path ------------------------------------------------

    def prepare(self, examples: Sequence[Any]) -> _PendingRequest:
        """Parse one request for :meth:`answer`; malformed input fails here."""
        pending = _PendingRequest(self._parse_examples(examples))
        if not self._running:
            raise ConfigurationError(
                "micro-batched scoring needs a started engine; call "
                "start() or use the engine as a context manager"
            )
        return pending

    def answer(self, requests: list[_PendingRequest]) -> None:
        """Score prepared requests as micro-batches, in order.

        Requests are taken whole, oldest first, while their examples fit
        in ``max_batch``; a first request larger than the cap is scored
        alone.  Each batch is one kernel call under the one model it
        pinned, and sets every request's ``response`` or ``error``.
        """
        with self._stats_lock:
            self._queue_peak = max(self._queue_peak, len(requests))
        batch, n_rows = [], 0
        for pending in requests:
            if batch and n_rows + pending.block.n > self.max_batch:
                self._answer_batch(batch)
                batch, n_rows = [], 0
            batch.append(pending)
            n_rows += pending.block.n
        if batch:
            self._answer_batch(batch)

    def request(self, examples: Sequence[Any]) -> ScoreResponse:
        """Score one request through the served path; raises the structured
        error it was answered with (:class:`SnapshotUnavailableError` on a
        cold start), or :class:`ConfigurationError` before ``start()``."""
        pending = self.prepare(examples)
        self.answer([pending])
        if pending.error is not None:
            raise pending.error
        assert pending.response is not None
        return pending.response

    def _answer_batch(self, batch: list[_PendingRequest]) -> None:
        try:
            model = self.require_model()
        except SnapshotUnavailableError as err:
            for p in batch:
                p.error = err
            self._note_retriable(len(batch))
            return
        try:
            X = self._stack([p.block for p in batch])
            scores = self._score_block(X, model)
        except Exception as err:  # defensive: a bad batch fails its own
            for p in batch:  # requests, not the loop that scores them
                p.error = err
                self.note_client_error()
            return
        self._note_batch([X.n_rows], X.n_rows, 1)
        t_done = time.perf_counter()
        offset = 0
        for p in batch:
            take = scores[offset : offset + p.block.n]
            offset += p.block.n
            latency_ms = (t_done - p.t_parsed) * 1e3
            p.response = ScoreResponse(
                results=tuple(take),
                model_version=model.version,
                model_source=model.source,
                model_epoch=model.epoch,
                latency_ms=latency_ms,
            )
            self._note_request(latency_ms=latency_ms)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ScoringEngine":
        """Open the served path (and start the refresher, when present)."""
        if self._running:
            return self
        self._running = True
        if self.refresher is not None:
            self.refresher.start()
        return self

    def stop(self) -> None:
        """Stop the refresher; later requests fail with ConfigurationError."""
        if self.refresher is not None:
            self.refresher.stop()
        self._running = False

    def __enter__(self) -> "ScoringEngine":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- accounting --------------------------------------------------------

    def _note_batch(self, sizes: list[int], examples: int, batches: int) -> None:
        with self._stats_lock:
            self._examples += examples
            self._batches += batches
            for size in sizes:
                self._batch_sizes.append(size)
                bucket = keys.serve_batch_bucket(size)
                self._batch_histogram[bucket] = (
                    self._batch_histogram.get(bucket, 0) + 1
                )
        self._tel.count(keys.SERVE_EXAMPLES, examples)
        self._tel.count(keys.SERVE_BATCHES, batches)
        for size in sizes:
            self._tel.count(keys.serve_batch_bucket(size))

    def _note_request(self, latency_ms: float) -> None:
        now = time.perf_counter()
        with self._stats_lock:
            self._requests += 1
            self._latencies_ms.append(latency_ms)
            if self._t_first is None:
                self._t_first = now
            self._t_last = now
        self._tel.count(keys.SERVE_REQUESTS)

    def _note_retriable(self, n: int) -> None:
        with self._stats_lock:
            self._retriable_errors += n
            self._requests += n
        self._tel.count(keys.SERVE_REQUESTS, n)
        self._tel.count(keys.SERVE_RETRIABLE_ERRORS, n)

    def note_client_error(self) -> None:
        """Service callback: a request failed (malformed, or a server fault)."""
        with self._stats_lock:
            self._errors += 1
            self._requests += 1
        self._tel.count(keys.SERVE_REQUESTS)
        self._tel.count(keys.SERVE_ERRORS)

    def stats(self) -> EngineStats:
        """Point-in-time statistics; also refreshes the ``serve.*`` gauges."""
        model = self._active
        with self._stats_lock:
            lat = np.asarray(self._latencies_ms, dtype=np.float64)
            sizes = np.asarray(self._batch_sizes, dtype=np.float64)
            span = (
                (self._t_last - self._t_first)
                if self._t_first is not None
                and self._t_last is not None
                and self._t_last > self._t_first
                else 0.0
            )
            rps = (self._requests / span) if span > 0 else 0.0
            snapshot = EngineStats(
                requests=self._requests,
                examples=self._examples,
                batches=self._batches,
                errors=self._errors,
                retriable_errors=self._retriable_errors,
                hot_swaps=self._hot_swaps,
                source_errors=self._source_errors,
                requests_per_second=rps,
                latency_p50_ms=float(np.percentile(lat, 50)) if lat.size else 0.0,
                latency_p99_ms=float(np.percentile(lat, 99)) if lat.size else 0.0,
                queue_depth_peak=self._queue_peak,
                batch_size_mean=float(sizes.mean()) if sizes.size else 0.0,
                batch_size_histogram=dict(self._batch_histogram),
                model_version=model.version if model is not None else None,
                model_source=model.source if model is not None else None,
                model_epoch=model.epoch if model is not None else None,
                snapshot_age_seconds=(
                    model.age_seconds if model is not None else None
                ),
            )
        self._tel.set_gauge(keys.SERVE_REQUESTS_PER_SECOND, snapshot.requests_per_second)
        self._tel.set_gauge(keys.SERVE_LATENCY_P50_MS, snapshot.latency_p50_ms)
        self._tel.set_gauge(keys.SERVE_LATENCY_P99_MS, snapshot.latency_p99_ms)
        self._tel.set_gauge(keys.SERVE_QUEUE_DEPTH_PEAK, float(snapshot.queue_depth_peak))
        self._tel.set_gauge(keys.SERVE_BATCH_SIZE_MEAN, snapshot.batch_size_mean)
        if snapshot.model_version is not None:
            self._tel.set_gauge(
                keys.SERVE_SNAPSHOT_VERSION, float(snapshot.model_version)
            )
        if snapshot.snapshot_age_seconds is not None:
            self._tel.set_gauge(
                keys.SERVE_SNAPSHOT_AGE_SECONDS, snapshot.snapshot_age_seconds
            )
        return snapshot


def _sparse_error(
    at: list[int], idx_parts: list[Any], val_parts: list[Any]
) -> DataFormatError:
    """The error for the first sparse example that does not convert alone."""
    for pos, idx, val in zip(at, idx_parts, val_parts):
        try:
            if len(idx) != len(val):
                return DataFormatError(
                    f"example {pos}: indices/values must be equal-length, "
                    f"got {len(idx)} vs {len(val)}"
                )
            np.fromiter(idx, np.int64, len(idx))
            np.fromiter(val, np.float64, len(val))
        except _UNPARSABLE as exc:
            return DataFormatError(f"example {pos}: unparsable sparse example: {exc}")
    return DataFormatError("unparsable sparse examples")


def _dense_error(at: list[int], parts: list[Any], n_features: int) -> DataFormatError:
    """The error for the first dense example that is not a flat vector."""
    for pos, part in zip(at, parts):
        try:
            shape = np.asarray(part, dtype=np.float64).shape
        except _UNPARSABLE as exc:
            return DataFormatError(f"example {pos}: unparsable dense example: {exc}")
        if shape != (n_features,):
            return DataFormatError(
                f"example {pos}: dense example must be a flat vector of "
                f"{n_features} features, got shape {shape}"
            )
    return DataFormatError("unparsable dense examples")


# ---------------------------------------------------------------------------
# snapshot sources + the hot-swap refresher


class SnapshotSource:
    """Refresher source over a live shm run's :class:`ShmTrainHandle`."""

    def __init__(self, handle: ShmTrainHandle) -> None:
        self.handle = handle
        self._last_version = 0

    @property
    def task(self) -> str | None:
        return self.handle.meta.get("task")

    def poll(self) -> ServedModel | None:
        """The newest snapshot, or ``None`` when nothing newer exists.

        Raises :class:`SnapshotUnavailableError` on a cold start — the
        refresher treats that as "not yet", not as a failure.
        """
        if self.handle.version == self._last_version:
            return None  # cheap pre-check: no new publish since last poll
        snap = self.handle.snapshot()
        if snap.version == self._last_version:
            return None
        self._last_version = snap.version
        return ServedModel.from_snapshot(snap)

    def close(self) -> None:
        self.handle.close()


class ArtifactSource:
    """Refresher source over a model-artifact JSON file on disk.

    Reloads whenever the file's mtime changes; each reload installs as
    the next version, so rewriting the artifact (e.g. after a fresh
    training run) hot-swaps the served model.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._mtime_ns: int | None = None
        self._version = 0
        self.task: str | None = None

    def poll(self) -> ServedModel | None:
        try:
            stat = self.path.stat()
        except FileNotFoundError:
            raise SnapshotUnavailableError(
                f"model artifact {self.path} does not exist",
                reason="no-artifact",
            ) from None
        if self._mtime_ns is not None and stat.st_mtime_ns == self._mtime_ns:
            return None
        # Import here: serialize -> runner -> (lazily) serving.
        from ..sgd.serialize import load_results

        results = load_results(self.path)
        if not results:
            raise ConfigurationError(f"{self.path} holds no results")
        result = results[0]
        if result.params is None:
            raise ConfigurationError(
                f"{self.path} was serialised without parameters; re-export "
                "with result_to_dict(include_params=True) / --model-out"
            )
        if result.task not in SERVABLE_TASKS:
            raise ConfigurationError(
                f"artifact task {result.task!r} is not servable "
                f"(supported: {SERVABLE_TASKS})"
            )
        self._mtime_ns = stat.st_mtime_ns
        self._version += 1
        self.task = result.task
        return ServedModel(
            params=np.asarray(result.params, dtype=np.float64),
            version=self._version,
            source="artifact",
            epoch=None,
            loss=result.curve.final_loss,
            published_unix=stat.st_mtime_ns / 1e9,
        )

    def close(self) -> None:
        pass


class SnapshotRefresher:
    """Background hot-swapper: polls a source, installs newer versions.

    Source failures never crash serving: a cold start is silently
    retried, and a harder failure (segment vanished because the trainer
    died, unreadable artifact) is counted as ``serve.source_errors``
    while the engine keeps answering from the last installed model —
    the graceful-degradation half of the hot-swap contract.
    """

    def __init__(self, source: Any, interval: float = 0.05) -> None:
        if interval <= 0:
            raise ConfigurationError(f"interval must be positive, got {interval}")
        self.source = source
        self.interval = float(interval)
        self.last_error: Exception | None = None
        self._engine: ScoringEngine | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: Successful hot-swap installs performed by this refresher.
        self.installs = 0

    def bind(self, engine: ScoringEngine) -> None:
        self._engine = engine

    def poll_once(self) -> bool:
        """One poll + install attempt; returns True when a swap happened."""
        assert self._engine is not None, "refresher used before bind()"
        try:
            model = self.source.poll()
        except SnapshotUnavailableError as err:
            # Cold start ("nothing published yet") is expected; losing a
            # previously working source is a degradation worth counting.
            self.last_error = err
            if self._engine.active is not None or err.reason not in (
                "cold-start",
                None,
            ):
                self._engine.note_source_error()
            return False
        except Exception as err:  # noqa: BLE001 - keep serving, count it
            self.last_error = err
            self._engine.note_source_error()
            return False
        if model is None:
            return False
        if self._engine.install(model):
            self.last_error = None
            self.installs += 1
            return True
        return False

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.poll_once()

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="serve-refresher", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        close = getattr(self.source, "close", None)
        if close is not None:
            close()
