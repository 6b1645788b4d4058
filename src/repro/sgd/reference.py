"""Reference (optimal) losses for the convergence protocol.

The paper obtains the optimal loss "by running all configurations for a
full day and choosing the lowest" (Section IV-A) — i.e. the reference
is the best loss its own SGD family can reach with a generous budget,
*not* the mathematical infimum.  That distinction matters: on
high-dimensional near-separable data the infimum can be (near) zero and
no constant-step configuration would ever get "within 1%" of it.

We reproduce the protocol with a bounded budget: the reference for a
(model, dataset) pair is the best loss observed across

1. serial incremental SGD (Algorithm 3) at several constant steps —
   the asynchronous family's sequential anchor;
2. full-batch gradient descent (Algorithm 2) at several constant
   steps — the synchronous family's anchor;
3. a decaying-step (1/sqrt t) serial polish continued from the best
   constant-step iterate — standing in for the long tail of a full-day
   run.

The constant-step members are independent tasks for the worker pool
(:mod:`repro.utils.pool`): the live warm pool, else a transient pool of
one worker per usable CPU; inline in a daemon or on one CPU.  Their
trajectories are *folded in serial program order*, so the result is
bit-identical wherever the members ran.

Results are cached in-process and optionally on disk (set
``REPRO_CACHE_DIR``); the experiment harness reruns the same keys
constantly.  Disk writes are atomic (temp file + ``os.replace``) and
merge-on-write, so concurrent grid workers cannot lose each other's
entries.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import tempfile
from pathlib import Path

import numpy as np

from ..asyncsim import AsyncSchedule
from ..asyncsim.engine import run_async_epoch
from ..datasets.synthetic import Dataset
from ..models import make_model
from ..models.base import Matrix, Model
from ..models.mlp import MLP
from ..utils.errors import DivergenceError
from ..utils.pool import Pool
from ..utils.rng import DEFAULT_SEED, derive_rng

__all__ = [
    "reference_loss",
    "reference_problem",
    "clear_reference_cache",
    "cached_reference",
    "seed_reference_cache",
]

_CACHE: dict[str, float] = {}

#: Constant steps probed by the incremental-SGD family.
_SGD_STEPS = (0.3, 1.0, 3.0)
#: Constant steps probed by the batch-GD family (its mean gradients are
#: ~N times smaller per update, hence the larger values).
_BGD_STEPS = (10.0, 100.0, 1000.0)
_SGD_EPOCHS = 150
_BGD_EPOCHS = 800
_POLISH_EPOCHS = 80

#: Epochs of non-improving loss before a batch-GD member may consider
#: the plateau exit (shared by the member's local bound and the fold).
_BGD_STALE_LIMIT = 50


def _disk_cache_path() -> Path | None:
    root = os.environ.get("REPRO_CACHE_DIR")
    if root is None:
        return None
    return Path(root) / "reference_losses.json"


def _load_disk_cache() -> dict[str, float]:
    path = _disk_cache_path()
    if path is None or not path.exists():
        return {}
    try:
        return {str(k): float(v) for k, v in json.loads(path.read_text()).items()}
    except (ValueError, OSError):
        return {}


def _store_disk_cache(entries: dict[str, float]) -> None:
    """Merge *entries* into the on-disk cache, atomically.

    Concurrent writers (experiment-grid workers solving different keys)
    each re-read the current file, merge their own entries on top and
    publish with ``os.replace`` — a crashed writer leaves the previous
    file intact, and two racing writers can only ever publish a merged
    superset of their own entries, never a truncated or interleaved
    file.  (A writer may still miss an entry committed between its read
    and its replace; the loser's key is simply recomputed or re-merged
    on its next write, which is acceptable for a cache of deterministic
    values.)
    """
    path = _disk_cache_path()
    if path is None or not entries:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    merged = _load_disk_cache()
    merged.update(entries)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(merged, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def reference_problem(
    task: str, name: str, ds: Dataset, seed: int | None
) -> tuple[Model, np.ndarray, str]:
    """The model, shared initial parameters and reference key of a run.

    Every configuration of a (task, dataset, seed) starts from the same
    initial model and is measured against the same optimum; the runner
    and the grid executor's pre-solve both derive them here.
    """
    model = make_model(task, ds)
    init = model.init_params(derive_rng(seed, f"init/{task}/{name}"))
    # `seed if ... else`, not `seed or`: seed=0 is a real seed and
    # must not collide with the default seed's cached optimum.
    ref_seed = seed if seed is not None else DEFAULT_SEED
    key = f"{task}/{name}/{ds.n_examples}x{ds.n_features}/seed{ref_seed}"
    return model, init, key


def clear_reference_cache() -> None:
    """Drop the in-process reference-loss cache (tests)."""
    _CACHE.clear()


def cached_reference(key: str) -> float | None:
    """The cached optimum for *key*, or None if never solved.

    Checks the in-process cache, then the on-disk cache; never runs the
    solver.  The grid executor uses this to dedupe reference solves
    across cells before fanning work out to workers.
    """
    if key in _CACHE:
        return _CACHE[key]
    disk = _load_disk_cache()
    if key in disk:
        _CACHE[key] = disk[key]
        return disk[key]
    return None


def seed_reference_cache(entries: dict[str, float]) -> None:
    """Pre-populate the in-process cache (grid workers, resumed runs)."""
    _CACHE.update(entries)


def reference_loss(
    model: Model,
    X: Matrix,
    y: np.ndarray,
    init_params: np.ndarray,
    key: str | None = None,
) -> float:
    """Best loss achieved by the budgeted configuration sweep.

    The members run on a worker pool where this process can fork; a
    worker that dies mid-member raises :class:`~repro.utils.errors.WorkerError`.

    Parameters
    ----------
    key:
        Cache key (e.g. ``"lr/w8a/3000x300/seed0"``); ``None`` bypasses
        caching.
    """
    cached = cached_reference(key) if key is not None else None
    if cached is not None:
        return cached
    value = _protocol_reference(model, X, y, init_params)
    if key is not None:
        _CACHE[key] = value
        _store_disk_cache({key: value})
    return value


# --- constant-step family members ------------------------------------------
#
# Each member is a self-contained deterministic run (its RNG stream and
# its control flow depend only on its own arguments), which is what
# makes the sweep safe to fan out over processes.  The only coupling in
# the original serial protocol is the batch-GD plateau exit, which
# compared against the *global* best-so-far; `_fold_members` replays
# exactly that serial reduction over the recorded trajectories, so the
# final (best, best_w) is bit-identical to the historical interleaved
# loop wherever the members ran.


def _reference_schedule(model: Model) -> AsyncSchedule:
    batch = 1 if not isinstance(model, MLP) else 256
    return AsyncSchedule(concurrency=1, batch_size=batch)


def _sgd_member(
    model: Model, X: Matrix, y: np.ndarray, w0: np.ndarray, step: float
) -> tuple[float, np.ndarray | None]:
    """One constant-step serial SGD run: (own best loss, iterate at it).

    The returned iterate is the one at the *first* attainment of the
    run's minimum (strict-< improvements only), matching what the
    serial protocol would have kept had this run's minimum become the
    global best.
    """
    schedule = _reference_schedule(model)
    w = np.array(w0, copy=True)
    rng = derive_rng(0, f"reference/sgd/{step}")
    best = math.inf
    best_w: np.ndarray | None = None
    for _epoch in range(_SGD_EPOCHS):
        try:
            run_async_epoch(model, X, y, w, step, schedule, rng)
        except DivergenceError:
            break
        loss = model.loss(X, y, w)
        if not math.isfinite(loss):
            break
        if loss < best:
            best, best_w = loss, w.copy()
    return best, best_w


def _bgd_member(
    model: Model, X: Matrix, y: np.ndarray, w0: np.ndarray, step: float
) -> tuple[list[float], int, np.ndarray | None]:
    """One constant-step batch-GD run: (losses, own-min epoch, iterate).

    The member applies the plateau exit against its *own* running best
    — a strictly weaker condition than the serial protocol's
    global-best exit (its own best is never below the global best), so
    the recorded trajectory always covers the prefix the serial
    protocol would have observed; `_fold_members` re-applies the exact
    global condition over these losses.
    """
    w = np.array(w0, copy=True)
    losses: list[float] = []
    best = math.inf
    best_w: np.ndarray | None = None
    best_epoch = -1
    stale = 0
    prev = math.inf
    # The loss at each iterate and the next epoch's gradient share one
    # forward pass; the last epoch needs only the loss.
    grad = model.full_grad(X, y, w)
    for epoch in range(_BGD_EPOCHS):
        w -= step * grad
        if not np.all(np.isfinite(w)):
            break
        if epoch + 1 < _BGD_EPOCHS:
            loss, grad = model.loss_and_grad(X, y, w)
        else:
            loss = model.loss(X, y, w)
        if not math.isfinite(loss):
            break
        losses.append(loss)
        if loss < best:
            best, best_w, best_epoch = loss, w.copy(), epoch
        # Early exit when the run has plateaued well above the best.
        stale = stale + 1 if loss >= prev - 1e-12 else 0
        if stale > _BGD_STALE_LIMIT and loss > best * 1.5 + 1e-9:
            break
        prev = loss
    return losses, best_epoch, best_w


def _bgd_iterate_at(
    model: Model, X: Matrix, y: np.ndarray, w0: np.ndarray, step: float, epoch: int
) -> np.ndarray:
    """Deterministically recompute a batch-GD member's iterate at *epoch*."""
    w = np.array(w0, copy=True)
    for _ in range(epoch + 1):
        w -= step * model.full_grad(X, y, w)
    return w


def _pool_task(member_args, _heartbeat):
    """A member as a pool task: called exactly as the inline loop calls it."""
    member, *args = member_args
    return member(*args)


def _run_members(model, X, y, w0):
    """Compute all constant-step members: inline in a daemon (it cannot
    fork) or at width 1, else on the live pool or on a transient one."""
    live = Pool.live
    pool = live or Pool(min(len(_SGD_STEPS) + len(_BGD_STEPS), _usable_cpus()))
    if multiprocessing.current_process().daemon or pool.jobs == 1:
        return (
            [_sgd_member(model, X, y, w0, step) for step in _SGD_STEPS],
            [_bgd_member(model, X, y, w0, step) for step in _BGD_STEPS],
        )
    tasks = [(_pool_task, (_sgd_member, model, X, y, w0, s)) for s in _SGD_STEPS]
    tasks += [(_pool_task, (_bgd_member, model, X, y, w0, s)) for s in _BGD_STEPS]
    try:
        replies = pool.map(tasks)
    finally:
        if pool is not live:
            pool.close()
    return replies[: len(_SGD_STEPS)], replies[len(_SGD_STEPS) :]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fold_members(
    initial_loss: float,
    sgd_results: list[tuple[float, np.ndarray | None]],
    bgd_results: list[tuple[list[float], int, np.ndarray | None]],
) -> tuple[float, tuple | None]:
    """Reduce member trajectories in the serial program order.

    Returns ``(best, winner)`` where *winner* identifies which member
    (and, for batch GD, which epoch) produced the global best —
    ``None`` when no member improved on the initial loss.  The batch-GD
    walk re-applies the historical plateau exit against the evolving
    global best, truncating each trajectory exactly where the serial
    interleaved loop would have stopped observing it.
    """
    best = initial_loss
    winner: tuple | None = None
    for i, (member_best, _w) in enumerate(sgd_results):
        if member_best < best:
            best = member_best
            winner = ("sgd", i)
    for i, (losses, _own_epoch, _w) in enumerate(bgd_results):
        stale = 0
        prev = math.inf
        for epoch, loss in enumerate(losses):
            if loss < best:
                best = loss
                winner = ("bgd", i, epoch)
            stale = stale + 1 if loss >= prev - 1e-12 else 0
            if stale > _BGD_STALE_LIMIT and loss > best * 1.5 + 1e-9:
                break
            prev = loss
    return best, winner


def _protocol_reference(
    model: Model, X: Matrix, y: np.ndarray, w0: np.ndarray
) -> float:
    best = model.loss(X, y, w0)

    # Families 1 and 2: independent constant-step members, reduced in
    # serial order.
    sgd_results, bgd_results = _run_members(model, X, y, w0)
    best, winner = _fold_members(best, sgd_results, bgd_results)

    if winner is None:
        best_w = np.array(w0, copy=True)
    elif winner[0] == "sgd":
        member_w = sgd_results[winner[1]][1]
        assert member_w is not None
        best_w = member_w
    else:
        _losses, own_epoch, own_w = bgd_results[winner[1]]
        if winner[2] == own_epoch and own_w is not None:
            best_w = own_w
        else:
            # The global best lands before the member's own minimum
            # (the serial protocol stopped observing this run earlier);
            # recompute that iterate deterministically.
            best_w = _bgd_iterate_at(
                model, X, y, w0, _BGD_STEPS[winner[1]], winner[2]
            )

    # Family 3: decaying-step polish from the best iterate found.
    schedule = _reference_schedule(model)
    w = best_w
    rng = derive_rng(0, "reference/polish")
    for t in range(1, _POLISH_EPOCHS + 1):
        try:
            run_async_epoch(model, X, y, w, 1.0 / math.sqrt(t + 3), schedule, rng)
        except DivergenceError:
            break
        loss = model.loss(X, y, w)
        if not math.isfinite(loss):
            break
        best = min(best, loss)
    return float(best)
