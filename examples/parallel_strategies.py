"""Four ways to parallelise SGD: Hogwild, Cyclades, averaging, for real.

The paper's related work (Section V) maps the design space around
Hogwild; this example runs the alternatives side by side on one sparse
dataset, all through this library:

* **Hogwild** (simulated, 56 threads) — lock-free shared model, stale
  reads [27];
* **Cyclades** (conflict-free scheduling) — graph-partitioned batches,
  serially-equivalent updates [39];
* **model averaging** — independent replicas, periodic averaging [42];
* **real Hogwild** — actual lock-free processes over shared memory
  (non-deterministic; the genuine article).

Run:  python examples/parallel_strategies.py
"""

from __future__ import annotations

# Allow running straight from a source checkout: put the repo's src/
# tree on sys.path when the package is not installed.
import pathlib
import sys

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import time

from repro.asyncsim import (
    AsyncSchedule,
    CycladesSchedule,
    run_async_epoch,
    run_cyclades_epoch,
)
from repro.datasets import load
from repro.models import make_model
from repro.parallel import ShmSchedule, train_shm
from repro.sgd import SGDConfig
from repro.sgd.averaging import AveragingSchedule, train_model_averaging
from repro.utils import derive_rng, render_table

EPOCHS = 12
STEP = 1.0


def main() -> None:
    ds = load("w8a", "small")
    model = make_model("lr", ds)
    init = model.init_params(derive_rng(0, "strategies"))
    rows = []

    # Hogwild (simulated at 56-thread concurrency)
    w = init.copy()
    rng = derive_rng(0, "hogwild")
    t0 = time.perf_counter()
    for _ in range(EPOCHS):
        run_async_epoch(model, ds.X, ds.y, w, STEP, AsyncSchedule(concurrency=56), rng)
    rows.append(["hogwild (simulated, C=56)", model.loss(ds.X, ds.y, w),
                 time.perf_counter() - t0])

    # Cyclades: conflict-free groups, serially equivalent
    w = init.copy()
    rng = derive_rng(0, "cyclades")
    t0 = time.perf_counter()
    eff = 0.0
    for _ in range(EPOCHS):
        eff = run_cyclades_epoch(
            model, ds.X, ds.y, w, STEP, CycladesSchedule(batch_size=256, workers=56), rng
        )
    rows.append([f"cyclades (parallel eff {eff:.2f})", model.loss(ds.X, ds.y, w),
                 time.perf_counter() - t0])

    # Model averaging, 8 replicas
    t0 = time.perf_counter()
    avg = train_model_averaging(
        model, ds.X, ds.y, init,
        SGDConfig(step_size=STEP, max_epochs=EPOCHS),
        AveragingSchedule(workers=8),
    )
    rows.append(["model averaging (8 replicas)", avg.curve.final_loss,
                 time.perf_counter() - t0])

    # Real lock-free Hogwild over shared memory
    real = train_shm(
        model, ds.X, ds.y, init,
        SGDConfig(step_size=STEP, max_epochs=EPOCHS),
        ShmSchedule(workers=4),
    )
    rows.append(["hogwild (REAL, 4 processes)", real.curve.final_loss,
                 real.wall_seconds_total])

    print(f"LR on w8a-small, {EPOCHS} epochs at step {STEP}; "
          f"initial loss {model.loss(ds.X, ds.y, init):.4f}\n")
    print(render_table(
        ["strategy", "final loss", "wall time (s)"], rows,
        title="Parallelisation strategies compared", precision=4,
    ))
    print("\nReading guide: Cyclades matches serial statistical efficiency by")
    print("construction, but note its parallel efficiency on w8a: the hot")
    print("features weld each batch into one giant conflict component, so")
    print("conflict-free scheduling only pays on genuinely low-overlap data.")
    print("Hogwild's stale reads cost a little loss; averaging trades more")
    print("statistical efficiency for zero write sharing. The real-process")
    print("run is the same algorithm as the simulated Hogwild, with genuine")
    print("races instead of a deterministic schedule.")


if __name__ == "__main__":
    main()
