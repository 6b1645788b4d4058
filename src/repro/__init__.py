"""repro — reproduction of "Stochastic Gradient Descent on Modern
Hardware: Multi-core CPU or GPU? Synchronous or Asynchronous?"
(Yujing Ma, Florin Rusu, Martin Torres — IPDPS 2019).

The library implements the paper's full experimental apparatus:

* the three training tasks (logistic regression, linear SVM,
  fully-connected MLP) over dense and CSR-sparse data
  (:mod:`repro.models`, :mod:`repro.linalg`);
* synchronous (batch) and asynchronous (Hogwild / Hogbatch) parallel
  SGD, with asynchrony simulated by a deterministic stale-read
  interleaving engine (:mod:`repro.sgd`, :mod:`repro.asyncsim`);
* analytical performance models of the paper's two machines — a
  dual-socket NUMA Xeon and an NVIDIA Tesla K80 — that turn recorded
  kernel traces / per-step workload statistics into per-epoch times
  (:mod:`repro.hardware`);
* synthetic datasets matched to Table I's statistics plus a LIBSVM
  reader for the real files (:mod:`repro.datasets`);
* TensorFlow- and BIDMach-like baseline executors
  (:mod:`repro.frameworks`);
* drivers regenerating every table and figure of the evaluation
  (:mod:`repro.experiments`);
* a train-and-serve path — seqlock-consistent parameter snapshots of a
  live shared-memory run and a micro-batched, hot-swapping scoring
  service (:mod:`repro.serving`);
* an observability layer — nested spans, counters, Chrome-trace export
  and reproducible run manifests (:mod:`repro.telemetry`).

Quickstart::

    import repro

    result = repro.train("lr", "w8a", architecture="cpu-par",
                         strategy="asynchronous", scale="small")
    print(result.epochs_to(0.01), result.time_to(0.01))

See README.md, DESIGN.md and EXPERIMENTS.md for the full story.
"""

import os

# One BLAS thread in every process that computes here (fork workers
# inherit it): a threaded GEMM reduces in a different order, which moves
# MLP results.  Forced, not defaulted — determinism is the anchor — and
# set before the first NumPy import, the only time BLAS reads it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
del _var

from . import (
    asyncsim,
    datasets,
    experiments,
    faults,
    frameworks,
    hardware,
    linalg,
    models,
    parallel,
    serving,
    sgd,
    telemetry,
    utils,
)
from .experiments import grid_search
from .faults import FaultPlan, FaultSpec, RecoveryPolicy
from .datasets import DATASET_NAMES, Dataset, load, load_mlp, read_libsvm
from .hardware import TESLA_K80, XEON_E5_2660V4_DUAL, CpuModel, GpuModel
from .models import MLP, LinearSVM, LogisticRegression, make_model
from .serving import ScoringEngine, ShmTrainHandle, SnapshotPublisher
from .sgd import (
    ARCHITECTURES,
    STRATEGIES,
    SGDConfig,
    TOLERANCES,
    TrainResult,
    train,
)
from .telemetry import (
    NullTelemetry,
    RunManifest,
    Telemetry,
    build_manifest,
    load_manifest,
    write_chrome_trace,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "train",
    "grid_search",
    "TrainResult",
    "SGDConfig",
    "TOLERANCES",
    "ARCHITECTURES",
    "STRATEGIES",
    "load",
    "load_mlp",
    "read_libsvm",
    "Dataset",
    "DATASET_NAMES",
    "make_model",
    "LogisticRegression",
    "LinearSVM",
    "MLP",
    "CpuModel",
    "GpuModel",
    "XEON_E5_2660V4_DUAL",
    "TESLA_K80",
    "FaultPlan",
    "FaultSpec",
    "RecoveryPolicy",
    "ScoringEngine",
    "SnapshotPublisher",
    "ShmTrainHandle",
    "Telemetry",
    "NullTelemetry",
    "RunManifest",
    "build_manifest",
    "load_manifest",
    "write_chrome_trace",
    "linalg",
    "datasets",
    "models",
    "hardware",
    "asyncsim",
    "parallel",
    "faults",
    "serving",
    "sgd",
    "telemetry",
    "frameworks",
    "experiments",
    "utils",
]
