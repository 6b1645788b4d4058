"""SGD core: synchronous/asynchronous runners, convergence, configuration."""

from .asynchronous import AsyncResult, train_asynchronous
from .config import (
    ARCHITECTURES,
    BACKENDS,
    DEFAULT_STEP_SIZES,
    STEP_GRID,
    STRATEGIES,
    TOLERANCES,
    RunConfig,
    SGDConfig,
    default_step_size,
)
from .convergence import LossCurve, tolerance_threshold
from .reference import clear_reference_cache, reference_loss
from .serialize import load_results, result_from_dict, result_to_dict, save_results
from .runner import (
    TrainResult,
    full_scale_factor,
    run,
    train,
    working_set_bytes,
)
from .synchronous import SyncResult, train_minibatch_synchronous, train_synchronous

__all__ = [
    "SGDConfig",
    "RunConfig",
    "TOLERANCES",
    "STEP_GRID",
    "LossCurve",
    "tolerance_threshold",
    "SyncResult",
    "train_synchronous",
    "train_minibatch_synchronous",
    "AsyncResult",
    "train_asynchronous",
    "reference_loss",
    "clear_reference_cache",
    "TrainResult",
    "train",
    "run",
    "default_step_size",
    "DEFAULT_STEP_SIZES",
    "ARCHITECTURES",
    "STRATEGIES",
    "BACKENDS",
    "full_scale_factor",
    "working_set_bytes",
    "save_results",
    "load_results",
    "result_to_dict",
    "result_from_dict",
]
