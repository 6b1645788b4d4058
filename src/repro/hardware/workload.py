"""Asynchronous-SGD workload descriptions for the hardware models.

Synchronous epochs are costed from recorded operation traces; the
asynchronous algorithms instead perform millions of tiny dependent
steps whose cost structure is better captured by per-step statistics:

* how many model cache lines a step reads/writes (conflict footprint);
* how many flops a step performs;
* how many bytes of training data it streams;
* how imbalanced steps are across a 32-lane warp (GPU divergence);
* the line-popularity statistics for coherence/atomic contention.

:class:`AsyncWorkload` bundles these.  The constructors derive them
from the dataset profile at *full paper scale* (hardware efficiency is
reported for the paper's dataset sizes; statistical efficiency is
measured on the scaled data — see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.profiles import DatasetProfile
from ..datasets.synthetic import Dataset
from ..models.base import Model
from ..utils.rng import derive_rng
from ..utils.units import CACHE_LINE_BYTES, FLOAT64_BYTES, INT32_BYTES
from .coherence import LineStats, dense_line_frequencies, zipf_line_frequencies

__all__ = ["AsyncWorkload", "warp_divergence_factor"]

_PER_LINE = CACHE_LINE_BYTES // FLOAT64_BYTES


def warp_divergence_factor(
    row_nnz: np.ndarray, warp_size: int = 32, n_samples: int = 2048, seed: int = 7
) -> float:
    """Expected ``max/mean`` of per-example work across a warp.

    A warp retires with its slowest lane, so the sparse Hogwild kernel
    pays the *maximum* row length of each 32-example group rather than
    the mean.  Estimated by sampling warps from the realised row-nnz
    distribution; equals 1.0 for constant-length rows (dense data).
    """
    row_nnz = np.asarray(row_nnz, dtype=np.float64)
    row_nnz = row_nnz[row_nnz > 0]
    if row_nnz.size == 0:
        return 1.0
    mean = float(row_nnz.mean())
    if mean <= 0:
        return 1.0
    rng = derive_rng(seed, "warp_divergence")
    samples = rng.choice(row_nnz, size=(n_samples, warp_size), replace=True)
    return max(1.0, float(samples.max(axis=1).mean()) / mean)


@dataclass(frozen=True)
class AsyncWorkload:
    """Per-step cost statistics of an asynchronous SGD configuration.

    A *step* is one model update: a single example for Hogwild
    (B = 1), or one mini-batch for Hogbatch.
    """

    name: str
    #: Updates per epoch (N for Hogwild, N/B for Hogbatch).
    steps_per_epoch: int
    #: Examples processed per step (1 or the batch size).
    examples_per_step: int
    #: Flops of one step (gradient + update).
    flops_per_step: float
    #: Training-data bytes streamed per step.
    data_bytes_per_step: float
    #: Model cache lines a step's update touches.
    model_lines_per_step: float
    #: Total model size in bytes (residency of the shared model).
    model_bytes: float
    #: Line-popularity statistics for conflict costing.
    line_stats: LineStats
    #: max/mean work imbalance across a GPU warp.
    warp_divergence: float
    #: True when the update writes every model coordinate (dense
    #: linear updates, Hogbatch full-gradient updates).
    dense_update: bool

    def __post_init__(self) -> None:
        if self.steps_per_epoch <= 0:
            raise ValueError("steps_per_epoch must be positive")
        if self.examples_per_step <= 0:
            raise ValueError("examples_per_step must be positive")
        if self.warp_divergence < 1.0:
            raise ValueError("warp_divergence is max/mean and must be >= 1")

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def for_linear(
        dataset: Dataset,
        model: Model,
        profile: DatasetProfile | None = None,
    ) -> "AsyncWorkload":
        """Hogwild (B=1) workload for LR/SVM on *dataset*.

        *profile* selects the scale at which hardware efficiency is
        reported; it defaults to the full paper profile matching the
        dataset's name so per-iteration times correspond to Table III.
        The profile's line statistics are memoised per process
        (:func:`~repro.hardware.coherence.zipf_line_frequencies`) and
        the warp-divergence factor per dataset, so pricing another
        configuration on the same data recomputes neither.
        """
        if profile is None:
            from ..datasets.profiles import PAPER_PROFILES

            profile = PAPER_PROFILES.get(dataset.profile.name, dataset.profile)
        nnz = profile.nnz_avg if not profile.dense else profile.n_features
        d = profile.n_features
        if profile.dense:
            stats = dense_line_frequencies(d)
            lines = max(1.0, d / _PER_LINE)
            data_bytes = d * FLOAT64_BYTES
            divergence = 1.0
        else:
            # Full-scale popularity from the Zipf profile; divergence
            # from the realised row-length distribution (shape is
            # preserved by the scaled generator).
            stats = zipf_line_frequencies(
                d, nnz, profile.zipf_exponent, head_freq_cap=profile.head_freq_cap
            )
            lines = max(1.0, float(nnz))  # sparse coords rarely share lines
            data_bytes = nnz * (FLOAT64_BYTES + INT32_BYTES)
            if dataset.is_sparse:
                if dataset._warp_divergence is None:
                    dataset._warp_divergence = warp_divergence_factor(
                        dataset.X.row_nnz
                    )
                divergence = dataset._warp_divergence
            else:
                divergence = 1.0
        return AsyncWorkload(
            name=f"{profile.name}/{model.task}/hogwild",
            steps_per_epoch=profile.n_examples,
            examples_per_step=1,
            flops_per_step=model.flops_per_example(nnz),
            data_bytes_per_step=data_bytes,
            model_lines_per_step=lines,
            model_bytes=d * FLOAT64_BYTES,
            line_stats=stats,
            warp_divergence=divergence,
            dense_update=profile.dense,
        )

    @staticmethod
    def for_batched(
        dataset: Dataset,
        model: Model,
        batch_size: int,
        profile: DatasetProfile | None = None,
    ) -> "AsyncWorkload":
        """Hogbatch workload: one step = one mini-batch (paper: B=512).

        The update is a full dense gradient, so every model line is
        written by every step — the conflict footprint is the whole
        parameter vector.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if profile is None:
            from ..datasets.profiles import PAPER_PROFILES

            profile = PAPER_PROFILES.get(
                dataset.profile.name.removesuffix("-mlp"), dataset.profile
            )
        n = profile.n_examples
        nnz = dataset.profile.nnz_avg or dataset.profile.n_features
        steps = max(1, -(-n // batch_size))
        n_params = model.n_params
        return AsyncWorkload(
            name=f"{profile.name}/{model.task}/hogbatch",
            steps_per_epoch=steps,
            examples_per_step=batch_size,
            flops_per_step=batch_size * model.flops_per_example(nnz)
            + 2.0 * n_params,
            data_bytes_per_step=batch_size
            * dataset.profile.n_features
            * FLOAT64_BYTES,
            model_lines_per_step=max(1.0, n_params / _PER_LINE),
            model_bytes=n_params * FLOAT64_BYTES,
            line_stats=dense_line_frequencies(n_params),
            warp_divergence=1.0,
            dense_update=True,
        )
