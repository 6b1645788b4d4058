"""Models: logistic regression, linear SVM, fully-connected MLP.

:func:`make_model` builds the paper's task/dataset pairings: LR and SVM
on the native features, MLP on the feature-grouped data with the
architecture from Table I.
"""

from __future__ import annotations

from ..datasets.synthetic import Dataset
from ..utils.errors import ConfigurationError
from .base import ExampleUpdate, Matrix, Model
from .gradcheck import finite_difference_grad, max_grad_error
from .linear import LinearModel, LinearSVM, LogisticRegression
from .losses import (
    hinge_dmargin,
    hinge_loss,
    logistic_dmargin,
    logistic_loss,
    softmax_cross_entropy,
    softmax_probs,
    stable_sigmoid,
)
from .mlp import MLP

__all__ = [
    "Model",
    "Matrix",
    "ExampleUpdate",
    "LinearModel",
    "LogisticRegression",
    "LinearSVM",
    "MLP",
    "make_model",
    "TASK_NAMES",
    "finite_difference_grad",
    "max_grad_error",
    "logistic_loss",
    "logistic_dmargin",
    "hinge_loss",
    "hinge_dmargin",
    "softmax_cross_entropy",
    "softmax_probs",
    "stable_sigmoid",
]

#: Canonical task order (matches the row blocks of Tables II/III).
TASK_NAMES: tuple[str, ...] = ("lr", "svm", "mlp")


def make_model(task: str, dataset: Dataset) -> Model:
    """Instantiate the paper's model for *task* on *dataset*.

    ``"lr"`` and ``"svm"`` size themselves to the dataset's feature
    count; ``"mlp"`` uses the dataset profile's architecture (which for
    an MLP-transformed dataset starts at the grouped input width).
    """
    if task == "lr":
        return LogisticRegression(dataset.n_features)
    if task == "svm":
        return LinearSVM(dataset.n_features)
    if task == "mlp":
        arch = dataset.profile.mlp_arch
        if arch[0] != dataset.n_features:
            raise ConfigurationError(
                f"MLP input width {arch[0]} != dataset features "
                f"{dataset.n_features}; pass the MLP-transformed dataset "
                "(repro.datasets.load_mlp)"
            )
        return MLP(arch)
    raise ConfigurationError(f"unknown task {task!r}; available: {TASK_NAMES}")
