"""Loss functions and their derivatives for the three paper tasks.

All losses are written against margins/logits and are numerically stable
(log1p/exp formulations; logsumexp for softmax).  The paper trains
without regularisation ("We do not include any regularization in the
objective function in order to measure only the time spent in the
actual computation", Section IV-A); we follow that, but the model
classes accept an optional L2 coefficient for library users.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "logistic_loss",
    "logistic_dmargin",
    "hinge_loss",
    "hinge_dmargin",
    "softmax_cross_entropy",
    "softmax_probs",
    "stable_sigmoid",
]


def stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function computed without overflow for large |z|.

    Branch-free: ``e = exp(-|z|)`` never overflows, and each element
    takes ``1 / (1 + e)`` where ``z >= 0`` and ``e / (1 + e)`` elsewhere
    — the same arithmetic per element as gathering the two halves with
    boolean masks, without the gathers.  ``-|z|`` is spelled
    ``minimum(z, -z)`` so a NaN keeps its sign bit (``-abs`` would set
    it), which keeps the result bit-identical to the masked form.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def logistic_loss(margins: np.ndarray) -> np.ndarray:
    """Per-example logistic loss ``log(1 + exp(-y * x.w))``.

    *margins* must already be ``y * (x . w)``.
    """
    m = np.asarray(margins, dtype=np.float64)
    return np.logaddexp(0.0, -m)


def logistic_dmargin(margins: np.ndarray) -> np.ndarray:
    """d(logistic loss)/d(margin) = -sigmoid(-margin)."""
    return -stable_sigmoid(-np.asarray(margins, dtype=np.float64))


def hinge_loss(margins: np.ndarray) -> np.ndarray:
    """Per-example hinge loss ``max(0, 1 - y * x.w)``."""
    m = np.asarray(margins, dtype=np.float64)
    return np.maximum(0.0, 1.0 - m)


def hinge_dmargin(margins: np.ndarray) -> np.ndarray:
    """Subgradient of hinge w.r.t. the margin: -1 where margin < 1.

    At the kink (margin == 1) we take 0, the standard convention for
    SGD implementations of linear SVMs.
    """
    m = np.asarray(margins, dtype=np.float64)
    return np.where(m < 1.0, -1.0, 0.0)


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a logits matrix, overflow-safe."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Per-example cross-entropy for integer class targets.

    Computed as ``logsumexp(logits) - logits[class]`` without forming
    the probability matrix.
    """
    z = np.asarray(logits, dtype=np.float64)
    classes = np.asarray(classes, dtype=np.int64)
    zmax = z.max(axis=-1)
    lse = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=-1))
    picked = z[np.arange(z.shape[0]), classes]
    return lse - picked
