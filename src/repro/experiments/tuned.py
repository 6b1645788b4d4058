"""Tuned step sizes per configuration at the default scale.

Produced by the paper's grid-search protocol (Section IV-A) run via
``scripts/probe_steps.py`` (regenerate with that script followed by
``scripts/bake_tuned.py``).

Keys are ``(task, dataset, strategy, architecture)``; architecture
``"*"`` applies to all architectures (synchronous runs: the statistical
efficiency — and hence the best step — is architecture-independent).
Configurations absent from the table fall back to the (task, strategy)
defaults in :mod:`repro.sgd.config`.
"""

from __future__ import annotations

__all__ = ["TUNED_STEPS", "lookup_step"]

#: (task, dataset, strategy, architecture) -> step size.
TUNED_STEPS: dict[tuple[str, str, str, str], float] = {
    ("lr", "covtype", "asynchronous", "cpu-par"): 1.0,  # epochs=9
    ("lr", "covtype", "asynchronous", "cpu-seq"): 1.0,  # epochs=12
    ("lr", "covtype", "asynchronous", "gpu"): 0.3,  # epochs=17
    ("lr", "covtype", "synchronous", "*"): 300.0,  # epochs=45
    ("lr", "news", "asynchronous", "cpu-par"): 1.0,  # epochs=84
    ("lr", "news", "asynchronous", "cpu-seq"): 1.0,  # epochs=85
    ("lr", "news", "asynchronous", "gpu"): 0.3,  # epochs=249
    ("lr", "news", "synchronous", "*"): 300.0,  # epochs=805
    ("lr", "rcv1", "asynchronous", "cpu-par"): 3.0,  # epochs=89
    ("lr", "rcv1", "asynchronous", "cpu-seq"): 3.0,  # epochs=98
    ("lr", "rcv1", "asynchronous", "gpu"): 1.0,  # epochs=209
    ("lr", "rcv1", "synchronous", "*"): 1000.0,  # epochs=605
    ("lr", "real-sim", "asynchronous", "cpu-par"): 3.0,  # epochs=90
    ("lr", "real-sim", "asynchronous", "cpu-seq"): 3.0,  # epochs=88
    ("lr", "real-sim", "asynchronous", "gpu"): 1.0,  # epochs=187
    ("lr", "real-sim", "synchronous", "*"): 1000.0,  # epochs=538
    ("lr", "w8a", "asynchronous", "cpu-par"): 1.0,  # epochs=15
    ("lr", "w8a", "asynchronous", "cpu-seq"): 1.0,  # epochs=16
    ("lr", "w8a", "asynchronous", "gpu"): 0.3,  # epochs=36
    ("lr", "w8a", "synchronous", "*"): 300.0,  # epochs=99
    ("mlp", "covtype", "asynchronous", "cpu-par"): 3.0,  # epochs=429
    ("mlp", "covtype", "asynchronous", "cpu-seq"): 3.0,  # epochs=222
    ("mlp", "covtype", "asynchronous", "gpu"): 3.0,  # epochs=429
    ("mlp", "covtype", "synchronous", "*"): 3.0,  # epochs=1772
    ("mlp", "news", "asynchronous", "cpu-par"): 1.0,  # epochs=864
    ("mlp", "news", "asynchronous", "cpu-seq"): 3.0,  # epochs=287
    ("mlp", "news", "asynchronous", "gpu"): 1.0,  # epochs=652
    ("mlp", "news", "synchronous", "*"): 3.0,  # epochs=2103
    ("mlp", "rcv1", "asynchronous", "cpu-par"): 3.0,  # epochs=544
    ("mlp", "rcv1", "asynchronous", "cpu-seq"): 3.0,  # epochs=254
    ("mlp", "rcv1", "asynchronous", "gpu"): 3.0,  # epochs=544
    ("mlp", "rcv1", "synchronous", "*"): 10.0,  # epochs=1618
    ("mlp", "real-sim", "asynchronous", "cpu-par"): 1.0,  # epochs=522
    ("mlp", "real-sim", "asynchronous", "cpu-seq"): 3.0,  # epochs=254
    ("mlp", "real-sim", "asynchronous", "gpu"): 1.0,  # epochs=522
    ("mlp", "real-sim", "synchronous", "*"): 10.0,  # epochs=1923
    ("mlp", "w8a", "asynchronous", "cpu-par"): 1.0,  # epochs=486
    ("mlp", "w8a", "asynchronous", "cpu-seq"): 1.0,  # epochs=306
    ("mlp", "w8a", "asynchronous", "gpu"): 1.0,  # epochs=486
    ("mlp", "w8a", "synchronous", "*"): 1.0,  # epochs=2420
    ("svm", "covtype", "asynchronous", "cpu-par"): 0.3,  # epochs=9
    ("svm", "covtype", "asynchronous", "cpu-seq"): 0.3,  # epochs=11
    ("svm", "covtype", "asynchronous", "gpu"): 0.1,  # epochs=20
    ("svm", "covtype", "synchronous", "*"): 100.0,  # epochs=58
    ("svm", "news", "asynchronous", "cpu-par"): 0.3,  # epochs=41
    ("svm", "news", "asynchronous", "cpu-seq"): 0.3,  # epochs=22
    ("svm", "news", "asynchronous", "gpu"): 0.1,  # epochs=152
    ("svm", "news", "synchronous", "*"): 100.0,  # epochs=246
    ("svm", "rcv1", "asynchronous", "cpu-par"): 1.0,  # epochs=41
    ("svm", "rcv1", "asynchronous", "cpu-seq"): 1.0,  # epochs=35
    ("svm", "rcv1", "asynchronous", "gpu"): 0.3,  # epochs=59
    ("svm", "rcv1", "synchronous", "*"): 300.0,  # epochs=147
    ("svm", "real-sim", "asynchronous", "cpu-par"): 1.0,  # epochs=23
    ("svm", "real-sim", "asynchronous", "cpu-seq"): 1.0,  # epochs=19
    ("svm", "real-sim", "asynchronous", "gpu"): 1.0,  # epochs=29
    ("svm", "real-sim", "synchronous", "*"): 300.0,  # epochs=94
    ("svm", "w8a", "asynchronous", "cpu-par"): 0.3,  # epochs=34
    ("svm", "w8a", "asynchronous", "cpu-seq"): 0.3,  # epochs=28
    ("svm", "w8a", "asynchronous", "gpu"): 0.1,  # epochs=42
    ("svm", "w8a", "synchronous", "*"): 100.0,  # epochs=127
}


def lookup_step(
    task: str, dataset: str, strategy: str, architecture: str
) -> float | None:
    """Resolve a tuned step with exact-arch > wildcard precedence."""
    exact = TUNED_STEPS.get((task, dataset, strategy, architecture))
    if exact is not None:
        return exact
    return TUNED_STEPS.get((task, dataset, strategy, "*"))
