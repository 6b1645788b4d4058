"""Table I's substrate: the synthetic generator at the suite's scale.

Table I's shape checks live in the artifact registry (``repro
experiments``).
"""

from __future__ import annotations

import pytest

from repro.datasets import generate
from repro.datasets.registry import scaled_profile


@pytest.mark.parametrize("dataset", ["news", "covtype"])
def test_benchmark_generation(dataset):
    """The generator at the suite's scale (news: the widest set)."""
    profile = scaled_profile(dataset, "small")
    out = generate(profile, 123)
    assert out.n_examples == profile.n_examples
    assert out.is_sparse == (dataset == "news")
