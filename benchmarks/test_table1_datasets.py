"""Regeneration of Table I (the experimental datasets).

Regenerates the paper's dataset table at the suite's scale, asserts the
realised statistics stay within band of the profiles, and runs the
synthetic generator (the substrate every other experiment relies on).
"""

from __future__ import annotations

import pytest

from repro.datasets import generate
from repro.datasets.registry import scaled_profile
from repro.experiments import run_table1

from conftest import publish


@pytest.fixture(scope="module")
def table1_result(ctx):
    return run_table1(ctx)


class TestTable1:
    def test_render_and_publish(self, table1_result, artifact_dir):
        publish(artifact_dir, "table1.txt", table1_result.render())
        assert "covtype" in table1_result.rendered

    def test_statistics_within_band(self, table1_result):
        for check in table1_result.checks:
            assert check.sparsity_ok, (
                f"{check.dataset}: realised sparsity "
                f"{check.realised_sparsity_pct:.3f}% vs target "
                f"{check.target_sparsity_pct:.3f}%"
            )
            assert check.balanced, f"{check.dataset}: labels imbalanced"

    def test_dispersion_preserved(self, table1_result):
        """The max/avg nnz dispersion drives GPU divergence — verify
        the heavy-tailed datasets keep a large ratio."""
        by_name = {c.dataset: c for c in table1_result.checks}
        assert by_name["news"].realised_dispersion > 5.0
        assert by_name["covtype"].realised_dispersion == pytest.approx(1.0)


def test_benchmark_sparse_generation():
    """The generator at the suite's scale (news: the widest set)."""
    profile = scaled_profile("news", "small")
    out = generate(profile, 123)
    assert out.n_examples == profile.n_examples


def test_benchmark_dense_generation():
    profile = scaled_profile("covtype", "small")
    out = generate(profile, 123)
    assert not out.is_sparse
