"""Benchmark + regeneration of Fig. 8 (LR/SVM GPU speedup vs BIDMach).

Reproduces the paper's hardware-efficiency comparison: the GPU-over-
parallel-CPU speedup of our synchronous and asynchronous
implementations against a BIDMach-like executor, per dataset.
"""

from __future__ import annotations

import pytest

from repro.experiments import run_fig8

from conftest import publish


@pytest.fixture(scope="module")
def fig8(ctx):
    return run_fig8(ctx)


class TestFig8Shapes:
    def test_render_and_publish(self, fig8, artifact_dir):
        publish(artifact_dir, "fig8.txt", fig8.render())
        assert {"ours-sync", "ours-async", "bidmach"} <= set(fig8.systems())

    def test_ours_not_dominated_by_bidmach(self, fig8):
        """Paper: 'our implementations provide similar or better speedup
        than BIDMach for LR and SVM on sparse data.'"""
        assert fig8.ours_not_dominated()

    def test_bidmach_collapses_on_sparse_data(self, fig8):
        """BIDMach's dense-optimised GPU kernels lose their edge as
        sparsity grows: its speedup on news must trail ours clearly."""
        for task in ("lr", "svm"):
            ours = fig8.get(task, "news", "ours-sync")
            bid = fig8.get(task, "news", "bidmach")
            assert ours > 1.2 * bid

    def test_dense_data_comparable(self, fig8):
        """On fully dense covtype the two systems are close."""
        for task in ("lr", "svm"):
            ours = fig8.get(task, "covtype", "ours-sync")
            bid = fig8.get(task, "covtype", "bidmach")
            assert 0.5 < ours / bid < 2.5

    def test_async_gpu_loses_on_sparse(self, fig8):
        """The asynchronous speedup series dips below 1 on the sparse
        datasets (the GPU Hogwild kernel is slower per epoch there)."""
        assert fig8.get("lr", "news", "ours-async") < 1.0
        assert fig8.get("lr", "covtype", "ours-async") > 1.0


def test_benchmark_fig8(ctx):
    result = run_fig8(ctx)
    assert len(result.entries) == 2 * 5 * 3  # tasks x datasets x systems
