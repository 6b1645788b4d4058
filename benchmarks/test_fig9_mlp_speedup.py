"""Benchmark + regeneration of Fig. 9 (MLP GPU speedup vs TensorFlow).

Reproduces the paper's deep-net hardware-efficiency comparison: our
synchronous/asynchronous (Hogbatch) implementations against a
TensorFlow-like executor.
"""

from __future__ import annotations

import pytest

from repro.experiments import run_fig9

from conftest import publish


@pytest.fixture(scope="module")
def fig9(ctx):
    return run_fig9(ctx)


class TestFig9Shapes:
    def test_render_and_publish(self, fig9, artifact_dir):
        publish(artifact_dir, "fig9.txt", fig9.render())
        assert {"ours-sync", "ours-async", "tensorflow"} <= set(fig9.systems())

    def test_superior_gpu_speedup_vs_tensorflow(self, fig9):
        """Paper: 'In this case, we always obtain a superior GPU
        speedup' (because TF's Eigen CPU kernels parallelise the small
        GEMMs ViennaCL serialises, shrinking TF's ratio)."""
        for dataset in ("covtype", "w8a", "real-sim", "rcv1", "news"):
            ours = fig9.get("mlp", dataset, "ours-sync")
            tf = fig9.get("mlp", dataset, "tensorflow")
            assert ours > tf, (dataset, ours, tf)

    def test_sync_speedups_in_paper_band(self, fig9):
        """Paper Table II: MLP par/gpu between ~4.1 and ~6.7x; our band
        2.5-8x."""
        for dataset in ("covtype", "w8a", "real-sim", "rcv1", "news"):
            s = fig9.get("mlp", dataset, "ours-sync")
            assert 2.5 <= s <= 8.0, (dataset, s)

    def test_hogbatch_gpu_below_one(self, fig9):
        """Paper: parallel CPU beats the GPU per iteration for Hogbatch
        by 6x or more — the async series sits well below 1."""
        for dataset in ("covtype", "w8a", "real-sim", "rcv1", "news"):
            assert fig9.get("mlp", dataset, "ours-async") < 0.6, dataset


def test_benchmark_fig9(ctx):
    result = run_fig9(ctx)
    assert len(result.entries) == 5 * 3
