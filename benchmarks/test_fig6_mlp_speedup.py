"""Benchmark + regeneration of Fig. 6 (MLP architecture speedup sweep).

Reproduces the paper's finding that the synchronous parallel-CPU
speedup on real-sim grows from ~2x (Table I architecture, all
weight-gradient GEMMs below ViennaCL's parallelisation threshold) to
tens of x for very wide nets, while the GPU-over-parallel-CPU ratio
stays comparatively flat.
"""

from __future__ import annotations

import pytest

from repro.experiments import run_fig6

from conftest import publish


@pytest.fixture(scope="module")
def fig6(ctx):
    return run_fig6(ctx)


class TestFig6Shapes:
    def test_render_and_publish(self, fig6, artifact_dir):
        publish(artifact_dir, "fig6.txt", fig6.render())
        assert len(fig6.points) >= 5

    def test_small_net_speedup_near_two(self, fig6):
        """The 50-10-5-2 net must sit near the paper's ~2x."""
        assert fig6.small_net_speedup_near_two()

    def test_speedup_grows_with_width(self, fig6):
        """Paper: 'as we increase the size of the deep net, the speedup
        increases to as much as 26X for a very large net.'"""
        assert fig6.speedup_grows_with_width()
        assert fig6.points[-1].speedup_par_over_seq > 15.0

    def test_speedup_never_reaches_thread_count(self, fig6):
        """Paper: 'the reason this is still smaller than 56X is because
        the input layer cannot be parallelized.'"""
        assert all(p.speedup_par_over_seq < 56.0 for p in fig6.points)

    def test_gpu_ratio_flat_for_wide_nets(self, fig6):
        """Paper: 'the GPU speedup over parallel CPU is almost
        constant.'  Once the hidden layers are wide enough that the
        GEMMs dominate (>= 200 units), the GPU ratio must be nearly
        flat even as the CPU series keeps climbing."""
        wide = [p for p in fig6.points if p.arch[1] >= 200]
        assert len(wide) >= 3
        gpu = [p.speedup_gpu_over_par for p in wide]
        assert max(gpu) / min(gpu) < 1.3
        cpu = [p.speedup_par_over_seq for p in wide]
        assert cpu == sorted(cpu)


def test_benchmark_fig6_sweep(ctx):
    """The (trace, cost-model) sweep on a caller-chosen architecture list."""
    result = run_fig6(ctx, architectures=((50, 10, 5, 2), (50, 200, 100, 2)))
    assert len(result.points) == 2
