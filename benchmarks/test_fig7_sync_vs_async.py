"""Benchmark + regeneration of Fig. 7 (sync-GPU vs async-CPU head-to-head).

Reproduces the paper's 15-panel loss-vs-time comparison between the two
optimal configurations and its conclusion that the winner is task- and
dataset-dependent ("we do not expect a single winner all the time").
"""

from __future__ import annotations

import math

import pytest

from repro.experiments import run_fig7

from conftest import publish


@pytest.fixture(scope="module")
def fig7(ctx):
    return run_fig7(ctx)


class TestFig7Shapes:
    def test_render_and_publish(self, fig7, artifact_dir):
        text = fig7.render()
        panels = "\n\n".join(p.render() for p in fig7.panels[:6])
        publish(artifact_dir, "fig7.txt", text + "\n\n" + panels)
        assert len(fig7.panels) == 15

    def test_no_winner_dominates(self, fig7):
        """The paper's core Fig. 7 message: both strategies win on some
        dataset/task pairs."""
        assert fig7.winner_is_task_dataset_dependent()

    def test_most_panels_have_a_winner(self, fig7):
        decided = [p for p in fig7.panels if p.winner != "none"]
        assert len(decided) >= 12

    def test_curves_share_initial_loss(self, fig7):
        for p in fig7.panels:
            assert p.sync_gpu.curve.initial_loss == pytest.approx(
                p.async_cpu.curve.initial_loss
            )

    def test_async_side_is_optimal_cpu(self, fig7, ctx):
        """The async side of each panel is the better of cpu-seq and
        cpu-par at the context tolerance."""
        for p in fig7.panels[:5]:
            other_arch = (
                "cpu-par" if p.async_cpu.architecture == "cpu-seq" else "cpu-seq"
            )
            other = ctx.run(p.task, p.dataset, other_arch, "asynchronous")
            assert p.async_cpu.time_to(ctx.tolerance) <= other.time_to(ctx.tolerance)


def test_benchmark_loss_curve_extraction(fig7):
    """Every panel's stored result yields a finite plot series."""
    total = 0.0
    for p in fig7.panels:
        xs, ys = p.sync_gpu.loss_vs_time()
        total += float(xs[-1]) + float(ys[-1])
    assert math.isfinite(total)
