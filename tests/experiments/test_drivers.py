"""Smoke + structure tests for the experiment drivers (tiny scale).

Full-scale shape checks against the paper live in the artifact registry
(``make shapes`` judges them); here we verify the drivers and the
registry produce complete, well-formed results on a reduced grid quickly.
"""

import math

import pytest

from repro.experiments import (
    ExperimentContext,
    run_fig6,
    run_fig7,
    run_fig8,
    run_table1,
    run_table2,
    run_table3,
)
from repro.experiments.table3 import staleness_rows


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(
        scale="tiny",
        tasks=("lr",),
        datasets=("covtype", "w8a"),
        sync_max_epochs=250,
        async_max_epochs=80,
        tolerance=0.05,
    )


class TestContext:
    def test_step_resolution_order(self, ctx):
        ctx.step_overrides[("lr", "w8a", "asynchronous", "cpu-par")] = 0.123
        try:
            assert ctx.step_for("lr", "w8a", "asynchronous", "cpu-par") == 0.123
            # other architectures unaffected by the arch-specific override
            assert ctx.step_for("lr", "w8a", "asynchronous", "gpu") != 0.123
        finally:
            ctx.step_overrides.clear()

    def test_run_cached(self, ctx):
        a = ctx.run("lr", "w8a", "cpu-seq", "asynchronous")
        b = ctx.run("lr", "w8a", "cpu-seq", "asynchronous")
        assert a is b

    def test_sync_shares_optimisation_across_archs(self, ctx):
        seq = ctx.run("lr", "w8a", "cpu-seq", "synchronous")
        gpu = ctx.run("lr", "w8a", "gpu", "synchronous")
        assert seq.curve is gpu.curve  # same optimisation run
        assert seq.time_per_iter != gpu.time_per_iter


class TestTable1:
    def test_checks_pass(self, ctx):
        res = run_table1(ctx)
        assert res.all_ok()
        assert "covtype" in res.render()


def _check(result, ctx, name):
    """The registry check *name* evaluated on one driver's *result*."""
    from repro.experiments import ARTIFACTS

    checks = ARTIFACTS[name.split("/")[0]].checks(result, ctx)
    return next(c for c in checks if c.name == name)


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return run_table2(ctx)

    def test_rows_complete(self, result, ctx):
        assert len(result.rows) == len(ctx.tasks) * len(ctx.datasets)

    def test_gpu_fastest_per_iteration(self, result, ctx):
        assert _check(result, ctx, "table2/gpu-always-fastest").passed

    def test_parallel_helps(self, result, ctx):
        assert _check(result, ctx, "table2/parallel-always-helps").passed

    def test_render_contains_columns(self, result):
        out = result.render()
        assert "seq/par" in out and "par/gpu" in out

    def test_row_lookup(self, result):
        row = result.row("lr", "w8a")
        assert row.dataset == "w8a"
        with pytest.raises(KeyError):
            result.row("lr", "mnist")


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return run_table3(ctx)

    def test_rows_complete(self, result, ctx):
        assert len(result.rows) == len(ctx.tasks) * len(ctx.datasets)

    def test_epoch_counts_or_infinity(self, result):
        for r in result.rows:
            for e in (r.epochs_gpu, r.epochs_cpu_seq, r.epochs_cpu_par):
                assert e > 0  # positive count or +inf

    def test_dense_coherence_shape(self, result):
        row = result.row("lr", "covtype")
        assert row.speedup_seq_over_par < 1.0  # par slower per iteration

    def test_render(self, result):
        assert "gpu/par" in result.render()


def _ps_manifest(task="lr", dataset="w8a", nodes=3):
    """A minimal run manifest with the counters a PS run records."""
    return {
        "config": {"task": task, "dataset": dataset},
        "results": {"measured": {"nodes": nodes, "max_staleness": 16}},
        "counters": {
            "ps.pull_rounds": 200.0,
            "sgd.updates_applied": 200.0,
            "ps.shard_cache_hits": 600.0,
            "ps.pulls": 1000.0,
            "ps.staleness_bucket.le_0": 120.0,
            "ps.staleness_bucket.le_4": 60.0,
            "ps.staleness_bucket.gt_64": 20.0,
        },
    }


class TestTable3Staleness:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return run_table3(ctx)

    def test_rows_from_run_manifest(self):
        (row,) = staleness_rows(_ps_manifest())
        assert (row.task, row.dataset, row.nodes) == ("lr", "w8a", 3)
        assert row.max_staleness == 16
        assert row.rounds_per_update == 1.0
        assert row.cache_hit_rate == pytest.approx(600 / 1600)
        assert [s for s, _ in row.buckets] == ["le_0", "le_4", "gt_64"]

    def test_grid_manifest_recurses_into_cells(self):
        grid = {
            "cells": [
                {"manifest": _ps_manifest(dataset="covtype", nodes=2)},
                {"manifest": {"counters": {}}},  # non-PS cell: no row
                {"manifest": _ps_manifest()},
            ]
        }
        rows = staleness_rows(grid)
        assert [r.dataset for r in rows] == ["covtype", "w8a"]

    def test_non_ps_manifest_yields_no_rows(self):
        assert staleness_rows({"counters": {"sgd.epochs": 3.0}}) == []

    def test_attach_and_render_section(self, result):
        before = result.render()
        assert "staleness" not in before.lower()
        try:
            assert result.attach_staleness(_ps_manifest()) == 1
            out = result.render()
            assert "rounds/upd" in out
            assert "le 0" in out and "gt 64" in out  # suffixes as headers
        finally:
            result.staleness.clear()  # class-scoped fixture: leave it clean


class TestFig6:
    def test_structure_and_shape(self, ctx):
        res = run_fig6(ctx, architectures=((50, 10, 5, 2), (50, 512, 256, 2)))
        assert len(res.points) == 2
        assert res.points[1].speedup_par_over_seq > res.points[0].speedup_par_over_seq
        assert "par/seq" in res.render()


class TestFig7:
    def test_panels_and_winners(self, ctx):
        res = run_fig7(ctx)
        assert len(res.panels) == len(ctx.tasks) * len(ctx.datasets)
        winners = res.winners()
        assert all(w in ("sync-gpu", "async-cpu", "none") for w in winners.values())
        chart = res.panel("lr", "w8a").render()
        assert "sync-gpu" in chart


class TestFig8:
    def test_entries(self, ctx):
        res = run_fig8(
            ExperimentContext(
                scale="tiny",
                tasks=("lr",),
                datasets=("w8a",),
                sync_max_epochs=120,
                async_max_epochs=40,
                tolerance=0.10,
            )
        )
        systems = set(res.systems())
        assert {"ours-sync", "ours-async", "bidmach"} <= systems
        assert res.get("lr", "w8a", "ours-sync") > 0
        assert "Fig. 8" in res.render()


class TestFig1Space:
    def test_cube_structure(self):
        from repro.experiments import ExperimentContext, run_fig1_space

        ctx = ExperimentContext(
            scale="tiny", tolerance=0.10, sync_max_epochs=150, async_max_epochs=60
        )
        res = run_fig1_space("lr", "w8a", ctx)
        assert len(res.cells) == 8
        labels = {c.label for c in res.cells}
        assert "sync/gpu/auto" in labels and "async/cpu-par/dense" in labels
        assert res.best().label in labels
        assert "corner" in res.render()

    def test_mlp_rejected(self):
        import pytest as _pytest

        from repro.experiments import run_fig1_space

        with _pytest.raises(ValueError, match="lr/svm"):
            run_fig1_space("mlp", "w8a")

    def test_cell_lookup(self):
        from repro.experiments import ExperimentContext, run_fig1_space

        ctx = ExperimentContext(
            scale="tiny", tolerance=0.10, sync_max_epochs=100, async_max_epochs=40
        )
        res = run_fig1_space("svm", "covtype", ctx)
        cell = res.cell("synchronous", "gpu", "auto")
        assert cell.time_per_iter > 0
        import pytest as _pytest

        with _pytest.raises(KeyError):
            res.cell("synchronous", "tpu", "auto")


class TestToleranceLadder:
    @pytest.fixture(scope="class")
    def ladder(self):
        from repro.experiments import ExperimentContext, run_tolerance_ladder

        lctx = ExperimentContext(
            scale="tiny", tolerance=0.01, sync_max_epochs=400, async_max_epochs=120
        )
        return run_tolerance_ladder("lr", "w8a", lctx)

    def test_six_configurations(self, ladder):
        assert len(ladder.entries) == 6

    def test_times_monotone_in_tolerance(self, ladder):
        assert ladder.times_monotone_in_tolerance()

    def test_winner_lookup_and_render(self, ladder):
        win = ladder.winner_at(0.10)
        assert win.label in ladder.render()
        assert "t(10%)" in ladder.render()

    def test_entry_lookup(self, ladder):
        e = ladder.entry("synchronous", "gpu")
        assert e.time_at(0.10) <= e.time_at(0.01) or not math.isfinite(e.time_at(0.01))
        with pytest.raises(KeyError):
            ladder.entry("synchronous", "tpu")
        with pytest.raises(KeyError):
            e.time_at(0.5)


#: Every check the report makes; a check cannot disappear quietly.
PINNED_CHECKS = [
    "table1/complete",
    "table1/statistics-in-band",
    "table1/news-dispersion-heavy-tailed",
    "table1/covtype-dispersion-flat",
    "table2/complete",
    "table2/sync-cells-converge",
    "table2/gpu-always-fastest",
    "table2/parallel-always-helps",
    "table2/mlp-speedup-capped-near-2x",
    "table2/mlp-gpu-speedup-band",
    "table2/lr-svm-parallel-speedup-above-8x",
    "table2/gpu-gap-grows-with-sparsity",
    "table2/w8a-parallel-speedup-near-top",
    "table3/complete",
    "table3/cpu-wins-on-large-sparse",
    "table3/dense-coherence-storm",
    "table3/sparse-parallel-speedup",
    "table3/gpu-iterates-faster-on-dense",
    "table3/gpu-iterates-slower-on-news",
    "table3/hogbatch-parallel-speedup",
    "table3/mlp-gpu-slower-per-iteration",
    "table3/staleness-costs-epochs",
    "fig6/complete",
    "fig6/speedup-grows-with-width",
    "fig6/large-net-speedup-above-15x",
    "fig6/speedup-below-thread-count",
    "fig6/gpu-ratio-flat-for-wide-nets",
    "fig7/complete",
    "fig7/no-single-winner",
    "fig7/most-panels-decided",
    "fig7/curves-share-initial-loss",
    "fig7/async-side-is-best-cpu",
    "fig8/complete",
    "fig8/ours-not-dominated-by-bidmach",
    "fig8/bidmach-collapses-on-sparse",
    "fig8/comparable-on-dense",
    "fig8/async-gpu-loses-on-sparse",
    "fig8/async-gpu-wins-on-dense",
    "fig9/complete",
    "fig9/superior-to-tensorflow",
    "fig9/sync-speedup-band",
    "fig9/hogbatch-gpu-below-0.6x",
]


class TestRegistry:
    """The artifact registry over a tiny lr/mlp x covtype/w8a grid."""

    @pytest.fixture(scope="class")
    def report(self):
        from repro.experiments import ARTIFACTS, run_artifacts

        rctx = ExperimentContext(
            scale="tiny",
            tasks=("lr", "mlp"),
            datasets=("covtype", "w8a"),
            sync_max_epochs=300,
            async_max_epochs=100,
            tolerance=0.05,
        )
        return rctx, run_artifacts(rctx, ARTIFACTS)

    def test_every_check_evaluates(self, report):
        from repro.experiments import render_report

        text, checks = render_report(*report)
        assert text.startswith("# EXPERIMENTS")
        for name in report[1]:
            assert f"{name}/complete" in {c.name for c in checks if c.passed}
        # One row per check in the "Shape checks" table.
        table = text.split("## Shape checks")[1].split("\n## ")[0]
        assert table.count("\n| `") == len(checks)

    def test_check_names_are_pinned(self, report):
        from repro.experiments import render_report

        assert [c.name for c in render_report(*report)[1]] == PINNED_CHECKS

    def test_comparisons_hold_only_regenerated_cells(self, report):
        from repro.experiments import ARTIFACTS

        _, results = report
        for name in ("table2", "table3"):
            out = ARTIFACTS[name].comparison(results[name])
            assert "paper vs ours" in out
            rows = [line.split("|")[:2] for line in out.splitlines()[4:]]
            assert sorted((t.strip(), d.strip()) for t, d in rows) == [
                ("lr", "covtype"), ("lr", "w8a"), ("mlp", "covtype"), ("mlp", "w8a")
            ]

    def test_failing_check_renders_not_reproduced(self, report):
        from dataclasses import replace

        from repro.experiments import render_report

        ctx, results = report
        text, _ = render_report(ctx, results)
        assert "NOT reproduced" not in text
        # A GPU no faster than parallel CPU per iteration breaks Table II.
        t2 = results["table2"]
        slow = replace(t2, rows=[replace(r, tpi_gpu=r.tpi_cpu_par) for r in t2.rows])
        text, checks = render_report(ctx, {**results, "table2": slow})
        assert "table2/gpu-always-fastest" in {c.name for c in checks if not c.passed}
        assert "| `table2/gpu-always-fastest` | NOT reproduced |" in text
        assert "GPU always fastest per iteration/ttc: **NOT reproduced**" in text
