"""Regeneration of Table III (asynchronous SGD performance).

Regenerates the full asynchronous table — per-architecture statistical
efficiency is *measured* through the interleaving simulator — asserts
the paper's asynchronous findings, and runs the Hogwild epoch
primitives.
"""

from __future__ import annotations

import pytest

from repro.asyncsim import AsyncSchedule, run_async_epoch
from repro.datasets import load
from repro.experiments import run_table3
from repro.models import make_model
from repro.utils import derive_rng

from conftest import publish


@pytest.fixture(scope="module")
def table3(ctx):
    return run_table3(ctx)


class TestTable3Shapes:
    def test_render_and_publish(self, table3, artifact_dir):
        publish(artifact_dir, "table3.txt", table3.render())
        assert len(table3.rows) == 15

    def test_cpu_wins_time_to_convergence_on_large_sparse(self, table3):
        """Paper headline: 'Asynchronous SGD on CPU always outperforms
        GPU in time to convergence.'  At reduced scale the simulated
        staleness cannot reach the paper's absolute in-flight window on
        the two smallest datasets (covtype, w8a), so GPU wins are
        tolerated there — and only there.  (The paper itself has one
        exception: w8a MLP.)"""
        gpu_wins = table3.gpu_wins_only_on_small_dense()
        assert all(ds in ("covtype", "w8a") for _task, ds in gpu_wins), gpu_wins
        for task in ("lr", "svm", "mlp"):
            for ds in ("real-sim", "rcv1", "news"):
                assert (task, ds) not in gpu_wins

    def test_covtype_parallel_slower_per_iteration(self, table3):
        """Paper: coherence storms make parallel Hogwild slower than
        sequential per iteration on fully dense data."""
        assert table3.dense_parallel_slower_per_iter()

    def test_sparse_parallel_faster_per_iteration(self, table3):
        """Paper: 2.5-6x parallel speedup on the sparse datasets."""
        for task in ("lr", "svm"):
            for d in ("real-sim", "rcv1", "news"):
                assert table3.row(task, d).speedup_seq_over_par > 1.5, (task, d)

    def test_gpu_iterates_faster_on_dense_slower_on_sparse(self, table3):
        """Paper: gpu/cpu-par per-iteration ratio is 0.06-0.19 on
        covtype but 5.6-7.5 on news."""
        for task in ("lr", "svm"):
            assert table3.row(task, "covtype").ratio_gpu_over_par < 0.5
            assert table3.row(task, "news").ratio_gpu_over_par > 2.0

    def test_statistical_efficiency_degrades_with_concurrency(self, table3):
        """More concurrency -> staler reads -> more epochs (or outright
        divergence), on most cells."""
        ok = total = 0
        for r in table3.rows:
            if r.task == "mlp":
                continue
            total += 1
            if r.epochs_gpu >= r.epochs_cpu_seq * 0.9:
                ok += 1
        assert ok >= 0.7 * total

    def test_mlp_hogbatch_parallel_speedup(self, table3):
        """Paper: Hogbatch parallel CPU is 15-23x faster per iteration
        than sequential mini-batch; our band is >= 8x."""
        assert table3.mlp_parallel_speedup_band(lo=8.0)

    def test_mlp_gpu_slower_per_iteration_than_parallel_cpu(self, table3):
        """Paper: 'parallel CPU always outperforms GPU in time per
        iteration—by 6X or more' for MLP."""
        for r in table3.rows:
            if r.task == "mlp":
                assert r.ratio_gpu_over_par > 2.0, (r.dataset, r.ratio_gpu_over_par)


class TestAsyncEpochBenchmarks:
    def test_benchmark_serial_hogwild_epoch(self):
        ds = load("w8a", "small")
        model = make_model("lr", ds)
        w = model.init_params(derive_rng(0, "b"))
        rng = derive_rng(0, "bench")
        schedule = AsyncSchedule(concurrency=1)
        run_async_epoch(model, ds.X, ds.y, w, 0.5, schedule, rng)

    def test_benchmark_parallel_hogwild_epoch(self):
        ds = load("w8a", "small")
        model = make_model("lr", ds)
        w = model.init_params(derive_rng(0, "b"))
        rng = derive_rng(0, "bench")
        schedule = AsyncSchedule(concurrency=56)
        run_async_epoch(model, ds.X, ds.y, w, 0.5, schedule, rng)

    def test_benchmark_async_workload_costing(self, ctx):
        from repro.hardware import AsyncWorkload

        ds = load("news", "small")
        model = make_model("lr", ds)
        workload = AsyncWorkload.for_linear(ds, model)

        cost = (
            ctx.cpu.async_epoch_time(workload, 1)
            + ctx.cpu.async_epoch_time(workload, 56)
            + ctx.gpu.async_epoch_time(workload)
        )
        assert cost > 0
