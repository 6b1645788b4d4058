"""Ablation benchmarks for the design choices DESIGN.md section 6 lists.

Each ablation flips one modelling mechanism off (or sweeps its
parameter) and verifies that the corresponding paper phenomenon
*disappears* — evidence that the mechanism, not a tuning accident,
produces the result.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.datasets import load, load_mlp
from repro.hardware import AsyncWorkload, CpuModel, GpuModel, XEON_E5_2660V4_DUAL
from repro.linalg import VIENNACL_POLICY, recording
from repro.linalg.policy import KernelPolicy
from repro.models import make_model
from repro.sgd.runner import full_scale_factor, working_set_bytes
from repro.utils import derive_rng

from conftest import publish


@pytest.fixture(scope="module")
def covtype_workload():
    ds = load("covtype", "small")
    return AsyncWorkload.for_linear(ds, make_model("lr", ds))


@pytest.fixture(scope="module")
def mlp_trace():
    ds = load_mlp("real-sim", "small")
    model = make_model("mlp", ds)
    w = model.init_params(derive_rng(0, "abl"))
    with recording() as tr:
        model.full_grad(ds.X, ds.y, w)
    return tr.scaled(full_scale_factor(ds, "mlp")), working_set_bytes(ds, model, "mlp")


class TestAblationCoherence:
    """Ablation 4: the coherence model is what makes dense parallel
    Hogwild slower than sequential."""

    def test_phenomenon_disappears_without_coherence(self, covtype_workload):
        on = CpuModel()
        off = CpuModel(model_coherence=False)
        assert on.async_epoch_time(covtype_workload, 56) > on.async_epoch_time(
            covtype_workload, 1
        )
        assert off.async_epoch_time(covtype_workload, 56) < off.async_epoch_time(
            covtype_workload, 1
        )

    def test_benchmark_publish(self, covtype_workload, artifact_dir):
        rows = []
        for label, model in (("coherence-on", CpuModel()), ("coherence-off", CpuModel(model_coherence=False))):
            rows.append(
                f"{label}: seq={model.async_epoch_time(covtype_workload, 1)*1e3:.2f}ms "
                f"par={model.async_epoch_time(covtype_workload, 56)*1e3:.2f}ms"
            )
        publish(artifact_dir, "ablation_coherence.txt", "\n".join(rows))


class TestAblationWarpShuffle:
    """Ablation 3: warp-shuffle pre-aggregation keeps dense GPU Hogwild
    viable; without it the atomic floor explodes."""

    def test_shuffle_bounds_atomics(self, covtype_workload):
        on = GpuModel(warp_shuffle=True).async_breakdown(covtype_workload)
        off = GpuModel(warp_shuffle=False).async_breakdown(covtype_workload)
        assert off.total > 3.0 * on.total


class TestAblationGemmThreshold:
    """Ablation 2: sweep the ViennaCL GEMM parallelisation threshold and
    watch the MLP parallel speedup move from ~fully-parallel to ~2x."""

    @pytest.mark.parametrize("threshold", [0, 500, 5000, 50_000])
    def test_threshold_monotone(self, mlp_trace, threshold):
        trace, ws = mlp_trace
        policy = KernelPolicy(name=f"thr{threshold}", gemm_min_result_size=threshold)
        cpu = CpuModel(policy=policy)
        speedup = cpu.sync_epoch_time(trace, 1, ws) / cpu.sync_epoch_time(trace, 56, ws)
        if threshold == 0:
            assert speedup > 5.0
        if threshold == 50_000:
            assert speedup < 3.5

    def test_paper_policy_sits_at_two(self, mlp_trace, artifact_dir):
        trace, ws = mlp_trace
        lines = []
        for threshold in (0, 500, 5000, 50_000):
            policy = KernelPolicy(name=f"thr{threshold}", gemm_min_result_size=threshold)
            cpu = CpuModel(policy=policy)
            s = cpu.sync_epoch_time(trace, 1, ws) / cpu.sync_epoch_time(trace, 56, ws)
            lines.append(f"gemm_min_result_size={threshold:>6}: seq/par speedup = {s:.2f}x")
        publish(artifact_dir, "ablation_gemm_threshold.txt", "\n".join(lines))
        cpu = CpuModel(policy=VIENNACL_POLICY)
        s = cpu.sync_epoch_time(trace, 1, ws) / cpu.sync_epoch_time(trace, 56, ws)
        assert 1.5 <= s <= 3.5


class TestAblationCacheResidency:
    """Ablation 5: the aggregate-cache residency bonus is what produces
    super-linear parallel speedup; with a full single-thread L3 share
    it shrinks drastically."""

    def test_residency_drives_superlinearity(self):
        ds = load("w8a", "small")
        model = make_model("lr", ds)
        w = model.init_params(derive_rng(0, "abl2"))
        with recording() as tr:
            model.full_grad(ds.X, ds.y, w)
        trace = tr.scaled(full_scale_factor(ds, "lr"))
        ws = working_set_bytes(ds, model, "lr")

        normal = CpuModel()
        generous_seq = CpuModel(spec=replace(XEON_E5_2660V4_DUAL, seq_l3_fraction=1.0))
        s_normal = normal.sync_epoch_time(trace, 1, ws) / normal.sync_epoch_time(trace, 56, ws)
        s_generous = generous_seq.sync_epoch_time(trace, 1, ws) / generous_seq.sync_epoch_time(trace, 56, ws)
        assert s_normal > 2.0 * s_generous


class TestAblationStaleness:
    """Ablation 1: statistical efficiency must degrade monotonically-ish
    with the simulated concurrency — re-measured, not assumed."""

    def test_epoch_inflation_with_concurrency(self, artifact_dir):
        import numpy as np

        from repro.asyncsim import AsyncSchedule, run_async_epoch
        from repro.sgd.convergence import tolerance_threshold

        ds = load("w8a", "small")
        model = make_model("lr", ds)
        init = model.init_params(derive_rng(0, "stale"))
        initial = model.loss(ds.X, ds.y, init)
        target = tolerance_threshold(0.05, 0.10, initial)
        lines, epochs_needed = [], {}
        for c in (1, 56, 512, 2048):
            w = init.copy()
            rng = derive_rng(0, f"stale/{c}")
            epochs = None
            for e in range(1, 120):
                run_async_epoch(model, ds.X, ds.y, w, 1.0, AsyncSchedule(concurrency=c), rng)
                if model.loss(ds.X, ds.y, w) <= target:
                    epochs = e
                    break
            epochs_needed[c] = epochs if epochs is not None else np.inf
            lines.append(f"concurrency={c:>5}: epochs to band = {epochs_needed[c]}")
        publish(artifact_dir, "ablation_staleness.txt", "\n".join(lines))
        assert epochs_needed[1] <= epochs_needed[512]
        assert epochs_needed[56] <= epochs_needed[2048]

