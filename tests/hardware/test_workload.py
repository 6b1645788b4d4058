"""Tests for the AsyncWorkload descriptors."""

import numpy as np
import pytest

import repro
from repro.datasets import PAPER_PROFILES, load, load_mlp
from repro.hardware import AsyncWorkload, warp_divergence_factor
from repro.hardware import workload as workload_mod
from repro.hardware.coherence import zipf_line_frequencies
from repro.models import make_model


class TestWarpDivergence:
    def test_constant_rows_no_divergence(self):
        assert warp_divergence_factor(np.full(100, 54.0)) == 1.0

    def test_heavy_tail_diverges(self, rng):
        lengths = rng.lognormal(3.0, 1.5, size=2000)
        assert warp_divergence_factor(lengths) > 2.0

    def test_empty(self):
        assert warp_divergence_factor(np.array([])) == 1.0

    def test_deterministic(self, rng):
        lengths = rng.lognormal(3.0, 1.0, size=500)
        assert warp_divergence_factor(lengths) == warp_divergence_factor(lengths)


class TestForLinear:
    def test_full_scale_hogwild(self):
        ds = load("news", "tiny")
        model = make_model("lr", ds)
        w = AsyncWorkload.for_linear(ds, model)
        full = PAPER_PROFILES["news"]
        assert w.steps_per_epoch == full.n_examples  # paper scale, not tiny
        assert w.examples_per_step == 1
        assert not w.dense_update
        assert w.model_lines_per_step == pytest.approx(full.nnz_avg)

    def test_dense_dataset(self):
        ds = load("covtype", "tiny")
        w = AsyncWorkload.for_linear(ds, make_model("lr", ds))
        assert w.dense_update
        assert w.warp_divergence == 1.0
        assert w.line_stats.max_frequency == 1.0

    def test_sparse_divergence_exceeds_dense(self):
        news = load("news", "tiny")
        cov = load("covtype", "tiny")
        w_news = AsyncWorkload.for_linear(news, make_model("lr", news))
        w_cov = AsyncWorkload.for_linear(cov, make_model("lr", cov))
        assert w_news.warp_divergence > w_cov.warp_divergence


class TestPricedOncePerProcess:
    """The per-profile and per-dataset statistics are computed once and
    reused; every modelled number stays bit-identical."""

    def test_warp_divergence_cached_on_dataset(self, monkeypatch):
        ds = load("news", "tiny")
        model = make_model("lr", ds)
        w = AsyncWorkload.for_linear(ds, model)
        assert ds._warp_divergence == warp_divergence_factor(ds.X.row_nnz)
        assert w.warp_divergence == ds._warp_divergence

        def fail(*args, **kwargs):
            raise AssertionError("warp divergence recomputed")

        monkeypatch.setattr(workload_mod, "warp_divergence_factor", fail)
        assert AsyncWorkload.for_linear(ds, model).warp_divergence == w.warp_divergence

    def test_shares_line_stats_across_workloads(self):
        ds = load("news", "tiny")
        a = AsyncWorkload.for_linear(ds, make_model("lr", ds))
        b = AsyncWorkload.for_linear(ds, make_model("svm", ds))
        assert a.line_stats is b.line_stats

    def test_train_identical_cold_and_warm(self):
        def run():
            return repro.train(
                "svm",
                "news",
                "gpu",
                "asynchronous",
                scale="tiny",
                max_epochs=3,
                early_stop_tolerance=None,
            )

        zipf_line_frequencies.cache_clear()
        load("news", "tiny")._warp_divergence = None
        cold = run()
        assert zipf_line_frequencies.cache_info().currsize == 1
        warm = run()
        assert zipf_line_frequencies.cache_info().hits >= 1
        assert warm.time_per_iter == cold.time_per_iter
        assert warm.curve.epochs == cold.curve.epochs
        assert warm.curve.losses == cold.curve.losses


class TestForBatched:
    def test_hogbatch_shape(self):
        ds = load_mlp("w8a", "tiny")
        model = make_model("mlp", ds)
        w = AsyncWorkload.for_batched(ds, model, batch_size=512)
        full = PAPER_PROFILES["w8a"]
        assert w.examples_per_step == 512
        assert w.steps_per_epoch == -(-full.n_examples // 512)
        assert w.dense_update
        assert w.model_bytes == model.n_params * 8

    def test_rejects_bad_batch(self):
        ds = load_mlp("w8a", "tiny")
        with pytest.raises(ValueError):
            AsyncWorkload.for_batched(ds, make_model("mlp", ds), batch_size=0)

    def test_validation(self):
        ds = load("w8a", "tiny")
        w = AsyncWorkload.for_linear(ds, make_model("lr", ds))
        with pytest.raises(ValueError):
            AsyncWorkload(
                name="bad",
                steps_per_epoch=0,
                examples_per_step=1,
                flops_per_step=1.0,
                data_bytes_per_step=1.0,
                model_lines_per_step=1.0,
                model_bytes=8.0,
                line_stats=w.line_stats,
                warp_divergence=1.0,
                dense_update=False,
            )
