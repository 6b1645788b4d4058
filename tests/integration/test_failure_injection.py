"""Failure-injection and pathological-input tests.

A library gets adopted when the unhappy paths are as deliberate as the
happy ones: degenerate datasets, adversarial schedules, numerically
hostile inputs and resource-shaped extremes must produce defined
behaviour (a clear error or a sensible result), never silent nonsense.
"""

import numpy as np
import pytest

from repro.asyncsim import AsyncSchedule, run_async_epoch
from repro.datasets import Dataset
from repro.datasets.profiles import DatasetProfile
from repro.hardware import AsyncWorkload, CpuModel, GpuModel
from repro.linalg import CSRMatrix, Trace, recording
from repro.models import LogisticRegression, make_model
from repro.sgd import SGDConfig, train_synchronous
from repro.utils import derive_rng
from repro.utils.errors import ConfigurationError, DataFormatError


def _dataset(X, y, name="degenerate"):
    n, d = X.shape
    nnz = X.row_nnz if isinstance(X, CSRMatrix) else np.full(n, d)
    return Dataset(
        name=name,
        X=X,
        y=y,
        profile=DatasetProfile(
            name=name,
            n_examples=n,
            n_features=d,
            nnz_min=int(nnz.min()),
            nnz_avg=float(max(nnz.mean(), 1e-9)),
            nnz_max=int(nnz.max()),
            mlp_arch=(d, 4, 2),
            mlp_sparsity_pct=100.0,
        ),
    )


class TestDegenerateData:
    def test_all_zero_feature_matrix_trains_flat(self):
        """Zero features: gradients vanish, loss stays at the initial
        value — no NaNs, no crash."""
        X = CSRMatrix.from_rows(
            [(np.array([], dtype=np.int64), np.array([]))] * 16, n_cols=8
        )
        y = np.array([1.0, -1.0] * 8)
        model = LogisticRegression(8)
        w = model.init_params(derive_rng(0, "z"))
        res = train_synchronous(model, X, y, w, SGDConfig(step_size=1.0, max_epochs=5))
        assert res.curve.final_loss == pytest.approx(res.curve.initial_loss)

    def test_single_example_dataset(self):
        X = CSRMatrix.from_rows([(np.array([0, 2]), np.array([1.0, -1.0]))], 4)
        y = np.array([1.0])
        model = LogisticRegression(4)
        w = model.init_params(derive_rng(0, "one"))
        run_async_epoch(
            model, X, y, w, 0.5, AsyncSchedule(concurrency=8), derive_rng(0, "s")
        )
        assert np.all(np.isfinite(w))

    def test_single_class_labels_learnable(self):
        """All-positive labels: the model should drive the loss toward
        zero rather than misbehaving on the missing class."""
        rng = derive_rng(0, "sc")
        X = np.abs(rng.standard_normal((32, 6)))
        y = np.ones(32)
        model = LogisticRegression(6)
        w = model.init_params(derive_rng(0, "w"))
        for _ in range(30):
            w -= 1.0 * model.full_grad(X, y, w)
        assert model.loss(X, y, w) < 0.2

    def test_duplicate_examples(self):
        rng = derive_rng(0, "dup")
        row = np.abs(rng.standard_normal(5))
        X = np.tile(row, (10, 1))
        y = np.ones(10)
        model = LogisticRegression(5)
        w = model.init_params(derive_rng(0, "w"))
        w -= model.full_grad(X, y, w)
        assert np.all(np.isfinite(w))

    def test_extreme_feature_values(self):
        """Huge magnitudes must saturate the stable losses, not overflow."""
        X = np.array([[1e8], [-1e8]])
        y = np.array([1.0, -1.0])
        model = LogisticRegression(1)
        w = np.array([1.0])
        loss = model.loss(X, y, w)
        grad = model.full_grad(X, y, w)
        assert np.isfinite(loss) and np.all(np.isfinite(grad))


class TestHostileSchedules:
    def test_concurrency_far_beyond_examples(self, lr_tiny):
        model, ds = lr_tiny
        w = model.init_params(derive_rng(0, "w"))
        run_async_epoch(
            model, ds.X, ds.y, w, 0.1,
            AsyncSchedule(concurrency=10**7), derive_rng(0, "s"),
        )
        assert np.all(np.isfinite(w))

    def test_pipeline_lag_beyond_epoch(self, lr_tiny):
        model, ds = lr_tiny
        w = model.init_params(derive_rng(0, "w"))
        run_async_epoch(
            model, ds.X, ds.y, w, 0.05,
            AsyncSchedule(concurrency=10**6, pipeline_block=2),
            derive_rng(0, "s"),
        )
        assert np.all(np.isfinite(w))

    def test_batch_size_beyond_examples(self, tiny_mlp_data):
        model = make_model("mlp", tiny_mlp_data)
        w = model.init_params(derive_rng(0, "w"))
        run_async_epoch(
            model, tiny_mlp_data.X, tiny_mlp_data.y, w, 0.1,
            AsyncSchedule(concurrency=1, batch_size=10**6),
            derive_rng(0, "s"),
        )
        assert np.all(np.isfinite(w))


class TestHardwareModelExtremes:
    def test_empty_trace_costs_zero(self):
        assert CpuModel().sync_epoch_time(Trace(), 56, 1e6) == 0.0
        assert GpuModel().sync_epoch_time(Trace()) == 0.0

    def test_zero_byte_workload(self, lr_tiny):
        model, ds = lr_tiny
        w = AsyncWorkload.for_linear(ds, model)
        from dataclasses import replace

        tiny = replace(w, flops_per_step=0.0, data_bytes_per_step=0.0)
        assert CpuModel().async_epoch_time(tiny, 56) > 0  # overheads remain

    def test_one_core_machine(self):
        """A degenerate 1-core, 1-thread spec must still price work."""
        from dataclasses import replace

        from repro.hardware import XEON_E5_2660V4_DUAL

        tiny_spec = replace(
            XEON_E5_2660V4_DUAL, sockets=1, cores_per_socket=1, threads_per_core=1
        )
        cpu = CpuModel(spec=tiny_spec)
        with recording() as tr:
            from repro.linalg import gemm

            gemm(np.ones((8, 8)), np.ones((8, 8)))
        assert cpu.sync_epoch_time(tr, 56, 1e6) > 0  # clipped to 1 thread


class TestMalformedInputsAcrossStack:
    def test_csr_wrong_dtype_coerced_or_rejected(self):
        m = CSRMatrix(
            np.array([0, 1]), np.array([0], dtype=np.int64),
            np.array([1], dtype=np.int32), (1, 2),
        )
        assert m.data.dtype == np.float64  # coerced on construction

    def test_labels_with_nan_rejected_by_validation(self):
        import io

        from repro.datasets import parse_libsvm_lines

        with pytest.raises(DataFormatError, match="line 2: non-finite label"):
            parse_libsvm_lines(io.StringIO("1 1:1\nnan 2:1\n"))

    def test_mismatched_dataset_shapes_rejected(self):
        X = CSRMatrix.from_dense(np.ones((4, 3)))
        with pytest.raises(ConfigurationError):
            _dataset(X, np.ones(5))

    def test_libsvm_binary_garbage(self):
        import io

        from repro.datasets import parse_libsvm_lines

        with pytest.raises(DataFormatError):
            parse_libsvm_lines(io.StringIO("\x00\x01garbage\n"))
