"""End-to-end wiring: telemetry must observe training, never change it."""

import numpy as np
import pytest

import repro
from repro.hardware import AsyncWorkload
from repro.telemetry import Telemetry, chrome_trace, keys


def _train(**kwargs):
    return repro.train(
        "lr",
        "w8a",
        architecture="cpu-par",
        strategy="asynchronous",
        scale="tiny",
        max_epochs=15,
        **kwargs,
    )


class TestBitIdentical:
    def test_disabled_telemetry_does_not_perturb_training(self):
        plain = _train()
        nulled = _train(telemetry=repro.NullTelemetry())
        live = _train(telemetry=Telemetry())
        for other in (nulled, live):
            assert other.curve.epochs == plain.curve.epochs
            np.testing.assert_array_equal(other.curve.losses, plain.curve.losses)
            assert other.time_per_iter == plain.time_per_iter

    def test_sync_path_also_identical(self):
        plain = repro.train("svm", "w8a", strategy="synchronous", scale="tiny",
                            max_epochs=10)
        live = repro.train("svm", "w8a", strategy="synchronous", scale="tiny",
                           max_epochs=10, telemetry=Telemetry())
        np.testing.assert_array_equal(live.curve.losses, plain.curve.losses)


class TestCountersMatchResult:
    def test_async_counters_consistent_with_train_result(self):
        tel = Telemetry()
        result = _train(telemetry=tel)
        counters = tel.counters()
        epochs = result.curve.epochs[-1]
        n = result.dataset_stats["n_examples"]
        assert counters[keys.EPOCHS] == epochs
        assert counters[keys.GRAD_EVALS] == epochs * n
        assert counters[keys.UPDATES_APPLIED] == epochs * n
        assert tel.gauges()[keys.SIM_SECONDS_PER_EPOCH] == result.time_per_iter
        assert tel.gauges()[keys.SIM_SECONDS_TOTAL] == epochs * result.time_per_iter

    def test_sync_counters_consistent_with_train_result(self):
        tel = Telemetry()
        result = repro.train("lr", "w8a", architecture="gpu",
                             strategy="synchronous", scale="tiny",
                             max_epochs=10, telemetry=tel)
        counters = tel.counters()
        epochs = result.curve.epochs[-1]
        n = result.dataset_stats["n_examples"]
        assert counters[keys.EPOCHS] == epochs
        assert counters[keys.GRAD_EVALS] == epochs * n
        # Synchronous SGD applies one full-batch update per epoch.
        assert counters[keys.UPDATES_APPLIED] == epochs
        assert counters[keys.KERNEL_LAUNCHES] > 0

    def test_hardware_counters_populated(self):
        tel = Telemetry()
        _train(telemetry=tel)
        counters = tel.counters()
        assert counters[keys.FLOPS_MODELLED] > 0
        assert counters[keys.BYTES_MOVED] > 0


class TestSpanTree:
    def test_train_produces_expected_span_tree(self):
        tel = Telemetry()
        _train(telemetry=tel)
        by_name = {r.name: r for r in tel.tracer.records()}
        assert {"train", "dataset.load", "async.optimize",
                "hardware.cost"} <= set(by_name)
        root = by_name["train"]
        assert root.parent_id is None
        for child in ("dataset.load", "async.optimize", "hardware.cost"):
            assert by_name[child].parent_id == root.span_id
        assert root.attributes["strategy"] == "asynchronous"
        # Simulated time is attributed to the costing span and rolled up.
        assert by_name["hardware.cost"].sim_seconds is not None
        assert tel.tracer.total_sim_seconds() > 0

    @pytest.mark.parametrize(
        "task, builder", [("lr", "for_linear"), ("mlp", "for_batched")]
    )
    def test_workload_built_inside_hardware_cost(self, monkeypatch, task, builder):
        """The async workload build is pricing work: its time belongs to
        ``hardware.cost``, not to ``train``'s self time."""
        tel = Telemetry()
        real = getattr(AsyncWorkload, builder)
        seen = []

        def spy(*args, **kwargs):
            seen.append(tel.tracer.current_span().name)
            return real(*args, **kwargs)

        monkeypatch.setattr(AsyncWorkload, builder, staticmethod(spy))
        repro.train(
            task,
            "w8a",
            architecture="gpu",
            strategy="asynchronous",
            scale="tiny",
            max_epochs=2,
            telemetry=tel,
        )
        assert seen == ["hardware.cost"]

    def test_trace_exports_after_real_run(self):
        tel = Telemetry()
        _train(telemetry=tel)
        doc = chrome_trace(tel)
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "X", "C"} <= phases
