"""Run-manifest assembly and lossless JSON round-trip."""

import json

import repro
from repro.sgd import RunConfig, run
from repro.telemetry import (
    MANIFEST_SCHEMA,
    RunManifest,
    Telemetry,
    build_manifest,
    keys,
    load_manifest,
)


CONFIG = RunConfig(
    "lr",
    "w8a",
    architecture="cpu-par",
    strategy="asynchronous",
    scale="tiny",
    max_epochs=12,
)


def _tiny_result(telemetry=None):
    return run(CONFIG, telemetry=telemetry)


class TestBuildManifest:
    def test_sections_populated(self):
        tel = Telemetry()
        result = _tiny_result(tel)
        m = build_manifest(result, tel, CONFIG)
        assert m.schema == MANIFEST_SCHEMA
        assert m.repro_version == repro.__version__
        assert m.config["task"] == "lr"
        assert m.config["dataset"] == "w8a"
        assert m.config["scale"] == "tiny"
        assert m.dataset["n_examples"] == 256
        assert m.results["epochs_run"] == result.curve.epochs[-1]
        assert m.results["time_per_iter_s"] == result.time_per_iter
        assert m.counters[keys.GRAD_EVALS] > 0

    def test_counters_consistent_with_result(self):
        tel = Telemetry()
        result = _tiny_result(tel)
        epochs = result.curve.epochs[-1]
        n = result.dataset_stats["n_examples"]
        m = build_manifest(result, tel, CONFIG)
        # Hogwild: one gradient evaluation and one applied update per
        # example per epoch; simulated time gauges mirror the result.
        assert m.counters[keys.GRAD_EVALS] == epochs * n
        assert m.counters[keys.UPDATES_APPLIED] == epochs * n
        assert m.counters[keys.EPOCHS] == epochs
        assert m.gauges[keys.SIM_SECONDS_PER_EPOCH] == result.time_per_iter
        assert m.gauges[keys.SIM_SECONDS_TOTAL] == epochs * result.time_per_iter

    def test_without_telemetry_results_still_present(self):
        result = _tiny_result()
        m = build_manifest(result, None, CONFIG)
        assert m.counters == {}
        assert m.results["final_loss"] == result.curve.final_loss

    def test_never_converged_tolerance_stored_as_null(self):
        result = _tiny_result()
        m = build_manifest(result, None, CONFIG)
        for pct in (10, 5, 2, 1):
            e = m.results[f"epochs_to_{pct}pct"]
            t = m.results[f"time_to_{pct}pct_s"]
            assert (e is None) == (t is None)
        json.dumps(m.to_dict())  # no Infinity anywhere


class TestRoundTrip:
    def test_write_load_equality(self, tmp_path):
        tel = Telemetry()
        result = _tiny_result(tel)
        m = build_manifest(result, tel, CONFIG)
        path = m.write(tmp_path / "manifest.json")
        loaded = load_manifest(path)
        assert loaded == m

    def test_json_text_round_trip(self):
        m = RunManifest(
            schema=MANIFEST_SCHEMA,
            created_unix=123.5,
            git_sha="abc123",
            repro_version="1.0.0",
            config={"task": "lr"},
            dataset={"n_examples": 10},
            results={"final_loss": 0.5},
            counters={"sgd.epochs": 3},
            gauges={"sim.seconds_per_epoch": 0.1},
        )
        assert RunManifest.from_dict(json.loads(m.to_json())) == m

    def test_unknown_fields_ignored_on_load(self, tmp_path):
        m = RunManifest(
            schema=MANIFEST_SCHEMA,
            created_unix=0.0,
            git_sha=None,
            repro_version="1.0.0",
        )
        data = m.to_dict()
        data["future_field"] = {"x": 1}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        assert load_manifest(path) == m
