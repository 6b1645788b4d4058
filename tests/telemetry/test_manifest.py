"""Run-manifest assembly and lossless JSON round-trip."""

import dataclasses
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
        assert m.blas_pinned is True  # tests/conftest.py imports repro first
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

    def test_manifest_without_blas_flag_loads(self, tmp_path):
        """Manifests written before ``blas_pinned`` existed still load."""
        data = build_manifest(_tiny_result(), None, CONFIG).to_dict()
        del data["blas_pinned"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(data))
        loaded = load_manifest(path)
        assert loaded.blas_pinned is None
        assert loaded.config == data["config"]


def _measured_manifest():
    """A manifest whose ``results["measured"]`` has the shm recovery
    record's shape: nested lists and dicts, a fault plan, counters."""
    m = build_manifest(_tiny_result(), None, CONFIG)
    m.results["measured"] = {
        "workers": 2,
        "workers_final": 1,
        "counters": {"shm.respawns": 1.0},
        "recovery": [
            {
                "action": "respawn",
                "epoch": 3,
                "workers": 2,
                "epoch_timeout": 1.5,
                "cause": {"type": "WorkerStall", "pids": [101, 102]},
            },
            {"action": "nan_scrub", "epoch": 4, "coordinates": 7},
        ],
        "fault_plan": [{"kind": "stall", "epoch": 3, "worker": 1, "seconds": None}],
        "shape": (2, [3, 4]),
    }
    return m


class TestToDict:
    def test_equals_asdict(self):
        m = _measured_manifest()
        assert m.to_dict() == dataclasses.asdict(m)
        expected = json.dumps(dataclasses.asdict(m), indent=2, sort_keys=True)
        assert m.to_json() == expected

    def test_shares_no_container(self):
        """Mutating any container of one ``to_dict()`` leaves the next
        ``to_dict()`` (and so the manifest) unchanged."""
        m = _measured_manifest()
        before = m.to_json()

        def containers(value):
            if isinstance(value, (dict, list)):
                yield value
                items = value.values() if isinstance(value, dict) else value
            elif isinstance(value, tuple):
                items = value
            else:
                return
            for item in items:
                yield from containers(item)

        found = list(containers(m.to_dict()))
        assert len(found) >= 15
        for container in found:
            if isinstance(container, dict):
                container["mutated"] = True
            else:
                container.append("mutated")
        assert m.to_json() == before
