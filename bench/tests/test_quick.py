"""The contract end to end, at the --quick profile (tiny, one set-up)."""

import json
import math
import os
import re
import shutil
import subprocess

import pytest

from bench import harness
from bench.probes import METRICS
from bench.workloads import WORKLOAD_NAMES

SPEC = harness.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_benchmark_json_lists_the_workloads_and_the_core_probes():
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOAD_NAMES
    core = {n: m for n, m in METRICS.items() if m.core}
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        n: (m.unit, m.better) for n, m in core.items()
    }


def _contract_run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "11", "--seconds", "0.3",
         "--trace", str(trace), "--quick"],
        cwd=harness.ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_prints_exactly_the_named_metrics(workload, trace, section):
    result = _contract_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert set(metric) == {"value", "unit"} and metric["unit"] == expected[name]
        assert math.isfinite(metric["value"])


def test_without_the_program_the_benchmark_exits_non_zero(tmp_path):
    """The driver also runs the command where only BENCHMARK.json and
    bench/ exist: no result line, a non-zero exit."""
    shutil.copy(harness.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        harness.BENCH_DIR, tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__", "tests"),
    )
    done = subprocess.run(
        [*SPEC["command"], "--workload", "train-sim", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={"PATH": os.environ["PATH"]}, timeout=60,
    )
    assert done.returncode != 0 and done.stdout.strip() == ""
    # compare only reads two result files: it needs no program.
    results = tmp_path / "r.json"
    results.write_text(json.dumps({
        "fingerprint": {"git_sha": None}, "seed": 1, "runs": 1, "workloads": {},
    }))
    done = subprocess.run(
        ["python3", "-m", "bench", "compare", str(results), str(results)],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode == 0 and done.stdout.strip().endswith("PASS")
