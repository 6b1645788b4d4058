"""``scripts/bench_pairs.py``: both verdicts per metric, and the exit code.

``run`` (one benchmark run in one exported tree) and ``export`` (the
``git archive`` of one side) are stubbed, so each case feeds the script
ten chosen pairs of metric values.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PAIRS = 10


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _main(bench_pairs, monkeypatch, change):
    """Run the script's ``main`` over stubbed runs; *change* maps a metric
    name to a function of (parent value, run index) giving the change's
    value (unlisted metrics equal the parent's)."""
    counts = {"parent": 0, "change": 0}

    def fake_run(command, checkout, workload, seed):
        side = pathlib.Path(checkout).name
        i = counts[side]
        counts[side] += 1
        # Parent values: a 2 % spread around 100 on every metric.
        parent = {m["name"]: 100.0 + 0.2 * i for m in SPEC["end_to_end"]}
        if side == "parent":
            return parent
        return {name: change.get(name, lambda v, _i: v)(v, i) for name, v in parent.items()}

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "export", lambda rev, side, tmp: None)
    monkeypatch.setattr(
        sys, "argv", ["bench_pairs.py", "--workload", "grid-fanout", "--parent", "p"]
    )
    return bench_pairs.main()


def _line(out, name):
    (line,) = [ln for ln in out.splitlines() if ln.lstrip().startswith(f"{name} [")]
    return line


def test_every_metric_shows_both_verdicts(bench_pairs, monkeypatch, capsys):
    faster = {"work_per_s": lambda v, _i: 1.2 * v}
    assert _main(bench_pairs, monkeypatch, faster) == 0
    out = capsys.readouterr().out
    assert "grid-fanout: 10 pairs, p -> HEAD" in out
    assert _line(out, "work_per_s").endswith("GAIN; ok (worse by -20.0%, bound 25%)")
    for metric in SPEC["end_to_end"]:
        if metric["name"] != "work_per_s":
            line = _line(out, metric["name"])
            bound = f"bound {metric['bound']:.0%})"
            assert line.endswith(f"no gain claimed; ok (worse by +0.0%, {bound}")


def test_regression_beyond_the_bound_exits_1(bench_pairs, monkeypatch, capsys):
    slower_setup = {"setup_s": lambda v, _i: 1.5 * v}
    assert _main(bench_pairs, monkeypatch, slower_setup) == 1
    captured = capsys.readouterr()
    assert _line(captured.out, "setup_s").endswith(
        "no gain claimed; regressed (worse by +50.0%, bound 25%)"
    )
    assert "regressed beyond the bound: setup_s" in captured.err


def test_wide_overlapping_runs_are_unresolved(bench_pairs, monkeypatch, capsys):
    """A median 40 % worse, but with runs spread wider than the bound and
    overlapping the parent's: the regression rule cannot tell."""
    noisy = {"latency_ms_p50": lambda v, i: v * (0.9 if i % 2 else 2.0)}
    assert _main(bench_pairs, monkeypatch, noisy) == 0
    line = _line(capsys.readouterr().out, "latency_ms_p50")
    assert "; unresolved (worse by" in line
