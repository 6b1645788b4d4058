from bench import harness
from bench.compare import compare, verdict, worsening

#: The comparison's rules do not depend on the calibrated bounds; the
#: tests fix their own so a 15 % change is beyond them.
SPEC = {
    "end_to_end": [
        {"name": name, "unit": "x", "better": better, "bound": 0.10}
        for name, better in (
            ("setup_s", "lower"), ("work_per_s", "higher"), ("latency_ms_p50", "lower"),
            ("latency_ms_tail", "lower"), ("peak_rss_mb", "lower"), ("loss_ratio", "lower"),
        )
    ]
}


def _results(scale: dict[str, float] | None = None, failed: int = 0) -> dict:
    """A synthetic result file; *scale* multiplies the named metrics."""
    base = {
        "setup_s": [5.0, 5.1, 4.9],
        "work_per_s": [1000.0, 1010.0, 990.0],
        "latency_ms_p50": [2.0, 2.02, 1.98],
        "latency_ms_tail": [4.0, 4.1, 3.9],
        "peak_rss_mb": [120.0, 120.5, 119.5],
        "loss_ratio": [1.0, 1.001, 0.999],
    }
    end_to_end = {}
    for name, values in base.items():
        values = [v * (scale or {}).get(name, 1.0) for v in values]
        q1, median, q3 = harness.quartiles(values)
        end_to_end[name] = {"unit": "x", "values": values, "median": median, "q1": q1, "q3": q3}
    return {
        "fingerprint": {"git_sha": "abc"}, "seed": 1, "runs": 3,
        "workloads": {"train-shm": {
            "end_to_end": end_to_end, "attempted": 100, "failed": failed,
            "failed_share": failed / 100,
        }},
    }


def test_worsening_is_signed_by_the_better_direction():
    assert worsening(100.0, 115.0, "lower") == 0.15
    assert worsening(100.0, 85.0, "higher") == 0.15
    assert worsening(100.0, 115.0, "higher") == -0.15


def test_a_fifteen_percent_throughput_drop_is_a_regression():
    lines, passed = compare(_results(), _results({"work_per_s": 0.85}), SPEC, False)
    assert not passed
    row = next(line for line in lines if "work_per_s" in line)
    assert row.endswith("regressed")
    assert sum(line.endswith("regressed") for line in lines) == 1


def test_a_a_agrees_and_an_improvement_passes_unless_equality_is_expected():
    assert compare(_results(), _results(), SPEC, True)[1]
    assert compare(_results(), _results({"work_per_s": 1.05}), SPEC, True)[1]
    faster = _results({"work_per_s": 1.4})
    assert compare(_results(), faster, SPEC, False)[1]
    lines, passed = compare(_results(), faster, SPEC, True)
    assert not passed and any(line.endswith("differs") for line in lines)


def test_a_rise_in_failed_share_fails_the_comparison():
    lines, passed = compare(_results(), _results(failed=1), SPEC, False)
    assert not passed
    assert next(line for line in lines if "failed_share" in line).endswith("regressed")


def test_wide_overlapping_runs_are_unresolved_not_unchanged():
    a = [100.0, 60.0, 140.0, 90.0]
    b = [105.0, 65.0, 150.0, 95.0]
    assert verdict(a, b, "lower", 0.10)[0] == "unresolved"
    # Every run of B worse than every run of A: resolved, and a regression.
    assert verdict(a, [v * 3 for v in a], "lower", 0.10)[0] == "regressed"
    assert verdict([10.0, 10.1, 9.9], [10.5, 10.6, 10.4], "lower", 0.10)[0] == "ok"


def test_a_workload_or_metric_missing_on_either_side_fails_the_comparison():
    a, b = _results(), _results()
    b["workloads"]["serve-batch"] = b["workloads"]["train-shm"]
    for pair in ((a, b), (b, a)):
        lines, passed = compare(*pair, SPEC, False)
        assert not passed and any("serve-batch" in line and "missing" in line for line in lines)
    b = _results()
    del b["workloads"]["train-shm"]["end_to_end"]["loss_ratio"]
    for pair in ((a, b), (b, a)):
        lines, passed = compare(*pair, SPEC, False)
        assert not passed and any("loss_ratio" in line and "missing" in line for line in lines)


def test_per_layer_rows_follow_a_and_skip_what_b_lacks():
    a, b = _results(), _results()
    a["workloads"]["train-shm"]["per_layer"] = {
        name: {"value": 2.0, "unit": "x"} for name in ("z.last", "a.first", "m.only_in_a")
    }
    b["workloads"]["train-shm"]["per_layer"] = {
        name: {"value": 3.0, "unit": "x"} for name in ("a.first", "z.last")
    }
    lines, passed = compare(a, b, SPEC, False)
    assert passed
    assert [line.split()[0] for line in lines if line.startswith("  ")] == ["z.last", "a.first"]
