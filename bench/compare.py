"""``python -m bench compare A.json B.json``: is B no worse than A?

One row per workload x end-to-end metric, never a combined score.  A
metric whose run-to-run spread is wider than its bound is reported as
``unresolved``, not as unchanged, unless the two sets of runs do not
overlap at all.
"""

from __future__ import annotations

import json
from pathlib import Path

from .harness import load_spec, spread


def worsening(a: float, b: float, better: str) -> float:
    """How much worse *b* is than *a*, as a share of *a* (negative = better)."""
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """``(verdict, worsening of the medians)`` for one metric on one workload."""
    from statistics import median

    worse = worsening(median(a), median(b), better)
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if max(spread(a), spread(b)) > bound and overlap:
        return "unresolved", worse
    return ("regressed" if worse > bound else "ok"), worse


def compare(a: dict, b: dict, spec: dict, expect_equal: bool) -> tuple[list[str], bool]:
    """Report lines and whether the comparison passes."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    lines = [
        f"A: git {a['fingerprint']['git_sha']} seed {a['seed']} "
        f"({a['runs']} runs) | B: git {b['fingerprint']['git_sha']} seed {b['seed']} "
        f"({b['runs']} runs)" + ("  [A/A: expecting agreement]" if expect_equal else ""),
        f"{'workload':<14}{'metric':<18}{'A median':>13}{'A spread':>9}"
        f"{'B median':>13}{'B spread':>9}{'worse by':>10}{'bound':>7}  verdict",
    ]
    passed = True
    for name in list(a["workloads"]) + [n for n in b["workloads"] if n not in a["workloads"]]:
        if name not in a["workloads"] or name not in b["workloads"]:
            lines.append(f"{name:<14}missing from {'B' if name in a['workloads'] else 'A'}")
            passed = False
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in sorted(wa["end_to_end"].keys() ^ wb["end_to_end"].keys()):
            lines.append(f"{name:<14}{metric:<18}missing from one side")
            passed = False
        for metric, ma in wa["end_to_end"].items():
            if metric not in wb["end_to_end"]:
                continue
            spec_m = metrics[metric]
            va, vb = ma["values"], wb["end_to_end"][metric]["values"]
            word, worse = verdict(va, vb, spec_m["better"], spec_m["bound"])
            if expect_equal:
                # Same code twice: overlapping runs are expected, and the
                # medians must agree within the bound in either direction.
                word = "ok" if abs(worse) <= spec_m["bound"] else "differs"
            passed &= word not in ("regressed", "differs")
            lines.append(
                f"{name:<14}{metric:<18}{ma['median']:>13.6g}{spread(va):>9.3f}"
                f"{wb['end_to_end'][metric]['median']:>13.6g}{spread(vb):>9.3f}"
                f"{worse:>+10.3f}{spec_m['bound']:>7.2f}  {word}"
            )
        rose = wb["failed_share"] > wa["failed_share"]
        passed &= not rose
        lines.append(
            f"{name:<14}{'failed_share':<18}{wa['failed_share']:>13.6g}{'':>9}"
            f"{wb['failed_share']:>13.6g}{'':>9}{'':>10}{'':>7}  "
            + ("regressed" if rose else "ok")
        )
        layers_a, layers_b = wa.get("per_layer", {}), wb.get("per_layer", {})
        for metric in layers_a:
            if metric not in layers_b:
                continue
            x, y = layers_a[metric]["value"], layers_b[metric]["value"]
            change = f"{(y - x) / abs(x):+.3f}" if x else "n/a"
            lines.append(f"  {metric:<46}{x:>14.6g}{y:>14.6g}  {change}")
    return lines, passed


def main(path_a: Path, path_b: Path, expect_equal: bool) -> int:
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    lines, passed = compare(a, b, load_spec(), expect_equal)
    print("\n".join(lines))
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1
