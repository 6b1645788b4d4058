"""Fold the runs of ``python -m bench run`` into one result file and print it."""

from __future__ import annotations

import statistics

from .harness import quartiles

#: The train stack is strictly nested, so it is read as taxes over plain
#: ``serial_sgd_epoch`` on the same inputs: (label, rate, tax, scaling).
#: Each tax was taken inside one process against a serial rate measured
#: there, so rows stay comparable when the host changed speed between
#: the workloads' runs; a 2-worker row is its 1-worker tax over its scaling.
TAX_STACKS = {
    "dense (lr/covtype)": (
        ("models      serial_sgd_epoch", "models.serial_updates_per_s.dense", None, None),
        ("asyncsim    run_async_epoch c=1", "asyncsim.updates_per_s.c1",
         "asyncsim.tax_over_serial", None),
        ("parallel    train_shm 1 worker", "parallel.updates_per_s.w1",
         "parallel.tax_over_serial", None),
        ("parallel    train_shm 2 workers", "parallel.updates_per_s.w2",
         "parallel.tax_over_serial", "parallel.scaling_1to2"),
    ),
    "sparse (svm/w8a)": (
        ("models      serial_sgd_epoch", "models.serial_updates_per_s.sparse", None, None),
        ("distributed train_ps 1 node", "distributed.updates_per_s.n1",
         "distributed.tax_over_serial", None),
        ("distributed train_ps 2 nodes", "distributed.updates_per_s.n2",
         "distributed.tax_over_serial", "distributed.scaling_1to2"),
    ),
}


def aggregate(runs: list[dict], traced: dict | None) -> dict:
    """One workload's entry of the result file, from its runs' details."""
    end_to_end = {}
    for name, first in runs[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, median, q3 = quartiles(values)
        end_to_end[name] = {
            "unit": first["unit"], "values": values, "median": median, "q1": q1, "q3": q3,
        }
    counted = runs + ([traced] if traced else [])
    attempted = sum(r["result"]["attempted"] for r in counted)
    failed = sum(r["result"]["failed"] for r in counted)
    out = {
        "end_to_end": end_to_end,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "failures": [m for r in counted for m in r["failures"]],
        "slices": [r["slices"] for r in runs],
        "ops": [r["ops"] for r in runs],
        "tail_percentile": runs[0]["tail_percentile"],
        "yardstick_ms": statistics.median(r["yardstick_ms"] for r in runs),
        "work_unit": runs[0]["work_unit"],
        "noisy_host": any(r["fingerprint"]["noisy_host"] for r in counted),
    }
    if traced:
        out["per_layer"] = traced["result"]["metrics"]
        out["self_time_s"] = traced["self_time_s"]
    return out


def tax_stack(per_layer: dict[str, float]) -> list[str]:
    lines = []
    for title, rows in TAX_STACKS.items():
        if not all(key in per_layer for _, key, _, _ in rows):
            continue
        lines.append(f"  {title}")
        for label, rate, tax, scaling in rows:
            ratio = per_layer[tax] / per_layer.get(scaling, 1.0) if tax else 1.0
            lines.append(
                f"    {label:<34}{per_layer[rate]:>12,.0f} updates/s{ratio:>9.2f}x serial"
            )
    return lines


def render(results: dict, spec: dict) -> str:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    fp = results["fingerprint"]
    lines = [
        f"host: {fp['nproc']} x {fp['cpu_model']} | python {fp['python']} numpy "
        f"{fp['numpy']} | git {fp['git_sha']} | load {fp['loadavg_1m']:.2f}"
        + (" | NOISY HOST" if fp["noisy_host"] else ""),
        f"seed {results['seed']}, {results['seconds']:g} s windows, "
        f"{results['runs']} run(s) per workload" + (" [quick]" if results["quick"] else ""),
    ]
    merged: dict[str, float] = {}
    for name, w in results["workloads"].items():
        lines.append("")
        lines.append(
            f"{name}  (work = {w['work_unit']}; tail = p{w['tail_percentile']:g}; "
            f"{min(w['slices'])} slices of {min(w['ops']) // min(w['slices'])} op(s) per run; "
            f"yardstick {w['yardstick_ms']:.2f} ms; failed {w['failed']}/{w['attempted']}"
            + ("; noisy host" if w["noisy_host"] else "") + ")"
        )
        lines.append(f"  {'metric':<18}{'unit':<7}{'median':>14}{'q1':>14}{'q3':>14}{'bound':>7}")
        for metric, m in w["end_to_end"].items():
            lines.append(
                f"  {metric:<18}{m['unit']:<7}{m['median']:>14.6g}{m['q1']:>14.6g}"
                f"{m['q3']:>14.6g}{bounds.get(metric, 0):>7.2f}"
            )
        lines.append(f"  {'failed_share':<18}{'ratio':<7}{w['failed_share']:>14.6g}")
        for message in w["failures"]:
            lines.append(f"  FAILED: {message}")
        for metric, m in w.get("per_layer", {}).items():
            lines.append(f"    {metric:<46}{m['value']:>16.6g} {m['unit']}")
            merged[metric] = m["value"]
        for layer, seconds in sorted(w.get("self_time_s", {}).items()):
            lines.append(f"    self time [{layer}] {seconds:.3f} s")
    stack = tax_stack(merged)
    if stack:
        lines += ["", "tax stack (rate of each layer on the same inputs):"] + stack
    return "\n".join(lines)
