"""One workload, one interpreter: set-up, timed window, checks, result line.

This is what ``BENCHMARK.json``'s command runs.  The interpreter the
driver starts *is* the workload's fresh interpreter; its temporary
``REPRO_CACHE_DIR`` lives under ``bench/out/tmp`` and is gone when the
run ends.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from repro import datasets, sgd

from . import harness, probes
from .trace import NullTracer, Tracer
from .workloads import WORKLOADS, Workload

#: Cold set-up is repeated until this many samples or this many seconds
#: are spent, whichever comes first; ``setup_s`` is their median.  The
#: budget is what the driver's cap on total run time leaves: the longest
#: set-ups are measured once or twice, the others three times.
SETUP_SAMPLES = 3
SETUP_BUDGET_S = 6.0


def cold_setups(workload: Workload, hygiene: harness.Hygiene, samples: int) -> list[float]:
    """Set the workload up from cold; leaves the last set-up standing.
    Returns host-normalised seconds, the yardstick read before and after."""
    yard = workload.yard
    times: list[float] = []
    spent = 0.0
    while True:
        os.environ["REPRO_CACHE_DIR"] = str(hygiene.fresh_dir("cache"))
        datasets.clear_cache()
        sgd.clear_reference_cache()
        yard.sample()
        t0 = time.perf_counter()
        workload.setup()
        t1 = time.perf_counter()
        yard.sample()
        times.append((t1 - t0) * yard.factor(t0, t1, workload.host_share))
        spent += t1 - t0
        if len(times) >= samples or spent >= SETUP_BUDGET_S:
            return times
        workload.teardown()


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    quick: bool = False,
    own_probes: bool = False,
    detail_out: Path | None = None,
) -> dict:
    """Run one workload and return the contract's result object.

    *own_probes* (traced runs only) swaps the core probes of every layer
    for the full probe set of the layers this workload owns — the mode
    ``python -m bench run --traced`` uses across all six workloads.
    """
    spec = harness.load_spec()
    fp = harness.fingerprint()
    harness.warn_if_noisy(fp)
    hygiene = harness.Hygiene(harness.OUT / "tmp" / f"{name}-{os.getpid()}")
    yard = harness.Yardstick(min(WORKLOADS[name].cores, harness.nproc()))
    workload = WORKLOADS[name](seed, quick, hygiene.fresh_dir("work"), yard)
    tracer = Tracer(name) if trace else NullTracer()
    messages: list[str] = []
    detail: dict = {}
    try:
        setup_times = cold_setups(workload, hygiene, 1 if quick else SETUP_SAMPLES)
        if trace:
            # Half the window untraced, half traced: their throughput
            # ratio is what the spans cost.
            plain = workload.window(seconds / 2, NullTracer())
            with tracer.span("window", "bench"):
                win = workload.window(seconds / 2, tracer)
            win.attempted += plain.attempted
            win.failed += plain.failed
            win.messages += plain.messages
        else:
            win = workload.window(seconds, tracer)
        # This interpreter's share of peak_rss_mb, before the checker's
        # own serial runs and dataset copies can add to it.
        rss_self = harness.max_rss_mb(resource.RUSAGE_SELF)
        attempted, failed = win.attempted, win.failed
        messages += win.messages
        check_failures = workload.check()
        attempted += workload.CHECKS
        failed += len(check_failures)
        messages += check_failures
        if not win.slices:
            raise RuntimeError(f"no operation of {name} succeeded: {messages}")
        if trace:
            values = probes.run(
                workload, tracer, plain, win, seed=seed, quick=quick,
                own=own_probes, tmp=hygiene.fresh_dir("probes"),
            )
            units = {n: m.unit for n, m in probes.METRICS.items()}
            if not own_probes:
                values = {m["name"]: values[m["name"]] for m in spec["per_layer"]}
            tracer.write_chrome(harness.OUT / f"trace-{name}.json")
            detail["self_time_s"] = tracer.self_times()
        else:
            loss_ratio = workload.loss_ratio()
    finally:
        workload.teardown()
        # The server or pool that served the window is waited for now,
        # the yardstick's helper not yet: RUSAGE_CHILDREN sees the first.
        rss_children = harness.max_rss_mb(resource.RUSAGE_CHILDREN)
        yard.close()
    if not trace:
        values = {
            "setup_s": statistics.median(setup_times),
            "work_per_s": win.work_per_s,
            "latency_ms_p50": win.latency_ms_p50,
            "latency_ms_tail": win.latency_ms_tail,
            "peak_rss_mb": rss_self + rss_children,
            "loss_ratio": loss_ratio,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        detail.update(
            setup_samples=setup_times,
            slices=len(win.slices),
            ops=sum(s.ops for s in win.slices),
            tail_percentile=harness.TAIL_LEVEL if win.has_tail else 50.0,
            # What the host ran the yardstick slice in: normalised times
            # x this / NOMINAL_MS are the wall-clock ones.
            yardstick_ms=statistics.median(yard.samples_ms),
            work_unit=workload.unit,
        )
    # One check, one possible failure, whatever it finds.
    leaks = hygiene.finish()
    attempted += 1
    failed += bool(leaks)
    messages += leaks
    for message in messages:
        print(f"FAILED [{name}] {message}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    if detail_out is not None:
        detail.update(
            workload=name, seed=seed, seconds=seconds, traced=trace, quick=quick,
            fingerprint=fp, failures=messages, result=result,
        )
        detail_out.parent.mkdir(parents=True, exist_ok=True)
        detail_out.write_text(json.dumps(detail, indent=1))
    return result
