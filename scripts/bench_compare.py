"""Benchmark regression gate: fail if modelled time/epoch regressed.

Re-runs the :mod:`bench_snapshot` grid in memory and compares each
cell's ``sim.seconds_per_epoch`` gauge against the latest committed
``BENCH_<n>.json``.  Any cell more than ``--threshold`` (default 10%)
slower than the committed value fails the gate; faster cells and new
cells pass.  The modelled gauges are deterministic, so a genuine change
in a cell means a code change moved the cost model or the optimisation
— exactly what the gate should surface in CI.

``--inflate F`` multiplies the freshly measured values by ``F`` before
comparing — a self-test hook proving the gate actually trips (CI runs
``--inflate 2.0`` and asserts a non-zero exit).

A second, wall-clock gate guards the experiment-grid executor: the
snapshot grid is run end-to-end serially and with ``--grid-jobs``
workers on this machine, and the gate fails if the parallel run is
slower than the serial one beyond ``--grid-threshold`` — catching a
fan-out that stops paying for its own process overhead.  Both runs
happen back-to-back on the same host, so machine speed cancels out
(the committed snapshot's speedup is reported for context only).  The
``--inflate`` self-test skips this gate (it exercises the modelled-cell
comparison).

A third gate guards the scoring service: the bench's serving load runs
fresh (seeded generator, batched and direct modes back-to-back on this
host) and fails if the micro-batched path's sustained examples/sec
drops below ``--serve-threshold`` times the direct per-request
baseline — catching a batcher that stops paying for its own queueing.
Like the grid gate it is a same-host ratio, so machine speed cancels;
``--skip-serve`` is the escape hatch for 1-cpu hosts (also applied
automatically, and when the committed baseline predates the serving
section).

A fourth gate guards the distributed parameter-server backend: the
bench's ps scaling curve runs fresh (1 node, then the host's default
node count, back-to-back) and fails if the multi-node aggregate
updates/sec falls below ``--ps-threshold`` times the single-node rate —
catching a server that serialises its workers (a staleness gate that
over-blocks, a shard lock held across the wire).  Same-host ratio, so
machine speed cancels; skipped automatically on 1-cpu hosts and when
the committed baseline predates the ``ps`` section, ``--skip-ps``
is the explicit escape hatch.

A fifth gate rides the same fresh ps runs and guards the *wire
economics* of the batched protocol with absolute invariants on the
fresh counters — nothing is compared against the committed snapshot,
so the gate cannot pin itself to stale code: pull round-trips per
applied update must stay at or under 1.05 (one fused round-trip per
work item), and wire bytes per update (both directions) at or under
the layout bound — one request (frame header + push payload + version
vector) plus one reply shipping the full model.  Counter ratios, not
timings, so they are deterministic per dataset shape.

Usage::

    REPRO_CACHE_DIR=.repro_cache python scripts/bench_compare.py
    python scripts/bench_compare.py --inflate 2.0   # must fail
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
_SCRIPTS = Path(__file__).resolve().parent
if str(_SCRIPTS) not in sys.path:
    sys.path.insert(0, str(_SCRIPTS))

ROOT = Path(__file__).resolve().parent.parent
GAUGE = "sim.seconds_per_epoch"


def latest_bench_path() -> Path | None:
    paths = sorted(
        ROOT.glob("BENCH_*.json"),
        key=lambda p: int(p.stem.split("_")[1]),
    )
    return paths[-1] if paths else None


def cell_key(cell: dict) -> str:
    return "/".join(
        (cell["task"], cell["dataset"], cell["architecture"], cell["strategy"])
    )


def current_cells() -> list[dict]:
    """Re-run the snapshot grid (modelled cells only) in memory."""
    from bench_snapshot import ARCHITECTURES, GRID, STRATEGIES, run_cell

    cells = []
    for task, dataset in GRID:
        for architecture in ARCHITECTURES:
            for strategy in STRATEGIES:
                print(
                    f"  {task}/{dataset} {architecture} {strategy} ...",
                    flush=True,
                )
                cells.append(run_cell(task, dataset, architecture, strategy))
    return cells


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="maximum tolerated relative slowdown per cell (default 0.10)",
    )
    parser.add_argument(
        "--inflate",
        type=float,
        default=1.0,
        help="multiply fresh values by this factor (gate self-test hook)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="compare against this snapshot instead of the latest BENCH_<n>.json",
    )
    parser.add_argument(
        "--grid-jobs",
        type=int,
        default=4,
        help="worker processes for the grid wall-clock gate (default 4)",
    )
    parser.add_argument(
        "--grid-threshold",
        type=float,
        default=0.25,
        help="maximum tolerated parallel/serial grid wall-clock ratio above "
        "1.0 (default 0.25: parallel may be at most 25%% slower than serial "
        "before the gate fails)",
    )
    parser.add_argument(
        "--skip-grid",
        action="store_true",
        help="skip the grid wall-clock gate (modelled cells only)",
    )
    parser.add_argument(
        "--serve-threshold",
        type=float,
        default=0.5,
        help="minimum tolerated batched/direct serving throughput ratio "
        "(default 0.5: the micro-batched path must sustain at least half "
        "the direct per-request examples/sec; it normally exceeds it)",
    )
    parser.add_argument(
        "--skip-serve",
        action="store_true",
        help="skip the serving throughput gate (escape hatch for 1-cpu "
        "hosts, where concurrent load measures scheduler noise)",
    )
    parser.add_argument(
        "--ps-threshold",
        type=float,
        default=0.5,
        help="minimum tolerated multi-node/single-node ps updates-per-second "
        "ratio (default 0.5: running at the default node count must sustain "
        "at least half the single-node update rate; it normally exceeds it)",
    )
    parser.add_argument(
        "--skip-ps",
        action="store_true",
        help="skip the parameter-server throughput gate (escape hatch for "
        "1-cpu hosts, where node processes only time-share)",
    )
    parser.add_argument(
        "--report-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="write debug artifacts there (grid timing JSON + the grid "
        "manifests of both timed passes) — CI uploads the directory so "
        "gate failures are diagnosable from the workflow artifacts",
    )
    args = parser.parse_args(argv)

    baseline_path = args.baseline or latest_bench_path()
    if baseline_path is None:
        print("no committed BENCH_<n>.json to compare against; gate skipped")
        return 0
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    committed = {cell_key(c): c for c in baseline["cells"]}

    fresh = current_cells()

    failures = []
    compared = 0
    for cell in fresh:
        key = cell_key(cell)
        old = committed.get(key)
        if old is None:
            print(f"  NEW   {key} (no committed value)")
            continue
        old_v = old.get("gauges", {}).get(GAUGE)
        new_v = cell.get("gauges", {}).get(GAUGE)
        if old_v is None or new_v is None or old_v <= 0:
            print(f"  SKIP  {key} (gauge missing)")
            continue
        new_v *= args.inflate
        ratio = new_v / old_v
        compared += 1
        status = "OK"
        if ratio > 1.0 + args.threshold:
            status = "FAIL"
            failures.append((key, old_v, new_v, ratio))
        print(
            f"  {status:<5} {key}: {GAUGE} {old_v:.6g} -> {new_v:.6g} "
            f"({(ratio - 1.0) * 100.0:+.1f}%)"
        )

    print(
        f"\ncompared {compared} cells against {baseline_path.name} "
        f"(threshold {args.threshold:.0%})"
    )
    if failures:
        print(f"{len(failures)} cell(s) regressed beyond the threshold:")
        for key, old_v, new_v, ratio in failures:
            print(f"  {key}: {old_v:.6g} -> {new_v:.6g} ({ratio:.2f}x)")
        return 1

    host_cpus = os.cpu_count() or 1
    if not args.skip_grid and args.inflate == 1.0 and host_cpus < 2:
        # A process pool cannot win on a single-CPU host; the ratio
        # would only measure fork overhead.  The gate needs real cores.
        print(f"\ngrid wall-clock gate skipped: host has {host_cpus} cpu")
    elif not args.skip_grid and args.inflate == 1.0:
        from bench_snapshot import run_grid_timing

        committed_grid = baseline.get("grid")
        if committed_grid and committed_grid.get("speedup"):
            print(
                f"\ncommitted grid speedup ({baseline_path.name}): "
                f"{committed_grid['speedup']:.2f}x at jobs={committed_grid['jobs']}"
            )
        print(f"\ngrid wall-clock gate (jobs={args.grid_jobs}):")
        grid = run_grid_timing(args.grid_jobs, manifest_dir=args.report_dir)
        if args.report_dir is not None:
            args.report_dir.mkdir(parents=True, exist_ok=True)
            (args.report_dir / "grid_timing.json").write_text(
                json.dumps(grid, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        ratio = grid["parallel_seconds"] / grid["serial_seconds"]
        print(
            f"  serial {grid['serial_seconds']:.2f}s, parallel "
            f"{grid['parallel_seconds']:.2f}s ({grid['speedup']:.2f}x speedup)"
        )
        if ratio > 1.0 + args.grid_threshold:
            print(
                f"grid gate FAILED: parallel run is {ratio:.2f}x the serial "
                f"wall-clock (limit {1.0 + args.grid_threshold:.2f}x)"
            )
            return 1

    if args.skip_serve or args.inflate != 1.0:
        pass  # self-test runs exercise the modelled-cell comparison only
    elif host_cpus < 2:
        print(f"\nserving throughput gate skipped: host has {host_cpus} cpu")
    elif "serving" not in baseline:
        # A baseline from before the serving section exists cannot
        # anchor the report; the ratio is still same-host, so run it —
        # but only informationally once a committed section exists.
        print(
            f"\nserving throughput gate skipped: {baseline_path.name} has "
            "no serving section (commit a fresh bench snapshot first)"
        )
    else:
        from bench_snapshot import GRID, run_serving

        committed_serving = {
            (s["task"], s["dataset"]): s for s in baseline["serving"]
        }
        print("\nserving throughput gate:")
        serve_failures = []
        for task, dataset in GRID:
            fresh_s = run_serving(task, dataset)
            ratio = fresh_s["batched_vs_direct_examples_per_s"]
            old = committed_serving.get((task, dataset))
            context = ""
            if old and old.get("batched_vs_direct_examples_per_s"):
                context = (
                    f" (committed ratio "
                    f"{old['batched_vs_direct_examples_per_s']:.2f})"
                )
            status = "OK"
            if ratio is None or ratio < args.serve_threshold:
                status = "FAIL"
                serve_failures.append((task, dataset, ratio))
            print(
                f"  {status:<5} {task}/{dataset}: batched "
                f"{fresh_s['batched']['requests_per_second']:.0f} rps "
                f"p50 {fresh_s['batched']['latency_p50_ms']:.2f}ms "
                f"p99 {fresh_s['batched']['latency_p99_ms']:.2f}ms, "
                f"batched/direct {ratio:.2f}x{context}"
            )
        if serve_failures:
            print(
                f"serving gate FAILED: {len(serve_failures)} task(s) below "
                f"the {args.serve_threshold:.2f}x batched/direct floor"
            )
            return 1

    if args.skip_ps or args.inflate != 1.0:
        pass  # self-test runs exercise the modelled-cell comparison only
    elif host_cpus < 2:
        print(f"\nps throughput gate skipped: host has {host_cpus} cpu")
    elif "ps" not in baseline:
        print(
            f"\nps throughput gate skipped: {baseline_path.name} has "
            "no ps section (commit a fresh bench snapshot first)"
        )
    else:
        from bench_snapshot import GRID, run_ps

        committed_ps = {(s["task"], s["dataset"]): s for s in baseline["ps"]}
        print("\nps (parameter-server) throughput gate:")
        ps_failures = []
        fresh_ps_runs = {}
        for task, dataset in GRID:
            fresh_ps = run_ps(task, dataset)
            fresh_ps_runs[(task, dataset)] = fresh_ps
            points = fresh_ps["points"]
            single = points[0]["updates_per_second"]
            multi = points[-1]["updates_per_second"]
            nodes = points[-1]["nodes"]
            ratio = (
                multi / single if single and multi is not None else None
            )
            context = ""
            old = committed_ps.get((task, dataset))
            if old and old.get("points"):
                old_single = old["points"][0].get("updates_per_second")
                old_multi = old["points"][-1].get("updates_per_second")
                if old_single and old_multi:
                    context = f" (committed ratio {old_multi / old_single:.2f})"
            status = "OK"
            if ratio is None or ratio < args.ps_threshold:
                status = "FAIL"
                ps_failures.append((task, dataset, ratio))
            shown = "n/a" if ratio is None else f"{ratio:.2f}x"
            rate = lambda v: "n/a" if v is None else f"{v:.0f}"  # noqa: E731
            print(
                f"  {status:<5} {task}/{dataset}: 1 node "
                f"{rate(single)} upd/s, {nodes} nodes "
                f"{rate(multi)} upd/s, ratio {shown}{context}"
            )
        if ps_failures:
            print(
                f"ps gate FAILED: {len(ps_failures)} task(s) below the "
                f"{args.ps_threshold:.2f}x multi/single-node floor"
            )
            return 1

        import numpy as np

        import repro
        from bench_snapshot import MEASURED_EPOCHS, SCALE
        from repro.distributed.protocol import HEADER_BYTES

        def _layout_bound(dataset: str, point: dict, updates: float) -> float:
            """Total wire bytes *updates* applied updates may cost.

            Per update: a PUSH_PULL request (header, push length, the
            largest push the data can produce at batch_size=1, version
            vector) plus a SHARDS reply that ships every shard fresh.
            On top, the run's fixed frames — per node: HELLO, its
            22-byte ack, BYE, an EPOCH_DONE/EPOCH_ACK pair per barrier
            (registration included), and one more header per epoch,
            whose opening pull and closing push travel unfused.
            """
            X = repro.load(dataset, SCALE).X
            shards = point["shards"]
            if hasattr(X, "indptr"):
                push = 1 + 4 + 16 * int(np.diff(X.indptr).max())
            else:
                push = 1 + 8 * X.shape[1]
            request = HEADER_BYTES + 4 + push + 2 + 8 * shards
            reply = HEADER_BYTES + 2 + 9 * shards + 8 * X.shape[1]
            fixed = point["nodes"] * (
                22 + (3 + 2 * (MEASURED_EPOCHS + 1) + MEASURED_EPOCHS) * HEADER_BYTES
            )
            return (request + reply) * updates + fixed

        print(
            "\nps wire-economics gate "
            "(round-trips/update <= 1.05, bytes/update <= layout bound):"
        )
        wire_failures = []
        for task, dataset in GRID:
            point = fresh_ps_runs[(task, dataset)]["points"][-1]
            counters = point["counters"]
            updates = counters["sgd.updates_applied"]
            rpu = counters["ps.pull_rounds"] / updates
            wire_bytes = counters["ps.bytes_sent"] + counters["ps.bytes_received"]
            bound = _layout_bound(dataset, point, updates)
            status = "OK"
            if rpu > 1.05 or wire_bytes > bound:
                status = "FAIL"
                wire_failures.append((task, dataset))
            print(
                f"  {status:<5} {task}/{dataset}: round-trips/update {rpu:.3f}, "
                f"bytes/update {wire_bytes / updates:.1f} "
                f"(bound {bound / updates:.1f})"
            )
        if wire_failures:
            print(
                f"ps wire gate FAILED: {len(wire_failures)} task(s) above 1.05 "
                "round-trips/update or the layout bound on bytes/update"
            )
            return 1

    from repro.experiments import shutdown_grid_pool

    shutdown_grid_pool()
    print("benchmark gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
