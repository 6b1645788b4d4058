"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the paper's artifacts:

* ``table1`` / ``table2`` / ``table3`` — regenerate a table;
* ``fig6`` / ``fig7`` / ``fig8`` / ``fig9`` — regenerate a figure;
* ``experiments`` — run several artifacts over one shared grid and
  print the report: each artifact's section of EXPERIMENTS.md plus its
  named shape checks (the default, full run prints EXPERIMENTS.md
  itself), with ``--jobs N`` process-pool fan-out, ``--resume`` from
  the on-disk result store, and ``--keep-going`` degraded mode
  (retry/quarantine failing cells instead of aborting; see
  docs/RESILIENCE.md);
* ``train`` — run a single configuration (all three performance axes);
  ``--snapshot-out`` additionally publishes live parameter snapshots
  from a ``--backend shm`` run, ``--model-out`` exports the final model
  as a loadable artifact;
* ``serve`` — the scoring service: load a model artifact or attach to a
  live training run's snapshots and answer JSON-lines score requests
  over a local socket, hot-swapping new model versions without dropping
  in-flight requests (see docs/SERVING.md);
* ``gridsearch`` — the step-size selection protocol for one cell, or
  with ``--table PATH`` for every row of the tuned step table.

Examples::

    python -m repro table2 --scale small
    python -m repro experiments --artifacts table2 table3 --jobs 4 --resume
    python -m repro experiments --jobs 4 --store .repro_cache/grid > EXPERIMENTS.md
    python -m repro train --task svm --dataset news \\
        --architecture cpu-par --strategy asynchronous --step 0.3
    python -m repro train --task lr --dataset w8a --backend shm \\
        --snapshot-out /tmp/snap.json --model-out model.json
    python -m repro serve --model model.json --port 7878
    python -m repro serve --snapshot /tmp/snap.json
    python -m repro fig7 --tolerance 0.05
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields, replace

from . import experiments
from .datasets import DATASET_NAMES
from .models import TASK_NAMES
from .faults import FaultPlan
from .sgd import ARCHITECTURES, BACKENDS, STEP_GRID, STRATEGIES, RunConfig, run

_ARTIFACTS = tuple(experiments.ARTIFACTS)


def _add_context_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", default="small", help="dataset scale (tiny/small/medium)")
    p.add_argument("--seed", type=int, default=None, help="generation seed")
    p.add_argument(
        "--tolerance", type=float, default=0.01, help="convergence tolerance"
    )


def _add_ps_manifest_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--ps-manifest",
        nargs="+",
        default=None,
        metavar="PATH",
        help="run manifest(s) from --backend ps runs whose measured "
        "ps.staleness_bucket.* histograms are rendered as an extra "
        "section under Table III",
    )


def _add_axis_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--tasks",
        nargs="+",
        choices=TASK_NAMES,
        default=None,
        metavar="TASK",
        help="restrict the grid to these tasks (default: all)",
    )
    p.add_argument(
        "--datasets",
        nargs="+",
        choices=DATASET_NAMES,
        default=None,
        metavar="DS",
        help="restrict the grid to these datasets (default: all)",
    )


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the experiment grid (1 = serial; "
        "results are bit-identical either way)",
    )
    p.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persist completed grid cells to DIR (default with --resume: "
        "$REPRO_CACHE_DIR/grid or .repro_cache/grid)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="replay cells already in the result store instead of "
        "recomputing them",
    )
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--keep-going",
        dest="keep_going",
        action="store_true",
        help="degraded mode: retry failing grid cells (crash/stall/"
        "divergence) with backoff, quarantine the ones that exhaust "
        "their budget, and render partial results with gap markers "
        "instead of aborting (see docs/RESILIENCE.md)",
    )
    mode.add_argument(
        "--fail-fast",
        dest="keep_going",
        action="store_false",
        help="abort the whole grid on the first worker failure "
        "(the default)",
    )
    p.set_defaults(keep_going=False)
    shared = p.add_mutually_exclusive_group()
    shared.add_argument(
        "--shared-data",
        dest="shared_data",
        action="store_true",
        help="publish loaded datasets into read-only shared-memory "
        "segments mapped by every grid worker (the default; results "
        "are bit-identical either way)",
    )
    shared.add_argument(
        "--no-shared-data",
        dest="shared_data",
        action="store_false",
        help="let each worker materialise its own datasets "
        "(copy-on-write under fork)",
    )
    p.set_defaults(shared_data=True)
    p.add_argument(
        "--cell-attempts",
        type=int,
        default=None,
        metavar="N",
        help="--keep-going: executions one cell may consume before "
        "quarantine (default 3)",
    )
    p.add_argument(
        "--cell-deadline",
        type=float,
        default=None,
        metavar="SEC",
        help="--keep-going: wall-clock budget for one attempt of one "
        "cell; a worker past it is killed and retried (default: none)",
    )
    p.add_argument(
        "--retry-budget",
        type=int,
        default=None,
        metavar="N",
        help="--keep-going: grid-wide shared retry budget across all "
        "cells (default 8)",
    )
    p.add_argument(
        "--inject-grid-fault",
        action="append",
        default=None,
        metavar="SPEC",
        help="chaos-test the grid executor: inject a fault into the "
        "Nth submitted grid job, format kind@job[:wK][:seconds] with "
        "kind in cell-kill|cell-stall|cell-nan (wK = fire on attempts "
        "1..K only, so a retry heals it; e.g. cell-kill@1, "
        "cell-stall@2:600, cell-nan@4:w1); repeatable",
    )


def _make_store(args: argparse.Namespace):
    """The ResultStore implied by --store/--resume, or ``None``."""
    path = getattr(args, "store", None)
    if path is None and getattr(args, "resume", False):
        path = os.path.join(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"), "grid")
    if path is None:
        return None
    from .experiments import ResultStore

    return ResultStore(path)


def _make_telemetry(args: argparse.Namespace):
    """A live Telemetry when any observability output was requested."""
    if getattr(args, "trace_out", None) or getattr(args, "manifest_out", None):
        from .telemetry import Telemetry

        return Telemetry()
    return None


def _export_telemetry(args: argparse.Namespace, telemetry) -> None:
    """Write the Chrome trace requested on the command line, if any."""
    if telemetry is not None and getattr(args, "trace_out", None):
        from .telemetry import write_chrome_trace

        path = write_chrome_trace(telemetry, args.trace_out)
        print(f"trace written to {path}", file=sys.stderr)


def _make_retry_policy(args: argparse.Namespace):
    """The CellRetryPolicy implied by the --cell-*/--retry-budget flags."""
    overrides = {}
    if getattr(args, "cell_attempts", None) is not None:
        overrides["max_attempts"] = args.cell_attempts
    if getattr(args, "cell_deadline", None) is not None:
        overrides["deadline"] = args.cell_deadline
    if getattr(args, "retry_budget", None) is not None:
        overrides["max_restarts"] = args.retry_budget
    if not overrides and not getattr(args, "keep_going", False):
        return None
    from .faults import CellRetryPolicy

    return CellRetryPolicy(**overrides)


def _make_fault_plan(args: argparse.Namespace):
    """The grid FaultPlan implied by --inject-grid-fault, or ``None``."""
    specs = getattr(args, "inject_grid_fault", None)
    if not specs:
        return None
    return FaultPlan.parse(specs, seed=getattr(args, "seed", None))


def _make_context(args: argparse.Namespace):
    from .experiments import ExperimentContext

    kwargs = {}
    if getattr(args, "tasks", None):
        kwargs["tasks"] = tuple(args.tasks)
    if getattr(args, "datasets", None):
        kwargs["datasets"] = tuple(args.datasets)
    return ExperimentContext(
        scale=args.scale,
        seed=args.seed,
        tolerance=args.tolerance,
        telemetry=_make_telemetry(args),
        jobs=getattr(args, "jobs", 1),
        shared_data=getattr(args, "shared_data", True),
        store=_make_store(args),
        resume=getattr(args, "resume", False),
        keep_going=getattr(args, "keep_going", False),
        retry=_make_retry_policy(args),
        fault_plan=_make_fault_plan(args),
        **kwargs,
    )


def _cmd_table(args: argparse.Namespace) -> int:
    ctx = _make_context(args)
    result = experiments.ARTIFACTS[args.command].run(ctx)
    _attach_ps_manifests(result, args)
    print(result.render())
    _export_telemetry(args, ctx.telemetry)
    return 0


def _attach_ps_manifests(result, args: argparse.Namespace) -> None:
    """Fold ``--ps-manifest`` files into a Table III result, if any."""
    paths = getattr(args, "ps_manifest", None)
    if not paths or not hasattr(result, "attach_staleness"):
        return
    import json

    for path in paths:
        with open(path, encoding="utf-8") as fh:
            attached = result.attach_staleness(json.load(fh))
        if not attached:
            print(
                f"warning: {path} carries no ps.staleness_bucket counters "
                "(not a parameter-server run?)",
                file=sys.stderr,
            )


def _cmd_experiments(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    ctx = _make_context(args)
    results = experiments.run_artifacts(ctx, args.artifacts)
    if "table3" in results:
        _attach_ps_manifests(results["table3"], args)
    text, checks = experiments.render_report(ctx, results)
    sys.stdout.write(text)
    _report_grid(args, ctx, artifacts=list(args.artifacts))
    failed = sum(1 for c in checks if not c.passed)
    print(
        f"report: {len(checks)} shape checks, {failed} NOT reproduced, "
        f"in {time.perf_counter() - start:.0f}s",
        file=sys.stderr,
    )
    return 0


def _report_grid(args: argparse.Namespace, ctx, **settings) -> None:
    """Summarise a grid run on stderr; write its manifest if requested."""
    executed = sum(1 for r in ctx.grid_records if r["source"] == "executed")
    resumed = sum(1 for r in ctx.grid_records if r["source"] == "resumed")
    quarantined = sum(1 for r in ctx.grid_records if r["source"] == "quarantined")
    if ctx.grid_records:
        line = (
            f"grid: {len(ctx.grid_records)} cells "
            f"({executed} executed, {resumed} resumed"
        )
        if quarantined:
            line += f", {quarantined} quarantined"
        line += f") with jobs={ctx.jobs}"
        print(line, file=sys.stderr)
    if ctx.failures:
        print(
            f"degraded run: {len(ctx.failures)} grid job(s) quarantined "
            "('-' marks the gaps above):",
            file=sys.stderr,
        )
        for failure in ctx.failures.values():
            print(f"  ! {failure.summary()}", file=sys.stderr)
    _export_telemetry(args, ctx.telemetry)
    if args.manifest_out:
        import json

        from .telemetry import Telemetry, build_grid_manifest
        from .telemetry.export import write_text

        tel = ctx.telemetry if isinstance(ctx.telemetry, Telemetry) else None
        manifest = build_grid_manifest(
            ctx.grid_records,
            tel,
            jobs=ctx.jobs,
            settings={
                "scale": args.scale,
                "seed": args.seed,
                "tolerance": args.tolerance,
                **settings,
                "resume": bool(args.resume),
                "keep_going": bool(args.keep_going),
                "shared_data": bool(args.shared_data),
                "injected_faults": list(args.inject_grid_fault or []),
            },
        )
        write_text(
            args.manifest_out, json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        print(f"grid manifest written to {args.manifest_out}", file=sys.stderr)


def _cmd_train(args: argparse.Namespace) -> int:
    # The train options' dests are RunConfig's field names.
    names = {f.name for f in fields(RunConfig)}
    config = RunConfig(
        **{name: value for name, value in vars(args).items() if name in names},
        early_stop_tolerance=args.tolerance,
        fault_plan=(
            FaultPlan.parse(args.inject_fault, seed=args.seed)
            if args.inject_fault
            else None
        ),
    )
    telemetry = _make_telemetry(args)
    result = run(config, telemetry=telemetry, snapshot_out=args.snapshot_out)
    if args.model_out:
        from .sgd import save_results

        save_results(result, args.model_out)
        print(f"model artifact written to {args.model_out}", file=sys.stderr)
    s = result.summary()
    if result.measured is not None:
        s["backend"] = result.backend
        s["workers"] = result.measured["workers"]
        s["wall_seconds_per_epoch"] = result.measured["wall_seconds_per_epoch"]
        s["wall_seconds_total"] = result.measured["wall_seconds_total"]
        if result.measured["recovery"]:
            s["recoveries"] = len(result.measured["recovery"])
            s["workers_final"] = result.measured["workers_final"]
    width = max(len(k) for k in s)
    for key, value in s.items():
        print(f"{key.ljust(width)} : {value}")
    _export_telemetry(args, telemetry)
    if args.manifest_out:
        from .telemetry import build_manifest

        manifest = build_manifest(result, telemetry, config)
        path = manifest.write(args.manifest_out)
        print(f"manifest written to {path}", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serving import ScoringEngine, ScoringServer, ServerConfig

    telemetry = _make_telemetry(args)
    if args.model is not None:
        engine = ScoringEngine.from_artifact(
            args.model,
            telemetry=telemetry,
            max_batch=args.max_batch,
            watch=not args.no_watch,
            refresh_interval=(
                args.refresh_interval if args.refresh_interval is not None else 0.25
            ),
        )
        source_desc = {"model": args.model, "watch": not args.no_watch}
    else:
        engine = ScoringEngine.from_snapshot(
            args.snapshot,
            telemetry=telemetry,
            max_batch=args.max_batch,
            refresh_interval=(
                args.refresh_interval if args.refresh_interval is not None else 0.05
            ),
        )
        source_desc = {"snapshot": args.snapshot}
    config = ServerConfig(host=args.host, port=args.port)
    with engine, ScoringServer(engine, config) as server:
        # The parseable liveness line smoke tests and scripts key on.
        print(f"serving {engine.task} on {server.address}", flush=True)
        try:
            server.wait()
        except KeyboardInterrupt:
            pass
        stats = engine.stats()
    print(
        f"served {stats.requests} requests ({stats.examples} examples, "
        f"{stats.batches} batches, {stats.hot_swaps} hot-swaps)",
        file=sys.stderr,
    )
    _export_telemetry(args, telemetry)
    if args.manifest_out:
        import json

        from .telemetry import build_serve_manifest
        from .telemetry.export import write_text

        manifest = build_serve_manifest(
            stats.to_dict(),
            telemetry,
            settings={
                **source_desc,
                "task": engine.task,
                "n_features": engine.n_features,
                "address": server.address,
                "max_batch": args.max_batch,
            },
        )
        write_text(
            args.manifest_out, json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        print(f"serve manifest written to {args.manifest_out}", file=sys.stderr)
    return 0


def _cmd_ladder(args: argparse.Namespace) -> int:
    from .experiments import run_tolerance_ladder

    ctx = _make_context(args)
    ladder = run_tolerance_ladder(args.task, args.dataset, ctx)
    print(ladder.render())
    cross = ladder.crossover()
    if cross is None:
        print("\nno crossover: one configuration leads the whole ladder")
    else:
        tol, prev, new = cross
        print(f"\ncrossover at {int(tol * 100)}%: {prev} -> {new}")
    return 0


def _cmd_gridsearch(args: argparse.Namespace) -> int:
    from .experiments import steps

    ctx = _make_context(args)
    if args.table is None:
        cell = ctx.config_for(args.task, args.dataset, args.architecture, args.strategy)
        base = replace(cell, max_epochs=args.epochs)  # None: RunConfig's default
        results = {None: steps.rank_steps(ctx, [(base, STEP_GRID)])[0]}
    else:
        results = steps.regenerate(ctx)
    for result in results.values():
        name = (result.task, result.dataset, result.strategy, result.architecture)
        print(f"{'/'.join(name)}: max_epochs={result.max_epochs}")
        for point in result.points:
            status = "diverged" if point.diverged else f"epochs={point.epochs}"
            if point.quarantined:
                status = f"quarantined ({point.quarantined})"
            print(
                f"step={point.step_size:<10g} time-to-convergence="
                f"{point.time_to_convergence:<12.6g} {status}"
            )
        best = result.any_converged and f"best step size: {result.best_step_size}"
        print(f"{best or 'no step size converged'}\n")
    _report_grid(args, ctx, table=args.table)
    if args.table is None:
        return 0 if results[None].any_converged else 1
    rows = steps.read_table(args.table) if os.path.exists(args.table) else {}
    rows.update({key: steps.table_row(result) for key, result in results.items()})
    print(f"table written to {steps.write_table(args.table, rows)}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'SGD on Modern Hardware' (IPDPS 2019)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _ARTIFACTS:
        p = sub.add_parser(name, help=f"regenerate the paper's {name}")
        _add_context_args(p)
        _add_grid_args(p)
        p.add_argument(
            "--trace-out",
            default=None,
            metavar="PATH",
            help="write a Chrome-trace JSON of all runs to PATH",
        )
        if name == "table3":
            _add_ps_manifest_arg(p)
        p.set_defaults(func=_cmd_table)

    p = sub.add_parser(
        "experiments",
        help="run several artifacts over one shared (optionally parallel, "
        "resumable) experiment grid and print the report with its shape "
        "checks (all artifacts: EXPERIMENTS.md)",
    )
    p.add_argument(
        "--artifacts",
        nargs="+",
        choices=_ARTIFACTS,
        default=list(_ARTIFACTS),
        metavar="NAME",
        help=f"artifacts to produce (default: all of {', '.join(_ARTIFACTS)})",
    )
    _add_axis_args(p)
    _add_context_args(p)
    _add_grid_args(p)
    p.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Chrome-trace JSON of all runs to PATH",
    )
    p.add_argument(
        "--manifest-out",
        default=None,
        metavar="PATH",
        help="write the aggregate grid manifest (per-cell provenance + "
        "merged counters) to PATH",
    )
    _add_ps_manifest_arg(p)
    p.set_defaults(func=_cmd_experiments)

    p = sub.add_parser("train", help="run one configuration")
    p.add_argument("--task", choices=TASK_NAMES, default="lr")
    p.add_argument("--dataset", choices=DATASET_NAMES, default="w8a")
    p.add_argument("--architecture", choices=ARCHITECTURES, default="cpu-par")
    p.add_argument("--strategy", choices=STRATEGIES, default="asynchronous")
    p.add_argument(
        "--step",
        dest="step_size",
        type=float,
        default=None,
        metavar="STEP",
        help="step size (default: tuned)",
    )
    p.add_argument(
        "--epochs",
        dest="max_epochs",
        type=int,
        default=None,
        metavar="EPOCHS",
        help="max epochs",
    )
    p.add_argument(
        "--backend",
        choices=BACKENDS,
        default="simulated",
        help="execution backend: 'simulated' (asynchrony simulator + "
        "analytical hardware time), 'shm' (real shared-memory worker "
        "processes, measured wall-clock time) or 'ps' (worker processes "
        "against a sharded parameter server over local TCP); the "
        "measured backends run asynchronous lr/svm only",
    )
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for --backend shm (default: up to 4, "
        "bounded by the host's cores)",
    )
    p.add_argument(
        "--nodes",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for --backend ps (default: up to 4, "
        "bounded by the host's cores)",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="S",
        help="--backend ps: parameter shards on the server (default: "
        "derived from the model size, at most 8)",
    )
    p.add_argument(
        "--max-staleness",
        type=int,
        default=None,
        metavar="K",
        help="--backend ps: bounded-staleness window in work items — a "
        "worker more than K items ahead of the slowest live worker "
        "blocks on pull (default: unbounded fast-async; 0 = lock-step)",
    )
    p.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="B",
        help="rows per update (default: 512 for the simulated MLP "
        "Hogbatch, 1 for --backend shm; shm with B>1 runs measured "
        "Hogbatch)",
    )
    p.add_argument(
        "--epoch-timeout",
        type=float,
        default=None,
        metavar="SEC",
        help="measured backends: seconds the parent waits at an epoch "
        "barrier before declaring the run dead (default 120)",
    )
    p.add_argument(
        "--ps-checkpoint-dir",
        dest="checkpoint_dir",
        default=None,
        metavar="DIR",
        help="--backend ps: directory for the server's versioned shard "
        "checkpoints; enables epoch-boundary checkpointing and (under "
        "--max-restarts) crash-restart failover of the shard server",
    )
    p.add_argument(
        "--ps-checkpoint-every",
        dest="checkpoint_every",
        type=int,
        default=None,
        metavar="N",
        help="--backend ps: background checkpoint every N pushes since "
        "the last write (requires --ps-checkpoint-dir)",
    )
    p.add_argument(
        "--ps-checkpoint-seconds",
        dest="checkpoint_seconds",
        type=float,
        default=None,
        metavar="SEC",
        help="--backend ps: background checkpoint every SEC seconds "
        "since the last write (requires --ps-checkpoint-dir)",
    )
    p.add_argument(
        "--inject-fault",
        action="append",
        default=None,
        metavar="SPEC",
        help="measured backends: inject a seeded fault, format "
        "kind@epoch[:wK][:seconds] with kind in kill|stall|delay|nan "
        "for --backend shm or node-kill|node-stall for --backend ps "
        "(e.g. kill@3, stall@2:w1, node-kill@2); repeatable",
    )
    p.add_argument(
        "--max-restarts",
        type=int,
        default=0,
        metavar="N",
        help="measured backends: recover from up to N worker failures "
        "(repartition onto survivors / respawn with timeout backoff) "
        "before giving up; 0 fails fast",
    )
    p.add_argument(
        "--snapshot-out",
        default=None,
        metavar="PATH",
        help="measured backends: publish live parameter snapshots "
        "(seqlock-consistent, readable mid-training by 'repro serve "
        "--snapshot PATH') and write the snapshot descriptor to PATH",
    )
    p.add_argument(
        "--model-out",
        default=None,
        metavar="PATH",
        help="export the final model (parameters + curve) as a JSON "
        "artifact loadable by 'repro serve --model PATH'",
    )
    p.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Chrome-trace JSON (chrome://tracing / Perfetto) to PATH",
    )
    p.add_argument(
        "--manifest-out",
        default=None,
        metavar="PATH",
        help="write the reproducible run manifest (config, dataset, git SHA, "
        "counters, final metrics) to PATH",
    )
    _add_context_args(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "serve",
        help="score requests over a local socket from a model artifact "
        "or a live training run's snapshots (see docs/SERVING.md)",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--model",
        default=None,
        metavar="PATH",
        help="serve this model artifact (from 'repro train --model-out'); "
        "rewriting the file hot-swaps the served model",
    )
    src.add_argument(
        "--snapshot",
        default=None,
        metavar="PATH",
        help="attach to a live (or finished) shm training run via its "
        "snapshot descriptor (from 'repro train --snapshot-out') and "
        "hot-swap each published version",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (default 0: ephemeral; the bound address is printed)",
    )
    p.add_argument(
        "--max-batch",
        type=int,
        default=64,
        metavar="N",
        help="example cap of one micro-batch: requests that queued up while "
        "the previous batch was scored are scored together, whole, up to N "
        "examples; a lone request is scored at once (default 64)",
    )
    p.add_argument(
        "--refresh-interval",
        type=float,
        default=None,
        metavar="SEC",
        help="hot-swap poll interval (default: 0.05 for --snapshot, "
        "0.25 for --model)",
    )
    p.add_argument(
        "--no-watch",
        action="store_true",
        help="--model: serve the artifact as loaded, without watching "
        "the file for hot-swaps",
    )
    p.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Chrome-trace JSON of the serving session to PATH",
    )
    p.add_argument(
        "--manifest-out",
        default=None,
        metavar="PATH",
        help="write the serving manifest (throughput, latency "
        "percentiles, serve.* counters) to PATH on shutdown",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("ladder", help="time-to-convergence at 10/5/2/1%%")
    p.add_argument("--task", choices=TASK_NAMES, default="lr")
    p.add_argument("--dataset", choices=DATASET_NAMES, default="w8a")
    _add_context_args(p)
    p.set_defaults(func=_cmd_ladder)

    p = sub.add_parser("gridsearch", help="the step-size protocol (or its table)")
    p.add_argument("--task", choices=TASK_NAMES, default="lr")
    p.add_argument("--dataset", choices=DATASET_NAMES, default="w8a")
    p.add_argument("--architecture", choices=ARCHITECTURES, default="cpu-par")
    p.add_argument("--strategy", choices=STRATEGIES, default="asynchronous")
    p.add_argument("--epochs", type=int, help="default: 400 sync, 150 async")
    p.add_argument(
        "--table",
        metavar="PATH",
        help="re-run the tuned table's rows (all, or --tasks/--datasets) "
        "on their recorded grid and budget, and write them into PATH",
    )
    _add_axis_args(p)
    _add_context_args(p)
    _add_grid_args(p)
    p.add_argument("--manifest-out", metavar="PATH", help="write the grid manifest")
    p.set_defaults(func=_cmd_gridsearch)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
