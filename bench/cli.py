"""``python -m bench run|compare``.

``run --workload NAME --seed N --seconds S --trace 0|1`` is the contract
``BENCHMARK.json`` names: one workload in this interpreter, one JSON
result as the last line of stdout.  Without ``--workload`` the same
command is run once per workload (each in its own fresh interpreter),
``--runs`` times over, and the medians, quartiles and host fingerprint
are written to a result file ``compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from . import harness

DEFAULT_SEED = 20190522


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one workload (contract) or all of them")
    run.add_argument("--workload", help="run only this workload, in this interpreter")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="dataset seed, SGD seed and request mix")
    run.add_argument("--seconds", type=float, default=None,
                     help="length of the timed window (default: BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: print the per-layer metrics instead of the end-to-end ones")
    run.add_argument("--quick", action="store_true",
                     help="every workload at tiny, one set-up: a smoke test, not a measurement")
    run.add_argument("--own-probes", action="store_true",
                     help="with --trace 1: every probe of the layers this workload owns")
    run.add_argument("--detail-out", type=Path, help="also write samples and fingerprint here")
    run.add_argument("--runs", type=int, default=3, help="untraced runs per workload")
    run.add_argument("--traced", action="store_true",
                     help="add one traced run per workload: per-layer metrics, Chrome traces")
    run.add_argument("--out", type=Path, help="result file (default: bench/out/results.json)")

    compare = sub.add_parser("compare", help="judge result file B against A")
    compare.add_argument("a", type=Path)
    compare.add_argument("b", type=Path)
    compare.add_argument("--expect-equal", action="store_true",
                         help="A/A mode: the two files are the same code and must agree")
    return parser


def _run_one(args) -> int:
    from . import runner

    result = runner.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), quick=args.quick,
        own_probes=args.own_probes, detail_out=args.detail_out,
    )
    print(json.dumps(result))
    return 0


def _child(workload: str, args, trace: bool, detail: Path) -> dict:
    cmd = [
        sys.executable, "-m", "bench", "run", "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(int(trace)), "--detail-out", str(detail),
    ]
    if args.quick:
        cmd.append("--quick")
    if trace:
        cmd.append("--own-probes")
    done = subprocess.run(cmd, cwd=harness.ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {done.returncode}")
    return json.loads(detail.read_text())


def _run_all(args) -> int:
    from . import report
    from .workloads import WORKLOAD_NAMES

    spec = harness.load_spec()
    fp = harness.fingerprint()
    harness.warn_if_noisy(fp)
    detail = harness.OUT / "detail.json"
    workloads = {}
    for name in WORKLOAD_NAMES:
        runs = [_child(name, args, False, detail) for _ in range(args.runs)]
        traced = _child(name, args, True, detail) if args.traced else None
        workloads[name] = report.aggregate(runs, traced)
        print(f"{name}: done", file=sys.stderr)
    detail.unlink(missing_ok=True)
    results = {
        "schema": "bench/results/v1",
        "fingerprint": fp,
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": args.runs,
        "quick": args.quick,
        "workloads": workloads,
    }
    out = args.out or harness.OUT / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(report.render(results, spec))
    print(f"results written to {out}", file=sys.stderr)
    return 1 if any(w["failed"] for w in workloads.values()) else 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compare":
        from . import compare

        return compare.main(args.a, args.b, args.expect_equal)
    try:
        harness.prepare_environment()
    except harness.BenchSetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(harness.load_spec()["run_seconds"])
    return _run_one(args) if args.workload else _run_all(args)
