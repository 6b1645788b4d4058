"""Alternating parent/change benchmark pairs, as one command.

    python3 scripts/bench_pairs.py --workload train-shm --parent HEAD~1

Exports both revisions with ``git archive`` (commit first), runs
BENCHMARK.json's command with ``--workload W --seed S --trace 0`` in
both, alternating which goes first, and prints per end-to-end metric
both sides' median and quartiles, wins/ties and two verdicts:

* the gain rule (the choosing-metrics guide's section 8): a gain only
  when the change wins >= 9/10 pairs and the medians differ by more than
  the parent's IQR;
* the regression rule, ``bench.compare.verdict`` with the metric's bound
  from BENCHMARK.json: ``ok``, ``regressed`` or ``unresolved``.

Exits 1 if any metric reads ``regressed``.
"""

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile
from statistics import quantiles

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench.compare import verdict  # noqa: E402 - needs ROOT on the path


def run(command: list, checkout, workload: str, seed: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, check=True, stdout=subprocess.PIPE)
    report = json.loads(done.stdout.decode().strip().splitlines()[-1])
    if not report["correct"] or report["failed"]:
        sys.exit(f"{checkout}: {workload} seed {seed} did not pass: {report}")
    return {name: m["value"] for name, m in report["metrics"].items()}


def export(rev: str, side: str, tmp: str) -> None:
    """Extract *rev*'s committed tree into ``tmp/side``."""
    archive = ["git", "archive", f"--prefix={side}/", rev]
    tar = subprocess.run(archive, cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", tmp], input=tar.stdout, check=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--parent", required=True, help="git revision to compare with")
    ap.add_argument("--change", default="HEAD", help="git revision under test")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", default="1", help="comma-separated, cycled")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    seeds = [int(s) for s in args.seeds.split(",")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        for side, rev in (("parent", args.parent), ("change", args.change)):
            export(rev, side, tmp)
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                metrics = run(spec["command"], f"{tmp}/{side}", args.workload, seed)
                runs[side].append(metrics)
            print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)
    print(f"{args.workload}: {args.pairs} pairs, {args.parent} -> {args.change}")
    regressed = []
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        p1, pm, p3 = quantiles(parent, n=4, method="inclusive")
        c1, cm, c3 = quantiles(change, n=4, method="inclusive")
        gain = wins >= 0.9 * args.pairs and sign * (cm - pm) > p3 - p1
        word, worse = verdict(parent, change, metric["better"], metric["bound"])
        if word == "regressed":
            regressed.append(name)
        print(
            f"  {name} [{metric['unit']}, {metric['better']} is better]: "
            f"parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
            f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  x{cm / pm:.3f}  "
            f"wins {wins}/{args.pairs} ties {ties}  "
            f"{'GAIN' if gain else 'no gain claimed'}; "
            f"{word} (worse by {worse:+.1%}, bound {metric['bound']:.0%})"
        )
    if regressed:
        print(f"regressed beyond the bound: {', '.join(regressed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
