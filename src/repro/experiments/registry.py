"""The artifact registry: one record per table and figure of the paper.

A record holds the grid cells its driver trains, the driver, its
EXPERIMENTS.md section and its named shape checks.  ``repro experiments``
prints :func:`render_report` of :func:`run_artifacts`; for the default,
full-grid run that document is EXPERIMENTS.md.  A check reads only the
cells the run has, so subset and degraded runs never raise, and each
artifact's ``<name>/complete`` check holds the run to the context's
tasks x datasets, so a missing or quarantined cell cannot pass vacuously.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..utils.tables import render_table
from .common import ExperimentContext
from .fig6 import DEFAULT_ARCHITECTURES, Fig6Result, run_fig6
from .fig7 import Fig7Result, fig7_cells, run_fig7
from .fig89 import FIG8_TASKS, FIG9_TASKS, Fig89Result, figure_cells, run_fig8, run_fig9
from .paper_values import PAPER_TABLE2, PAPER_TABLE3
from .table1 import Table1Result, run_table1
from .table2 import Table2Result, run_table2, table2_cells
from .table3 import Table3Result, run_table3, table3_cells

__all__ = ["ARTIFACTS", "Artifact", "Check", "render_report", "run_artifacts"]

LINEAR, MLP = ("lr", "svm"), ("mlp",)
DENSE, SPARSE = ("covtype",), ("real-sim", "rcv1", "news")
SEQ_PAR, PAR_GPU = "speedup_seq_over_par", "speedup_par_over_gpu"
GPU_PAR = "ratio_gpu_over_par"


@dataclass(frozen=True)
class Check:
    """One named shape claim and whether the regenerated artifact holds it."""

    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Artifact:
    """One table or figure: driver, checks, and its EXPERIMENTS.md section."""

    name: str
    heading: str
    run: Callable[[ExperimentContext], Any]
    checks: Callable[[Any, ExperimentContext], list[Check]]
    #: (result, checks by name) -> the paragraphs after the rendered result.
    prose: Callable[[Any, dict[str, Check]], list[str]]
    cells: Callable[[ExperimentContext], list] | None = None
    comparison: Callable[[Any], str] | None = None


def verdict(passed: bool) -> str:
    return "reproduced" if passed else "NOT reproduced"


# -- check helpers ------------------------------------------------------------

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _approx(value: float, expected: float) -> bool:
    """``value == pytest.approx(expected)`` at its default tolerances."""
    return abs(value - expected) <= max(1e-6 * abs(expected), 1e-12)


def _holds(value: float, band: str) -> bool:
    """*value* in *band*: ``"> 8"``, ``"~ 1"`` (:func:`_approx`),
    ``"[1.5, 3.5]"`` (closed) or ``"(0.5, 2.5)"`` (open)."""
    if band[0] in "[(":
        lo, hi = (float(x) for x in band[1:-1].split(","))
        return lo <= value <= hi if band[0] == "[" else lo < value < hi
    op, bound = band.split()
    return _approx(value, float(bound)) if op == "~" else _OPS[op](value, float(bound))


def _fmt(v: Any, nd: int = 2) -> str:
    if isinstance(v, float):
        return "inf" if math.isinf(v) else f"{v:.{nd}f}"
    return "-" if v is None else str(v)


def _all(name: str, values: dict[str, float], band: str) -> Check:
    """Every value lies in *band*; the detail names any offender."""
    if not values:
        return Check(name, True, "vacuous: no such cell in this run")
    bad = [f"{k} {_fmt(v)}" for k, v in values.items() if not _holds(v, band)]
    lo, hi = _fmt(min(values.values())), _fmt(max(values.values()))
    span = lo if lo == hi else f"{lo} to {hi}"
    detail = f"{', '.join(bad)} outside {band}" if bad else f"{span} (band {band})"
    return Check(name, not bad, detail)


def _complete(name: str, expected: Iterable[str], present: Iterable[str]) -> Check:
    """Every expected cell was regenerated (none missing or quarantined)."""
    have, expected = set(present), list(expected)
    missing = [e for e in expected if e not in have]
    if missing:
        return Check(name, False, f"missing or quarantined: {', '.join(missing)}")
    return Check(name, True, f"{len(expected)} of {len(expected)}")


def _pairs(ctx: ExperimentContext, tasks: Iterable[str] | None = None) -> list[str]:
    """``task/dataset`` of every pair the context spans (of *tasks*)."""
    tasks = ctx.tasks if tasks is None else [t for t in tasks if t in ctx.tasks]
    return [f"{t}/{d}" for t in tasks for d in ctx.datasets]


def _cells(rows) -> list[str]:
    return [f"{r.task}/{r.dataset}" for r in rows]


def _values(rows, metric: str, tasks=None, datasets=None) -> dict[str, float]:
    """``task/dataset`` -> *metric* of the selected rows."""
    return {
        f"{r.task}/{r.dataset}": getattr(r, metric)
        for r in rows
        if (tasks is None or r.task in tasks)
        and (datasets is None or r.dataset in datasets)
    }


def _bands(prefix: str, rows, specs) -> list[Check]:
    """One :func:`_all` per ``(name, metric, tasks, datasets, band)`` spec."""
    return [
        _all(f"{prefix}/{name}", _values(rows, metric, tasks, datasets), band)
        for name, metric, tasks, datasets, band in specs
    ]


def _lead(values: dict[str, float], top, over) -> dict[str, float]:
    """lr/svm -> best of *values* on datasets *top* over the best on *over*."""
    out, pair = {}, (top, over)
    for t in LINEAR:
        a, b = ([values[f"{t}/{d}"] for d in ds if f"{t}/{d}" in values] for ds in pair)
        if a and b:
            out[t] = max(a) / max(b)
    return out


def _pick(values: dict[str, float], key: str) -> dict[str, float]:
    return {key: values[key]} if key in values else {}


def _over(a: dict[str, float], b: dict[str, float], suffix="") -> dict[str, float]:
    return {k: v / b[k] for k, v in a.items() if k in b and k.endswith(suffix)}


def _paper_vs_ours(title: str, paper_rows, result, columns, row) -> str:
    """The paper's rows beside ours, for every cell this run regenerated."""
    ours = {(r.task, r.dataset): r for r in result.rows if not r.is_gap}
    body = [
        [p.task, p.dataset, *row(p, ours[p.task, p.dataset])]
        for p in paper_rows
        if (p.task, p.dataset) in ours
    ]
    sides = [f"{c} ({s})" for c in columns for s in ("paper", "ours")]
    headers = ["task", "dataset", *sides]
    return render_table(headers, body, title=title)


# -- checks and comparisons -----------------------------------------------------


def _table1_checks(t1: Table1Result, ctx: ExperimentContext) -> list[Check]:
    off = [c.dataset for c in t1.checks if not (c.sparsity_ok and c.balanced)]
    dispersion = {c.dataset: c.realised_dispersion for c in t1.checks}
    return [
        _complete("table1/complete", ctx.datasets, dispersion),
        Check("table1/statistics-in-band", t1.all_ok(), f"off band: {off or 'none'}"),
        _all("table1/news-dispersion-heavy-tailed", _pick(dispersion, "news"), "> 5"),
        _all("table1/covtype-dispersion-flat", _pick(dispersion, "covtype"), "~ 1"),
    ]


def _table2_checks(t2: Table2Result, ctx: ExperimentContext) -> list[Check]:
    rows = [r for r in t2.rows if not r.is_gap]
    non_conv = [f"{r.task}/{r.dataset}" for r in rows if not math.isfinite(r.epochs)]
    ttc = [r for r in rows if math.isfinite(r.ttc_cpu_par)]
    return [
        _complete("table2/complete", _pairs(ctx), _cells(rows)),
        Check(
            "table2/sync-cells-converge",
            len(non_conv) <= 2,
            f"non-convergent (at most 2): {non_conv or 'none'}",
        ),
        # The GPU is faster than parallel CPU per iteration and, thus, to
        # convergence; parallel CPU is faster than sequential.
        Check(
            "table2/gpu-always-fastest",
            all(r.tpi_gpu < r.tpi_cpu_par and r.ttc_gpu <= r.ttc_cpu_par for r in ttc),
        ),
        *_bands(
            "table2",
            rows,
            [
                ("parallel-always-helps", SEQ_PAR, None, None, "> 1"),
                ("mlp-speedup-capped-near-2x", SEQ_PAR, MLP, None, "[1.5, 3.5]"),
                ("mlp-gpu-speedup-band", PAR_GPU, MLP, None, "[2.5, 8]"),
                ("lr-svm-parallel-speedup-above-8x", SEQ_PAR, LINEAR, None, "> 8"),
            ],
        ),
        _all(
            "table2/gpu-gap-grows-with-sparsity",
            _lead(_values(rows, PAR_GPU), ("rcv1", "news"), ("covtype",)),
            "> 1",
        ),
        _all(
            "table2/w8a-parallel-speedup-near-top",
            _lead(_values(rows, SEQ_PAR), ("w8a",), ("covtype", "rcv1")),
            ">= 0.9",
        ),
    ]


def _table2_comparison(t2: Table2Result) -> str:
    def row(p, r):
        speedups = (p.speedup_seq_over_par, r.speedup_seq_over_par)
        speedups += (p.speedup_par_over_gpu, r.speedup_par_over_gpu)
        return [p.epochs, _fmt(r.epochs, 0), *map(_fmt, speedups)]

    columns = ["epochs", "seq/par", "par/gpu"]
    return _paper_vs_ours("Table II: paper vs ours", PAPER_TABLE2, t2, columns, row)


def _gpu_wins(t3: Table3Result) -> list[tuple[str, str]]:
    """The (task, dataset) rows where the GPU converged first."""
    return sorted(
        (r.task, r.dataset)
        for r in t3.rows
        if not r.is_gap and min(r.ttc_cpu_seq, r.ttc_cpu_par) > r.ttc_gpu
    )


def _table3_checks(t3: Table3Result, ctx: ExperimentContext) -> list[Check]:
    rows = [r for r in t3.rows if not r.is_gap]
    linear = [r for r in rows if r.task in LINEAR]
    gpu_wins = _gpu_wins(t3)
    costed = sum(r.epochs_gpu >= r.epochs_cpu_seq * 0.9 for r in linear)
    return [
        _complete("table3/complete", _pairs(ctx), _cells(rows)),
        # At reduced scale the simulated device staleness cannot reach the
        # paper's in-flight window on the two smallest datasets, so GPU wins
        # there are a scale artifact; a win on large sparse data is not.
        Check(
            "table3/cpu-wins-on-large-sparse",
            all(ds in ("covtype", "w8a") for _t, ds in gpu_wins),
            f"GPU wins at {gpu_wins} (small-dataset scale artifact)",
        ),
        *_bands(
            "table3",
            rows,
            [
                ("dense-coherence-storm", SEQ_PAR, LINEAR, DENSE, "< 1"),
                ("sparse-parallel-speedup", SEQ_PAR, LINEAR, SPARSE, "> 1.5"),
                ("gpu-iterates-faster-on-dense", GPU_PAR, LINEAR, DENSE, "< 0.5"),
                ("gpu-iterates-slower-on-news", GPU_PAR, LINEAR, ("news",), "> 2"),
                ("hogbatch-parallel-speedup", SEQ_PAR, MLP, None, ">= 8"),
                ("mlp-gpu-slower-per-iteration", GPU_PAR, MLP, None, "> 2"),
            ],
        ),
        Check(
            "table3/staleness-costs-epochs",
            costed >= 0.7 * len(linear),
            f"GPU epochs >= 0.9x cpu-seq's on {costed} of {len(linear)} lr/svm rows",
        ),
    ]


def _table3_comparison(t3: Table3Result) -> str:
    def row(p, r):
        ratios = (p.speedup_seq_over_par, r.speedup_seq_over_par)
        ratios += (p.ratio_gpu_over_par, r.ratio_gpu_over_par)
        epochs = [
            "inf" if math.isinf(x.epochs_gpu)
            else _fmt(x.epochs_gpu / max(x.epochs_cpu_seq, 1), 1)
            for x in (p, r)
        ]
        return [*map(_fmt, ratios), *epochs]

    columns = ["seq/par", "gpu/par", "ep gpu/seq"]
    return _paper_vs_ours("Table III: paper vs ours", PAPER_TABLE3, t3, columns, row)


def _fig6_checks(f6: Fig6Result, ctx: ExperimentContext) -> list[Check]:
    speedups = {p.label: p.speedup_par_over_seq for p in f6.points}
    s = list(speedups.values())
    grows = s[-1] > 4.0 * s[0] and all(b >= a * 0.8 for a, b in zip(s, s[1:]))
    wide = [p for p in f6.points if p.arch[1] >= 200]
    gpu = [p.speedup_gpu_over_par for p in wide] or [math.nan]
    cpu = [p.speedup_par_over_seq for p in wide]
    last = f6.points[-1]
    return [
        _complete(
            "fig6/complete",
            ["-".join(map(str, a[1:])) for a in DEFAULT_ARCHITECTURES],
            ["-".join(map(str, p.arch[1:])) for p in f6.points],
        ),
        # From the paper's ~2x (every GEMM under ViennaCL's threshold) up.
        Check(
            "fig6/speedup-grows-with-width",
            grows and 1.2 <= s[0] <= 3.5,
            f"{s[0]:.1f}x -> {s[-1]:.1f}x",
        ),
        _all("fig6/large-net-speedup-above-15x", _pick(speedups, last.label), "> 15"),
        _all("fig6/speedup-below-thread-count", speedups, "< 56"),
        Check(
            "fig6/gpu-ratio-flat-for-wide-nets",
            len(wide) >= 3 and max(gpu) / min(gpu) < 1.3 and cpu == sorted(cpu),
            f"{len(wide)} nets >= 200 wide, gpu/par max/min {max(gpu) / min(gpu):.2f}",
        ),
    ]


def _fig7_checks(f7: Fig7Result, ctx: ExperimentContext) -> list[Check]:
    panels = _cells(f7.panels)
    winners = [p.winner for p in f7.panels]
    decided = len(panels) - winners.count("none")
    initial, beaten = [], []
    for name, p in zip(panels, f7.panels):
        if not _approx(p.sync_gpu.curve.initial_loss, p.async_cpu.curve.initial_loss):
            initial.append(name)
        other = "cpu-par" if p.async_cpu.architecture == "cpu-seq" else "cpu-seq"
        run = ctx.try_run(p.task, p.dataset, other, "asynchronous")
        if run is not None and run.time_to(ctx.tolerance) < p.async_time:
            beaten.append(name)
    return [
        _complete("fig7/complete", _pairs(ctx), panels),
        Check(
            "fig7/no-single-winner",
            len(set(winners) - {"none"}) >= 2,
            str(dict(Counter(winners))),
        ),
        Check(
            "fig7/most-panels-decided",
            5 * decided >= 4 * len(panels),
            f"{decided} of {len(panels)} (at least 80%)",
        ),
        Check("fig7/curves-share-initial-loss", not initial, ", ".join(initial)),
        Check("fig7/async-side-is-best-cpu", not beaten, ", ".join(beaten)),
    ]


def _speedups(f: Fig89Result, system: str) -> dict[str, float]:
    return _values([e for e in f.entries if e.system == system], "speedup")


def _figure_complete(name: str, f: Fig89Result, ctx, tasks) -> Check:
    """Every bar group of the figure has its three systems."""
    groups = Counter(f"{e.task}/{e.dataset}" for e in f.entries)
    return _complete(name, _pairs(ctx, tasks), [g for g, n in groups.items() if n == 3])


def _fig8_checks(f8: Fig89Result, ctx: ExperimentContext) -> list[Check]:
    sync, bid = _speedups(f8, "ours-sync"), _speedups(f8, "bidmach")
    lr_async = _speedups(f8, "ours-async")
    return [
        _figure_complete("fig8/complete", f8, ctx, FIG8_TASKS),
        _all("fig8/ours-not-dominated-by-bidmach", _over(sync, bid), ">= 0.75"),
        _all("fig8/bidmach-collapses-on-sparse", _over(sync, bid, "/news"), "> 1.2"),
        _all("fig8/comparable-on-dense", _over(sync, bid, "/covtype"), "(0.5, 2.5)"),
        _all("fig8/async-gpu-loses-on-sparse", _pick(lr_async, "lr/news"), "< 1"),
        _all("fig8/async-gpu-wins-on-dense", _pick(lr_async, "lr/covtype"), "> 1"),
    ]


def _fig9_checks(f9: Fig89Result, ctx: ExperimentContext) -> list[Check]:
    sync = _speedups(f9, "ours-sync")
    return [
        _figure_complete("fig9/complete", f9, ctx, FIG9_TASKS),
        _all("fig9/superior-to-tensorflow", _over(sync, _speedups(f9, "tensorflow")),
             "> 1"),
        _all("fig9/sync-speedup-band", sync, "[2.5, 8]"),
        _all("fig9/hogbatch-gpu-below-0.6x", _speedups(f9, "ours-async"), "< 0.6"),
    ]


# -- prose ----------------------------------------------------------------------


def _prose(template: str, *names: str):
    """A paragraph whose ``{}`` fields are the named checks' verdicts."""
    return lambda result, checks: [
        template.format(*(verdict(checks[n].passed) for n in names))
    ]


def _table3_prose(t3: Table3Result, checks: dict[str, Check]) -> list[str]:
    def v(name: str) -> str:
        return verdict(checks[f"table3/{name}"].passed)

    return [
        "Shape checks: asynchronous CPU wins time-to-convergence on every large "
        "sparse dataset (real-sim, rcv1, news, all tasks): "
        f"**{v('cpu-wins-on-large-sparse')}** — the GPU wins only on "
        f"{_gpu_wins(t3)}: at reduced dataset scale the simulated device "
        "staleness cannot reach the paper's absolute in-flight window on the two "
        "smallest datasets, so their statistical penalty is compressed (see the "
        "'ep gpu/seq' column) while the hardware gap persists.  Dense-data "
        "parallel Hogwild slower per iteration than sequential (coherence "
        f"storm): **{v('dense-coherence-storm')}**; Hogbatch parallel speedup "
        f"large for MLP: **{v('hogbatch-parallel-speedup')}**.\n"
    ]


def _fig6_prose(f6: Fig6Result, checks: dict[str, Check]) -> list[str]:
    grows = checks["fig6/speedup-grows-with-width"]
    return [
        "Paper: speedup grows from ~2x to ~26x with net width; ours: "
        f"{grows.detail} — **{verdict(grows.passed)}**.\n"
    ]


def _fig7_prose(f7: Fig7Result, checks: dict[str, Check]) -> list[str]:
    winners = list(f7.winners().values())
    parts = [
        f"Winner split: sync-gpu {winners.count('sync-gpu')} / async-cpu "
        f"{winners.count('async-cpu')} of {len(winners)} panels.  Paper: no single "
        "winner (task- and dataset-dependent) — "
        f"**{verdict(checks['fig7/no-single-winner'].passed)}**.\n"
    ]
    if ("lr", "covtype") in f7.winners():
        panel = f7.panel("lr", "covtype").render()
        parts.append("Example panel (lr/covtype):\n\n```\n" + panel + "\n```\n")
    return parts


#: Artifact name -> record, in the document's order.
ARTIFACTS: dict[str, Artifact] = {
    a.name: a
    for a in (
        Artifact(
            "table1", "## Table I — datasets\n", run_table1, _table1_checks,
            _prose("Realised sparsity/dispersion/balance within band for all five "
                   "datasets: **{}**.\n", "table1/statistics-in-band"),
        ),
        Artifact(
            "table2", "## Table II — synchronous SGD (1% error)\n", run_table2,
            _table2_checks,
            _prose(
                "Shape checks: GPU always fastest per iteration/ttc: **{}**; parallel "
                "CPU always beats sequential: **{}**; MLP parallel speedup capped near "
                "2x by the ViennaCL GEMM threshold: **{}**.\n\nKnown divergences: the "
                "paper's sequential-CPU baselines are extremely slow (near-constant "
                "~2s per iteration regardless of dataset size, implying per-element "
                "kernel overheads we chose not to model), so our cpu-seq/cpu-par "
                "speedups land in a 12-54x band versus the paper's 42-428x, with the "
                "cache-resident datasets (w8a, real-sim) at the top in both.\n",
                "table2/gpu-always-fastest", "table2/parallel-always-helps",
                "table2/mlp-speedup-capped-near-2x",
            ),
            table2_cells, _table2_comparison,
        ),
        Artifact(
            "table3", "## Table III — asynchronous SGD (1% error)\n", run_table3,
            _table3_checks, _table3_prose, table3_cells, _table3_comparison,
        ),
        Artifact(
            "fig6", "## Fig. 6 — MLP architecture speedup sweep (real-sim)\n",
            run_fig6, _fig6_checks, _fig6_prose,
        ),
        Artifact(
            "fig7", "## Fig. 7 — synchronous GPU vs asynchronous CPU\n",
            run_fig7, _fig7_checks, _fig7_prose, fig7_cells,
        ),
        Artifact(
            "fig8", "## Fig. 8 — GPU-over-parallel-CPU speedup, LR/SVM vs BIDMach\n",
            run_fig8, _fig8_checks,
            _prose("Paper: our speedups are similar or better than BIDMach's, with "
                   "BIDMach's dense-optimised GPU kernels losing on sparse data — "
                   "**{}**.\n", "fig8/ours-not-dominated-by-bidmach"),
            lambda ctx: figure_cells(ctx, FIG8_TASKS),
        ),
        Artifact(
            "fig9", "## Fig. 9 — GPU-over-parallel-CPU speedup, MLP vs TensorFlow\n",
            run_fig9, _fig9_checks,
            _prose("Paper: 'we always obtain a superior GPU speedup' vs TensorFlow — "
                   "**{}**.\n", "fig9/superior-to-tensorflow"),
            lambda ctx: figure_cells(ctx, FIG9_TASKS),
        ),
    )
}

HEADER = """\
# EXPERIMENTS — paper vs. reproduction

All measurements regenerated at the `small` benchmark scale
(datasets scaled per DESIGN.md; hardware times from the machine
models at the paper's full dataset sizes; statistical efficiency
measured by running the real optimisation through the asynchrony
simulator).  Absolute numbers are indicative; the reproduction
target is the paper's *shape*: who wins, by what factor, and where
the crossovers fall.  Regenerate with
`make experiments`, i.e. `python -m repro experiments > EXPERIMENTS.md`.
"""

ADDENDUM = """
## Beyond the printed tables (extended artifacts)

`pytest benchmarks/ -s` regenerates additional artifacts under
`benchmarks/artifacts/`, each with shape assertions:

| artifact | content | headline check |
|---|---|---|
| `fig1_space_*.txt` | the complete Fig. 1 cube incl. the unimplemented (light) corners via the representation axis | the dark circles win; densifying sparse data always slows iterations |
| `tolerance_ladder.txt` | time to 10/5/2/1% per configuration (Section IV-A protocol) | asynchronous SGD leads at loose tolerances (Bertsekas, Section III) |
| `scaling_sweeps.txt` | speedup-vs-threads curves (DimmWitted-style) | sync monotone & super-linear in the cache-resident regime; dense Hogwild collapses below 1x |
| `hetero_future_work.txt` | CPU+GPU pairing (the paper's future work) | gains bounded by 2x, largest where Table II's gaps are smallest |
| `strategies.txt` | simulated Hogwild at C=1 and C=56, and real lock-free processes | on sparse data 56-way Hogwild stays within 1.3x the serial loss + 0.02; the real processes learn |
| `ablation_*.txt` | each modelled mechanism removed in turn | removing the mechanism removes the corresponding paper phenomenon |

Scale-transfer validation: `benchmarks/test_scale_stability.py` confirms
epochs-to-tolerance agree within 3x between the `small` and `medium`
scales for representative configurations, supporting the scaled-data
methodology end to end.
"""


def run_artifacts(ctx: ExperimentContext, names: Iterable[str]) -> dict[str, Any]:
    """Regenerate the named artifacts: name -> driver result.  One prefetch
    of every cell they train exposes the whole grid's parallelism."""
    records = [ARTIFACTS[name] for name in names]
    ctx.prefetch([cell for a in records if a.cells for cell in a.cells(ctx)])
    return {a.name: a.run(ctx) for a in records}


def render_report(ctx: ExperimentContext, results: dict[str, Any]) -> tuple[str, list]:
    """The EXPERIMENTS.md document for *results*, and every check in it.
    No timing enters the text: two runs of one grid print the same bytes."""
    sections, checks = [HEADER], []
    for name, result in results.items():
        artifact = ARTIFACTS[name]
        mine = artifact.checks(result, ctx)
        checks += mine
        sections += [artifact.heading, "```\n" + result.render() + "\n```\n"]
        if artifact.comparison is not None:
            sections.append("```\n" + artifact.comparison(result) + "\n```\n")
        sections += artifact.prose(result, {c.name: c for c in mine})
    sections.append(
        "## Shape checks\n\nEvery named check of the artifacts above; "
        "`make shapes` fails on any that is not reproduced.\n\n"
        "| check | verdict | detail |\n|---|---|---|\n"
        + "".join(
            f"| `{c.name}` | {verdict(c.passed)} | {c.detail.replace('|', '/')} |\n"
            for c in checks
        )
    )
    return "\n".join(sections + [ADDENDUM]), checks
