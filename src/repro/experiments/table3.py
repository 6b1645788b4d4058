"""Table III — asynchronous SGD performance to 1% convergence error.

Unlike the synchronous case, statistical efficiency here depends on the
architecture (the concurrency of the interleaving), so each cell runs
its own optimisation.  Non-convergent configurations are reported as
infinity, exactly like the paper's Table III.

Degraded mode: async cells quarantine independently, so on a
keep-going grid a row may be *partially* gapped — the quarantined
architecture's columns render as ``-`` while the surviving ones keep
their numbers — with the details in the failure-report section
(docs/RESILIENCE.md).

Measured staleness: the asynchrony *simulator* behind the table's
cells parameterises staleness; the parameter-server backend *measures*
it (``ps.staleness_bucket.*``, one observation per answered pull
round).  :meth:`Table3Result.attach_staleness` folds run manifests
from ``--backend ps`` runs into an extra section under the table, so
the simulated concurrency column and the measured lag distribution can
be read side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from ..telemetry import keys
from ..utils.tables import render_table
from .common import ExperimentContext, infinity_or
from .resilience import CellFailure, nan_to_gap, render_failure_section

__all__ = [
    "Table3Row",
    "Table3Result",
    "StalenessRow",
    "staleness_rows",
    "run_table3",
    "table3_cells",
]


@dataclass(frozen=True)
class Table3Row:
    """One (task, dataset) row of Table III.  Times in seconds."""

    task: str
    dataset: str
    ttc_gpu: float
    ttc_cpu_seq: float
    ttc_cpu_par: float
    tpi_gpu: float
    tpi_cpu_seq: float
    tpi_cpu_par: float
    epochs_gpu: float
    epochs_cpu_seq: float
    epochs_cpu_par: float

    @property
    def is_gap(self) -> bool:
        """True when any architecture of this row was quarantined."""
        return any(
            math.isnan(v) for v in (self.tpi_gpu, self.tpi_cpu_seq, self.tpi_cpu_par)
        )

    @property
    def speedup_seq_over_par(self) -> float:
        """cpu-seq / cpu-par time-per-iteration ratio."""
        return self.tpi_cpu_seq / self.tpi_cpu_par

    @property
    def ratio_gpu_over_par(self) -> float:
        """gpu / cpu-par time-per-iteration ratio (paper's last column:
        < 1 means the GPU iterates faster, > 1 slower)."""
        return self.tpi_gpu / self.tpi_cpu_par


@dataclass(frozen=True)
class StalenessRow:
    """Measured staleness of one parameter-server run manifest.

    The buckets are the run's ``ps.staleness_bucket.*`` counters: how
    many answered pull rounds observed each work-item lag against the
    slowest live worker — the measured counterpart of the simulator's
    staleness parameter behind the table's async cells.
    """

    task: str
    dataset: str
    nodes: int
    max_staleness: int | None
    #: Answered pull round-trips (``ps.pull_rounds``).
    pull_rounds: float
    #: Applied updates (``sgd.updates_applied``).
    updates: float
    #: Shards answered from the worker cache (``ps.shard_cache_hits``).
    cache_hits: float
    #: Shard payloads actually shipped (``ps.pulls``).
    shard_payloads: float
    #: ``(bucket suffix, observations)`` in ascending lag order.
    buckets: tuple[tuple[str, float], ...]

    @property
    def rounds_per_update(self) -> float:
        """Pull round-trips one applied update cost."""
        return self.pull_rounds / self.updates if self.updates else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of answered shards that shipped no payload."""
        total = self.cache_hits + self.shard_payloads
        return self.cache_hits / total if total else 0.0


def _bucket_order(suffix: str) -> float:
    """Sort key placing ``le_0 < le_1 < ... < gt_64``."""
    kind, _, edge = suffix.partition("_")
    return float(edge) + (0.5 if kind == "gt" else 0.0)


def staleness_rows(manifest: dict[str, Any]) -> list[StalenessRow]:
    """Extract measured-staleness rows from a manifest dict.

    Accepts a single run manifest (``repro.telemetry/manifest/v1``) or
    an aggregate grid manifest (its ``cells`` are scanned).  Manifests
    without ``ps.*`` staleness counters yield no rows — a table fed a
    non-PS manifest degrades to the plain rendering.
    """
    cells = manifest.get("cells")
    if cells is not None:  # grid manifest: recurse into the cells
        rows: list[StalenessRow] = []
        for cell in cells:
            inner = cell.get("manifest")
            if inner:
                rows.extend(staleness_rows(inner))
        return rows

    counters = dict(manifest.get("counters") or {})
    measured = (manifest.get("results") or {}).get("measured") or {}
    if not counters:
        # Uninstrumented run: the measured record still carries totals.
        counters = dict(measured.get("counters") or {})
    buckets = sorted(
        (
            (k[len(keys.PS_STALENESS_BUCKET_PREFIX) :], float(v))
            for k, v in counters.items()
            if k.startswith(keys.PS_STALENESS_BUCKET_PREFIX)
        ),
        key=lambda kv: _bucket_order(kv[0]),
    )
    if not buckets:
        return []
    config = manifest.get("config") or {}
    return [
        StalenessRow(
            task=str(config.get("task", "?")),
            dataset=str(config.get("dataset", "?")),
            nodes=int(measured.get("nodes", config.get("nodes", 0)) or 0),
            max_staleness=measured.get("max_staleness"),
            pull_rounds=float(counters.get(keys.PS_PULL_ROUNDS, 0.0)),
            updates=float(counters.get(keys.UPDATES_APPLIED, 0.0)),
            cache_hits=float(counters.get(keys.PS_SHARD_CACHE_HITS, 0.0)),
            shard_payloads=float(counters.get(keys.PS_PULLS, 0.0)),
            buckets=tuple(buckets),
        )
    ]


@dataclass
class Table3Result:
    """All rows and their rendering (the shape checks live in the registry)."""

    rows: list[Table3Row] = field(default_factory=list)
    #: Quarantine records behind the gapped columns (keep-going only).
    failures: list[CellFailure] = field(default_factory=list)
    #: Measured-staleness rows attached from PS run manifests.
    staleness: list[StalenessRow] = field(default_factory=list)

    def row(self, task: str, dataset: str) -> Table3Row:
        """Look up one row."""
        for r in self.rows:
            if r.task == task and r.dataset == dataset:
                return r
        raise KeyError((task, dataset))

    def render(self) -> str:
        """Monospace rendering in the paper's Table III layout."""
        headers = [
            "task",
            "dataset",
            "ttc gpu (s)",
            "ttc cpu-seq (s)",
            "ttc cpu-par (s)",
            "tpi gpu (ms)",
            "tpi cpu-seq (ms)",
            "tpi cpu-par (ms)",
            "ep gpu",
            "ep seq",
            "ep par",
            "seq/par",
            "gpu/par",
        ]
        body = [
            [
                r.task,
                r.dataset,
                *(
                    nan_to_gap(v)
                    for v in (
                        r.ttc_gpu,
                        r.ttc_cpu_seq,
                        r.ttc_cpu_par,
                        r.tpi_gpu * 1e3,
                        r.tpi_cpu_seq * 1e3,
                        r.tpi_cpu_par * 1e3,
                        r.epochs_gpu,
                        r.epochs_cpu_seq,
                        r.epochs_cpu_par,
                        r.speedup_seq_over_par,
                        r.ratio_gpu_over_par,
                    )
                ),
            ]
            for r in self.rows
        ]
        table = render_table(
            headers, body, title="Table III: Asynchronous SGD performance (1% error)"
        )
        return (
            table
            + render_failure_section(self.failures)
            + self._render_staleness_section()
        )

    def attach_staleness(self, manifest: dict) -> int:
        """Fold one manifest's measured-staleness rows into the table.

        Returns how many rows the manifest contributed (0 for a run
        without ``ps.*`` counters).
        """
        rows = staleness_rows(manifest)
        self.staleness.extend(rows)
        return len(rows)

    def _render_staleness_section(self) -> str:
        """The measured lag distribution from attached PS manifests."""
        if not self.staleness:
            return ""
        suffixes: list[str] = []
        for row in self.staleness:
            for suffix, _ in row.buckets:
                if suffix not in suffixes:
                    suffixes.append(suffix)
        suffixes.sort(key=_bucket_order)
        headers = [
            "task",
            "dataset",
            "nodes",
            "cap",
            "rounds/upd",
            "cache-hit %",
            *(s.replace("_", " ") for s in suffixes),
        ]
        body = []
        for row in self.staleness:
            counts = dict(row.buckets)
            total = sum(counts.values())
            shares = [
                f"{100.0 * counts[s] / total:.1f}%" if s in counts and total else "-"
                for s in suffixes
            ]
            body.append(
                [
                    row.task,
                    row.dataset,
                    row.nodes,
                    "inf" if row.max_staleness is None else row.max_staleness,
                    f"{row.rounds_per_update:.2f}",
                    f"{100.0 * row.cache_hit_rate:.1f}",
                    *shares,
                ]
            )
        return "\n\n" + render_table(
            headers,
            body,
            title=(
                "Measured PS staleness (ps.staleness_bucket.*: share of "
                "pull rounds by observed work-item lag)"
            ),
        )


def table3_cells(ctx: ExperimentContext):
    """The grid cells Table III trains: every asynchronous cell."""
    return ctx.grid_cells(strategies=("asynchronous",))


def run_table3(ctx: ExperimentContext | None = None) -> Table3Result:
    """Regenerate Table III at the context's scale."""
    ctx = ctx or ExperimentContext()
    ctx.prefetch(table3_cells(ctx))
    result = Table3Result()
    for task in ctx.tasks:
        for dataset in ctx.datasets:
            runs = {
                arch: ctx.try_run(task, dataset, arch, "asynchronous")
                for arch in ("gpu", "cpu-seq", "cpu-par")
            }
            for arch, run in runs.items():
                if run is None:
                    failure = ctx.failure_for(task, dataset, arch, "asynchronous")
                    if failure is not None and failure not in result.failures:
                        result.failures.append(failure)

            def ttc(run):
                return math.nan if run is None else run.time_to(ctx.tolerance)

            def tpi(run):
                return math.nan if run is None else run.time_per_iter

            def epochs(run):
                if run is None:
                    return math.nan
                return infinity_or(run.epochs_to(ctx.tolerance))

            result.rows.append(
                Table3Row(
                    task=task,
                    dataset=dataset,
                    ttc_gpu=ttc(runs["gpu"]),
                    ttc_cpu_seq=ttc(runs["cpu-seq"]),
                    ttc_cpu_par=ttc(runs["cpu-par"]),
                    tpi_gpu=tpi(runs["gpu"]),
                    tpi_cpu_seq=tpi(runs["cpu-seq"]),
                    tpi_cpu_par=tpi(runs["cpu-par"]),
                    epochs_gpu=epochs(runs["gpu"]),
                    epochs_cpu_seq=epochs(runs["cpu-seq"]),
                    epochs_cpu_par=epochs(runs["cpu-par"]),
                )
            )
    return result
