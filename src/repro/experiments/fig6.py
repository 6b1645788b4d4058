"""Fig. 6 — synchronous speedup vs. MLP architecture size (real-sim).

The paper grows the deep net on real-sim and shows the cpu-par/cpu-seq
speedup climbing from ~2x (all weight-gradient GEMMs below ViennaCL's
parallelisation threshold) to ~26x for a very large net, while the
gpu-over-cpu-par speedup stays roughly flat because "the largest
configuration does not fit in the GPU memory" / the input layer stays
serial.

This is a pure hardware-efficiency experiment: no optimisation is run,
only one epoch's kernel trace per architecture, priced on the three
backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..datasets import load_mlp
from ..linalg import axpy, recording
from ..models.mlp import MLP
from ..sgd.runner import full_scale_factor
from ..utils.rng import derive_rng
from ..utils.tables import render_bar_chart, render_table
from ..utils.units import FLOAT64_BYTES
from .common import ExperimentContext

__all__ = ["Fig6Point", "Fig6Result", "run_fig6", "DEFAULT_ARCHITECTURES"]

#: The sweep: Table I's real-sim net up to a very large configuration.
DEFAULT_ARCHITECTURES: tuple[tuple[int, ...], ...] = (
    (50, 10, 5, 2),
    (50, 50, 25, 2),
    (50, 200, 100, 2),
    (50, 800, 400, 2),
    (50, 2048, 1024, 2),
    (50, 4096, 2048, 2),
)


@dataclass(frozen=True)
class Fig6Point:
    """Speedups of one MLP architecture."""

    arch: tuple[int, ...]
    tpi_cpu_seq: float
    tpi_cpu_par: float
    tpi_gpu: float

    @property
    def label(self) -> str:
        """Architecture label like ``50-200-100-2``."""
        return "-".join(str(a) for a in self.arch)

    @property
    def speedup_par_over_seq(self) -> float:
        """cpu-seq / cpu-par time ratio (the climbing series)."""
        return self.tpi_cpu_seq / self.tpi_cpu_par

    @property
    def speedup_gpu_over_par(self) -> float:
        """cpu-par / gpu time ratio (the roughly flat series)."""
        return self.tpi_cpu_par / self.tpi_gpu


@dataclass
class Fig6Result:
    """The sweep's points and their rendering."""

    points: list[Fig6Point] = field(default_factory=list)

    def render(self) -> str:
        """Table + ASCII bars of both speedup series."""
        headers = ["architecture", "tpi seq (ms)", "tpi par (ms)", "tpi gpu (ms)", "par/seq", "gpu/par"]
        rows = [
            [
                p.label,
                p.tpi_cpu_seq * 1e3,
                p.tpi_cpu_par * 1e3,
                p.tpi_gpu * 1e3,
                p.speedup_par_over_seq,
                p.speedup_gpu_over_par,
            ]
            for p in self.points
        ]
        table = render_table(headers, rows, title="Fig. 6: MLP speedup sweep (real-sim)")
        bars = render_bar_chart(
            [p.label for p in self.points],
            [p.speedup_par_over_seq for p in self.points],
            title="cpu-par over cpu-seq speedup",
            unit="x",
        )
        return table + "\n\n" + bars


def run_fig6(
    ctx: ExperimentContext | None = None,
    architectures: tuple[tuple[int, ...], ...] = DEFAULT_ARCHITECTURES,
) -> Fig6Result:
    """Price one epoch of each MLP architecture on the three backends."""
    ctx = ctx or ExperimentContext()
    ds = load_mlp("real-sim", ctx.scale, ctx.seed)
    factor = full_scale_factor(ds, "mlp")
    result = Fig6Result()
    for arch in architectures:
        model = MLP((ds.n_features,) + tuple(arch[1:]))
        params = model.init_params(derive_rng(ctx.seed, f"fig6/{arch}"))
        with recording() as tr:
            grad = model.full_grad(ds.X, ds.y, params)
            axpy(
                -0.1,
                grad,
                params,
                name="model_update",
                cost_scales=False,
                parallelism_scales=False,
            )
        trace = tr.scaled(factor)
        full_n = factor * ds.n_examples
        ws = full_n * ds.n_features * FLOAT64_BYTES + model.n_params * FLOAT64_BYTES
        result.points.append(
            Fig6Point(
                arch=(ds.n_features,) + tuple(arch[1:]),
                tpi_cpu_seq=ctx.cpu.sync_epoch_time(trace, 1, ws),
                tpi_cpu_par=ctx.cpu.sync_epoch_time(
                    trace, ctx.cpu.spec.max_threads, ws
                ),
                tpi_gpu=ctx.gpu.sync_epoch_time(trace),
            )
        )
    return result
