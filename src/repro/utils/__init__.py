"""Shared utilities: errors, RNG management, statistics, units, tables."""

from .errors import (
    CellQuarantinedError,
    ConfigurationError,
    DataFormatError,
    DivergenceError,
    ReproError,
    TraceError,
)
from .rng import DEFAULT_SEED, derive_rng, make_rng, spawn_streams, stable_hash
from .stats import RunningStats, dispersion_ratio, geometric_mean
from .tables import format_cell, render_bar_chart, render_line_chart, render_table
from .units import (
    CACHE_LINE_BYTES,
    FLOAT32_BYTES,
    FLOAT64_BYTES,
    GIGA,
    GiB,
    INT32_BYTES,
    KILO,
    KiB,
    MEGA,
    MiB,
    format_bytes,
    format_seconds,
)

__all__ = [
    "ReproError",
    "CellQuarantinedError",
    "ConfigurationError",
    "DataFormatError",
    "DivergenceError",
    "TraceError",
    "DEFAULT_SEED",
    "make_rng",
    "derive_rng",
    "spawn_streams",
    "stable_hash",
    "RunningStats",
    "geometric_mean",
    "dispersion_ratio",
    "render_table",
    "render_bar_chart",
    "render_line_chart",
    "format_cell",
    "KiB",
    "MiB",
    "GiB",
    "KILO",
    "MEGA",
    "GIGA",
    "CACHE_LINE_BYTES",
    "FLOAT64_BYTES",
    "FLOAT32_BYTES",
    "INT32_BYTES",
    "format_bytes",
    "format_seconds",
]
