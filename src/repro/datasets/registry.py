"""Dataset registry: named scales, generation caching, Table I rendering.

The experiment drivers all obtain data through :func:`load`, which maps
``(dataset name, scale, seed)`` to a generated-and-cached
:class:`~repro.datasets.synthetic.Dataset`.  Scales:

* ``"tiny"``  — unit-test sized (hundreds of rows), fast enough for
  property tests;
* ``"small"`` — the default benchmark scale (a few thousand rows) at
  which all paper phenomena are visible;
* ``"medium"``— larger sweeps for the ablation benchmarks;
* ``"paper"`` — the full Table I dimensions.  Generation works but
  needs the memory/time of a workstation; none of the shipped tests or
  benchmarks use it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..utils.errors import ConfigurationError
from ..utils.tables import render_table
from ..utils.units import format_bytes
from .profiles import DATASET_NAMES, DatasetProfile, get_profile
from .synthetic import Dataset, generate
from .transform import mlp_dataset

__all__ = [
    "ScaleSpec",
    "SCALES",
    "load",
    "load_for",
    "load_mlp",
    "clear_cache",
    "cache_put",
    "cache_contains",
    "cache_evict",
    "table1",
]


@dataclass(frozen=True)
class ScaleSpec:
    """Caps applied to the paper profiles at a named scale."""

    name: str
    max_examples: int
    max_features: int


SCALES: dict[str, ScaleSpec] = {
    "tiny": ScaleSpec("tiny", max_examples=256, max_features=512),
    "small": ScaleSpec("small", max_examples=3_000, max_features=6_000),
    "medium": ScaleSpec("medium", max_examples=12_000, max_features=24_000),
    "paper": ScaleSpec("paper", max_examples=1_000_000, max_features=2_000_000),
}

_CACHE: dict[tuple[str, str, int | None], Dataset] = {}
_MLP_CACHE: dict[tuple[str, str, int | None], Dataset] = {}


def scaled_profile(name: str, scale: str = "small") -> DatasetProfile:
    """The profile of *name* after applying the *scale* caps."""
    if scale not in SCALES:
        raise ConfigurationError(f"unknown scale {scale!r}; available: {sorted(SCALES)}")
    spec = SCALES[scale]
    return get_profile(name).scaled(spec.max_examples, spec.max_features)


def load(name: str, scale: str = "small", seed: int | None = None) -> Dataset:
    """Load (generate and cache) a dataset at a named scale."""
    key = (name, scale, seed)
    if key not in _CACHE:
        _CACHE[key] = generate(scaled_profile(name, scale), seed=seed)
    return _CACHE[key]


def load_mlp(name: str, scale: str = "small", seed: int | None = None) -> Dataset:
    """Load the MLP-transformed (feature-grouped, dense) variant."""
    key = (name, scale, seed)
    if key not in _MLP_CACHE:
        _MLP_CACHE[key] = mlp_dataset(load(name, scale, seed))
    return _MLP_CACHE[key]


def load_for(
    task: str, name: str, scale: str = "small", seed: int | None = None
) -> Dataset:
    """The variant of *name* that *task* trains on: :func:`load_mlp`
    for the MLP, :func:`load` otherwise."""
    return (load_mlp if task == "mlp" else load)(name, scale, seed)


def clear_cache() -> None:
    """Drop all cached datasets (tests use this to bound memory)."""
    _CACHE.clear()
    _MLP_CACHE.clear()


def cache_put(
    name: str, scale: str, seed: int | None, dataset: Dataset, *, mlp: bool = False
) -> None:
    """Install *dataset* under the cache key that :func:`load` would use.

    The grid executor's shared-data layer uses this to substitute
    shared-memory-backed views for locally generated arrays; every later
    :func:`load`/:func:`load_mlp` in the process then returns the view.
    """
    (_MLP_CACHE if mlp else _CACHE)[(name, scale, seed)] = dataset


def cache_contains(
    name: str, scale: str, seed: int | None, *, mlp: bool = False
) -> bool:
    """Whether a dataset is already cached under this key."""
    return (name, scale, seed) in (_MLP_CACHE if mlp else _CACHE)


def cache_evict(name: str, scale: str, seed: int | None, *, mlp: bool = False) -> None:
    """Drop one cache entry (no-op when absent).

    Shared-data teardown must evict its views *before* unlinking the
    backing segments, otherwise a later cache hit would hand out arrays
    over freed memory.
    """
    (_MLP_CACHE if mlp else _CACHE).pop((name, scale, seed), None)


def table1(scale: str = "small", seed: int | None = None) -> str:
    """Render the realised datasets in the layout of the paper's Table I."""
    headers = [
        "dataset",
        "#examples",
        "#features",
        "nnz/exp (min-max, avg)",
        "size (s/d)",
        "LR&SVM sparsity (%)",
        "MLP sparsity (%)",
        "MLP architecture",
    ]
    rows = []
    for name in DATASET_NAMES:
        ds = load(name, scale, seed)
        mlp = load_mlp(name, scale, seed)
        s = ds.summary()
        ms = mlp.summary()
        csr = ds.as_csr()
        arch = "-".join(str(w) for w in mlp.profile.mlp_arch)
        rows.append(
            [
                name,
                int(s["n_examples"]),
                int(s["n_features"]),
                f"{int(s['nnz_min'])} to {int(s['nnz_max'])} ({s['nnz_avg']:.0f})",
                f"{format_bytes(csr.memory_bytes)} / {format_bytes(csr.dense_bytes)}",
                s["sparsity_pct"],
                ms["sparsity_pct"],
                arch,
            ]
        )
    return render_table(headers, rows, title=f"Table I (scale={scale})")
