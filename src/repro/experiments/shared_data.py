"""Shared-memory dataset segments for the parallel experiment grid.

Profiling the grid executor showed that parallel runs were *slower*
than serial at ``--jobs 4``:
every worker re-materialised every dataset it touched, so the fan-out
paid ``jobs x`` dataset generation on top of process spawn.  This module
removes that cost with the same idiom the Hogwild shm backend uses
(``repro.parallel.shm``): the parent copies each loaded dataset's
arrays into :mod:`multiprocessing.shared_memory` segments **once**,
publishes a small picklable descriptor per dataset, and every worker
maps the segments read-only.

Lifecycle
---------

* The parent calls :func:`ensure_published` with the ``(name, scale,
  seed, mlp)`` specs the grid needs.  Publishing is incremental and
  idempotent: already-published datasets are skipped, new ones are
  added to the process-wide registry.
* Publishing also installs the shm-backed read-only ``Dataset`` view
  into the dataset registry cache (:func:`repro.datasets.registry.cache_put`),
  so **forked** children inherit the views for free — zero copies, zero
  attach calls.
* On spawn platforms (or after an exec) workers receive the descriptors
  as a start-up argument and call :func:`attach_descriptors`, which
  maps each segment by name.  The call is a no-op for any dataset whose
  cache slot is already populated (the fork-inheritance fast path).
* Teardown (:func:`shutdown_shared_data`, also registered ``atexit``)
  first evicts the installed cache views, then closes and unlinks every
  segment — in that order, so no live cache entry can ever point at
  freed memory.  The CI leak checks (``ls /dev/shm/psm_*``) hold on
  every exit path, including quarantine and ``KeyboardInterrupt``.

Workers never write the shared arrays: every view is created with
``writeable = False``, and the training stack treats datasets as
immutable (model state is per-run, datasets are inputs).
"""

from __future__ import annotations

import atexit
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any, Iterable, Sequence

import numpy as np

from ..datasets import registry as dataset_registry
from ..datasets.synthetic import Dataset
from ..linalg.csr import CSRMatrix

__all__ = [
    "SharedArraySpec",
    "SharedDatasetDescriptor",
    "SharedDatasetRegistry",
    "DatasetSpec",
    "ensure_published",
    "active_registry",
    "attach_descriptors",
    "shutdown_shared_data",
]

# (dataset name, scale, seed, mlp-variant?) — the unit of publication.
DatasetSpec = tuple[str, str, "int | None", bool]


@dataclass(frozen=True)
class SharedArraySpec:
    """One named array inside a shared dataset: where and what it is."""

    segment: str
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class SharedDatasetDescriptor:
    """Everything a worker needs to rebuild a dataset over shm segments.

    Picklable (spawn-safe): segment *names* plus array metadata plus the
    small frozen profile dataclass — never the segments themselves.
    """

    spec: DatasetSpec
    dataset_name: str
    kind: str  # "dense" | "csr"
    shape: tuple[int, int]
    arrays: dict[str, SharedArraySpec]
    profile: Any  # DatasetProfile (frozen dataclass, picklable)


@dataclass
class _PublishedDataset:
    descriptor: SharedDatasetDescriptor
    segments: list[shared_memory.SharedMemory] = field(default_factory=list)
    nbytes: int = 0


def _share_array(arr: np.ndarray) -> tuple[shared_memory.SharedMemory, SharedArraySpec]:
    """Copy *arr* into a fresh shm segment; return it with its metadata."""
    arr = np.ascontiguousarray(arr)
    shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[...] = arr
    return shm, SharedArraySpec(shm.name, tuple(arr.shape), str(arr.dtype))


def _view_from(spec: SharedArraySpec, shm: shared_memory.SharedMemory) -> np.ndarray:
    """A read-only ndarray over an (already attached) segment."""
    view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)
    view.flags.writeable = False
    return view


def _build_dataset(
    desc: SharedDatasetDescriptor, views: dict[str, np.ndarray]
) -> Dataset:
    """Reconstruct the Dataset from read-only views (no array copies).

    ``CSRMatrix.__init__`` runs the arrays through ``ascontiguousarray``;
    because the views already carry the canonical dtypes and are
    contiguous, that call returns the same read-only objects untouched.
    """
    if desc.kind == "csr":
        X: Any = CSRMatrix(
            views["indptr"], views["indices"], views["data"], desc.shape, check=False
        )
    else:
        X = views["X"]
    return Dataset(name=desc.dataset_name, X=X, y=views["y"], profile=desc.profile)


class SharedDatasetRegistry:
    """Parent-side owner of published shared-memory datasets.

    Owns the segments (close + unlink on :meth:`close`) and the cache
    installations it performed.  Publication is incremental: one
    registry serves the whole process, growing as new grids request new
    datasets.
    """

    def __init__(self) -> None:
        self._published: dict[DatasetSpec, _PublishedDataset] = {}
        self._closed = False

    # -- publication -------------------------------------------------------

    def publish(
        self, name: str, scale: str, seed: int | None, *, mlp: bool = False
    ) -> SharedDatasetDescriptor:
        """Publish one dataset (idempotent); install the shm view locally."""
        spec: DatasetSpec = (name, scale, seed, mlp)
        if spec in self._published:
            return self._published[spec].descriptor
        if self._closed:
            raise RuntimeError("shared-dataset registry is closed")
        ds = (
            dataset_registry.load_mlp(name, scale, seed)
            if mlp
            else dataset_registry.load(name, scale, seed)
        )
        entry = _PublishedDataset(descriptor=None)  # type: ignore[arg-type]
        arrays: dict[str, SharedArraySpec] = {}
        raw: dict[str, np.ndarray] = {"y": np.asarray(ds.y)}
        if isinstance(ds.X, CSRMatrix):
            kind = "csr"
            raw.update(indptr=ds.X.indptr, indices=ds.X.indices, data=ds.X.data)
        else:
            kind = "dense"
            raw["X"] = np.asarray(ds.X)
        try:
            for label, arr in raw.items():
                shm, aspec = _share_array(arr)
                entry.segments.append(shm)
                entry.nbytes += arr.nbytes
                arrays[label] = aspec
        except BaseException:
            for shm in entry.segments:
                shm.close()
                shm.unlink()
            raise
        desc = SharedDatasetDescriptor(
            spec=spec,
            dataset_name=ds.name,
            kind=kind,
            shape=(int(ds.X.shape[0]), int(ds.X.shape[1])),
            arrays=arrays,
            profile=ds.profile,
        )
        entry.descriptor = desc
        views = {
            label: _view_from(arrays[label], entry.segments[i])
            for i, label in enumerate(raw)
        }
        dataset_registry.cache_put(
            name, scale, seed, _build_dataset(desc, views), mlp=mlp
        )
        self._published[spec] = entry
        return desc

    # -- introspection -----------------------------------------------------

    def descriptors(self) -> tuple[SharedDatasetDescriptor, ...]:
        return tuple(p.descriptor for p in self._published.values())

    def specs(self) -> frozenset[DatasetSpec]:
        return frozenset(self._published)

    @property
    def dataset_count(self) -> int:
        return len(self._published)

    @property
    def segment_count(self) -> int:
        return sum(len(p.segments) for p in self._published.values())

    @property
    def bytes_shared(self) -> int:
        return sum(p.nbytes for p in self._published.values())

    # -- teardown ----------------------------------------------------------

    def close(self) -> None:
        """Evict installed views, then close + unlink every segment."""
        if self._closed:
            return
        self._closed = True
        for (name, scale, seed, mlp) in self._published:
            dataset_registry.cache_evict(name, scale, seed, mlp=mlp)
        for entry in self._published.values():
            for shm in entry.segments:
                try:
                    shm.close()
                    shm.unlink()
                except (FileNotFoundError, OSError):  # already gone: fine
                    pass
        self._published.clear()


# -- process-wide registry -------------------------------------------------

_REGISTRY: SharedDatasetRegistry | None = None
_ATEXIT_REGISTERED = False


def ensure_published(
    specs: Iterable[DatasetSpec],
) -> tuple[SharedDatasetRegistry | None, int]:
    """Publish any not-yet-shared datasets; return ``(registry, newly_published)``.

    A dataset that fails to load (unknown name, bad profile) is skipped:
    the worker that needs it will raise the same error it always did,
    and the grid reports it against the right cell.  Returns ``(None,
    0)`` when shared memory itself is unavailable on the platform.
    """
    global _REGISTRY, _ATEXIT_REGISTERED
    if _REGISTRY is None:
        _REGISTRY = SharedDatasetRegistry()
    if not _ATEXIT_REGISTERED:
        atexit.register(shutdown_shared_data)
        _ATEXIT_REGISTERED = True
    published = 0
    for name, scale, seed, mlp in specs:
        try:
            before = _REGISTRY.dataset_count
            _REGISTRY.publish(name, scale, seed, mlp=mlp)
            published += _REGISTRY.dataset_count - before
        except OSError:
            # shm unavailable / exhausted: fall back to per-worker
            # materialisation for everything not yet published.
            break
        except Exception:
            continue  # unloadable dataset: let the owning cell report it
    return _REGISTRY, published


def active_registry() -> SharedDatasetRegistry | None:
    """The process-wide registry, or None before first publication."""
    return _REGISTRY


def shutdown_shared_data() -> None:
    """Close and unlink every published segment (idempotent)."""
    global _REGISTRY
    if _REGISTRY is not None:
        _REGISTRY.close()
        _REGISTRY = None


# -- worker side -----------------------------------------------------------

# Attached segments are kept alive for the worker's lifetime: the numpy
# views borrow their buffers, so the SharedMemory objects must not be
# garbage collected underneath them.
_ATTACHED: list[shared_memory.SharedMemory] = []


def attach_descriptors(descriptors: Sequence[SharedDatasetDescriptor]) -> int:
    """Map published datasets into this process's dataset cache.

    Fork children inherit the parent's cache installations and skip every
    descriptor; spawn children attach each segment by name.  Returns the
    number of datasets newly attached.
    """
    attached = 0
    for desc in descriptors:
        name, scale, seed, mlp = desc.spec
        if dataset_registry.cache_contains(name, scale, seed, mlp=mlp):
            continue  # fork-inherited (or locally generated): keep it
        try:
            views: dict[str, np.ndarray] = {}
            segments: list[shared_memory.SharedMemory] = []
            for label, aspec in desc.arrays.items():
                shm = shared_memory.SharedMemory(name=aspec.segment)
                segments.append(shm)
                views[label] = _view_from(aspec, shm)
            dataset = _build_dataset(desc, views)
        except (FileNotFoundError, OSError):
            for shm in segments:
                shm.close()
            continue  # parent tore down already: regenerate locally on demand
        _ATTACHED.extend(segments)
        dataset_registry.cache_put(name, scale, seed, dataset, mlp=mlp)
        attached += 1
    return attached
