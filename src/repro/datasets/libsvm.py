"""LIBSVM text-format reader/writer.

The paper's datasets are distributed in LIBSVM format [5] — lines of

    <label> <index>:<value> <index>:<value> ...

with 1-based feature indices.  This module lets the genuine files be
dropped into the reproduction in place of the synthetic data, and lets
generated datasets be exported for cross-checking against other tools.

Labels are normalised to {-1, +1}: inputs using {0,1} or {1,2}
conventions (covtype.binary uses {1,2}) are remapped with the smaller
value becoming -1.
"""

from __future__ import annotations

import io
import math
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from ..linalg.csr import CSRMatrix
from ..utils.errors import DataFormatError
from .profiles import DatasetProfile
from .synthetic import Dataset

__all__ = ["read_libsvm", "write_libsvm", "parse_libsvm_lines"]


def parse_libsvm_lines(
    lines: Iterable[str], n_features: int | None = None
) -> tuple[CSRMatrix, np.ndarray]:
    """Parse an iterable of LIBSVM lines into ``(CSRMatrix, labels)``.

    Parameters
    ----------
    lines:
        Text lines; blank lines and ``#`` comments are skipped.
    n_features:
        Total feature count; inferred as the maximum seen index when
        omitted.
    """
    labels: list[float] = []
    rows: list[tuple[np.ndarray, np.ndarray]] = []
    max_index = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            label = float(parts[0])
        except ValueError as exc:
            raise DataFormatError(f"line {lineno}: bad label {parts[0]!r}") from exc
        if not math.isfinite(label):
            raise DataFormatError(f"line {lineno}: non-finite label {parts[0]!r}")
        idx: list[int] = []
        val: list[float] = []
        prev = 0
        for tok in parts[1:]:
            try:
                k, v = tok.split(":", 1)
                j = int(k)
                x = float(v)
            except ValueError as exc:
                raise DataFormatError(f"line {lineno}: bad pair {tok!r}") from exc
            if not math.isfinite(x):
                raise DataFormatError(f"line {lineno}: non-finite value {tok!r}")
            if j < 1:
                raise DataFormatError(f"line {lineno}: index {j} must be >= 1")
            if j <= prev:
                raise DataFormatError(
                    f"line {lineno}: indices must be strictly increasing"
                )
            prev = j
            if x != 0.0:
                idx.append(j - 1)
                val.append(x)
        labels.append(label)
        rows.append((np.asarray(idx, dtype=np.int64), np.asarray(val)))
        if idx:
            max_index = max(max_index, idx[-1] + 1)

    d = n_features if n_features is not None else max_index
    if d < max_index:
        raise DataFormatError(
            f"n_features={d} smaller than max seen index {max_index}"
        )
    X = CSRMatrix.from_rows(rows, n_cols=d)
    y = _normalise_labels(np.asarray(labels, dtype=np.float64))
    return X, y


def _normalise_labels(y: np.ndarray) -> np.ndarray:
    """Map arbitrary binary label encodings onto {-1, +1}."""
    uniq = np.unique(y)
    if uniq.size > 2:
        raise DataFormatError(
            f"expected binary labels, found {uniq.size} classes: {uniq[:5]}"
        )
    if uniq.size == 1:
        return np.where(y == uniq[0], 1.0, -1.0) if uniq[0] > 0 else np.full_like(y, -1.0)
    _, hi = uniq
    return np.where(y == hi, 1.0, -1.0)


def read_libsvm(
    path: str | Path | TextIO,
    n_features: int | None = None,
    name: str | None = None,
) -> Dataset:
    """Read a LIBSVM file into a :class:`Dataset` with a realised profile."""
    if hasattr(path, "read"):
        X, y = parse_libsvm_lines(path, n_features)  # type: ignore[arg-type]
        src_name = name or "libsvm"
    else:
        p = Path(path)
        with p.open("r", encoding="utf-8") as fh:
            X, y = parse_libsvm_lines(fh, n_features)
        src_name = name or p.stem
    row_nnz = X.row_nnz
    profile = DatasetProfile(
        name=src_name,
        n_examples=X.n_rows,
        n_features=X.n_cols,
        nnz_min=int(row_nnz.min()) if row_nnz.size else 0,
        nnz_avg=float(row_nnz.mean()) if row_nnz.size else 0.0,
        nnz_max=int(row_nnz.max()) if row_nnz.size else 0,
        mlp_arch=(min(300, X.n_cols), 10, 5, 2),
        mlp_sparsity_pct=100.0 * X.density,
    )
    return Dataset(name=src_name, X=X, y=y, profile=profile)


def write_libsvm(dataset: Dataset, path: str | Path | TextIO) -> None:
    """Write a dataset in LIBSVM format (1-based indices)."""
    X = dataset.as_csr()

    def _emit(fh: io.TextIOBase) -> None:
        for i in range(X.n_rows):
            idx, val = X.row(i)
            pairs = " ".join(f"{int(j) + 1}:{v:.10g}" for j, v in zip(idx, val))
            label = int(dataset.y[i]) if dataset.y[i] in (-1.0, 1.0) else dataset.y[i]
            fh.write(f"{label} {pairs}".rstrip() + "\n")

    if hasattr(path, "write"):
        _emit(path)  # type: ignore[arg-type]
    else:
        with Path(path).open("w", encoding="utf-8") as fh:
            _emit(fh)
