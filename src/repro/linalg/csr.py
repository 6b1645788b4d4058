"""Compressed Sparse Row matrices, implemented from scratch on NumPy.

The paper's sparse configurations all use CSR ("A sparse matrix format,
e.g., Compressed Sparse Row (CSR), is the only alternative that fits in
memory", Section I).  We implement our own CSR type rather than using
``scipy.sparse`` because the hardware models need access to structural
statistics scipy does not expose cheaply (per-row nnz dispersion,
touched cache lines per row, column document frequencies) and because
the asynchronous engine updates the shared model through per-row
index/value views.

Layout (identical to the standard CSR definition):

* ``indptr``  — int64 array of length ``n_rows + 1``; row *i* occupies
  ``indices[indptr[i]:indptr[i+1]]`` / ``data[...]``.
* ``indices`` — int32 column indices, strictly increasing within a row.
* ``data``    — float64 values.

Invariants are checked at construction and exercised by the
hypothesis-based property tests.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..utils.errors import DataFormatError
from ..utils.units import CACHE_LINE_BYTES, FLOAT64_BYTES, INT32_BYTES

__all__ = ["CSRMatrix"]


class CSRMatrix:
    """An immutable CSR matrix over float64 values.

    Parameters
    ----------
    indptr, indices, data:
        Standard CSR arrays (see module docstring).
    shape:
        ``(n_rows, n_cols)``.
    check:
        Validate structural invariants (on by default; generators that
        construct provably valid structure pass ``False`` to skip the
        O(nnz) verification).
    """

    __slots__ = ("indptr", "indices", "data", "shape", "_row_nnz")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: tuple[int, int],
        check: bool = True,
    ) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.shape = (int(shape[0]), int(shape[1]))
        self._row_nnz: np.ndarray | None = None
        if check:
            self._validate()

    def __reduce__(self):
        # The arrays and shape alone: the row counts are recomputed on
        # first use rather than shipped with every pickled matrix.
        return CSRMatrix, (self.indptr, self.indices, self.data, self.shape, False)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dense(cls, arr: np.ndarray) -> "CSRMatrix":
        """Compress a dense 2-D array, dropping exact zeros."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise DataFormatError(f"from_dense expects 2-D input, got ndim={arr.ndim}")
        mask = arr != 0.0
        counts = mask.sum(axis=1)
        indptr = np.zeros(arr.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        rows, cols = np.nonzero(mask)
        data = arr[rows, cols]
        return cls(indptr, cols.astype(np.int32), data, arr.shape, check=False)

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[tuple[np.ndarray, np.ndarray]],
        n_cols: int,
    ) -> "CSRMatrix":
        """Build from per-row ``(indices, values)`` pairs.

        Each row's indices must be strictly increasing; this is the
        format the LIBSVM reader and the synthetic generators produce.
        """
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        idx_parts: list[np.ndarray] = []
        val_parts: list[np.ndarray] = []
        for i, (idx, val) in enumerate(rows):
            idx = np.asarray(idx, dtype=np.int32)
            val = np.asarray(val, dtype=np.float64)
            if idx.shape != val.shape:
                raise DataFormatError(f"row {i}: indices/values length mismatch")
            indptr[i + 1] = indptr[i] + idx.size
            idx_parts.append(idx)
            val_parts.append(val)
        indices = (
            np.concatenate(idx_parts) if idx_parts else np.empty(0, dtype=np.int32)
        )
        data = np.concatenate(val_parts) if val_parts else np.empty(0, dtype=np.float64)
        return cls(indptr, indices, data, (len(rows), n_cols))

    def _validate(self) -> None:
        n_rows, n_cols = self.shape
        if n_rows < 0 or n_cols < 0:
            raise DataFormatError(f"negative shape {self.shape}")
        if self.indptr.shape[0] != n_rows + 1:
            raise DataFormatError(
                f"indptr length {self.indptr.shape[0]} != n_rows+1 ({n_rows + 1})"
            )
        if self.indptr[0] != 0:
            raise DataFormatError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise DataFormatError("indptr must be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.indices.shape[0] != nnz or self.data.shape[0] != nnz:
            raise DataFormatError("indices/data length must equal indptr[-1]")
        if nnz:
            if self.indices.min() < 0 or self.indices.max() >= n_cols:
                raise DataFormatError("column index out of range")
            # strictly increasing within each row
            if nnz > 1:
                d = np.diff(self.indices)
                inner = np.ones(nnz - 1, dtype=bool)
                row_starts = self.indptr[1:-1]
                boundary = row_starts[(row_starts > 0) & (row_starts < nnz)]
                inner[boundary - 1] = False  # diffs across row boundaries exempt
                if np.any((d <= 0) & inner):
                    raise DataFormatError("column indices must increase within a row")

    # -- basic properties ---------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Number of rows (training examples)."""
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        """Number of columns (features)."""
        return self.shape[1]

    @property
    def nnz(self) -> int:
        """Number of stored non-zeros."""
        return int(self.indptr[-1])

    @property
    def row_nnz(self) -> np.ndarray:
        """Per-row non-zero counts (int64 array of length ``n_rows``).

        Computed on first access and kept (8 bytes a row: 5.4 MB for
        rcv1 at ``scale="paper"``); the array is read-only, since every
        later caller shares it.
        """
        counts = self._row_nnz
        if counts is None:
            counts = np.diff(self.indptr)
            counts.flags.writeable = False
            self._row_nnz = counts
        return counts

    @property
    def density(self) -> float:
        """nnz / (rows * cols); the paper's 'sparsity' percentage / 100."""
        cells = self.n_rows * self.n_cols
        return self.nnz / cells if cells else 0.0

    @property
    def memory_bytes(self) -> int:
        """Bytes of the CSR representation (Table I's sparse size)."""
        return (
            self.indptr.size * 8
            + self.indices.size * INT32_BYTES
            + self.data.size * FLOAT64_BYTES
        )

    @property
    def dense_bytes(self) -> int:
        """Bytes a dense float64 representation would take (Table I)."""
        return self.n_rows * self.n_cols * FLOAT64_BYTES

    def column_frequencies(self) -> np.ndarray:
        """Fraction of rows in which each column is non-zero.

        The coherence model derives Hogwild conflict probabilities from
        these document frequencies: concurrent updates collide on the
        cache lines of *popular* features.
        """
        counts = np.bincount(self.indices, minlength=self.n_cols)
        return counts / max(1, self.n_rows)

    def row_cache_lines(self) -> np.ndarray:
        """Distinct model cache lines touched by each row's update.

        A model entry is 8 bytes, so one 64-byte line holds 8 adjacent
        coordinates; a row touching columns ``J`` dirties
        ``unique(J // 8)`` lines.
        """
        per_line = CACHE_LINE_BYTES // FLOAT64_BYTES
        counts = self.row_nnz
        if self.nnz == 0:
            return np.zeros(self.n_rows, dtype=np.int64)
        lines = (self.indices // per_line).astype(np.int64)
        # Indices are sorted within a row, so line ids are sorted: a
        # row's distinct-line count is 1 + its number of breaks.  Breaks
        # are counted globally (one diff over the whole array) and
        # diffs that straddle a row boundary are masked out.
        breaks = np.zeros(self.nnz, dtype=bool)
        if self.nnz > 1:
            breaks[1:] = np.diff(lines) != 0
            row_starts = self.indptr[1:-1]
            breaks[row_starts[row_starts < self.nnz]] = False  # boundary diffs exempt
        out = np.zeros(self.n_rows, dtype=np.int64)
        nonempty = counts > 0
        cum = np.concatenate(([0], np.cumsum(breaks)))
        out[nonempty] = 1 + (cum[self.indptr[1:]] - cum[self.indptr[:-1]])[nonempty]
        return out

    # -- access -------------------------------------------------------------

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of row *i*'s ``(indices, values)`` (no copies)."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def iter_rows(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Iterate over ``(indices, values)`` row views."""
        for i in range(self.n_rows):
            yield self.row(i)

    def take_rows(self, rows: np.ndarray) -> "CSRMatrix":
        """Return a new CSR containing the given rows, in order.

        The gather is fully vectorised: one fancy-index over the flat
        ``indices``/``data`` arrays instead of a Python loop per row —
        this is the batched row-gather the asynchronous engine and the
        shared-memory backend lean on every round.
        """
        indptr, indices, data, shape = self.gather_rows_arrays(rows)
        return CSRMatrix(indptr, indices, data, shape, check=False)

    def gather_rows_arrays(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, int]]:
        """Batched row-gather returning raw ``(indptr, indices, data, shape)``.

        Identical content to :meth:`take_rows` without constructing a
        :class:`CSRMatrix`; hot paths that only need the concatenated
        coordinate/value arrays (per-example scatter updates) use this
        to skip the wrapper.
        """
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        nnz = int(indptr[-1])
        if nnz == 0:
            return (
                indptr,
                np.empty(0, dtype=np.int32),
                np.empty(0, dtype=np.float64),
                (rows.size, self.n_cols),
            )
        # Flat source positions: for each output slot, the offset of its
        # row's segment start plus the slot's rank within the segment.
        flat = np.repeat(starts - indptr[:-1], counts) + np.arange(nnz, dtype=np.int64)
        return (
            indptr,
            self.indices[flat],
            self.data[flat],
            (rows.size, self.n_cols),
        )

    def to_dense(self) -> np.ndarray:
        """Expand to a dense float64 array."""
        out = np.zeros(self.shape, dtype=np.float64)
        rows = np.repeat(np.arange(self.n_rows), self.row_nnz)
        out[rows, self.indices] = self.data
        return out

    # -- arithmetic (uninstrumented; see sparse_ops for traced versions) ----

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` for a dense vector *x* of length ``n_cols``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise DataFormatError(f"matvec expects shape ({self.n_cols},), got {x.shape}")
        prod = self.data * x[self.indices]
        # segment sum over rows via reduceat (empty rows handled below)
        if self.nnz == 0:
            return np.zeros(self.n_rows)
        starts = self.indptr[:-1]
        out = np.zeros(self.n_rows, dtype=np.float64)
        nonempty = self.row_nnz > 0
        if np.any(nonempty):
            out[nonempty] = np.add.reduceat(prod, starts[nonempty])
        return out

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """``A.T @ v`` for a dense vector *v* of length ``n_rows``."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n_rows,):
            raise DataFormatError(
                f"rmatvec expects shape ({self.n_rows},), got {v.shape}"
            )
        out = np.zeros(self.n_cols, dtype=np.float64)
        weights = np.repeat(v, self.row_nnz)
        np.add.at(out, self.indices, weights * self.data)
        return out

    def matmat(self, B: np.ndarray) -> np.ndarray:
        """``A @ B`` for a dense matrix *B* of shape ``(n_cols, k)``."""
        B = np.asarray(B, dtype=np.float64)
        if B.ndim != 2 or B.shape[0] != self.n_cols:
            raise DataFormatError(
                f"matmat expects ({self.n_cols}, k) operand, got {B.shape}"
            )
        out = np.zeros((self.n_rows, B.shape[1]), dtype=np.float64)
        gathered = B[self.indices] * self.data[:, None]
        starts = self.indptr[:-1]
        nonempty = self.row_nnz > 0
        if np.any(nonempty):
            out[nonempty] = np.add.reduceat(gathered, starts[nonempty], axis=0)
        return out

    def __repr__(self) -> str:
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.4%})"
        )
