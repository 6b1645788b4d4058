"""Tests for the from-scratch CSR matrix type, including property tests."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import CSRMatrix
from repro.utils.errors import DataFormatError


@st.composite
def dense_matrices(draw):
    """Random small dense matrices with controllable sparsity."""
    n = draw(st.integers(0, 12))
    d = draw(st.integers(1, 15))
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, d))
    mat[rng.random((n, d)) > density] = 0.0
    return mat


class TestConstruction:
    def test_from_dense_roundtrip(self, small_csr):
        np.testing.assert_array_equal(small_csr.to_dense(), small_csr.to_dense())

    def test_from_dense_drops_zeros(self):
        m = CSRMatrix.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert m.nnz == 1
        assert m.row_nnz.tolist() == [1, 0]

    def test_from_rows(self):
        rows = [
            (np.array([0, 3]), np.array([1.0, 2.0])),
            (np.array([], dtype=np.int64), np.array([])),
            (np.array([4]), np.array([5.0])),
        ]
        m = CSRMatrix.from_rows(rows, n_cols=5)
        assert m.shape == (3, 5)
        assert m.nnz == 3
        idx, val = m.row(0)
        np.testing.assert_array_equal(idx, [0, 3])
        np.testing.assert_array_equal(val, [1.0, 2.0])

    def test_from_rows_rejects_mismatched_lengths(self):
        with pytest.raises(DataFormatError, match="length mismatch"):
            CSRMatrix.from_rows([(np.array([0, 1]), np.array([1.0]))], n_cols=3)

    def test_validation_rejects_bad_indptr(self):
        with pytest.raises(DataFormatError):
            CSRMatrix(
                np.array([1, 1]), np.array([], dtype=np.int32), np.array([]), (1, 3)
            )

    def test_validation_rejects_decreasing_indptr(self):
        with pytest.raises(DataFormatError, match="non-decreasing"):
            CSRMatrix(
                np.array([0, 2, 1]),
                np.array([0, 1], dtype=np.int32),
                np.array([1.0, 2.0]),
                (2, 3),
            )

    def test_validation_rejects_out_of_range_column(self):
        with pytest.raises(DataFormatError, match="out of range"):
            CSRMatrix(np.array([0, 1]), np.array([5], dtype=np.int32), np.array([1.0]), (1, 3))

    def test_validation_rejects_unsorted_columns_within_row(self):
        with pytest.raises(DataFormatError, match="increase within a row"):
            CSRMatrix(
                np.array([0, 2]),
                np.array([2, 1], dtype=np.int32),
                np.array([1.0, 2.0]),
                (1, 3),
            )

    def test_boundary_column_decrease_is_legal(self):
        # last column of row 0 > first column of row 1 is fine
        m = CSRMatrix(
            np.array([0, 1, 2]),
            np.array([2, 0], dtype=np.int32),
            np.array([1.0, 2.0]),
            (2, 3),
        )
        assert m.nnz == 2


class TestProperties:
    def test_density_and_memory(self, small_csr):
        assert small_csr.density == small_csr.nnz / (12 * 9)
        assert small_csr.memory_bytes > 0
        assert small_csr.dense_bytes == 12 * 9 * 8

    def test_column_frequencies(self):
        m = CSRMatrix.from_dense(np.array([[1.0, 0.0], [1.0, 2.0]]))
        np.testing.assert_allclose(m.column_frequencies(), [1.0, 0.5])

    def test_row_cache_lines_counts_distinct_lines(self):
        # columns 0 and 7 share line 0; column 8 is line 1
        rows = [(np.array([0, 7, 8]), np.ones(3))]
        m = CSRMatrix.from_rows(rows, n_cols=16)
        assert m.row_cache_lines().tolist() == [2]

    def test_row_cache_lines_empty_row(self):
        m = CSRMatrix.from_rows([(np.array([], dtype=np.int64), np.array([]))], 8)
        assert m.row_cache_lines().tolist() == [0]

    def test_row_nnz_computed_once_and_read_only(self, small_csr):
        counts = small_csr.row_nnz
        assert counts is small_csr.row_nnz
        assert counts.tolist() == np.diff(small_csr.indptr).tolist()
        with pytest.raises(ValueError):
            counts[0] = 99
        assert small_csr.row_nnz[3] == 0

    def test_row_nnz_survives_a_pickle_round_trip(self, small_csr):
        small_csr.row_nnz  # cached before pickling
        copy = pickle.loads(pickle.dumps(small_csr))
        np.testing.assert_array_equal(copy.row_nnz, small_csr.row_nnz)
        assert not copy.row_nnz.flags.writeable
        np.testing.assert_array_equal(copy.to_dense(), small_csr.to_dense())


class TestArithmetic:
    @given(dense_matrices())
    @settings(max_examples=80, deadline=None)
    def test_matvec_matches_dense(self, dense):
        m = CSRMatrix.from_dense(dense)
        x = np.random.default_rng(0).standard_normal(dense.shape[1])
        np.testing.assert_allclose(m.matvec(x), dense @ x, atol=1e-10)

    @given(dense_matrices())
    @settings(max_examples=80, deadline=None)
    def test_rmatvec_matches_dense(self, dense):
        m = CSRMatrix.from_dense(dense)
        v = np.random.default_rng(1).standard_normal(dense.shape[0])
        np.testing.assert_allclose(m.rmatvec(v), dense.T @ v, atol=1e-10)

    @given(dense_matrices(), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_matmat_matches_dense(self, dense, k):
        m = CSRMatrix.from_dense(dense)
        B = np.random.default_rng(2).standard_normal((dense.shape[1], k))
        np.testing.assert_allclose(m.matmat(B), dense @ B, atol=1e-10)

    @given(dense_matrices())
    @settings(max_examples=60, deadline=None)
    def test_to_dense_roundtrip(self, dense):
        np.testing.assert_array_equal(CSRMatrix.from_dense(dense).to_dense(), dense)

    def test_matvec_shape_check(self, small_csr):
        with pytest.raises(DataFormatError):
            small_csr.matvec(np.ones(small_csr.n_cols + 1))

    def test_rmatvec_shape_check(self, small_csr):
        with pytest.raises(DataFormatError):
            small_csr.rmatvec(np.ones(small_csr.n_rows + 1))


class TestTakeRows:
    def test_selects_in_order(self, small_csr):
        rows = np.array([5, 0, 3])
        sub = small_csr.take_rows(rows)
        np.testing.assert_array_equal(sub.to_dense(), small_csr.to_dense()[rows])

    def test_duplicate_rows_allowed(self, small_csr):
        sub = small_csr.take_rows(np.array([1, 1]))
        dense = small_csr.to_dense()
        np.testing.assert_array_equal(sub.to_dense(), dense[[1, 1]])

    def test_row_views_are_views(self, small_csr):
        idx, val = small_csr.row(0)
        assert idx.base is small_csr.indices or idx.size == 0
        assert val.base is small_csr.data or val.size == 0


class TestIterRows:
    def test_yields_all_rows_in_order(self, small_csr):
        rows = list(small_csr.iter_rows())
        assert len(rows) == small_csr.n_rows
        for i, (idx, val) in enumerate(rows):
            eidx, eval_ = small_csr.row(i)
            np.testing.assert_array_equal(idx, eidx)
            np.testing.assert_array_equal(val, eval_)
