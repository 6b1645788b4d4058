"""Tests for LIBSVM format IO."""

import io

import numpy as np
import pytest

from repro.datasets import parse_libsvm_lines, read_libsvm, write_libsvm
from repro.datasets.registry import scaled_profile
from repro.datasets.synthetic import generate
from repro.utils.errors import DataFormatError


SAMPLE = """\
+1 1:0.5 3:1.25
-1 2:2.0
# a comment line
+1 1:1.0 2:1.0 4:1.0

-1 4:-3.5
"""


class TestParse:
    def test_basic(self):
        X, y = parse_libsvm_lines(io.StringIO(SAMPLE))
        assert X.shape == (4, 4)
        np.testing.assert_array_equal(y, [1.0, -1.0, 1.0, -1.0])
        dense = X.to_dense()
        assert dense[0, 0] == 0.5 and dense[0, 2] == 1.25
        assert dense[3, 3] == -3.5

    def test_explicit_feature_count(self):
        X, _ = parse_libsvm_lines(io.StringIO(SAMPLE), n_features=10)
        assert X.n_cols == 10

    def test_feature_count_too_small(self):
        with pytest.raises(DataFormatError, match="smaller than max"):
            parse_libsvm_lines(io.StringIO(SAMPLE), n_features=2)

    def test_zero_values_dropped(self):
        X, _ = parse_libsvm_lines(io.StringIO("+1 1:0.0 2:1.0\n"))
        assert X.nnz == 1

    def test_rejects_bad_label(self):
        with pytest.raises(DataFormatError, match="bad label"):
            parse_libsvm_lines(io.StringIO("abc 1:1\n"))

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_label(self, label):
        """A nan label would sort as the high class and flip a positive row."""
        with pytest.raises(DataFormatError, match="line 2: non-finite label"):
            parse_libsvm_lines(io.StringIO(f"1 1:1\n{label} 2:1\n"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_value(self, value):
        with pytest.raises(DataFormatError, match="line 2: non-finite value"):
            parse_libsvm_lines(io.StringIO(f"1 1:1\n-1 2:{value}\n"))

    def test_rejects_bad_pair(self):
        with pytest.raises(DataFormatError, match="bad pair"):
            parse_libsvm_lines(io.StringIO("+1 1:one\n"))

    def test_rejects_zero_index(self):
        with pytest.raises(DataFormatError, match=">= 1"):
            parse_libsvm_lines(io.StringIO("+1 0:1.0\n"))

    def test_rejects_non_increasing_indices(self):
        with pytest.raises(DataFormatError, match="strictly increasing"):
            parse_libsvm_lines(io.StringIO("+1 2:1.0 2:2.0\n"))

    def test_label_normalisation_12(self):
        """covtype.binary style {1, 2} labels map to {-1, +1}."""
        _, y = parse_libsvm_lines(io.StringIO("1 1:1\n2 1:1\n"))
        np.testing.assert_array_equal(y, [-1.0, 1.0])

    def test_label_normalisation_01(self):
        _, y = parse_libsvm_lines(io.StringIO("0 1:1\n1 1:1\n"))
        np.testing.assert_array_equal(y, [-1.0, 1.0])

    def test_rejects_multiclass(self):
        with pytest.raises(DataFormatError, match="binary"):
            parse_libsvm_lines(io.StringIO("1 1:1\n2 1:1\n3 1:1\n"))


class TestRoundtrip:
    def test_write_then_read(self, tmp_path):
        ds = generate(scaled_profile("w8a", "tiny"), seed=0)
        path = tmp_path / "w8a.libsvm"
        write_libsvm(ds, path)
        back = read_libsvm(path, n_features=ds.n_features)
        np.testing.assert_array_equal(back.y, ds.y)
        np.testing.assert_allclose(back.X.to_dense(), ds.X.to_dense(), rtol=1e-9)

    def test_read_builds_realised_profile(self, tmp_path):
        ds = generate(scaled_profile("w8a", "tiny"), seed=0)
        path = tmp_path / "w8a.libsvm"
        write_libsvm(ds, path)
        back = read_libsvm(path)
        assert back.profile.n_examples == ds.n_examples
        assert back.profile.nnz_max == int(ds.X.row_nnz.max())

    def test_read_from_filelike(self):
        buf = io.StringIO(SAMPLE)
        ds = read_libsvm(buf, name="sample")
        assert ds.name == "sample"
        assert ds.n_examples == 4
