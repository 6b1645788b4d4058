"""Tests for the cache-line conflict statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import PAPER_PROFILES
from repro.hardware.coherence import (
    LineStats,
    dense_line_frequencies,
    line_frequencies_from_csr,
    zipf_line_frequencies,
)
from repro.linalg import CSRMatrix


class TestLineStats:
    def test_dense_everything_conflicts(self):
        stats = dense_line_frequencies(54)
        assert stats.n_lines == 7  # ceil(54 / 8)
        assert stats.conflict_fraction(56) == pytest.approx(1.0)
        assert stats.expected_writers(56) == pytest.approx(56.0)
        assert stats.max_frequency == 1.0

    def test_single_thread_no_conflicts(self):
        stats = dense_line_frequencies(54)
        assert stats.conflict_fraction(1) == 0.0

    def test_empty(self):
        stats = LineStats(np.empty(0))
        assert stats.conflict_fraction(56) == 0.0
        assert stats.expected_writers(56) == 1.0
        assert stats.max_frequency == 0.0

    def test_rejects_frequency_above_one(self):
        with pytest.raises(ValueError):
            LineStats(np.array([1.5]))

    def test_arrays_are_read_only(self):
        """A shared instance prices many cells: none may mutate it."""
        source = np.array([0.5, 0.25, 0.0])
        stats = LineStats(source)
        with pytest.raises(ValueError, match="read-only"):
            stats.frequencies[0] = 0.1
        with pytest.raises(ValueError, match="read-only"):
            stats._weights[0] = 0.1
        source[0] = 0.1  # the caller's own array is not frozen

    @given(
        st.lists(st.floats(0.001, 1.0), min_size=1, max_size=30),
        st.integers(2, 500),
    )
    @settings(max_examples=60, deadline=None)
    def test_conflict_fraction_bounds_and_monotonicity(self, freqs, t):
        stats = LineStats(np.asarray(freqs))
        f_t = stats.conflict_fraction(t)
        assert 0.0 <= f_t <= 1.0
        assert f_t <= stats.conflict_fraction(t + 10) + 1e-12

    @given(st.lists(st.floats(0.001, 1.0), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_writers_monotone_in_threads(self, freqs):
        stats = LineStats(np.asarray(freqs))
        assert stats.expected_writers(2) <= stats.expected_writers(100)
        assert stats.expected_writers(1) == pytest.approx(1.0)


class TestFromCsr:
    def test_counts_row_touches(self):
        # line 0 = cols 0-7, line 1 = cols 8-15
        rows = [
            (np.array([0, 1]), np.ones(2)),  # touches line 0 once
            (np.array([8]), np.ones(1)),  # line 1
            (np.array([0, 8]), np.ones(2)),  # both lines
        ]
        X = CSRMatrix.from_rows(rows, n_cols=16)
        stats = line_frequencies_from_csr(X)
        assert sorted(stats.frequencies.tolist()) == [pytest.approx(2 / 3)] * 2

    def test_empty_matrix(self):
        X = CSRMatrix.from_rows([(np.array([], dtype=np.int64), np.array([]))], 8)
        assert line_frequencies_from_csr(X).n_lines == 0


class TestZipf:
    def test_head_cap_bounds_feature_frequency(self):
        capped = zipf_line_frequencies(1000, 50.0, 1.1, head_freq_cap=0.05)
        # a line folds 8 features, each <= 0.05
        assert capped.max_frequency <= 1.0 - (1.0 - 0.05) ** 8 + 1e-9

    def test_uncapped_head_is_hotter(self):
        capped = zipf_line_frequencies(1000, 50.0, 1.1, head_freq_cap=0.05)
        raw = zipf_line_frequencies(1000, 50.0, 1.1)
        assert raw.max_frequency > capped.max_frequency

    def test_round_robin_beats_sorted_fold(self):
        """Round-robin assignment keeps the hottest line well below the
        worst case of folding adjacent head features into one line
        (1 - (1-cap)^8 = 0.83 here)."""
        stats = zipf_line_frequencies(800, 100.0, 1.0, head_freq_cap=0.2)
        assert stats.max_frequency < 0.6

    def test_paper_scale_dimensions(self):
        """Full news20 dimensionality stays tractable."""
        stats = zipf_line_frequencies(1_355_191, 455.0, 1.2, head_freq_cap=0.05)
        assert stats.n_lines > 10_000
        assert 0.0 < stats.conflict_fraction(56) < 1.0

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            zipf_line_frequencies(0, 1.0, 1.0)

    def test_memoised_per_profile(self):
        """A second call returns the very same read-only instance, equal
        bit for bit to a fresh computation."""
        p = PAPER_PROFILES["news"]
        args = (p.n_features, p.nnz_avg, p.zipf_exponent)
        first = zipf_line_frequencies(*args, head_freq_cap=p.head_freq_cap)
        again = zipf_line_frequencies(*args, head_freq_cap=p.head_freq_cap)
        assert again is first
        fresh = zipf_line_frequencies.__wrapped__(*args, head_freq_cap=p.head_freq_cap)
        assert fresh is not first
        assert first.frequencies.tobytes() == fresh.frequencies.tobytes()
        assert first._weights.tobytes() == fresh._weights.tobytes()
