"""Tests for the statistics helpers (Welford, dispersion, geo-mean)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.stats import RunningStats, dispersion_ratio, geometric_mean


class TestRunningStats:
    def test_empty(self):
        s = RunningStats()
        assert s.count == 0
        assert s.variance == 0.0

    def test_single_value(self):
        s = RunningStats()
        s.push(3.5)
        assert s.mean == 3.5
        assert s.min == s.max == 3.5
        assert s.std == 0.0

    def test_matches_numpy(self, rng):
        xs = rng.standard_normal(257)
        s = RunningStats()
        s.push_many(xs)
        assert s.count == 257
        assert s.mean == pytest.approx(xs.mean())
        assert s.variance == pytest.approx(xs.var(ddof=1))
        assert s.min == xs.min() and s.max == xs.max()

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=40),
        st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_concatenation(self, xs, ys):
        a, b, c = RunningStats(), RunningStats(), RunningStats()
        for x in xs:
            a.push(x)
            c.push(x)
        for y in ys:
            b.push(y)
            c.push(y)
        merged = a.merge(b)
        assert merged.count == c.count
        if c.count:
            assert merged.mean == pytest.approx(c.mean, rel=1e-9, abs=1e-9)
            assert merged.variance == pytest.approx(c.variance, rel=1e-6, abs=1e-6)


class TestGeometricMean:
    def test_simple(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_single(self):
        assert geometric_mean([5.0]) == pytest.approx(5.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestDispersionRatio:
    def test_constant_sample_is_one(self):
        assert dispersion_ratio(np.full(10, 7.0)) == 1.0

    def test_empty_is_one(self):
        assert dispersion_ratio(np.array([])) == 1.0

    def test_max_over_mean(self):
        vals = np.array([1.0, 1.0, 10.0])
        assert dispersion_ratio(vals) == pytest.approx(10.0 / 4.0)

    def test_never_below_one(self):
        # negative values drag the mean below max but floor is 1.0
        assert dispersion_ratio(np.array([1.0, 1.0])) == 1.0
