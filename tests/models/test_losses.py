"""Tests for the loss functions and derivatives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.models.losses import (
    hinge_dmargin,
    hinge_loss,
    logistic_dmargin,
    logistic_loss,
    softmax_cross_entropy,
    softmax_probs,
    stable_sigmoid,
)

finite_floats = st.floats(-50.0, 50.0)


def masked_sigmoid(z):
    """The boolean-mask formulation the branch-free sigmoid replaced."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


#: Signed zeros, infinities, NaNs with either sign and a payload,
#: subnormals, the exp under/overflow edges and |z| > 745.
EDGES = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2e-308,
     -2.2e-308, 36.0, -36.0, 709.8, -709.8, 745.1, -745.1, 746.0, -746.0,
     1e4, -1e4, 1e308, -1e308],
    np.array([0x7FF8000000000123, -0x0007FFFFFFFFFEDD], dtype=np.int64).view(
        np.float64
    ),
])


class TestStableSigmoid:
    def test_values(self):
        np.testing.assert_allclose(stable_sigmoid(np.array([0.0])), [0.5])

    def test_extremes_finite(self):
        out = stable_sigmoid(np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    @given(st.lists(finite_floats, min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, zs):
        z = np.asarray(zs)
        np.testing.assert_allclose(
            stable_sigmoid(z) + stable_sigmoid(-z), 1.0, atol=1e-12
        )


class TestBranchFreeSigmoid:
    def test_edges_bitwise(self):
        assert np.array_equal(
            _bits(stable_sigmoid(EDGES)), _bits(masked_sigmoid(EDGES))
        )

    def test_two_dimensional_bitwise(self):
        z = np.concatenate([EDGES, np.linspace(-800.0, 800.0, 24)]).reshape(6, 8)
        assert stable_sigmoid(z).shape == (6, 8)
        assert np.array_equal(_bits(stable_sigmoid(z)), _bits(masked_sigmoid(z)))

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=2, max_side=16),
            elements=st.floats(
                allow_nan=True, allow_infinity=True, allow_subnormal=True
            ),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_generated_bitwise(self, z):
        assert np.array_equal(_bits(stable_sigmoid(z)), _bits(masked_sigmoid(z)))


class TestLogistic:
    def test_loss_at_zero_margin(self):
        np.testing.assert_allclose(logistic_loss(np.array([0.0])), [np.log(2.0)])

    def test_loss_overflow_safe(self):
        out = logistic_loss(np.array([-1e4]))
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(1e4)

    @given(finite_floats)
    @settings(max_examples=60, deadline=None)
    def test_derivative_matches_finite_difference(self, m):
        eps = 1e-6
        num = (logistic_loss(np.array([m + eps])) - logistic_loss(np.array([m - eps]))) / (
            2 * eps
        )
        np.testing.assert_allclose(logistic_dmargin(np.array([m])), num, atol=1e-5)

    def test_derivative_bounded(self):
        d = logistic_dmargin(np.linspace(-30, 30, 101))
        assert np.all(d <= 0) and np.all(d >= -1)


class TestHinge:
    def test_loss_values(self):
        np.testing.assert_allclose(
            hinge_loss(np.array([-1.0, 0.0, 1.0, 2.0])), [2.0, 1.0, 0.0, 0.0]
        )

    def test_subgradient_regions(self):
        np.testing.assert_array_equal(
            hinge_dmargin(np.array([0.5, 1.0, 1.5])), [-1.0, 0.0, 0.0]
        )

    @given(finite_floats)
    @settings(max_examples=60, deadline=None)
    def test_subgradient_valid(self, m):
        """Subgradient inequality: f(x) >= f(m) + g*(x - m) for all x."""
        g = float(hinge_dmargin(np.array([m]))[0])
        f_m = float(hinge_loss(np.array([m]))[0])
        for x in (m - 1.0, m + 1.0, 0.0, 1.0):
            f_x = float(hinge_loss(np.array([x]))[0])
            assert f_x >= f_m + g * (x - m) - 1e-9


class TestSoftmax:
    def test_probs_sum_to_one(self, rng):
        p = softmax_probs(rng.standard_normal((5, 3)) * 20)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_probs_overflow_safe(self):
        p = softmax_probs(np.array([[1e4, -1e4]]))
        assert np.isfinite(p).all()

    def test_cross_entropy_matches_direct(self, rng):
        logits = rng.standard_normal((6, 2))
        classes = rng.integers(0, 2, size=6)
        direct = -np.log(softmax_probs(logits)[np.arange(6), classes])
        np.testing.assert_allclose(
            softmax_cross_entropy(logits, classes), direct, atol=1e-12
        )

    def test_cross_entropy_of_certain_prediction(self):
        out = softmax_cross_entropy(np.array([[100.0, 0.0]]), np.array([0]))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
