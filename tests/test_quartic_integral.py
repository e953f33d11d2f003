"""Cross-checks of the three independent evaluations of the quartic integral.

I1(a, b, c) = integral over the real line of exp(-(a x^4 + b x^2 + c x)) dx.
The adaptive quadrature serves as the reference; the series and Hermite routes
must reproduce it over their domains of validity.
"""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anharmprop import i1_hermite_method, i1_quadrature, i1_series

A_VALUES = [0.02, 0.1, 0.5, 2.0]
B_VALUES = [0.1, 0.5, 2.0]
C_VALUES = [-1.5, 0.0, 0.8]

# The Hermite generating-function route expands around b = 0 in powers of
# b / sqrt(2a); it is accurate for moderate values of that ratio, so its
# grid keeps a bounded away from zero.
HERMITE_A = [0.5, 1.0, 2.0]
HERMITE_B = [0.25, 1.0, 2.0]
HERMITE_C = [0.0, 0.5, 1.0]


def mpmath_reference(a, b, c):
    f = lambda x: mpmath.exp(-(a * x**4 + b * x**2 + c * x))
    with mpmath.workdps(30):
        return float(mpmath.quad(f, [-mpmath.inf, 0, mpmath.inf]))


class TestQuadrature:
    @pytest.mark.parametrize("a", A_VALUES)
    @pytest.mark.parametrize("b", B_VALUES)
    @pytest.mark.parametrize("c", C_VALUES)
    def test_against_mpmath(self, a, b, c):
        assert i1_quadrature(a, b, c) == pytest.approx(
            mpmath_reference(a, b, c), rel=1e-10
        )

    def test_gaussian_limit_small_a(self):
        # For tiny a the integral approaches the Gaussian closed form.
        b, c = 2.0, 0.3
        gauss = math.sqrt(math.pi / b) * math.exp(c * c / (4.0 * b))
        assert i1_quadrature(1e-8, b, c) == pytest.approx(gauss, rel=1e-6)

    def test_pure_quartic_closed_form(self):
        # int exp(-a x^4) dx = Gamma(1/4) / (2 a^{1/4}).
        a = 0.7
        exact = math.gamma(0.25) / (2.0 * a**0.25)
        assert i1_quadrature(a, 0.0, 0.0) == pytest.approx(exact, rel=1e-10)

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError):
            i1_quadrature(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            i1_quadrature(-0.5, 1.0, 0.0)

    def test_even_in_c(self):
        assert i1_quadrature(0.3, 0.7, 1.1) == pytest.approx(
            i1_quadrature(0.3, 0.7, -1.1), rel=1e-12
        )


class TestSeries:
    @pytest.mark.parametrize("a", A_VALUES)
    @pytest.mark.parametrize("b", B_VALUES)
    @pytest.mark.parametrize("c", C_VALUES)
    def test_matches_quadrature(self, a, b, c):
        assert i1_series(a, b, c) == pytest.approx(
            i1_quadrature(a, b, c), rel=1e-10
        )

    @pytest.mark.parametrize("b", [-0.5, -2.0])
    def test_negative_b(self, b):
        # Double-well coefficients: the series still converges.
        assert i1_series(0.4, b, 0.3) == pytest.approx(
            i1_quadrature(0.4, b, 0.3), rel=1e-10
        )

    def test_zero_c_single_term(self):
        # With c = 0 only the m = 0 term survives.
        assert i1_series(0.3, 0.8, 0.0) == pytest.approx(
            i1_quadrature(0.3, 0.8, 0.0), rel=1e-12
        )

    def test_explicit_cap_truncates(self):
        # An explicit m_max returns the partial sum without raising; the
        # truncated value must differ measurably from the converged one.
        full = i1_series(0.05, 0.1, 3.0)
        truncated = i1_series(0.05, 0.1, 3.0, m_max=1)
        assert truncated != pytest.approx(full, rel=1e-6)
        assert 0.0 < truncated < full

    @given(
        a=st.floats(0.05, 2.0),
        b=st.floats(-1.0, 2.0),
        c=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_series_property(self, a, b, c):
        assert i1_series(a, b, c) == pytest.approx(
            i1_quadrature(a, b, c), rel=1e-9
        )


class TestHermiteMethod:
    @pytest.mark.parametrize("a", HERMITE_A)
    @pytest.mark.parametrize("b", HERMITE_B)
    @pytest.mark.parametrize("c", HERMITE_C)
    def test_matches_quadrature(self, a, b, c):
        assert i1_hermite_method(a, b, c) == pytest.approx(
            i1_quadrature(a, b, c), rel=1e-9
        )

    def test_requires_positive_b(self):
        with pytest.raises(ValueError):
            i1_hermite_method(0.3, 0.0, 0.5)
        with pytest.raises(ValueError):
            i1_hermite_method(0.3, -1.0, 0.5)

    def test_three_way_agreement_grid(self):
        worst = 0.0
        for a in HERMITE_A:
            for b in HERMITE_B:
                for c in HERMITE_C:
                    ref = i1_quadrature(a, b, c)
                    worst = max(
                        worst,
                        abs(i1_series(a, b, c) / ref - 1.0),
                        abs(i1_hermite_method(a, b, c) / ref - 1.0),
                    )
        assert worst < 1e-9


# float.hex() of each route before its adaptive-sum loop was shared: the
# converged sums, i1_series at m_max=3 and i1_hermite_method at mu_max=2
# (None where b <= 0 is outside the Hermite route's domain).
PINNED_I1 = [
    ((0.3, -0.7, 0.0), ("0x1.16b361ca5df7cp+2", "0x1.16b361ca5df7cp+2", None, None)),
    ((0.3, -0.7, 1.3), ("0x1.32c2602dde019p+3", "0x1.32514b13db416p+3", None, None)),
    ((0.3, 0.5, 0.0), ("0x1.e33e1e3be5590p+0", "0x1.e33e1e3be5590p+0",
                       "0x1.e33e1e3be5588p+0", "0x1.e33e1e3be5588p+0")),
    ((0.3, 0.5, 1.3), ("0x1.5a136c93215a2p+1", "0x1.5a01c4059a216p+1",
                       "0x1.5a136c932159ep+1", "0x1.58db07795f2c8p+1")),
    ((2.5, -0.7, 1.3), ("0x1.0c5623d21c941p+1", "0x1.0c5534ab1fc96p+1", None, None)),
    ((2.5, 1.5, 0.0), ("0x1.19fdcd56c67c9p+0", "0x1.19fdcd56c67c9p+0",
                       "0x1.19fdcd56c67c6p+0", "0x1.19fdcd56c67c6p+0")),
    ((2.5, 1.5, 1.3), ("0x1.3fc25a92f4a3dp+0", "0x1.3fc2133d4e2bcp+0",
                       "0x1.3fc25a92f4a3bp+0", "0x1.3fb42dffadc05p+0")),
]


@pytest.mark.parametrize("abc, pinned", PINNED_I1, ids=[str(abc) for abc, _ in PINNED_I1])
def test_series_routes_bit_identical(abc, pinned):
    got = [i1_series(*abc).hex(), i1_series(*abc, m_max=3).hex()]
    if abc[1] > 0.0:
        got += [i1_hermite_method(*abc).hex(), i1_hermite_method(*abc, mu_max=2).hex()]
    else:
        got += [None, None]
    assert tuple(got) == pinned


def test_series_tolerates_stiff_coefficients():
    # Strong quartic with a large linear tilt: quadrature stays the anchor.
    a, b, c = 3.0, 0.2, -4.0
    ref = i1_quadrature(a, b, c)
    assert i1_series(a, b, c) == pytest.approx(ref, rel=1e-9)
    assert np.isfinite(ref) and ref > 0.0
