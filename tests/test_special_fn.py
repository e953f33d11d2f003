"""Special-function layer: parabolic cylinder functions and Hermite families."""
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anharmprop import special_fn
from anharmprop.special_fn import (
    HermiteIncompleteSpec,
    a_coeff,
    a_sum,
    hermite,
    hermite2,
    incomplete_hermite,
    multiindex_hermite,
    pcf_D,
    pcf_poincare,
    pcf_scaled,
    pcf_taylor_shift,
    pcf_taylor_shift_scaled,
    pochhammer,
)


def mp_D(nu: float, z: float) -> float:
    return float(mpmath.pcfd(nu, z))


class TestPcfD:
    @pytest.mark.parametrize("m", [0, 1, 2, 5, 12, 40])
    @pytest.mark.parametrize("z", [-3.0, -0.5, 0.0, 0.7, 2.0, 10.0, 50.0])
    def test_against_mpmath(self, m, z):
        nu = -m - 0.5
        got = pcf_D(nu, z)
        ref = mp_D(nu, z)
        assert got == pytest.approx(ref, rel=1e-11, abs=1e-300)

    def test_half_order_value(self):
        # D_{-1/2}(1) via the scaled function: scriptD = z^{1/2} e^{z^2/4} D.
        assert pcf_scaled(-0.5, 1.0) == pytest.approx(
            math.exp(0.25) * mp_D(-0.5, 1.0), rel=1e-11
        )

    def test_rejects_positive_half_orders(self):
        with pytest.raises(ValueError):
            pcf_D(0.5, 1.0)


class TestTanhSinhNodes:
    @pytest.mark.parametrize("level", range(6))
    def test_level_is_a_strided_view_of_the_finest(self, level):
        # Level L has step h = 2^-(5+L) on the same t range.
        h = 1.0 / (32 * 2**level)
        t = np.arange(-6.5, 4.5 + 0.5 * h, h)
        lx = 0.5 * math.pi * np.sinh(t)
        lw = lx + np.log(0.5 * math.pi * np.cosh(t))
        view = special_fn._TS_NODES[:, :: 2 ** (5 - level)]
        assert view.shape == (2, t.size)
        np.testing.assert_array_max_ulp(view[0], lx, maxulp=2)
        np.testing.assert_array_max_ulp(view[1], lw, maxulp=2)

    def test_table_is_read_only(self):
        with pytest.raises(ValueError):
            special_fn._TS_NODES[0, 0] = 0.0


class TestPcfScaled:
    @pytest.mark.parametrize("m", [0, 1, 3, 8])
    @pytest.mark.parametrize("z", [0.3, 1.0, 5.0, 20.0])
    def test_definition(self, m, z):
        nu = -m - 0.5
        ref = z ** (m + 0.5) * math.exp(z * z / 4.0) * mp_D(nu, z)
        assert pcf_scaled(nu, z) == pytest.approx(ref, rel=1e-11)

    def test_large_z_tends_to_one(self):
        assert pcf_scaled(-0.5, 200.0) == pytest.approx(1.0, rel=1e-3)

    def test_requires_positive_z(self):
        with pytest.raises(ValueError):
            pcf_scaled(-0.5, -1.0)


class TestPoincare:
    @pytest.mark.parametrize("z", [5.0, 10.0, 20.0])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("J", range(7))
    def test_certified_bound(self, z, m, J):
        nu = -m - 0.5
        value, bound = pcf_poincare(nu, z, J)
        exact = pcf_scaled(nu, z)
        assert abs(value - exact) <= bound

    def test_bound_shrinks_initially(self):
        _, b0 = pcf_poincare(-2.5, 10.0, 0)
        _, b3 = pcf_poincare(-2.5, 10.0, 3)
        assert b3 < b0

    def test_example_against_scaled(self):
        value, bound = pcf_poincare(-2.5, 10.0, 4)
        assert abs(value - pcf_scaled(-2.5, 10.0)) <= bound


class TestTaylorShift:
    def test_unscaled_shift(self):
        # sum_k (nu)_k/k! t^k e^{x^2/4} D_{-nu-k}(x) = e^{(x-t)^2/4} D_{-nu}(x-t)
        nu, x, t = 0.5, 2.0, 0.5
        got = pcf_taylor_shift(nu, x, t)
        ref = math.exp((x - t) ** 2 / 4.0) * mp_D(-nu, x - t)
        assert got == pytest.approx(ref, rel=1e-10)

    def test_scaled_shift(self):
        # sum_k (nu)_k/k! t^k scriptD_{-nu-k}(z) = (1-t)^{-nu} scriptD_{-nu}(z(1-t))
        nu, z, t = 0.5, 3.0, 0.3
        got = pcf_taylor_shift_scaled(nu, z, t)
        ref = (1.0 - t) ** -nu * pcf_scaled(-nu, z * (1.0 - t))
        assert got == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize(
        "args, pinned",
        [
            ((0.5, 1.0, 0.3), ("0x1.d730e921efefap-1", "0x1.d72fbb2260f85p-1",
                               "0x1.d730e921efefap-1", "0x1.d72fbb2260f85p-1")),
            ((2.5, 3.0, -0.6), ("0x1.fd909cca5049fp-6", "0x1.fdfe4d7728331p-6",
                                "0x1.0c48c34a68dcep-2", "0x1.5b84af45dff2ep-2")),
        ],
    )
    def test_bit_identical(self, args, pinned):
        # float.hex() of the converged sums and of the 5-term truncations,
        # recorded before the adaptive-sum loop was shared with the I1 routes.
        assert (
            pcf_taylor_shift(*args).hex(),
            pcf_taylor_shift(*args, terms=5).hex(),
            pcf_taylor_shift_scaled(*args).hex(),
            pcf_taylor_shift_scaled(*args, terms=5).hex(),
        ) == pinned

    @given(
        m=st.integers(0, 3),
        z=st.floats(1.0, 6.0),
        t=st.floats(-0.4, 0.4),
    )
    @settings(max_examples=25, deadline=None)
    def test_scaled_shift_property(self, m, z, t):
        nu = m + 0.5
        got = pcf_taylor_shift_scaled(nu, z, t)
        ref = (1.0 - t) ** -nu * pcf_scaled(-nu, z * (1.0 - t))
        assert got == pytest.approx(ref, rel=1e-8)


class TestHermite:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 30])
    def test_against_numpy(self, n):
        for x in (-2.0, -0.3, 0.0, 1.7):
            ref = float(np.polynomial.hermite.hermval(x, [0.0] * n + [1.0]))
            assert hermite(n, x) == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_two_variable_reduction(self):
        # H2_n(2x, -1) is the classical Hermite polynomial.
        for n in range(9):
            assert hermite2(n, 2.0 * 0.7, -1.0) == pytest.approx(
                hermite(n, 0.7), rel=1e-12, abs=1e-12
            )

    def test_two_variable_exact_on_fractions(self):
        # The recurrence keeps Fraction arguments exact: it equals the explicit
        # sum n! sum_k x^{n-2k} y^k / ((n-2k)! k!) with no rounding.
        for x in (Fraction(3, 7), Fraction(-5, 4)):
            for y in (Fraction(2, 3), Fraction(-1, 9)):
                for n in range(17):
                    ref = sum(
                        Fraction(math.factorial(n), math.factorial(n - 2 * k) * math.factorial(k))
                        * x ** (n - 2 * k) * y**k
                        for k in range(n // 2 + 1)
                    )
                    assert hermite2(n, x, y) == ref, (n, x, y)

    def test_two_variable_homogeneity(self):
        lam, x, y = 1.7, 0.9, 0.4
        for n in range(8):
            assert hermite2(n, lam * x, lam**2 * y) == pytest.approx(
                lam**n * hermite2(n, x, y), rel=1e-12
            )


class TestIncompleteHermite:
    def test_expansion_identity(self):
        # sum_kappa I^kappa scriptH_{n-kappa,kappa} = H2_n(phiB + phi0 I, g I)/n!
        rng = np.random.default_rng(5)
        for _ in range(10):
            phi_b, phi_0, big_i = rng.uniform(-1.5, 1.5, 3)
            gamma = 0.25
            n = 4
            total = sum(
                big_i**kappa
                * incomplete_hermite(
                    HermiteIncompleteSpec(n=n, kappa=kappa, gamma=gamma), phi_b, phi_0
                )
                for kappa in range(n + 1)
            )
            ref = hermite2(n, phi_b + phi_0 * big_i, gamma * big_i) / math.factorial(n)
            assert total == pytest.approx(ref, rel=1e-12, abs=1e-14)

    def test_factorization_at_zero_gamma(self):
        spec = HermiteIncompleteSpec(n=4, kappa=2, gamma=0.0)
        assert incomplete_hermite(spec, 0.5, 0.7) == pytest.approx(
            0.5**2 * 0.7**2 / (2.0 * 2.0), rel=1e-13, abs=0.0
        )


class TestMultiindexHermite:
    def _jet_reference(self, n, xs, ms, taus, mu):
        """4*mu-th mixed derivative of the generating exponential via jets."""
        import itertools

        order = n * mu
        # truncated multivariate polynomial in t_1..t_mu up to degree n each
        # represented as dense coefficient array
        shape = (n + 1,) * mu
        log_terms = np.zeros(shape)
        coeffs = np.zeros(shape)
        coeffs[(0,) * mu] = 1.0

        def mono_mul(arr, exps, scale):
            out = np.zeros_like(arr)
            src = arr[
                tuple(slice(0, arr.shape[k] - exps[k]) for k in range(mu))
            ]
            out[tuple(slice(exps[k], arr.shape[k]) for k in range(mu))] = src * scale
            return out

        # exp(sum_i x_i t_i + m_i t_i^2 + sum_{j<k} tau_{jk} t_j t_k)
        exponent_terms = []
        for i in range(mu):
            e = [0] * mu
            e[i] = 1
            exponent_terms.append((tuple(e), xs[i]))
            e2 = [0] * mu
            e2[i] = 2
            exponent_terms.append((tuple(e2), ms[i]))
        for (j, k), tau in taus.items():
            e = [0] * mu
            e[j] = 1
            e[k] = 1
            exponent_terms.append((tuple(e), tau))
        result = coeffs.copy()
        term = coeffs.copy()
        for order_idx in range(1, n * mu + 1):
            nxt = np.zeros_like(term)
            for exps, scale in exponent_terms:
                nxt += mono_mul(term, exps, scale)
            term = nxt / order_idx
            result += term
        return float(result[(n,) * mu])

    def test_against_generating_function(self):
        rng = np.random.default_rng(11)
        n, mu = 4, 4
        xs = list(rng.uniform(-1, 1, mu))
        ms = list(rng.uniform(0.1, 0.5, mu))
        taus = {
            (j, k): float(rng.uniform(0.1, 0.4))
            for j in range(mu)
            for k in range(j + 1, mu)
        }
        got = multiindex_hermite(n, xs, ms, taus)
        # reference: coefficient of t1^n...tmu^n times (n!)^mu
        ref_coeff = self._jet_reference(n, xs, ms, taus, mu)
        ref = ref_coeff * float(math.factorial(n)) ** mu
        assert got == pytest.approx(ref, rel=1e-10)

    def test_factorizes_without_cross_terms(self):
        n, mu = 3, 2
        xs = [0.7, -0.4]
        ms = [0.3, 0.2]
        got = multiindex_hermite(n, xs, ms, {(0, 1): 0.0})
        ref = hermite2(n, xs[0], ms[0]) * hermite2(n, xs[1], ms[1])
        assert got == pytest.approx(ref, rel=1e-12)


class TestACoefficients:
    def test_small_table(self):
        assert a_coeff(0, 0) == 1
        assert a_coeff(1, 1) == 2
        assert a_coeff(0, 1) == 0

    def test_off_support_is_zero(self):
        assert a_coeff(9, 2) == 0

    @given(
        n=st.integers(0, 12),
        d=st.floats(0.01, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_sum_hermite_identity(self, n, d):
        # a_sum(n, d) = (-sqrt(-d))^n H_n(sqrt(-d)); by two-variable Hermite
        # homogeneity with lambda = -sqrt(-d) this is the real polynomial
        # H2_n(2d, d), which is what we compare against.
        ref = hermite2(n, 2.0 * d, d)
        got = a_sum(n, d)
        assert got == pytest.approx(ref, rel=1e-10, abs=1e-10)


class TestPochhammer:
    def test_values(self):
        assert pochhammer(1.5, 0) == 1.0
        assert pochhammer(1.5, 3) == pytest.approx(1.5 * 2.5 * 3.5)
        assert pochhammer(-2.0, 4) == 0.0
