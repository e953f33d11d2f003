"""Tests for the quartic-correction series: nested simplex integrals, the
boundary polynomials, the two independent W(mu) routes, and the assembled
propagator breakdown.
"""
import dataclasses
import math
from collections import defaultdict
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad
from scipy.interpolate import CubicSpline, PPoly
from scipy.sparse import csr_array

from anharmprop import (
    CoefficientModel,
    HermiteIncompleteSpec,
    KappaVector,
    const_coefficient,
    h_kappa,
    hermite2,
    d_function,
    incomplete_hermite,
    kernel_I,
    make_boundary,
    mehler_reference,
    nested_integral,
    p1_series,
    poly_coefficient,
    propagator,
    series_coefficient,
    solve_Q,
    table_coefficient,
    w_mu,
    w_mu_direct,
)
from anharmprop import anharmonic, oscillator_ode
from anharmprop.anharmonic import MU_CAP, _h_kappa_poly

REFERENCE = CoefficientModel(a=0.05, b=0.5, c=1.0, beta=1.0)
HARMONIC = CoefficientModel(a=0.0, b=0.5, c=1.0, beta=1.0)
POLY_C = CoefficientModel(
    a=0.05, b=0.5, c=poly_coefficient([1.0, 0.3, -0.1]), beta=1.3
)
TABLE_C = CoefficientModel(
    a=0.05,
    b=0.6,
    c=table_coefficient(
        np.linspace(0.0, 1.1, 7), [1.0, 1.08, 1.12, 1.05, 0.96, 0.91, 0.95]
    ),
    beta=1.1,
)
TABLE_B = CoefficientModel(
    a=0.05,
    b=table_coefficient(np.linspace(0.0, 1.4, 6), [0.4, 0.55, 0.7, 0.62, 0.48, 0.5]),
    c=1.0,
    beta=1.4,
)


def random_model(rng):
    a = poly_coefficient([rng.uniform(0.02, 0.15), rng.uniform(0.0, 0.1)])
    b = poly_coefficient([rng.uniform(0.2, 0.9), rng.uniform(-0.2, 0.2)])
    c = poly_coefficient([rng.uniform(0.7, 1.5), rng.uniform(-0.1, 0.2)])
    return CoefficientModel(a=a, b=b, c=c, beta=rng.uniform(0.6, 1.4))


class TestSeriesCoefficient:
    def test_values(self):
        assert series_coefficient(0) == 1.0
        assert series_coefficient(1) == pytest.approx(-0.25)
        assert series_coefficient(2) == pytest.approx(
            math.factorial(4) / math.factorial(8) / 16.0
        )
        assert series_coefficient(3) == pytest.approx(
            -math.factorial(4) / math.factorial(12) / 64.0
        )

    def test_signs_alternate(self):
        for mu in range(1, 5):
            assert math.copysign(1.0, series_coefficient(mu)) == (-1.0) ** mu


class TestKappaVector:
    def test_validation(self):
        assert len(KappaVector((0, 3, 4))) == 3
        with pytest.raises(ValueError):
            KappaVector((5,))
        with pytest.raises(ValueError):
            KappaVector((-1,))
        with pytest.raises(ValueError):
            KappaVector((1, 1, 1, 1, 1))


def _grid(n, kind, beta=1.3):
    u = np.linspace(0.0, 1.0, n)
    if kind == "uniform":
        return beta * u
    # Uniform, away from 0: the uniformity check is relative to the largest node.
    return 0.4 + beta * u


def _integrands(grid):
    """Five smooth rows of different size and shape, on the last axis."""
    t = grid[None, :]
    k = np.arange(1, 6)[:, None]
    return np.exp(-k * t) * np.cos(3.0 * k * t) + 0.1 * k * t**2 - 0.5


def _local_quintic_ppoly(grid, y):
    """scipy's PPoly whose piece on each interval is the quintic through the
    six nodes around it (moved inward at the grid's ends), found by a
    Vandermonde solve in the local coordinate u = (t - t_i) / dx_i."""
    n = grid.size - 1
    nodes = np.clip(np.arange(n) - 2, 0, n - 5)[:, None] + np.arange(6)
    dx = np.diff(grid)[:, None]
    u = (grid[nodes] - grid[:-1, None]) / dx
    coeffs = np.linalg.solve(u[..., None] ** np.arange(6), y[nodes][..., None])[..., 0]
    return PPoly((coeffs / dx ** np.arange(6))[:, ::-1].T, grid)


def _exact_integral(coeffs, lo, hi):
    """int_lo^hi of the polynomial with the given ascending coefficients, in
    Fractions of the float arguments."""
    anti = [Fraction(0)] + [Fraction(float(c)) / (k + 1) for k, c in enumerate(coeffs)]

    def value(t):
        t = Fraction(float(t))
        return sum(c * t**k for k, c in enumerate(anti))

    return float(value(hi) - value(lo))


class TestCumulativeFromRight:
    @pytest.mark.parametrize("n", [64, 257, 512, 1025])
    @pytest.mark.parametrize("kind", ["uniform", "shifted"])
    def test_matches_scipy_spline_antiderivative(self, n, kind):
        # The reference is scipy's piecewise polynomial of the same local
        # quintics, integrated by scipy interval by interval and summed from
        # the right in long double.
        grid = _grid(n, kind)
        rows = _integrands(grid)
        for y in (rows[2], rows):
            expected = []
            for row in np.atleast_2d(y):
                pp = _local_quintic_ppoly(grid, row)
                pieces = [pp.integrate(a, b) for a, b in zip(grid[:-1], grid[1:])]
                F = np.cumsum(np.array(pieces, dtype=np.longdouble)[::-1])[::-1]
                expected.append(np.append(F, 0.0))
            expected = np.array(expected, dtype=float).reshape(y.shape)
            got = oscillator_ode._cumulative_from_right(grid, y)
            assert got.shape == y.shape
            assert np.all(got[..., -1] == 0.0)
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("kind", ["uniform", "shifted"])
    def test_exact_on_a_cubic(self, kind):
        grid = _grid(9, kind, beta=2.0)
        y = 1.0 + 2.0 * grid - grid**2 + 0.5 * grid**3

        def antiderivative(t):
            return t + t**2 - t**3 / 3.0 + t**4 / 8.0

        expected = antiderivative(grid[-1]) - antiderivative(grid)
        got = oscillator_ode._cumulative_from_right(grid, y)
        atol = 8 * np.finfo(float).eps * np.max(np.abs(expected))
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=atol)

    @given(
        n=st.integers(6, 300),
        start=st.floats(-10.0, 10.0),
        length=st.floats(0.01, 20.0),
        coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
    )
    @example(n=6, start=0.0, length=1.0, coeffs=[5e-324])
    @settings(max_examples=60, deadline=None)
    def test_exact_on_quintics(self, n, start, length, coeffs):
        # The rule integrates every polynomial of degree <= 5 exactly; the
        # exact integral is taken in Fractions.
        grid = np.linspace(start, start + length, n)
        y = np.polynomial.polynomial.polyval(grid, coeffs)
        got = oscillator_ode._cumulative_from_right(grid, y)
        expected = [_exact_integral(coeffs, t, grid[-1]) for t in grid]
        # Below 2.2e-308 a float rounds to a fixed step of 2**-1074, not to
        # its size, so the relative bound gets an absolute floor of 1440
        # such steps per node, well above the few steps by which each value,
        # interval integral and running sum can round there.
        bound = 1e-12 * np.max(np.abs(y)) * length + n * 1440 * 2.0**-1074
        assert np.max(np.abs(got - expected)) <= bound

    def test_sixth_order_convergence(self):
        # y = exp(-t) cos(3t) on [0, 1.3], against its antiderivative
        # exp(-t) (3 sin 3t - cos 3t) / 10 in 30-digit mpmath: the largest
        # error over the nodes falls by about 2^6 each time h is halved.
        beta = 1.3
        errors = []
        for n in (32, 64, 128):
            grid = np.linspace(0.0, beta, n + 1)
            got = oscillator_ode._cumulative_from_right(grid, np.exp(-grid) * np.cos(3.0 * grid))
            with mpmath.workdps(30):

                def anti(t):
                    t = mpmath.mpf(float(t))
                    return mpmath.exp(-t) * (3 * mpmath.sin(3 * t) - mpmath.cos(3 * t)) / 10

                expected = [float(anti(beta) - anti(t)) for t in grid]
            errors.append(np.max(np.abs(got - expected)))
        for coarse, fine in zip(errors, errors[1:]):
            assert 2**5.8 < coarse / fine < 2**6.2

    @pytest.mark.parametrize("grid_n", [64, 512, 4096, 16384])
    @pytest.mark.parametrize("beta", [0.5, 1.3, 2.0])
    def test_accepts_linspace_grids(self, grid_n, beta):
        # solve_Q's grid, every fourth point of its RK4 lattice, passes the
        # uniformity check, and so does linspace itself.
        lattice = np.linspace(0.0, beta, 4 * grid_n + 1)
        for grid in (lattice[::4], np.linspace(0.0, beta, grid_n + 1)):
            F = oscillator_ode._cumulative_from_right(grid, np.ones_like(grid))
            assert F[0] == pytest.approx(beta, rel=1e-12, abs=0.0)

    def test_refuses_bad_input(self):
        grid = np.linspace(0.0, 1.0, 8)
        y = np.sin(grid)
        bad = [
            (grid[::-1], y),  # decreasing
            (np.array([0.0, 0.2, 0.2, 0.5, 0.7, 1.0, 1.1, 1.2]), y),  # repeated node
            (np.array([0.0, 0.2, np.nan, 0.5, 0.7, 1.0, 1.1, 1.2]), y),
            (np.where(grid > 0.9, np.inf, grid), y),
            (_grid(8, "uniform") ** 1.5, y),  # increasing, not uniform
            (grid + np.where(np.arange(8) == 3, 1e-12, 0.0), y),  # 1e-12 off uniform
            (grid.reshape(2, 4), y),  # not 1-D
            (grid[:5], y[:5]),  # fewer than 6 nodes
            (grid, y[:-1]),  # shape mismatch
            (grid, np.stack([y, y]).T),  # grid along the first axis
            (grid, np.float64(1.0)),
            (grid, np.where(grid > 0.5, np.inf, y)),
            (grid, np.where(grid > 0.5, np.nan, y)),
        ]
        for g, v in bad:
            with pytest.raises(ValueError):
                oscillator_ode._cumulative_from_right(g, v)


class TestNestedIntegral:
    def test_empty_is_one(self):
        sol = solve_Q(REFERENCE)
        assert nested_integral(sol, REFERENCE, ()) == 1.0

    def test_free_particle_closed_forms(self):
        # c = 1, b = 0: Q = tau, I = 1/tau - 1/beta, so
        # I_(0) = a beta^5/5 and I_(4) = a beta/5 exactly.
        a0, beta = 0.3, 1.2
        model = CoefficientModel(a=a0, b=0.0, c=1.0, beta=beta)
        sol = solve_Q(model)
        assert nested_integral(sol, model, (0,)) == pytest.approx(
            a0 * beta**5 / 5.0, rel=1e-9
        )
        assert nested_integral(sol, model, (4,)) == pytest.approx(
            a0 * beta / 5.0, rel=1e-9
        )

    @pytest.mark.parametrize("kappa", [0, 1, 2, 3, 4])
    def test_single_vs_quad(self, kappa):
        sol = solve_Q(REFERENCE)
        q_spline = CubicSpline(sol.grid, sol.Q)
        a0 = 0.05

        def g(tau):
            q = float(q_spline(tau))
            return a0 * q**4 * kernel_I(sol, tau) ** kappa

        ref, _ = quad(g, 1e-9, REFERENCE.beta, limit=200)
        assert nested_integral(sol, REFERENCE, (kappa,)) == pytest.approx(
            ref, rel=1e-7, abs=1e-12
        )

    @pytest.mark.parametrize("kv", [(0, 0), (1, 2), (3, 1), (2, 4)])
    def test_double_vs_dblquad(self, kv):
        sol = solve_Q(REFERENCE)
        q_spline = CubicSpline(sol.grid, sol.Q)
        a0 = 0.05
        beta = REFERENCE.beta

        def g(tau, kappa):
            q = float(q_spline(tau))
            return a0 * q**4 * kernel_I(sol, tau) ** kappa

        ref, _ = dblquad(
            lambda t2, t1: g(t1, kv[0]) * g(t2, kv[1]),
            1e-8,
            beta,
            lambda t1: t1,
            lambda t1: beta,
            epsabs=1e-12,
            epsrel=1e-10,
        )
        assert nested_integral(sol, REFERENCE, kv) == pytest.approx(
            ref, rel=3e-7, abs=1e-12
        )

    def test_ordering_matters(self):
        sol = solve_Q(REFERENCE)
        assert nested_integral(sol, REFERENCE, (0, 4)) != pytest.approx(
            nested_integral(sol, REFERENCE, (4, 0)), rel=1e-3
        )


class TestBoundaryPolynomials:
    def test_h_kappa_matches_incomplete_hermite(self):
        sol = solve_Q(REFERENCE)
        boundary = make_boundary(sol, 0.3, -0.2)
        for kappa in range(5):
            spec = HermiteIncompleteSpec(n=4, kappa=kappa, gamma=boundary.gamma)
            expected = -4.0 * math.factorial(4) * incomplete_hermite(
                spec, boundary.phiB_hat, boundary.phi0_hat
            )
            assert h_kappa(kappa, boundary) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_d_function_single_index(self):
        sol = solve_Q(REFERENCE)
        boundary = make_boundary(sol, 0.45, 0.1)
        for kappa in range(5):
            assert d_function((kappa,), boundary) == pytest.approx(
                h_kappa(kappa, boundary), rel=1e-13, abs=0.0
            )

    def test_d_function_accepts_kappa_vector(self):
        sol = solve_Q(REFERENCE)
        boundary = make_boundary(sol, 0.3, -0.2)
        assert d_function(KappaVector((1, 3)), boundary) == pytest.approx(
            d_function((1, 3), boundary), rel=1e-15, abs=0.0
        )


class TestXiKernel:
    def test_matches_mpmath_fourth_derivative(self):
        # w_mu_direct's mu = 2 kernel is 24 [delta^4] of H_8(2u(xi), w(xi)) at
        # xi = 1 + delta, u = u0 + u1 (xi - 1), w = I1 + (xi^2 - 1) I2; here it
        # is differentiated by mpmath at 40 digits, one (u0, I1) per row and
        # one (u1, I2) per column.  u, I > 0 make every term of the sum
        # positive, so the rounding error is relative to the value for any
        # draw; TestWmuRoutes covers endpoints of either sign.
        rng = np.random.default_rng(5)
        u0, u1 = rng.uniform(0.0, 1.0, (2, 6))
        I1, I2 = rng.uniform(0.05, 1.5, (2, 6))
        H = [hermite2(n, 2.0 * u0, I1) for n in range(5)]
        got = anharmonic._xi_kernel(H, 2.0 * u1, I2)
        with mpmath.workdps(40):
            for i, j in product(range(6), repeat=2):
                x0, y0, x1, y1 = map(mpmath.mpf, (u0[i], I1[i], u1[j], I2[j]))

                def h8(xi):
                    return hermite2(8, 2 * (x0 + x1 * (xi - 1)), y0 + (xi**2 - 1) * y1)

                expected = float(24 * mpmath.taylor(h8, 1, 4)[4])
                assert got[i, j] == pytest.approx(expected, rel=1e-14, abs=0.0), (i, j)


class TestWmuRoutes:
    @pytest.mark.parametrize("mu", [1, 2])
    def test_reference_model_agreement(self, mu):
        sol = solve_Q(REFERENCE)
        boundary = make_boundary(sol, 0.3, -0.2)
        direct = w_mu_direct(sol, REFERENCE, boundary, mu)
        recurred = w_mu(sol, REFERENCE, boundary, mu)
        assert recurred == pytest.approx(direct, rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("mu", [1, 2])
    def test_random_models_agreement(self, mu):
        rng = np.random.default_rng(7)
        for _ in range(4):
            model = random_model(rng)
            sol = solve_Q(model)
            boundary = make_boundary(
                sol, rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)
            )
            assert w_mu(sol, model, boundary, mu) == pytest.approx(
                w_mu_direct(sol, model, boundary, mu), rel=1e-8, abs=1e-12
            )

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    @pytest.mark.parametrize("mu", [1, 2, 3])
    def test_quartic_scaling(self, lam, mu):
        # a -> lam a multiplies W(mu) by lam^mu; Q, I, and the boundary data
        # do not involve a, so the scaling is exact up to roundoff.
        base = REFERENCE
        scaled = CoefficientModel(a=0.05 * lam, b=0.5, c=1.0, beta=1.0)
        sol_b, sol_s = solve_Q(base), solve_Q(scaled)
        bd_b = make_boundary(sol_b, 0.3, -0.2)
        bd_s = make_boundary(sol_s, 0.3, -0.2)
        w_b = w_mu(sol_b, base, bd_b, mu)
        w_s = w_mu(sol_s, scaled, bd_s, mu)
        assert w_s == pytest.approx(lam**mu * w_b, rel=1e-12)

    def test_solution_reused_across_temporary_models(self):
        # Q, I and the boundary data do not involve a, so one solution may
        # serve several models; W(1) is linear in a.  Each temporary model is
        # garbage-collected after its call, so a memo keyed on id(model) could
        # hand a later model the tables of an earlier one.
        sol = solve_Q(REFERENCE, 256)
        boundary = make_boundary(sol, 0.3, -0.2)
        values = [
            w_mu(sol, CoefficientModel(a=a, b=0.5, c=1.0, beta=1.0), boundary, 1)
            for a in (0.1, 0.2, 0.4)
        ]
        assert values[1] == pytest.approx(2.0 * values[0], rel=1e-12)
        assert values[2] == pytest.approx(4.0 * values[0], rel=1e-12)

    def test_w0_is_one(self):
        sol = solve_Q(REFERENCE)
        boundary = make_boundary(sol, 0.3, -0.2)
        assert w_mu(sol, REFERENCE, boundary, 0) == 1.0

    def test_mu_validation(self):
        sol = solve_Q(REFERENCE)
        boundary = make_boundary(sol, 0.3, -0.2)
        with pytest.raises(ValueError):
            w_mu(sol, REFERENCE, boundary, 5)
        with pytest.raises(ValueError):
            w_mu_direct(sol, REFERENCE, boundary, 3)


CAUSTIC = CoefficientModel(a=0.05, b=-30.0, c=1.0, beta=2.0)


class TestCausticRefused:
    # Q = sin(sqrt(60) tau)/sqrt(60) vanishes inside (0, beta], so the
    # kernel I and every series term built on it are undefined.
    @pytest.mark.parametrize(
        "call",
        [
            lambda sol, bd: w_mu(sol, CAUSTIC, bd, 1),
            lambda sol, bd: p1_series(sol, CAUSTIC, bd, 1),
            lambda sol, bd: nested_integral(sol, CAUSTIC, (1,)),
            lambda sol, bd: w_mu_direct(sol, CAUSTIC, bd, 1),
            lambda sol, bd: propagator(CAUSTIC, 0.3, -0.2),
        ],
        ids=["w_mu", "p1_series", "nested_integral", "w_mu_direct", "propagator"],
    )
    def test_raises(self, call):
        sol = solve_Q(CAUSTIC)
        assert not sol.q_positive
        with pytest.raises(ArithmeticError, match="Q\\(tau\\) has a zero"):
            call(sol, make_boundary(sol, 0.3, -0.2))


class TestPropagator:
    def test_total_assembly(self):
        br = propagator(REFERENCE, 0.3, -0.2, mu_max=2)
        series = sum(
            c * w for c, w in zip(br.series_coefficients, br.W_mu_terms)
        )
        expected = br.harmonic_value / math.sqrt(br.f_beta) * series
        assert br.total == pytest.approx(expected, rel=1e-13, abs=0.0)
        assert len(br.W_mu_terms) == 3
        assert br.W_mu_terms[0] == 1.0
        assert br.f_beta == float(br.solution.f[-1])

    def test_harmonic_limit_matches_mehler(self):
        b, c, beta = 0.5, 1.0, 1.0
        model = CoefficientModel(a=0.0, b=b, c=c, beta=beta)
        br = propagator(model, 0.4, -0.1, mu_max=2)
        k = math.sqrt(2.0 * b * c)
        nu = beta * math.sqrt(2.0 * b / c)
        assert br.total == pytest.approx(
            mehler_reference(k, nu, 0.4, -0.1), rel=1e-6
        )
        # With a = 0 every correction W(mu >= 1) vanishes.
        assert br.W_mu_terms[1] == pytest.approx(0.0, abs=1e-14)
        assert br.truncation_estimate == pytest.approx(0.0, abs=1e-14)

    def test_truncation_estimate_is_last_term(self):
        br = propagator(REFERENCE, 0.3, -0.2, mu_max=2)
        last = (
            br.harmonic_value
            / math.sqrt(br.f_beta)
            * br.series_coefficients[-1]
            * br.W_mu_terms[-1]
        )
        assert br.truncation_estimate == pytest.approx(abs(last), rel=1e-13, abs=0.0)

    def test_orders_decrease(self):
        br = propagator(REFERENCE, 0.3, -0.2, mu_max=3)
        mags = [
            abs(c * w)
            for c, w in zip(br.series_coefficients[1:], br.W_mu_terms[1:])
        ]
        assert mags[0] > mags[1] > mags[2]

    def test_mu_max_validation(self):
        with pytest.raises(ValueError):
            propagator(REFERENCE, 0.0, 0.0, mu_max=5)

    @pytest.mark.parametrize("mu_max", [0, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["phi0", "phiB"])
    def test_non_finite_endpoint_is_named(self, name, bad, mu_max):
        # mu_max = 0 would otherwise return total = nan without an error.
        endpoints = {"phi0": 0.3, "phiB": -0.2, name: bad}
        with pytest.raises(ValueError, match=f"endpoint {name} must be finite"):
            propagator(REFERENCE, endpoints["phi0"], endpoints["phiB"], mu_max=mu_max)


class TestP1Series:
    def test_partials_end_at_total(self):
        sol = solve_Q(REFERENCE)
        boundary = make_boundary(sol, 0.3, -0.2)
        total, partials = p1_series(
            sol, REFERENCE, boundary, mu_max=3, return_partials=True
        )
        assert len(partials) == 3
        assert partials[-1] == total
        # Successive corrections shrink.
        deltas = [abs(partials[0])] + [
            abs(partials[i] - partials[i - 1]) for i in (1, 2)
        ]
        assert deltas[0] > deltas[1] > deltas[2]

    def test_breakdown_p1_consistent(self):
        br = propagator(REFERENCE, 0.3, -0.2, mu_max=2)
        sol = solve_Q(REFERENCE)
        boundary = make_boundary(sol, 0.3, -0.2)
        assert br.p1 == pytest.approx(
            p1_series(sol, REFERENCE, boundary, mu_max=2), rel=1e-13, abs=0.0
        )

    def test_mu_max_validation(self):
        sol = solve_Q(REFERENCE)
        boundary = make_boundary(sol, 0.3, -0.2)
        with pytest.raises(ValueError):
            p1_series(sol, REFERENCE, boundary, mu_max=0)

    @pytest.mark.parametrize(
        "mu_max, pinned",
        [(0, "-0x1.4d86ce5d9c096p-8"), (2, "-0x1.4a6ea26f42206p-8"), (4, "-0x1.4a7e01eab5e88p-8")],
        ids=["mu0", "mu2", "mu4"],
    )
    def test_breakdown_p1_computed_on_access(self, monkeypatch, mu_max, pinned):
        def refuse(*args, **kwargs):
            raise AssertionError("propagator called p1_series")

        monkeypatch.setattr(anharmonic, "p1_series", refuse)
        br = propagator(REFERENCE, 0.3, -0.2, mu_max=mu_max)
        monkeypatch.undo()
        sol = solve_Q(REFERENCE)
        boundary = make_boundary(sol, 0.3, -0.2)
        assert br.p1 == p1_series(sol, REFERENCE, boundary, max(1, mu_max))
        # float.hex() of the value; it moves only when Q, f or the series
        # arithmetic is reordered (each such move is recorded in CHANGES.md).
        assert br.p1.hex() == pinned


# ---------------------------------------------------------------------------
# The 5^mu kappa-enumeration, kept as the reference for the recursion
# ---------------------------------------------------------------------------


def _recurrence_poly(kv, gamma, n_min):
    """O_{k1} ... O_{k_{mu-1}} h_{k_mu} as {(p, q): coefficient of phiB^p phi0^q}.

    O_k R = sum_{n >= n_min} (1/(2^n n!)) (d^n_{phi0} h_k)(d^n_{phiB} R).
    """

    def monomials(k):
        C = _h_kappa_poly(k, gamma)
        return {(p, q): C[p, q] for p, q in zip(*np.nonzero(C))}

    R = monomials(kv[-1])
    for k in reversed(kv[:-1]):
        out = defaultdict(float)
        for n in range(n_min, 5):
            weight = 1.0 / (2.0**n * math.factorial(n))
            for (p1, q1), c1 in monomials(k).items():
                for (p2, q2), c2 in R.items():
                    if q1 >= n and p2 >= n:
                        out[p1 + p2 - n, q1 + q2 - n] += (
                            weight * c1 * math.perm(q1, n) * c2 * math.perm(p2, n)
                        )
        R = out
    return R


def _suffix_tables(solution, model, mu_max):
    """{kv: int_{0 < s_1 < ... < s_mu < beta} prod_i g_{kv_i}(s_i)} for |kv| <= mu_max,
    with g_k = a Q^4 I^k, built from the latest slot inward."""
    grid, I = solution.grid, solution.I_of_tau
    a = np.asarray(model.a(grid), dtype=float)
    g = []
    for k in range(5):
        gk = np.zeros_like(grid)
        gk[1:] = a[1:] * solution.Q[1:] ** 4 * I[1:] ** k
        if k == 4:
            gk[0] = a[0] / float(model.c(0.0)) ** 4
        g.append(gk)
    suffix = {(): np.ones_like(grid)}
    for mu in range(1, mu_max + 1):
        for kv in product(range(5), repeat=mu):
            anti = CubicSpline(grid, g[kv[0]] * suffix[kv[1:]]).antiderivative()
            suffix[kv] = anti(grid[-1]) - anti(grid)
    return {kv: float(F[0]) for kv, F in suffix.items() if kv}


def _kappa_sum(tables, boundary, mu, n_min):
    """sum_{kv in [0,4]^mu} I_kv times the recurrence on the reversed kv."""
    total = 0.0
    for kv in product(range(5), repeat=mu):
        R = _recurrence_poly(kv[::-1], boundary.gamma, n_min)
        value = sum(
            c * boundary.phiB_hat**p * boundary.phi0_hat**q for (p, q), c in R.items()
        )
        total += tables[kv] * value
    return total


class TestRecursionMatchesKappaSum:
    @pytest.mark.parametrize(
        "model",
        [REFERENCE, HARMONIC, POLY_C, TABLE_C, TABLE_B],
        ids=["reference", "harmonic", "poly-c", "table-c", "table-b"],
    )
    def test_w_mu_and_p1_partials(self, model):
        sol = solve_Q(model)
        boundary = make_boundary(sol, 0.3, -0.2)
        tables = _suffix_tables(sol, model, 4)
        for mu in range(1, 5):
            expected = _kappa_sum(tables, boundary, mu, 0) / series_coefficient(mu)
            assert w_mu(sol, model, boundary, mu) == pytest.approx(
                expected, rel=1e-9, abs=0.0
            ), mu
        _, partials = p1_series(sol, model, boundary, 4, return_partials=True)
        expected = np.cumsum([_kappa_sum(tables, boundary, mu, 1) for mu in range(1, 5)])
        assert partials == pytest.approx(list(expected), rel=1e-9, abs=0.0)


# ---------------------------------------------------------------------------
# The import-time operator tables and the last-order contraction
# ---------------------------------------------------------------------------


def _uncontracted_order_terms(tables, solution, model, boundary, mu_max):
    """The order terms with S_j formed on the grid at every order and
    contracted with the boundary monomials after its integral.  It integrates
    with the library's own interval integrals, so only the contraction differs."""
    grid = solution.grid
    G = anharmonic._g_table(solution, model)
    S = np.ones((1, grid.size))
    terms = []
    for p, q, op, _ in tables[:mu_max]:
        integrand = op @ (G[:, None, :] * S).reshape(-1, grid.size)
        pieces = oscillator_ode._interval_integrals(grid, integrand)
        S = np.concatenate([np.zeros((pieces.shape[0], 1)), np.cumsum(pieces, axis=-1)], axis=-1)
        terms.append(float(S[:, -1] @ (boundary.phiB_hat**p * boundary.phi0_hat**q)))
    return terms


TABLES = {0: anharmonic._W_TABLES, 1: anharmonic._P1_TABLES}


class TestOperatorTables:
    @pytest.mark.parametrize("n_min, columns", [(0, [9, 25, 49, 81]), (1, [9, 16, 25, 36])])
    def test_one_operator_per_order(self, n_min, columns):
        # S_0 = 1 has one column; order j maps the five pieces g_k S_{j-1}
        # side by side onto the columns of S_j.
        assert [p.size for p, *_ in TABLES[n_min]] == columns
        m = 1
        for p, q, op, _ in TABLES[n_min]:
            assert isinstance(op, csr_array)
            assert op.shape == (p.size, 5 * m) and q.shape == p.shape
            m = p.size

    @pytest.mark.parametrize("n_min", [0, 1])
    def test_entries_equal_operator_step_images(self, n_min):
        # The tables take each derivative once; _operator_step, which
        # d_function uses, takes them again for every operand.  Every entry
        # must agree bit for bit, and no other monomial may be reached.
        h = [_h_kappa_poly(k, 0.25) for k in range(5)]
        p = q = np.zeros(1, dtype=np.intp)
        for j, (p_j, q_j, op, _) in enumerate(TABLES[n_min], start=1):
            basis = np.zeros((p.size, p.max() + 1, q.max() + 1))
            basis[np.arange(p.size), p, q] = 1.0
            images = np.stack(
                [anharmonic._operator_step(hk, basis, n_min if j > 1 else 0) for hk in h]
            )
            expected = images[:, :, p_j, q_j].transpose(2, 0, 1).reshape(p_j.size, -1)
            assert np.array_equal(op.toarray(), expected)
            unreached = np.ones(images.shape[2:], dtype=bool)
            unreached[p_j, q_j] = False
            assert not np.any(images[..., unreached])
            p, q = p_j, q_j

    @pytest.mark.parametrize("n_min", [0, 1])
    def test_transposes_equal_op_T(self, n_min):
        # The last-order contraction applies the transpose built at import.
        for _, _, op, op_t in TABLES[n_min]:
            expected = op.T
            assert op_t.format == expected.format and op_t.shape == expected.shape
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(op_t, part), getattr(expected, part)), part
            assert np.array_equal(op_t.toarray(), op.toarray().T)

    def test_refuse_in_place_writes(self):
        for tables in TABLES.values():
            arrays = []
            for p, q, *ops in tables:
                arrays += [p, q] + [part for op in ops for part in (op.data, op.indices, op.indptr)]
            for a in arrays:
                with pytest.raises(ValueError):
                    a[0] = 1

    def test_refuse_other_gamma_and_orders_past_cap(self):
        sol = solve_Q(REFERENCE)
        boundary = make_boundary(sol, 0.3, -0.2)
        other = dataclasses.replace(boundary, gamma=0.3)
        for n_min in (0, 1):
            with pytest.raises(ValueError, match="gamma"):
                anharmonic._order_terms(sol, REFERENCE, other, 2, n_min)
            with pytest.raises(ValueError, match="cap"):
                anharmonic._order_terms(sol, REFERENCE, boundary, MU_CAP + 1, n_min)
        for mu in range(1, MU_CAP + 1):
            with pytest.raises(ValueError, match="gamma"):
                w_mu(sol, REFERENCE, other, mu)
        with pytest.raises(ValueError):
            w_mu(sol, REFERENCE, boundary, MU_CAP + 1)
        with pytest.raises(ValueError, match="gamma"):
            p1_series(sol, REFERENCE, other, 2)
        # The boundary polynomials themselves take any gamma.
        assert h_kappa(2, other) != h_kappa(2, boundary)
        assert d_function((2, 1), other) != d_function((2, 1), boundary)

    @pytest.mark.parametrize(
        "model",
        [REFERENCE, HARMONIC, POLY_C, TABLE_C, TABLE_B],
        ids=["reference", "harmonic", "poly-c", "table-c", "table-b"],
    )
    def test_order_terms_match_uncontracted(self, model):
        sol = solve_Q(model)
        boundary = make_boundary(sol, 0.3, -0.2)
        for mu in range(1, MU_CAP + 1):
            expected = _uncontracted_order_terms(TABLES[0], sol, model, boundary, mu)
            got = w_mu(sol, model, boundary, mu)
            assert got == pytest.approx(
                expected[-1] / series_coefficient(mu), rel=1e-13, abs=0.0
            ), mu
        expected = np.cumsum(
            _uncontracted_order_terms(TABLES[1], sol, model, boundary, MU_CAP)
        )
        _, partials = p1_series(sol, model, boundary, MU_CAP, return_partials=True)
        assert partials == pytest.approx(list(expected), rel=1e-13, abs=0.0)


def _long_double_pieces(grid, y):
    """The rule's interval integrals in long double: each interval's integer
    weights on its six-node window, times dx / 1440."""
    ld = np.longdouble
    n = grid.size - 1
    start = np.clip(np.arange(n) - 2, 0, n - 5)
    w = oscillator_ode._QUINTIC_WEIGHTS.astype(ld)[np.arange(n) - start]
    y = np.asarray(y, dtype=ld)
    return sum(w[:, j] * y[..., start + j] for j in range(6)) * (np.diff(grid.astype(ld)) / 1440)


def _long_double_order_terms(solution, model, boundary):
    """The W order terms of the same discretization, summed in long double:
    the same quintic rule, and S_j accumulated from t = 0, with the operators
    applied as dense matrices."""
    grid = solution.grid
    ld = np.longdouble
    G = anharmonic._g_table(solution, model).astype(ld)
    S = np.ones((1, grid.size), dtype=ld)
    terms = []
    for p, q, op, _ in TABLES[0]:
        y = op.toarray().astype(ld) @ (G[:, None, :] * S).reshape(-1, grid.size)
        pieces = _long_double_pieces(grid, y)
        S = np.concatenate([np.zeros((y.shape[0], 1), dtype=ld), np.cumsum(pieces, axis=-1)], axis=-1)
        terms.append(S[:, -1] @ (boundary.phiB_hat**p * boundary.phi0_hat**q).astype(ld))
    return terms


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is double here"
)
class TestRecursionRounding:
    @pytest.mark.parametrize(
        "b, beta", [(0.5, 1.0), (2.0, 2.0), (4.0, 1.5)], ids=["reference", "b2-beta2", "b4-beta1.5"]
    )
    def test_order_terms_at_rounding_level(self, b, beta):
        # S_j(t) = int_0^t taken as F(0) - F(t) cancels near t = 0; on the
        # stiffer models that put the last order term 1e-7 off.
        model = CoefficientModel(a=0.05, b=b, c=1.0, beta=beta)
        sol = solve_Q(model)
        boundary = make_boundary(sol, 0.3, -0.2)
        expected = _long_double_order_terms(sol, model, boundary)
        got = anharmonic._order_terms(sol, model, boundary, MU_CAP, 0)
        for mu, (g, e) in enumerate(zip(got, expected), start=1):
            assert abs(g - float(e)) <= 1e-14 * abs(float(e)), mu


# float.hex() of the independent routes (grid_n = 512, endpoints 0.3, -0.2);
# they do not use the order recursion, so a change to it must not move them by
# a bit.  They read Q and I, so a reordered ODE scan or moved RK4 stage times
# move them by rounding, and nested_integral and w_mu_direct integrate with
# _cumulative_from_right, so a change to its arithmetic moves them too; each
# such move is recorded in CHANGES.md.  w_mu_direct is pinned at grid_n = 256.
PINNED_KVS = [(2,), (0, 4), (1, 3, 2), (4, 0, 2, 1)]
PINNED_ROUTES = {
    "reference": (
        REFERENCE,
        {
            "nested_integral": [
                "0x1.7de078a1be1c0p-10",
                "0x1.2e0d6f240123ep-22",
                "0x1.2973346b3cbeep-32",
                "0x1.06a4e8d59a25ep-36",
            ],
            "d_function": [
                "-0x1.3394ce2cd0874p+1",
                "0x1.348c5a5b0915dp+4",
                "0x1.1a880682db63cp+7",
                "0x1.0c7caff6b38d5p-11",
            ],
            "h_kappa": [
                "-0x1.b7c91d0ee755ap-11",
                "-0x1.57c705b28503bp-3",
                "-0x1.3394ce2cd0874p+1",
                "-0x1.0b11cc78ae968p-1",
                "-0x1.096bb98c7e27fp-7",
            ],
            "w_mu_direct": ["0x1.4d86ce1cef682p-6", "0x1.9e06e85d398cfp+0"],
        },
    ),
    "table-c": (
        TABLE_C,
        {
            "nested_integral": [
                "0x1.dd76c3bcf3accp-10",
                "0x1.cdef3f9dda6e7p-22",
                "0x1.202231a12c7cap-31",
                "0x1.92a298d49e899p-35",
            ],
            "d_function": [
                "-0x1.3e55e41ac98eap+1",
                "0x1.3f0c3617b9e9fp+4",
                "0x1.9226bceb98bc8p+6",
                "0x1.a9080a5a9b1a8p-13",
            ],
            "h_kappa": [
                "-0x1.d8572f100e8c1p-12",
                "-0x1.fa6756d0b6d03p-4",
                "-0x1.3e55e41ac98eap+1",
                "-0x1.0c6c99bdb9bfep-1",
                "-0x1.096bb98c7e27fp-7",
            ],
            "w_mu_direct": ["0x1.9d2f17f38f4cap-6", "0x1.3d4984142cda9p+1"],
        },
    ),
}


class TestPinnedRoutes:
    @pytest.mark.parametrize("name", list(PINNED_ROUTES))
    def test_bit_identical(self, name):
        model, pinned = PINNED_ROUTES[name]
        sol = solve_Q(model)
        boundary = make_boundary(sol, 0.3, -0.2)
        assert [nested_integral(sol, model, kv).hex() for kv in PINNED_KVS] == pinned[
            "nested_integral"
        ]
        assert [d_function(kv, boundary).hex() for kv in PINNED_KVS] == pinned["d_function"]
        assert [h_kappa(k, boundary).hex() for k in range(5)] == pinned["h_kappa"]
        sol = solve_Q(model, 256)
        boundary = make_boundary(sol, 0.3, -0.2)
        assert [
            w_mu_direct(sol, model, boundary, mu).hex() for mu in (1, 2)
        ] == pinned["w_mu_direct"]


class TestGridConvergence:
    @pytest.mark.parametrize("model", [REFERENCE, TABLE_C], ids=["reference", "table-c"])
    def test_w_mu_512_vs_2048(self, model):
        coarse, fine = solve_Q(model, 512), solve_Q(model, 2048)
        bd_coarse = make_boundary(coarse, 0.3, -0.2)
        bd_fine = make_boundary(fine, 0.3, -0.2)
        for mu in range(1, 5):
            w_fine = w_mu(fine, model, bd_fine, mu)
            assert w_mu(coarse, model, bd_coarse, mu) == pytest.approx(
                w_fine, rel=1e-8, abs=0.0
            ), mu
