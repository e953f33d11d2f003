"""Tests for the quartic-correction series: nested simplex integrals, the
boundary polynomials, the two independent W(mu) routes, and the assembled
propagator breakdown.
"""
import math
from itertools import product

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from anharmprop import (
    CoefficientModel,
    HermiteIncompleteSpec,
    KappaVector,
    const_coefficient,
    h_kappa,
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
    w_mu,
    w_mu_direct,
)

REFERENCE = CoefficientModel(a=0.05, b=0.5, c=1.0, beta=1.0)


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
        a0 = 0.05

        def g(tau):
            q = float(sol._Q_spline(tau))
            return a0 * q**4 * kernel_I(sol, tau) ** kappa

        ref, _ = quad(g, 1e-9, REFERENCE.beta, limit=200)
        assert nested_integral(sol, REFERENCE, (kappa,)) == pytest.approx(
            ref, rel=1e-7, abs=1e-12
        )

    @pytest.mark.parametrize("kv", [(0, 0), (1, 2), (3, 1), (2, 4)])
    def test_double_vs_dblquad(self, kv):
        sol = solve_Q(REFERENCE)
        a0 = 0.05
        beta = REFERENCE.beta

        def g(tau, kappa):
            q = float(sol._Q_spline(tau))
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
            assert h_kappa(kappa, boundary) == pytest.approx(expected, rel=1e-13)

    def test_d_function_single_index(self):
        sol = solve_Q(REFERENCE)
        boundary = make_boundary(sol, 0.45, 0.1)
        for kappa in range(5):
            assert d_function((kappa,), boundary) == pytest.approx(
                h_kappa(kappa, boundary), rel=1e-13
            )

    def test_d_function_accepts_kappa_vector(self):
        sol = solve_Q(REFERENCE)
        boundary = make_boundary(sol, 0.3, -0.2)
        assert d_function(KappaVector((1, 3)), boundary) == pytest.approx(
            d_function((1, 3), boundary), rel=1e-15
        )


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


class TestPropagator:
    def test_total_assembly(self):
        br = propagator(REFERENCE, 0.3, -0.2, mu_max=2)
        series = sum(
            c * w for c, w in zip(br.series_coefficients, br.W_mu_terms)
        )
        expected = br.harmonic_value / math.sqrt(br.f_beta) * series
        assert br.total == pytest.approx(expected, rel=1e-13)
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
        assert br.truncation_estimate == pytest.approx(abs(last), rel=1e-13)

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
            p1_series(sol, REFERENCE, boundary, mu_max=2), rel=1e-13
        )

    def test_mu_max_validation(self):
        sol = solve_Q(REFERENCE)
        boundary = make_boundary(sol, 0.3, -0.2)
        with pytest.raises(ValueError):
            p1_series(sol, REFERENCE, boundary, mu_max=0)
