"""Three independent evaluations of I1(a,b,c) = int exp(-(a x^4 + b x^2 + c x)) dx.

The three routes — direct adaptive quadrature, the parabolic-cylinder series,
and the Hermite generating-function double sum — are deliberately kept
independent; their mutual agreement is the smallest self-contained validation
of the summation technique used for the propagator.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from .special_fn import adaptive_sum, log_equarter_D, pochhammer

__all__ = ["i1_quadrature", "i1_series", "i1_hermite_method"]


def _check_a(a: float) -> None:
    if a <= 0.0:
        raise ValueError(f"quartic coefficient a must be positive, got {a}")


def i1_quadrature(a: float, b: float, c: float, rtol: float = 1e-12) -> float:
    """Direct adaptive quadrature of the integrand over the real line."""
    _check_a(a)

    def f(x: float) -> float:
        return math.exp(-(a * x**4 + b * x**2 + c * x))

    # Split at the symmetry point: the integrand is smooth and decays like
    # exp(-a x^4); quad handles the semi-infinite tails well.
    val1, err1 = quad(f, -np.inf, 0.0, epsabs=0.0, epsrel=rtol, limit=200)
    val2, err2 = quad(f, 0.0, np.inf, epsabs=0.0, epsrel=rtol, limit=200)
    value = val1 + val2
    if err1 + err2 > 100 * rtol * abs(value):
        raise ArithmeticError(
            f"i1_quadrature did not reach tolerance: error estimate {err1+err2:.3e}"
        )
    return value


def i1_series(
    a: float, b: float, c: float, m_max: int | None = None, tol: float = 1e-13
) -> float:
    """Parabolic-cylinder series: Gamma(1/2)/(2a)^{1/4} e^{z^2/4}
    sum_m xi^m/m! D_{-m-1/2}(z), xi = c^2/(4 sqrt(2a)), z = b/sqrt(2a).

    The sum converges for any coefficients (terms decay super-exponentially);
    m_max=None auto-extends until three consecutive increments pass the
    Cauchy criterion.
    """
    _check_a(a)
    s2a = math.sqrt(2.0 * a)
    xi = c * c / (4.0 * s2a)
    z = b / s2a
    pref = math.sqrt(math.pi) / (2.0 * a) ** 0.25

    if xi == 0.0:
        m_max = 0  # only the m = 0 term is nonzero

    def term(m: int) -> float:
        log_term = (0.0 if m == 0 else m * math.log(xi)) - math.lgamma(m + 1.0)
        return math.exp(log_term + log_equarter_D(m, z))

    cap = None if m_max is None else m_max + 1
    return pref * adaptive_sum(term, tol, cap, "i1_series")


def i1_hermite_method(
    a: float, b: float, c: float, mu_max: int | None = None, tol: float = 1e-13
) -> float:
    """Hermite generating-function route:

        (2a)^{-1/4} sum_mu (c^2/sqrt(2a))^mu/(2 mu)! Gamma(mu+1/2)
                    sum_j (-b/sqrt(2a))^j/j! (mu+1/2)_j D_{-j-mu-1/2}(0)

    with the inner j-sum (the Taylor expansion around argument 0 that resums
    to e^{z^2/4} D_{-mu-1/2}(z)) monitored explicitly for convergence.
    """
    _check_a(a)
    if b <= 0.0:
        raise ValueError(f"i1_hermite_method requires b > 0, got {b}")
    s2a = math.sqrt(2.0 * a)
    t = -b / s2a

    # D_{-nu}(0) = 2^{-nu/2} sqrt(pi) / Gamma((1+nu)/2) for the orders needed.
    def log_D0(order_mag: float) -> float:
        # order_mag = j + mu + 1/2; D index is -order_mag.
        return (
            -0.5 * order_mag * math.log(2.0)
            + 0.5 * math.log(math.pi)
            - float(gammaln(0.5 * (1.0 + order_mag)))
        )

    def inner(mu: int) -> float:
        def term(j: int) -> float:
            return (
                t**j
                / math.factorial(j)
                * pochhammer(mu + 0.5, j)
                * math.exp(log_D0(j + mu + 0.5))
            )

        return adaptive_sum(term, tol, None, "i1_hermite_method: inner j-sum")

    x = c * c / s2a
    if x == 0.0:
        mu_max = 0  # only the mu = 0 term is nonzero

    def term(mu: int) -> float:
        return x**mu / math.factorial(2 * mu) * math.exp(gammaln(mu + 0.5)) * inner(mu)

    cap = None if mu_max is None else mu_max + 1
    return adaptive_sum(term, tol, cap, "i1_hermite_method") / (2.0 * a) ** 0.25
