"""Euclidean propagator of the quartic anharmonic oscillator.

Evaluates the imaginary-time transition kernel of the action

    E[phi] = int_0^beta [ c(tau)/2 phi'(tau)^2 + b(tau) phi(tau)^2
                          + a(tau) phi(tau)^4 ] dtau

with fixed endpoints, as a harmonic (Gel'fand-Yaglom) factor times a
rapidly converging correction series in the anharmonic order mu, and
cross-checks it against brute-force time-sliced oracles.
"""
from .anharmonic import (
    KappaVector,
    PropagatorBreakdown,
    d_function,
    h_kappa,
    nested_integral,
    p1_series,
    propagator,
    series_coefficient,
    w_mu,
    w_mu_direct,
)
from .oracle import (
    SlicedModel,
    continuum_extrapolate,
    sliced_model,
    wn_montecarlo,
    wn_quadrature,
    wn_series_exact,
)
from .oscillator_ode import (
    BoundaryData,
    Coefficient,
    CoefficientModel,
    OscillatorSolution,
    const_coefficient,
    harmonic_propagator,
    kernel_I,
    make_boundary,
    mehler_reference,
    poly_coefficient,
    regularized_Y,
    solve_Q,
    solve_f,
    table_coefficient,
)
from .quartic_integral import i1_hermite_method, i1_quadrature, i1_series
from .special_fn import (
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

__version__ = "0.1.0"
