"""Characteristic ODEs of the oscillator, the kernel I(tau), the regularized
boundary integral, and the harmonic part of the propagator.

Both characteristic equations

    Q'' + (ln c)' Q' - (2b/c) Q = 0,          Q(0)=0, Q'(0)=1
    f'' - (ln c)' f' - (2b/c + (ln c)'') f = 0, f(0)=0, f'(0)=2 pi / c(0)

share the same normal form, which forces f = 2 pi c Q / c(0)^2; the library
integrates both independently and treats the proportionality as a cross-check,
not an implementation shortcut.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.interpolate import CubicSpline

__all__ = [
    "Coefficient",
    "const_coefficient",
    "poly_coefficient",
    "table_coefficient",
    "CoefficientModel",
    "OscillatorSolution",
    "BoundaryData",
    "make_boundary",
    "solve_Q",
    "solve_f",
    "kernel_I",
    "regularized_Y",
    "harmonic_propagator",
    "mehler_reference",
]

# The smallest grid_n that solve_Q accepts.
GRID_N_MIN = 64


@dataclass(frozen=True)
class Coefficient:
    """A time-dependent coefficient with value and two derivatives.

    kind is one of 'const', 'poly', 'table'; value/d1/d2 are vectorized
    callables of tau.  For 'const'/'poly' the derivatives are analytic; for
    'table' they come from the cubic-spline interpolant (one order below the
    analytic specs in accuracy).
    """

    kind: str
    value: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    describe: str = ""

    def __call__(self, tau):
        return self.value(tau)


def const_coefficient(v: float) -> Coefficient:
    v = float(v)
    return Coefficient(
        "const",
        lambda t: np.full_like(np.asarray(t, dtype=float), v),
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        describe=f"const:{v!r}",
    )


def poly_coefficient(coeffs: Sequence[float]) -> Coefficient:
    p = np.polynomial.Polynomial(list(coeffs))
    p1 = p.deriv()
    p2 = p1.deriv()
    return Coefficient(
        "poly",
        lambda t: p(np.asarray(t, dtype=float)),
        lambda t: p1(np.asarray(t, dtype=float)),
        lambda t: p2(np.asarray(t, dtype=float)),
        describe="poly:" + ",".join(repr(c) for c in coeffs),
    )


def table_coefficient(taus: Sequence[float], values: Sequence[float]) -> Coefficient:
    taus = np.asarray(taus, dtype=float)
    values = np.asarray(values, dtype=float)
    if taus.ndim != 1 or taus.size < 4 or np.any(np.diff(taus) <= 0):
        raise ValueError("table coefficient needs >= 4 strictly increasing samples")
    spl = CubicSpline(taus, values)
    return Coefficient(
        "table", spl, spl.derivative(1), spl.derivative(2), describe="table"
    )


def _as_coefficient(spec) -> Coefficient:
    if isinstance(spec, Coefficient):
        return spec
    if isinstance(spec, (int, float)):
        return const_coefficient(float(spec))
    raise TypeError(f"cannot interpret coefficient spec {spec!r}")


@dataclass(frozen=True)
class CoefficientModel:
    """Coefficients a (quartic, >= 0), b (harmonic), c (kinetic, > 0) on [0, beta]."""

    a: Coefficient
    b: Coefficient
    c: Coefficient
    beta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _as_coefficient(self.a))
        object.__setattr__(self, "b", _as_coefficient(self.b))
        object.__setattr__(self, "c", _as_coefficient(self.c))
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        probe = np.linspace(0.0, self.beta, 257)
        if np.any(self.c(probe) <= 0.0):
            raise ValueError("kinetic coefficient c(tau) must be positive on [0, beta]")
        if np.any(self.a(probe) < 0.0):
            raise ValueError("quartic coefficient a(tau) must be non-negative on [0, beta]")


@dataclass(frozen=True)
class OscillatorSolution:
    """Gridded c, Q, f, kernel I and the regularized boundary integral, built
    complete by `solve_Q`; I_of_tau and Y_reg are NaN when not q_positive.

    Read-only throughout: every array, the `richardson` mapping and the
    private kernel antiderivative refuse in-place writes.  `c` holds the
    samples the solve took (c(0) = c[0] and c(beta) = c[-1] exactly), so the
    boundary data, the harmonic factor, the kernel and the series read c here
    rather than calling the model again.
    """

    model: CoefficientModel
    grid: np.ndarray
    c: np.ndarray
    Q: np.ndarray
    Qdot: np.ndarray
    f: np.ndarray
    fdot: np.ndarray
    I_of_tau: np.ndarray  # I(grid); +inf at tau=0
    Y_reg: float
    q_positive: bool
    richardson: Mapping[str, float]
    # private: antiderivative of the subtracted kernel integrand
    _bracket_anti: CubicSpline | None = None


@dataclass(frozen=True)
class BoundaryData:
    """Endpoints and the reduced (hatted) variables of the correction series."""

    phi0: float
    phiB: float
    phi0_hat: float
    phiB_hat: float
    gamma: float = 0.25


def make_boundary(solution: OscillatorSolution, phi0: float, phiB: float) -> BoundaryData:
    c0 = float(solution.c[0])
    q_beta = float(solution.Q[-1])
    return BoundaryData(
        phi0=phi0,
        phiB=phiB,
        phi0_hat=c0 * phi0 / math.sqrt(2.0),
        phiB_hat=phiB / (math.sqrt(2.0) * q_beta),
    )


def _compose(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """(I + later)(I + earlier) - I for 2x2 increments on axes 0 and 1, written
    out per component; the remaining axes are batch axes.  The product term,
    the smallest, is summed first."""
    out = later[:, :1] * earlier[:1]
    out += later[:, 1:] * earlier[1:]
    out += earlier
    out += later
    return out


def _prefix_increments(d: np.ndarray) -> np.ndarray:
    """P_i - I for the prefix products P_i = M_{i-1} ... M_0 of the step maps
    M = I + d (steps on the last axis), i = 0..n, by doubling.

    Round k composes each product with the one 2^k steps before it, so the
    whole prefix takes ceil(log2 n) batched rounds.  The products stay in
    increment form: storing M itself would round 1 + small alike at every
    step, an error that adds up linearly along the grid.
    """
    n = d.shape[-1]
    prod = np.zeros(d.shape[:-1] + (n + 1,))
    prod[..., 1:] = d
    span = 1
    while span < n:
        prod[..., span + 1:] = _compose(prod[..., span + 1:], prod[..., 1:-span])
        span *= 2
    return prod


# The RK4 stage times of interval i as lattice indices 4 i + offset, for the
# lattice linspace(0, beta, 4 n + 1) whose every fourth point is the grid.
# Rows: the stages t, t + h/2, t + h; columns: the fine pass's two sub-steps,
# then the coarse pass's one.
_STAGE_OFFSETS = np.array([[0, 2, 0], [1, 3, 2], [2, 4, 4]])
_STAGE_OFFSETS.setflags(write=False)


def _stage_coefficients(c, c1, c2, b):
    """p and q of the Q and f systems (y0, y1)' = (y1, p y1 + q y0) at every
    RK4 stage, each of shape (stage, system, interval, sub-step), from c, c',
    c'' and b sampled on the lattice of 4 n + 1 points."""
    l1 = c1 / c
    harmonic = (2.0 * b) / c
    at = _STAGE_OFFSETS[:, None, :] + 4 * np.arange(c.size // 4)[:, None]
    p = np.stack([-l1[at], l1[at]], axis=1)
    q = np.stack([harmonic[at], (harmonic + (c2 / c - l1 * l1))[at]], axis=1)
    return p, q


def _rk4_increments(p: np.ndarray, q: np.ndarray, h: np.ndarray) -> np.ndarray:
    """M - I of every RK4 sub-step, with p and q laid out as
    `_stage_coefficients` gives them and h as (interval, sub-step); the result
    has the row and the column of the 2x2 matrix M in front of the system
    axis.  M is the step run on the basis vectors."""
    pa, pb, pc = p
    qa, qb, qc = q
    half, w = 0.5 * h, h / 6.0
    # The basis vectors (1, 0) and (0, 1) on the column axis.
    y0 = np.array([1.0, 0.0]).reshape(2, 1, 1, 1)
    y1 = np.array([0.0, 1.0]).reshape(2, 1, 1, 1)
    k1, m1 = y1, pa * y1 + qa * y0
    u0, u1 = y0 + half * k1, y1 + half * m1
    k2, m2 = u1, pb * u1 + qb * u0
    u0, u1 = y0 + half * k2, y1 + half * m2
    k3, m3 = u1, pb * u1 + qb * u0
    u0, u1 = y0 + h * k3, y1 + h * m3
    k4, m4 = u1, pc * u1 + qc * u0
    return np.stack([
        w * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
        w * (m1 + 2.0 * m2 + 2.0 * m3 + m4),
    ])


def _solve_systems(grid: np.ndarray, c, c1, c2, b) -> dict:
    """Q and f, each as (y, y') on the grid with its Richardson step-size
    estimate, from c, c', c'' and b sampled on the lattice.

    The two systems are integrated independently (f = 2 pi c Q / c(0)^2 is a
    cross-check), each on the fine grid (two sub-steps per interval) and, for
    the estimate, the coarse one (one).  All four runs share one batch of RK4
    sub-steps and one prefix product.
    """
    # Last axis: the fine pass's two sub-steps, then the coarse pass's one.
    h = np.diff(grid)[:, None] / np.array([2.0, 2.0, 1.0])
    d = _rk4_increments(*_stage_coefficients(c, c1, c2, b), h)
    # Runs in the order fine Q, fine f, coarse Q, coarse f, one step per interval.
    steps = np.concatenate([_compose(d[..., 1], d[..., 0]), d[..., 2]], axis=2)
    prod = _prefix_increments(steps)
    # Each run's initial (y, y'), applied to P - I.
    f1 = 2.0 * math.pi / float(c[0])
    y0 = np.zeros((4, 1))
    y1 = np.array([[1.0], [f1], [1.0], [f1]])
    y = np.stack([y0, y1]) + (prod[:, 0] * y0 + prod[:, 1] * y1)
    out = {}
    for which, fine, coarse in (("Q", y[:, 0], y[:, 2]), ("f", y[:, 1], y[:, 3])):
        scale = max(1.0, float(np.max(np.abs(fine))))
        est = float(np.max(np.abs(fine - coarse))) / 15.0 / scale
        if est > 1e-6:
            raise ArithmeticError(
                f"{which}-ODE step-size failure: Richardson estimate {est:.3e}; "
                "increase grid_n"
            )
        out[which] = fine, est
    return out


def extrapolate_node0(grid: np.ndarray, y: np.ndarray):
    """Quadratic extrapolation of y (per column) from grid nodes 1..3 to node 0."""
    return np.polyval(np.polyfit(grid[1:4], y[1:4], 2), 0.0)


def _kernel(anti, c0: float, beta: float, tau):
    """I(tau) from the antiderivative of 1/(c Q^2) - 1/(c0 s^2) plus the exact
    integral of the subtracted 1/(c0 s^2); tau may be a scalar or an array."""
    return (anti(beta) - anti(tau)) + (1.0 / c0) * (1.0 / tau - 1.0 / beta)


def solve_Q(model: CoefficientModel, grid_n: int = 512) -> OscillatorSolution:
    """Solve the Q equation (and the rest of the solution bundle) on a shared grid."""
    if grid_n < GRID_N_MIN:
        raise ValueError(f"grid_n must be >= {GRID_N_MIN}, got {grid_n}")
    # The coefficients are sampled once, on a lattice holding every RK4 stage
    # time; the grid is every fourth lattice point, bit for bit.
    lattice = np.linspace(0.0, model.beta, 4 * grid_n + 1)
    grid = lattice[::4].copy()
    c_lattice = model.c.value(lattice)
    systems = _solve_systems(
        grid, c_lattice, model.c.d1(lattice), model.c.d2(lattice), model.b.value(lattice)
    )
    (Q, Qdot), q_est = systems["Q"]
    (f, fdot), f_est = systems["f"]
    q_positive = bool(np.all(Q[1:] > 0.0))
    c = c_lattice[::4].copy()

    anti, I_of_tau, Y_reg = None, np.full_like(grid, np.nan), math.nan
    if q_positive:
        c0 = float(c[0])
        # Subtracted kernel integrand: 1/(c Q^2) - 1/(c0 tau^2), finite at 0.
        g = np.empty_like(grid)
        g[1:] = 1.0 / (c[1:] * Q[1:] ** 2) - 1.0 / (c0 * grid[1:] ** 2)
        g[0] = extrapolate_node0(grid, g)
        anti = CubicSpline(grid, g).antiderivative()
        with np.errstate(divide="ignore"):  # I(0) = +inf
            I_of_tau = _kernel(anti, c0, model.beta, grid)
        I_of_tau[-1] = 0.0
        Y_reg = _regularized_Y_impl(anti, c0, model.beta, grid, c, Q, I_of_tau)
    # Read-only, so a solution read later holds what the solve produced.
    for arr in (grid, c, Q, Qdot, f, fdot, I_of_tau) + ((anti.x, anti.c) if q_positive else ()):
        arr.setflags(write=False)
    return OscillatorSolution(
        model=model,
        grid=grid,
        c=c,
        Q=Q,
        Qdot=Qdot,
        f=f,
        fdot=fdot,
        I_of_tau=I_of_tau,
        Y_reg=Y_reg,
        q_positive=q_positive,
        richardson=MappingProxyType({"Q": q_est, "f": f_est}),
        _bracket_anti=anti,
    )


def solve_f(model: CoefficientModel, grid_n: int = 512) -> OscillatorSolution:
    """Solve the f (Gel'fand–Yaglom) equation; same solution bundle as solve_Q."""
    return solve_Q(model, grid_n)


def require_kernel(solution: OscillatorSolution) -> None:
    """Raise ArithmeticError unless Q > 0 on (0, beta], where I(tau) exists."""
    if not solution.q_positive:
        raise ArithmeticError(
            "Q(tau) has a zero in (0, beta]; kernel-dependent quantities are undefined"
        )


def kernel_I(solution: OscillatorSolution, tau: float) -> float:
    """I(tau) = int_tau^beta ds / (c(s) Q(s)^2); diverges as tau -> 0."""
    require_kernel(solution)
    beta = solution.model.beta
    if not 0.0 < tau <= beta:
        raise ValueError(f"kernel_I needs 0 < tau <= beta (I diverges at 0), got {tau}")
    if tau == beta:
        return 0.0
    return float(_kernel(solution._bracket_anti, float(solution.c[0]), beta, tau))


def _regularized_Y_impl(anti, c0, beta, grid, c, Q, I, tol: float = 1e-6) -> float:
    """Y_reg by two routes from the kernel antiderivative `anti` and the
    gridded c, Q and I; raises ArithmeticError when the routes disagree."""
    # Route (i): analytic subtraction.  The O(tau) parts of c and Q^2 cancel
    # (Q''(0) = -c'(0)/c(0)), so no finite c'(0) remnant survives in Y_reg.
    # One does survive in (Q I)'(0) = Y_reg - c'(0)/(2 c(0)^2), the quantity
    # the phi0^2 term of the classical action needs; harmonic_propagator uses
    # Y_reg there, so its exponent is c'(0) phi0^2 / 4 too large when c'(0) != 0.
    route_i = float(anti(beta) - anti(0.0)) - 1.0 / (c0 * beta)

    # Route (ii): read the defining bracket at the grid nodes eps = 8, 4, 2
    # and 1 intervals (beta 2^{-6..-9} at grid_n = 512) and Richardson-
    # extrapolate.  Below one interval an interpolated Q, its error amplified
    # by 1/eps^2, would dominate; tied to the grid, the route converges as
    # grid_n grows.  The bracket approaches its limit with an O(eps) leading
    # error (the harmonic term in Q's small-tau expansion), plus O(eps^2) and
    # O(eps^3); eliminate all three.  The eps^3 term grows with 2 b beta^2 / c
    # and with fast variation of c near tau = 0.
    r = [float(I[i] - grid[i] / (c[i] * Q[i] * Q[i])) for i in (8, 4, 2, 1)]
    for order in (1, 2, 3):
        r = [(2.0**order * fine - coarse) / (2.0**order - 1.0)
             for coarse, fine in zip(r, r[1:])]
    route_ii = r[0]

    if abs(route_i - route_ii) > tol * max(1.0, abs(route_i)):
        raise ArithmeticError(
            f"regularized_Y routes disagree: {route_i!r} vs {route_ii!r} "
            "(grid too coarse?)"
        )
    return route_i


def regularized_Y(solution: OscillatorSolution) -> float:
    """The eps->0 limit of int_eps^beta 1/(cQ^2) - eps/(c(eps)Q(eps)^2)."""
    require_kernel(solution)
    return solution.Y_reg


def harmonic_propagator(
    solution: OscillatorSolution, boundary: BoundaryData
) -> tuple[float, float, float]:
    """Harmonic factor: returns (prefactor, exponent, value).

    exponent = Y_reg c(0)^2 phi0^2 / 2 + c(0) phi0 phiB / Q(beta)
               - (Qdot(beta)/Q(beta)) c(beta) phiB^2 / 2
    prefactor = 1/sqrt(f(beta)); value = prefactor * exp(exponent).
    """
    require_kernel(solution)
    f_beta = float(solution.f[-1])
    if f_beta <= 0.0:
        raise ArithmeticError(f"f(beta) = {f_beta} <= 0: caustic/instability")
    c0 = float(solution.c[0])
    c_beta = float(solution.c[-1])
    q_beta = float(solution.Q[-1])
    exponent = (
        solution.Y_reg * c0 * c0 * boundary.phi0**2 / 2.0
        + c0 * boundary.phi0 * boundary.phiB / q_beta
        - (float(solution.Qdot[-1]) / q_beta) * c_beta * boundary.phiB**2 / 2.0
    )
    prefactor = 1.0 / math.sqrt(f_beta)
    return prefactor, exponent, prefactor * math.exp(exponent)


def mehler_reference(k: float, nu: float, x_i: float, x_f: float) -> float:
    """Mehler kernel (k/(2 pi sinh nu))^{1/2}
    exp{-k(x_i^2+x_f^2)/(2 tanh nu) + k x_i x_f / sinh nu}."""
    if k <= 0.0 or nu <= 0.0:
        raise ValueError("mehler_reference requires k > 0 and nu > 0")
    return math.sqrt(k / (2.0 * math.pi * math.sinh(nu))) * math.exp(
        -k * (x_i**2 + x_f**2) / (2.0 * math.tanh(nu)) + k * x_i * x_f / math.sinh(nu)
    )
