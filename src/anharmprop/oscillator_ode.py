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
from scipy.linalg.lapack import dgtsv

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


def __getattr__(name: str):
    # CubicSpline is kept only for perfbench/tracing.py, which rebinds it here;
    # no code here calls it.  Looking scipy's class up on first access keeps
    # scipy.interpolate out of the package import.
    if name == "CubicSpline":
        from scipy.interpolate import CubicSpline

        return CubicSpline
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The smallest grid_n that solve_Q accepts.
GRID_N_MIN = 64


@dataclass(frozen=True)
class Coefficient:
    """A time-dependent coefficient with value and two derivatives.

    kind is one of 'const', 'poly', 'table'; value/d1/d2 are vectorized
    callables of tau.  For 'const'/'poly' the derivatives are analytic; for
    'table' they come from the cubic-spline interpolant (one order below the
    analytic specs in accuracy).  describe names the data: the constant, the
    polynomial's coefficients, or a table's first and last sample time as
    'table:lo,hi', which CoefficientModel checks against [0, beta].
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


def _cubic_evaluator(knots: np.ndarray, rows: tuple[np.ndarray, ...]):
    """tau -> sum_k rows[k] (tau - t_i)^k on the piece i holding tau, the end
    pieces extended past the knots.  The powers and the sum are formed in
    scipy PPoly's ascending order, so the result is PPoly's bit for bit.
    PPoly's sum starts from 0.0; the caller adds that 0.0 to rows[0], which
    turns a -0.0 constant term into +0.0."""
    table = np.stack((knots[:-1],) + rows)
    table.flags.writeable = False
    inner = knots[1:-1]

    def evaluate(tau):
        t = np.asarray(tau, dtype=float)
        flat = t.reshape(-1)
        g = table.take(np.searchsorted(inner, flat, side="right"), axis=1)
        s = flat - g[0]
        out = g[2] * s
        out += g[1]
        z = s.copy()
        for row in g[3:]:
            z *= s
            row *= z
            out += row
        return out.reshape(t.shape)

    return evaluate


def table_coefficient(taus: Sequence[float], values: Sequence[float]) -> Coefficient:
    """The not-a-knot cubic spline through (taus, values) and its first two
    derivatives, built and evaluated with the arithmetic of scipy 1.17.1's
    `CubicSpline` (the same LAPACK dgtsv solve for the knot slopes, and
    `CubicHermiteSpline`'s piece coefficients), so each equals scipy's bit
    for bit."""
    taus = np.asarray(taus, dtype=float)
    values = np.asarray(values, dtype=float)
    if taus.ndim != 1 or taus.size < 4 or np.any(np.diff(taus) <= 0):
        raise ValueError("table coefficient needs >= 4 strictly increasing samples")
    if values.shape != taus.shape:
        raise ValueError(
            f"table coefficient needs one value per tau: {values.shape} values, {taus.size} taus"
        )
    if not (np.all(np.isfinite(taus)) and np.all(np.isfinite(values))):
        raise ValueError("table coefficient needs finite taus and values")
    dx = np.diff(taus)
    slope = np.diff(values) / dx
    # Tridiagonal system for the slopes at the knots, with not-a-knot ends.
    d = np.empty_like(taus)
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    d[0], d[-1] = dx[1], dx[-2]
    du = np.concatenate(([taus[2] - taus[0]], dx[:-1]))
    dl = np.concatenate((dx[1:], [taus[-1] - taus[-3]]))
    b = np.empty_like(taus)
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    h = taus[2] - taus[0]
    b[0] = ((dx[0] + 2 * h) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / h
    h = taus[-1] - taus[-3]
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * h + dx[-1]) * dx[-2] * slope[-1]) / h
    *_, s, info = dgtsv(dl, d, du, b)
    if info != 0:
        raise ValueError(f"table coefficient: the spline's slope system is singular (info={info})")
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    cubic = t / dx
    quadratic = (slope - s[:-1]) / dx - t
    # PPoly.derivative scales each coefficient by its rising factorial.
    return Coefficient(
        "table",
        _cubic_evaluator(taus, (values[:-1] + 0.0, s[:-1], quadratic, cubic)),
        _cubic_evaluator(taus, (s[:-1] + 0.0, quadratic * 2.0, cubic * 3.0)),
        _cubic_evaluator(taus, (quadratic * 2.0 + 0.0, cubic * 6.0)),
        describe=f"table:{float(taus[0])!r},{float(taus[-1])!r}",
    )


def _as_coefficient(spec) -> Coefficient:
    if isinstance(spec, Coefficient):
        return spec
    if isinstance(spec, (int, float)):
        return const_coefficient(float(spec))
    raise TypeError(f"cannot interpret coefficient spec {spec!r}")


@dataclass(frozen=True)
class CoefficientModel:
    """Coefficients a (quartic, >= 0), b (harmonic), c (kinetic, > 0) on [0, beta].

    The samples of a `table_coefficient` must cover [0, beta].
    """

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
        for name in ("a", "b", "c"):
            # A table's cubic would extrapolate past its samples without a word.
            coefficient = getattr(self, name)
            if coefficient.kind == "table" and coefficient.describe.startswith("table:"):
                lo, hi = map(float, coefficient.describe[len("table:") :].split(","))
                if not (lo <= 0.0 and hi >= self.beta):
                    raise ValueError(
                        f"table coefficient {name} spans [{lo!r}, {hi!r}], which does"
                        f" not cover [0, beta] = [0, {self.beta!r}]"
                    )
        probe = np.linspace(0.0, self.beta, 257)
        if np.any(self.c(probe) <= 0.0):
            raise ValueError("kinetic coefficient c(tau) must be positive on [0, beta]")
        if np.any(self.a(probe) < 0.0):
            raise ValueError("quartic coefficient a(tau) must be non-negative on [0, beta]")


@dataclass(frozen=True)
class OscillatorSolution:
    """Gridded c, Q, f, kernel I and the regularized boundary integral, built
    complete by `solve_Q`; I_of_tau and Y_reg are NaN when not q_positive.

    Read-only throughout: every array and the `richardson` mapping refuse
    in-place writes.  `c` holds the samples the solve took (c(0) = c[0] and
    c(beta) = c[-1] exactly), so the boundary data, the harmonic factor, the
    kernel and the series read c here rather than calling the model again.
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
    # private: the subtracted kernel integrand 1/(c Q^2) - 1/(c(0) tau^2) on the
    # grid (None when not q_positive)
    _integrand: np.ndarray | None = None


@dataclass(frozen=True)
class BoundaryData:
    """Endpoints and the reduced (hatted) variables of the correction series."""

    phi0: float
    phiB: float
    phi0_hat: float
    phiB_hat: float
    gamma: float = 0.25


def _require_finite_endpoints(**endpoints: float) -> None:
    """Refuse a nan or infinite endpoint, by name: the series and the oracles
    would carry it into a nan total or a failure far from its cause."""
    for name, value in endpoints.items():
        if not math.isfinite(value):
            raise ValueError(f"endpoint {name} must be finite, got {value}")


def make_boundary(solution: OscillatorSolution, phi0: float, phiB: float) -> BoundaryData:
    _require_finite_endpoints(phi0=phi0, phiB=phiB)
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


def _solve_systems(grid: np.ndarray, c, c1, c2, b) -> tuple[dict, float]:
    """Q and f, each as (y, y') on the grid with its Richardson step-size
    estimate, from c, c', c'' and b sampled on the lattice; and R(beta), where
    R solves the Q equation with R(0) = 1, R'(0) = 0.

    The two systems are integrated independently (f = 2 pi c Q / c(0)^2 is a
    cross-check), each on the fine grid (two sub-steps per interval) and, for
    the estimate, the coarse one (one).  All four runs share one batch of RK4
    sub-steps and one prefix product.  R is the fine Q run's first column.
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
        if not est <= 1e-6:  # a NaN estimate fails too
            raise ArithmeticError(
                f"{which}-ODE step-size failure: Richardson estimate {est:.3e}; "
                "increase grid_n"
            )
        out[which] = fine, est
    return out, 1.0 + float(prod[0, 0, 0, -1])


def extrapolate_node0(grid: np.ndarray, y: np.ndarray):
    """y (per column) at tau = 0 from the parabola through grid nodes 1..3,
    by the closed-form three-point Lagrange weights."""
    t1, t2, t3 = (float(t) for t in grid[1:4])
    w1 = t2 * t3 / ((t1 - t2) * (t1 - t3))
    w2 = t1 * t3 / ((t2 - t1) * (t2 - t3))
    w3 = t1 * t2 / ((t3 - t1) * (t3 - t2))
    return w1 * y[1] + w2 * y[2] + w3 * y[3]


# ---------------------------------------------------------------------------
# Integrals of the local quintic through gridded values
# ---------------------------------------------------------------------------


def _lagrange_integrals() -> np.ndarray:
    """1440 times the coefficient of v^(k+1) in the integral over
    [p + 1 - v, p + 1] of node j's Lagrange basis on the nodes 0..5, as
    [p, j, k] for the window's intervals p = 0..4.  The exact values are
    integers; these are within rounding of them."""
    P = np.polynomial.polynomial
    table = np.empty((5, 6, 6))
    for j in range(6):
        others = np.delete(np.arange(6.0), j)
        for p in range(5):
            # The basis at x = p + 1 - v: prod over the other nodes m of
            # (v - (p + 1 - m)) / (m - j).
            in_v = P.polyfromroots(p + 1.0 - others) / np.prod(others - j)
            table[p, j] = 1440.0 * P.polyint(in_v)[1:]
    return table


# An interval's window is the six nodes around it (p = 2), moved inward at
# the grid's ends (p = 0, 1 and 3, 4).  The table at v = 1 gives the whole
# interval's weights, (11, -93, 802, 802, -93, 11) inside; each row sums to 1440.
_QUINTIC_TABLE = np.rint(_lagrange_integrals())
_QUINTIC_WEIGHTS = _QUINTIC_TABLE.sum(axis=-1)
_QUINTIC_TABLE.setflags(write=False)
_QUINTIC_WEIGHTS.setflags(write=False)


def _interval_integrals(grid: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Integrals over [t_i, t_{i+1}] of the quintic through the six nodes
    around each interval, along the last axis of y (one row per integrand).

    Each is a fixed-order sum of six node values times integer weights,
    scaled by the interval's own dx / 1440, with no BLAS call; the weights
    assume a uniform grid, which is checked to rounding.
    """
    grid = np.asarray(grid, dtype=float)
    y = np.asarray(y, dtype=float)
    if grid.ndim != 1 or grid.size < 6:
        raise ValueError(f"the grid must be 1-D with at least 6 nodes, got shape {grid.shape}")
    if y.ndim == 0 or y.shape[-1] != grid.size:
        raise ValueError(f"y's last axis must match the grid's {grid.size} nodes, got {y.shape}")
    n = grid.size - 1
    dx = np.diff(grid)
    h = (grid[-1] - grid[0]) / n
    # NaN fails every comparison, so a non-finite node is refused here too.
    if not (0.0 < h < math.inf and np.all(np.abs(dx - h) <= 8e-16 * np.max(np.abs(grid)))):
        raise ValueError("the grid must be finite, increasing and uniform")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must contain only finite values")
    inner = _QUINTIC_WEIGHTS[2, 0] * y[..., : n - 4]
    for j in range(1, 6):
        inner += _QUINTIC_WEIGHTS[2, j] * y[..., j : j + n - 4]
    # The two intervals at each end share the end's window, each with its row.
    window = np.arange(6) + np.array([[0], [0], [n - 5], [n - 5]])
    ends = (y[..., window] * _QUINTIC_WEIGHTS[[0, 1, 3, 4]]).sum(axis=-1)
    return np.concatenate([ends[..., :2], inner, ends[..., 2:]], axis=-1) * (dx / 1440.0)


def _sum_from_right(pieces: np.ndarray) -> np.ndarray:
    """F_i = the sum of pieces i, i+1, ... along the last axis, with one more
    entry, F = 0, at the end."""
    F = np.zeros(pieces.shape[:-1] + (pieces.shape[-1] + 1,))
    np.cumsum(pieces[..., ::-1], axis=-1, out=F[..., -2::-1])
    return F


def _cumulative_from_right(grid: np.ndarray, y: np.ndarray) -> np.ndarray:
    """F(t_i) = int_{t_i}^{beta} y along the last axis of y, the interval
    integrals summed from the right, with F(beta) = 0."""
    return _sum_from_right(_interval_integrals(grid, y))


def solve_Q(model: CoefficientModel, grid_n: int = 512) -> OscillatorSolution:
    """Solve the Q equation (and the rest of the solution bundle) on a shared grid."""
    if grid_n < GRID_N_MIN:
        raise ValueError(f"grid_n must be >= {GRID_N_MIN}, got {grid_n}")
    # The coefficients are sampled once, on a lattice holding every RK4 stage
    # time; the grid is every fourth lattice point, bit for bit.
    lattice = np.linspace(0.0, model.beta, 4 * grid_n + 1)
    grid = lattice[::4].copy()
    c_lattice, c1_lattice = model.c.value(lattice), model.c.d1(lattice)
    # CoefficientModel probes c at 257 points only; a zero between them
    # would reach the ODEs as a division by zero.
    if not np.all(c_lattice > 0.0):
        i = int(np.argmin(c_lattice > 0.0))
        raise ValueError(
            "kinetic coefficient c(tau) must be positive on [0, beta]; "
            f"c({float(lattice[i])!r}) = {float(c_lattice[i])!r} on the grid_n={grid_n} lattice"
        )
    systems, r_beta = _solve_systems(
        grid, c_lattice, c1_lattice, model.c.d2(lattice), model.b.value(lattice)
    )
    (Q, Qdot), q_est = systems["Q"]
    (f, fdot), f_est = systems["f"]
    q_positive = bool(np.all(Q[1:] > 0.0))
    c = c_lattice[::4].copy()

    g = None
    I_of_tau, Y_reg = np.full_like(grid, np.nan), math.nan
    if q_positive:
        c0 = float(c[0])
        # Subtracted kernel integrand: 1/(c Q^2) - 1/(c0 tau^2), finite at 0.
        g = np.empty_like(grid)
        g[1:] = 1.0 / (c[1:] * Q[1:] ** 2) - 1.0 / (c0 * grid[1:] ** 2)
        g[0] = extrapolate_node0(grid, g)
        F = _cumulative_from_right(grid, g)
        # I = F plus the exact integral of the subtracted 1/(c0 s^2), written
        # as (beta - tau)/(tau beta), which does not cancel near tau = beta.
        with np.errstate(divide="ignore"):  # I(0) = +inf
            I_of_tau = F + (1.0 / c0) * ((model.beta - grid) / (grid * model.beta))
        I_of_tau[-1] = 0.0
        Y_reg = _regularized_Y_impl(
            float(F[0]), c0, float(c1_lattice[0]), model.beta, float(Q[-1]), r_beta
        )
    # Read-only, so a solution read later holds what the solve produced.
    for arr in (grid, c, Q, Qdot, f, fdot, I_of_tau) + ((g,) if q_positive else ()):
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
        _integrand=g,
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
    grid = solution.grid
    # tau lies in [t_i, t_{i+1}); I(tau) = I(t_{i+1}) plus the integral over
    # [tau, t_{i+1}] of the subtracted integrand's local quintic (the one the
    # grid's pieces integrate) and of 1/(c0 s^2).
    i = int(np.searchsorted(grid, tau, side="right")) - 1
    start = min(max(i - 2, 0), grid.size - 6)
    t_next, h = float(grid[i + 1]), float(grid[i + 1] - grid[i])
    # In v = (t_{i+1} - tau) / h the quintic's integral is h/1440 times
    # v (c_0 + c_1 v + ... + c_5 v^5): no constant term, so nothing cancels
    # next to a node, and its value at v = 1 is the interval's whole piece.
    c = (solution._integrand[start : start + 6, None] * _QUINTIC_TABLE[i - start]).sum(axis=0)
    v = (t_next - tau) / h
    quintic = (h / 1440.0) * v * np.polynomial.polynomial.polyval(v, c)
    subtracted = (1.0 / float(solution.c[0])) * ((t_next - tau) / (tau * t_next))
    return float(solution.I_of_tau[i + 1]) + (float(quintic) + subtracted)


def _regularized_Y_impl(
    subtracted_integral: float,
    c0: float,
    dc0: float,
    beta: float,
    q_beta: float,
    r_beta: float,
    tol: float = 1e-6,
) -> float:
    """Y_reg by two independent routes; raises ArithmeticError when they
    disagree, and returns route (i).

    subtracted_integral is the integral over [0, beta] of the subtracted kernel
    integrand 1/(c Q^2) - 1/(c0 s^2); dc0 is c'(0), q_beta = Q(beta), and
    r_beta = R(beta) for R, the solution of the Q equation with R(0) = 1 and
    R'(0) = 0.
    """
    # Route (i): analytic subtraction.  The O(tau) parts of c and Q^2 cancel
    # (Q''(0) = -c'(0)/c(0)), so no finite c'(0) remnant survives in Y_reg.
    # One does survive in (Q I)'(0) = Y_reg - c'(0)/(2 c(0)^2), the quantity
    # the phi0^2 term of the classical action needs; harmonic_propagator uses
    # Y_reg there, so its exponent is c'(0) phi0^2 / 4 too large when c'(0) != 0.
    route_i = subtracted_integral - 1.0 / (c0 * beta)

    # Route (ii): the transfer matrix, with no kernel spline and no node-0
    # extrapolation.  By Abel's identity c (R Q' - R' Q) = c(0), so
    # (R/Q)' = -c(0)/(c Q^2), I(tau) = (R(tau)/Q(tau) - R(beta)/Q(beta)) / c(0)
    # and (Q I)'(0) = -R(beta) / (c(0) Q(beta)).
    route_ii = -r_beta / (c0 * q_beta) + dc0 / (2.0 * c0 * c0)

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
