"""The anharmonic correction series.

Two independent representations of the order-mu term are implemented:

* w_mu — the kappa-sum route: ordered simplex integrals I_{kappa_1..kappa_mu}
  contracted with the nested-derivative recurrence over incomplete Hermite
  polynomials (exact polynomial algebra, derivatives by index lowering),
  summed over all kappa by an O(mu) polynomial-valued recursion;
* w_mu_direct — the literal xi-derivative route: the degree-4mu Hermite
  polynomial of the generating argument, its fourth xi-derivative at xi = 1
  taken by Taylor's formula in the polynomial's two arguments, then simplex
  quadrature.

Their agreement is the numeric verification of the identity chain that turns
the generating-function factorization into the recurrence form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval2d
from scipy.interpolate import CubicSpline  # not called here; perfbench/tracing.py rebinds it
from scipy.sparse import csr_array, issparse

from .oscillator_ode import (
    BoundaryData,
    CoefficientModel,
    OscillatorSolution,
    _cumulative_from_right,
    _interval_integrals,
    extrapolate_node0,
    harmonic_propagator,
    make_boundary,
    require_kernel,
    solve_Q,
)
from .special_fn import _incomplete_hermite_table, hermite2

__all__ = [
    "KappaVector",
    "PropagatorBreakdown",
    "nested_integral",
    "h_kappa",
    "d_function",
    "w_mu",
    "w_mu_direct",
    "propagator",
    "p1_series",
    "series_coefficient",
]

MU_CAP = 4


def _check_kv(kv: Sequence[int]) -> tuple[int, ...]:
    kv = tuple(int(k) for k in kv)
    if any(not 0 <= k <= 4 for k in kv):
        raise ValueError(f"kappa entries must lie in [0, 4], got {kv}")
    if len(kv) > MU_CAP:
        raise ValueError(f"order mu={len(kv)} exceeds cap {MU_CAP}")
    return kv


@dataclass(frozen=True)
class KappaVector:
    """Multi-index (kappa_1, ..., kappa_mu), each entry in [0, 4]."""

    kappas: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "kappas", _check_kv(self.kappas))

    def __len__(self) -> int:
        return len(self.kappas)


@dataclass(frozen=True)
class PropagatorBreakdown:
    """Harmonic factor, per-order corrections and the truncated total, with
    the ODE solution (Q, f, I on the grid) and the boundary data they were
    computed from."""

    harmonic_value: float  # exp(exponent) — the Gaussian boundary factor
    f_beta: float
    W_mu_terms: tuple[float, ...]
    series_coefficients: tuple[float, ...]
    total: float
    truncation_estimate: float
    solution: OscillatorSolution = field(repr=False, compare=False)
    boundary: BoundaryData = field(repr=False, compare=False)

    @property
    def p1(self) -> float:
        """The P1 series to order max(1, mu_max), computed when read."""
        mu_max = len(self.W_mu_terms) - 1
        return p1_series(self.solution, self.solution.model, self.boundary, max(1, mu_max))


def series_coefficient(mu: int) -> float:
    """Weight of W(mu) in the correction series: (4!/(4mu)!)(-1)^mu (1/4)^mu.

    By the bookkeeping convention of this library, W(0) = 1 and the mu = 0
    weight is 1 (the printed weights apply verbatim for mu >= 1).
    """
    if mu == 0:
        return 1.0
    return math.factorial(4) / math.factorial(4 * mu) * (-1.0) ** mu * 0.25**mu


# ---------------------------------------------------------------------------
# Bivariate polynomial helpers (coefficients C[p, q] of phiB^p phi0^q)
# ---------------------------------------------------------------------------


def _poly_mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Product of A (2-D) with each polynomial in B (coefficients on the last two axes)."""
    out = np.zeros(B.shape[:-2] + (A.shape[0] + B.shape[-2] - 1, A.shape[1] + B.shape[-1] - 1))
    for p in range(A.shape[0]):
        for q in range(A.shape[1]):
            if A[p, q] != 0.0:
                out[..., p : p + B.shape[-2], q : q + B.shape[-1]] += A[p, q] * B
    return out


def _h_kappa_poly(kappa: int, gamma: float) -> np.ndarray:
    """h_kappa = -4*4! scriptH_{4-kappa,kappa} as a bivariate polynomial."""
    return -4.0 * 24.0 * _incomplete_hermite_table(4, kappa, gamma)


def h_kappa(kappa: int, boundary: BoundaryData) -> float:
    """h_kappa = -4*4! scriptH_{4-kappa,kappa}(phiB_hat, phi0_hat | gamma)."""
    if not 0 <= kappa <= 4:
        raise ValueError(f"kappa must lie in [0, 4], got {kappa}")
    C = _h_kappa_poly(kappa, boundary.gamma)
    return float(polyval2d(boundary.phiB_hat, boundary.phi0_hat, C))


def _operator_step(h: np.ndarray, R: np.ndarray, n_min: int) -> np.ndarray:
    """O_k R = sum_n (1/(2^n n!)) (d^n_{phi0} h_k)(d^n_{phiB} R), h = h_k.

    R holds one polynomial per leading index.  n_min=1 drops the n=0 term
    (the A_k operator of the P1 series).  Derivatives act by exact index
    lowering on the polynomial coefficients, so the result is exact up to
    rounding.  The pieces shrink with n, so each is added into the first.
    """
    dleft, dR = h, R
    total = None
    for n in range(5):
        if n > 0:
            dleft = polyder(dleft, axis=-1)
            dR = polyder(dR, axis=-2)
        if n < n_min:
            continue
        piece = _poly_mul(dleft, dR) / (2.0**n * math.factorial(n))
        if total is None:
            total = piece
        else:
            total[..., : piece.shape[-2], : piece.shape[-1]] += piece
    return total


def d_function(kv, boundary: BoundaryData) -> float:
    """Recurrence value paired with I_kv in the correction series.

    The nested-operator recurrence O_{k_mu} ... O_{k_2} h_{k_1} applies its
    outermost factor (the one receiving the phi0 derivatives) to the
    innermost (latest-time) integration slot.  This pairing is what the
    generating-function factorization actually produces — the cross weight
    of a slot pair is I(tau) of the later slot — and it is verified
    numerically against the direct xi-derivative route (w_mu_direct).
    """
    kv = _check_kv(kv.kappas if isinstance(kv, KappaVector) else kv)
    if len(kv) < 1:
        raise ValueError("d_function needs mu >= 1")
    R = _h_kappa_poly(kv[0], boundary.gamma)
    for k in kv[1:]:
        R = _operator_step(_h_kappa_poly(k, boundary.gamma), R, n_min=0)
    return float(polyval2d(boundary.phiB_hat, boundary.phi0_hat, R))


# ---------------------------------------------------------------------------
# Nested ordered integrals on the shared grid
# ---------------------------------------------------------------------------


def _g_table(solution: OscillatorSolution, model: CoefficientModel) -> np.ndarray:
    """g_kappa = a Q^4 I^kappa on the grid, one row per kappa = 0..4."""
    require_kernel(solution)
    grid = solution.grid
    a = np.asarray(model.a(grid), dtype=float)
    w = a * solution.Q**4
    I = solution.I_of_tau
    g = np.zeros((5, grid.size))
    for kappa in range(5):
        g[kappa, 1:] = w[1:] * I[1:] ** kappa
    # a Q^4 I^kappa ~ tau^{4-kappa} at 0; only kappa=4 survives, with the
    # exact limit a(0) (Q I -> 1/c(0))^4.
    g[4, 0] = a[0] / float(solution.c[0]) ** 4
    return g


def nested_integral(solution: OscillatorSolution, model: CoefficientModel, kv) -> float:
    """Ordered simplex integral I_{kappa_1,...,kappa_mu}(beta); empty kv -> 1."""
    kv = _check_kv(kv.kappas if isinstance(kv, KappaVector) else kv)
    if not kv:
        return 1.0
    g = _g_table(solution, model)
    F = np.ones_like(solution.grid)
    for k in reversed(kv):
        F = _cumulative_from_right(solution.grid, g[k] * F)
    return float(F[0])


# ---------------------------------------------------------------------------
# Order-mu terms
# ---------------------------------------------------------------------------


def _read_only(a):
    for arr in (a.data, a.indices, a.indptr) if issparse(a) else (a,):
        arr.setflags(write=False)
    return a


def _derivatives(c: np.ndarray, axis: int) -> list[np.ndarray]:
    """c and its first four derivatives along axis, each taken from the last."""
    out = [c]
    for _ in range(4):
        out.append(polyder(out[-1], axis=axis))
    return out


def _sum_pieces(dh: list, dR: list, n_min: int) -> np.ndarray:
    """_operator_step's sum, from the derivatives of h (dh) and of R (dR)."""
    total = _poly_mul(dh[n_min], dR[n_min]) / (2.0**n_min * math.factorial(n_min))
    for n in range(n_min + 1, 5):
        piece = _poly_mul(dh[n], dR[n]) / (2.0**n * math.factorial(n))
        total[..., : piece.shape[-2], : piece.shape[-1]] += piece
    return total


def _operator_tables(n_min: int) -> tuple:
    """Per order j = 1..MU_CAP: the monomial columns (p, q) of S_j, the map
    from the integrand pieces of order j to S_j's columns, for gamma = 1/4,
    and the map's transpose (the last order's contraction applies it).

    The recursion starts from S_0 = 1, the single monomial column (0, 0).
    The map is the five O_k (A_k for n_min=1) side by side, one m_j x 5m_{j-1}
    matrix whose column k m_{j-1} + i is the image under _operator_step of
    the monomial of column i of S_{j-1}.  Order 1 applies the full operators
    for both series (the innermost factor of P1 is h_k).  The monomials the
    images reach are the columns of S_j.

    The images are summed as _operator_step sums them, so they equal its
    output entry for entry; but the derivatives of each h_k do not depend on
    the operand, nor the basis's on k, so they are taken once per table and
    once per order.
    """
    dh = [_derivatives(_h_kappa_poly(k, 0.25), axis=-1) for k in range(5)]
    p = q = np.zeros(1, dtype=np.intp)
    tables = []
    for j in range(1, MU_CAP + 1):
        basis = np.zeros((p.size, p.max() + 1, q.max() + 1))
        basis[np.arange(p.size), p, q] = 1.0
        dbasis = _derivatives(basis, axis=-2)
        lowest = n_min if j > 1 else 0
        images = np.stack([_sum_pieces(dhk, dbasis, lowest) for dhk in dh])
        p, q = np.nonzero(np.any(images != 0.0, axis=(0, 1)))
        op = csr_array(images[:, :, p, q].transpose(2, 0, 1).reshape(p.size, -1))
        tables.append((_read_only(p), _read_only(q), _read_only(op), _read_only(op.T)))
    return tuple(tables)


# The operators do not depend on the model, the grid or the endpoints.
_W_TABLES = _operator_tables(n_min=0)
_P1_TABLES = _operator_tables(n_min=1)


def _order_terms(
    solution: OscillatorSolution,
    model: CoefficientModel,
    boundary: BoundaryData,
    mu_max: int,
    n_min: int,
) -> list[float]:
    """Order-j terms sum_{kv in [0,4]^j} I_kv d_function(kv), j = 1..mu_max, in O(mu_max).

    The nested operators do not depend on tau, so the kappa-sum is the
    polynomial-valued recursion S_0 = 1, S_j(t) = int_0^t sum_k g_k O_k[S_{j-1}];
    the order-j term is S_j(beta) at (phiB_hat, phi0_hat).  S_j is held on
    the grid with one column per monomial the operators can reach, and the
    five O_k side by side as one matrix on those columns (the tables above).
    n_min=0 gives (-4)^j (4!)^j sum I_kv scriptD(kv), the order-j term of W;
    n_min=1 (operators A_k past order 1) the order-j increment of P1.
    """
    if boundary.gamma != 0.25:
        raise ValueError(f"the series operators exist for gamma = 1/4 only, got {boundary.gamma}")
    if mu_max > MU_CAP:
        raise ValueError(f"order mu={mu_max} exceeds cap {MU_CAP}")
    grid = solution.grid
    G = _g_table(solution, model)
    S = np.ones((1, grid.size))
    # The operators are 80-97 % zeros.  As a sparse matrix they are applied
    # in one thread in a fixed order, and the last contraction is a plain
    # einsum: a dense product would go to BLAS, whose worker threads stall
    # while another core is busy.
    terms = []
    for j, (p, q, op, op_t) in enumerate((_P1_TABLES if n_min else _W_TABLES)[:mu_max], start=1):
        v = boundary.phiB_hat**p * boundary.phi0_hat**q
        if j == mu_max:
            # Only S_j(beta) . v is needed: contract with v before the product
            # and the integral, so the last integral has one row.
            U = (op_t @ v).reshape(5, -1)
            y = np.einsum("kt,ki,it->t", G, U, S)
            terms.append(float(_interval_integrals(grid, y).sum()))
            break
        # S_j(t) = int_0^t is summed from the left: F(0) - F(t) would cancel
        # where S_j is small, near t = 0, and move W(4) by up to 4e-12.
        pieces = _interval_integrals(grid, op @ (G[:, None, :] * S).reshape(-1, grid.size))
        S = np.zeros((pieces.shape[0], grid.size))  # S_j, one row per column
        np.cumsum(pieces, axis=-1, out=S[:, 1:])
        terms.append(float(S[:, -1] @ v))
    return terms


def w_mu(
    solution: OscillatorSolution,
    model: CoefficientModel,
    boundary: BoundaryData,
    mu: int,
) -> float:
    """Order-mu correction W(mu), normalized so that
    total = (harmonic/sqrt f) * sum_mu series_coefficient(mu) * W(mu); W(0)=1."""
    if mu < 0 or mu > MU_CAP:
        raise ValueError(f"mu must lie in [0, {MU_CAP}], got {mu}")
    if mu == 0:
        return 1.0
    term = _order_terms(solution, model, boundary, mu, n_min=0)[-1]
    return term / series_coefficient(mu)


def _xi_kernel(H: Sequence[np.ndarray], x1: np.ndarray, y1: np.ndarray) -> np.ndarray:
    """24 [delta^4] H_8(x0 + x1 delta, y0 + y1 (2 delta + delta^2)), the fourth
    xi-derivative at xi = 1 + delta, from H = [H_0, ..., H_4] at (x0, y0).

    Taylor's formula in both arguments, with d_x H_n = n H_{n-1} and
    d_y H_n = n (n-1) H_{n-2}, is the sum over k, l of
    8!/(k! l! (8-k-2l)!) H_{8-k-2l} x1^k y1^l delta^(k+l) (2 + delta)^l.
    The term C(l, j) 2^(l-j) delta^j of (2 + delta)^l reaches delta^4 for
    j = 4 - k - l, 0 <= j <= l: nine terms, on H_0 ... H_4 only.  Rows follow
    (x0, y0), columns (x1, y1).
    """
    P = np.zeros((5, np.size(x1)))  # P[m]: the factor of H_m
    for l in range(5):
        for k in range(max(0, 4 - 2 * l), 5 - l):
            j, m = 4 - k - l, 8 - k - 2 * l
            weight = math.comb(l, j) * 2 ** (l - j) * math.factorial(8) // (
                math.factorial(k) * math.factorial(l) * math.factorial(m)
            )
            P[m] += weight * x1**k * y1**l
    return 24.0 * np.einsum("mi,mj->ij", np.broadcast_arrays(*H), P)  # H_0 = 1 is a scalar


def w_mu_direct(
    solution: OscillatorSolution,
    model: CoefficientModel,
    boundary: BoundaryData,
    mu: int,
) -> float:
    """Literal evaluation of the xi-derivative representation (mu <= 2).

    mu=1: int_0^beta a Q^4 H_4(2u, I) dtau with u = phi0_hat I + phiB_hat
    (two-variable Hermite; equals 16 H_4(u', I/4) by homogeneity).
    mu=2: the xi_1 fourth derivative at xi_1 = 1 of H_8(2u(xi), w(xi)) with
    u = phi0_hat(I1 + (xi-1) I2) + xi phiB_hat and w = I1 + (xi^2 - 1) I2,
    by Taylor's formula in H's two arguments about (2u(1), I1), then the
    ordered 2-D simplex quadrature.
    """
    if mu not in (1, 2):
        raise ValueError(f"w_mu_direct supports mu in {{1, 2}}, got {mu}")
    require_kernel(solution)
    grid = solution.grid
    a = np.asarray(model.a(grid), dtype=float)
    w4 = a * solution.Q**4
    I = solution.I_of_tau[1:]
    x = 2.0 * (boundary.phi0_hat * I + boundary.phiB_hat)  # 2u at xi = 1
    H = [hermite2(n, x, I) for n in range(5)]

    if mu == 1:
        y = np.empty_like(grid)
        y[1:] = w4[1:] * H[4]
        y[0] = extrapolate_node0(grid, y)
        return float(_cumulative_from_right(grid, y)[0])

    # mu = 2: row i - 1 holds the inner integrand of the outer node tau_i
    # (I1 = I(tau_i)), with the inner variable (I2) along the grid axis; the
    # xi-increment of 2u is 2u(tau) delta with u read at the inner node.
    inner = np.empty((grid.size - 1, grid.size))
    inner[:, 1:] = w4[1:] * _xi_kernel(H, x, I)
    inner[:, 0] = extrapolate_node0(grid, inner.T)
    # The inner integral of row i - 1 runs from tau_i to beta.
    outer = np.empty_like(grid)
    outer[1:] = w4[1:] * np.diagonal(_cumulative_from_right(grid, inner), offset=1)
    outer[0] = extrapolate_node0(grid, outer)
    return float(_cumulative_from_right(grid, outer)[0])


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def propagator(
    model: CoefficientModel,
    phi0: float,
    phiB: float,
    mu_max: int = 3,
    grid_n: int = 512,
) -> PropagatorBreakdown:
    """Truncated propagator: harmonic factor times the correction series."""
    if not 0 <= mu_max <= MU_CAP:
        raise ValueError(f"mu_max must lie in [0, {MU_CAP}], got {mu_max}")
    solution = solve_Q(model, grid_n)
    boundary = make_boundary(solution, phi0, phiB)
    _, exponent, harm_over_sqrt_f = harmonic_propagator(solution, boundary)
    harmonic_value = math.exp(exponent)
    f_beta = float(solution.f[-1])

    terms = []
    coeffs = []
    for mu in range(mu_max + 1):
        coeffs.append(series_coefficient(mu))
        terms.append(w_mu(solution, model, boundary, mu))
    series = sum(c * w for c, w in zip(coeffs, terms))
    total = harm_over_sqrt_f * series
    truncation = abs(harm_over_sqrt_f * coeffs[-1] * terms[-1]) if mu_max >= 1 else 0.0
    return PropagatorBreakdown(
        harmonic_value=harmonic_value,
        f_beta=f_beta,
        W_mu_terms=tuple(terms),
        series_coefficients=tuple(coeffs),
        total=total,
        truncation_estimate=truncation,
        solution=solution,
        boundary=boundary,
    )


def p1_series(
    solution: OscillatorSolution,
    model: CoefficientModel,
    boundary: BoundaryData,
    mu_max: int,
    return_partials: bool = False,
):
    """P1 = sum_mu Z_{mu,mu-1} I_{kappa...}, Z = A_{k1}...A_{k_{mu-1}} h_{k_mu}.

    A_k drops the n=0 term of the full operator O_k.  Returns the mu_max
    truncation; with return_partials=True also the list of partial sums.
    """
    if not 1 <= mu_max <= MU_CAP:
        raise ValueError(f"mu_max must lie in [1, {MU_CAP}], got {mu_max}")
    partials = list(accumulate(_order_terms(solution, model, boundary, mu_max, n_min=1)))
    total = partials[-1]
    if return_partials:
        return total, partials
    return total
