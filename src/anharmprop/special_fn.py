"""Special functions: parabolic cylinder functions of half-integer order,
Hermite polynomial families (ordinary, two-variable, incomplete, multi-index),
the A-coefficients and their summation identities.

The parabolic cylinder function D_nu(z) is only needed for nu = -m - 1/2 with
m a non-negative integer.  It is computed from the integral representation

    D_{-m-1/2}(z) = e^{-z^2/4} / Gamma(m+1/2) * int_0^inf x^{m-1/2}
                    exp(-x^2/2 - z x) dx

by tanh-sinh (double-exponential) quadrature on the mapped half-line, with all
accumulation done in log-space so neither e^{-z^2/4} nor the integral itself
can underflow for the supported (m, z) range.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations, product
from typing import Mapping, Sequence

import numpy as np
from numpy.polynomial.polynomial import polyval2d
from scipy.special import gammaln, hyp2f1, logsumexp

__all__ = [
    "HermiteIncompleteSpec",
    "pcf_D",
    "pcf_scaled",
    "pcf_poincare",
    "pcf_taylor_shift",
    "pcf_taylor_shift_scaled",
    "hermite",
    "hermite2",
    "incomplete_hermite",
    "multiindex_hermite",
    "a_coeff",
    "a_sum",
    "pochhammer",
]


@dataclass(frozen=True)
class HermiteIncompleteSpec:
    """Parameters (n, kappa, gamma) of the incomplete Hermite polynomial."""

    n: int
    kappa: int
    gamma: float

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"n must be non-negative, got {self.n}")
        if not 0 <= self.kappa <= self.n:
            raise ValueError(f"kappa must lie in [0, {self.n}], got {self.kappa}")


def pochhammer(x: float, k: int) -> float:
    """Rising factorial (x)_k = x (x+1) ... (x+k-1)."""
    out = 1.0
    for i in range(k):
        out *= x + i
    return out


# ---------------------------------------------------------------------------
# Parabolic cylinder functions
# ---------------------------------------------------------------------------

# tanh-sinh nodes for int_0^inf, x = exp((pi/2) sinh t), refined by halving h
# until two consecutive levels agree.  One read-only table holds the finest
# level, h = 1/1024; level L = 0..5 (h = 2^-(5+L)) is every 2^(5-L)-th node.
def _ts_table(h: float) -> np.ndarray:
    # Asymmetric range: for m=0 the x^{m+1/2} factor decays slowly toward
    # x -> 0 (t -> -inf), so the lower cut must sit much deeper.
    t = np.arange(-6.5, 4.5 + 0.5 * h, h)
    lx = 0.5 * math.pi * np.sinh(t)  # log x at the nodes
    table = np.stack([lx, lx + np.log(0.5 * math.pi * np.cosh(t))])  # log(x * dx/dt)
    table.flags.writeable = False
    return table


_TS_H = 1.0 / 1024
_TS_NODES = _ts_table(_TS_H)


def _log_half_line_integral(m: int, z: float) -> float:
    """log of int_0^inf x^{m-1/2} exp(-x^2/2 - z x) dx, tanh-sinh in log-space."""
    prev = None
    for level in range(6):
        stride = 2 ** (5 - level)
        lx, lw = _TS_NODES[:, ::stride]
        h = _TS_H * stride
        expo = (m - 0.5) * lx - 0.5 * np.exp(np.minimum(2.0 * lx, 700.0)) \
            - z * np.exp(np.minimum(lx, 350.0)) + lw
        cur = logsumexp(expo) + math.log(h)
        if not math.isfinite(cur):
            raise ArithmeticError(f"tanh-sinh quadrature failed for m={m}, z={z}")
        # The h vs 2h comparison bounds the *coarser* level's error; a passing
        # fine level is far below 1e-12 (double-exponential convergence).
        if prev is not None and abs(cur - prev) <= 1e-10 * max(1.0, abs(cur)):
            return float(cur)
        prev = cur
    raise ArithmeticError(
        f"tanh-sinh quadrature did not converge for m={m}, z={z}"
    )


def _order_to_m(nu: float) -> int:
    """Map nu = -m-1/2 to the integer m, validating the supported form."""
    m = -nu - 0.5
    m_int = round(m)
    if abs(m - m_int) > 1e-9 or m_int < 0:
        raise ValueError(
            f"unsupported order nu={nu}: need nu = -m-1/2 with integer m >= 0"
        )
    return int(m_int)


def log_equarter_D(m: int, z: float) -> float:
    """log( e^{z^2/4} D_{-m-1/2}(z) ), stable for all supported arguments."""
    return _log_half_line_integral(m, z) - float(gammaln(m + 0.5))


def pcf_D(nu: float, z: float) -> float:
    """Parabolic cylinder function D_nu(z) for nu = -m-1/2, m >= 0 integer.

    z may be any real (the integral representation converges for z < 0 too);
    the library only needs z >= 0 but the series for the quartic integral
    uses z < 0 in the double-well case.
    """
    m = _order_to_m(nu)
    return math.exp(-0.25 * z * z + log_equarter_D(m, z))


def pcf_scaled(nu: float, z: float) -> float:
    """Scaled function scriptD_nu(z) = z^{-nu} e^{z^2/4} D_nu(z), z > 0.

    With nu = -m-1/2 this is z^{m+1/2} e^{z^2/4} D_{-m-1/2}(z); it tends to 1
    as z -> inf.  Computed entirely in log-space (no overflow for any z that
    fits in a double).
    """
    m = _order_to_m(nu)
    if z <= 0.0:
        raise ValueError(f"pcf_scaled requires z > 0, got {z}")
    ln = (m + 0.5) * math.log(z) + log_equarter_D(m, z)
    if ln > 700.0:
        raise OverflowError(f"pcf_scaled overflow for nu={nu}, z={z}")
    return math.exp(ln)


def pcf_poincare(nu: float, z: float, J: int) -> tuple[float, float]:
    """Truncated Poincare expansion of scriptD_nu(z) with a certified bound.

    Returns (value, remainder_bound) where
        value = sum_{j=0}^{J} (-1)^j (m+1/2)_{2j} / (j! (2 z^2)^j),
    m = -nu - 1/2, and the bound is the Olver/Temme estimate built from the
    first omitted term and two Gauss hypergeometric factors.  Valid in the
    regime z^2 >> m; a hard domain check enforces z^2 > 2m.
    """
    m = _order_to_m(nu)
    if J < 0:
        raise ValueError(f"J must be non-negative, got {J}")
    if z * z <= 2.0 * m:
        raise ValueError(f"outside validity regime: need z^2 > 2m = {2 * m}")

    value = 0.0
    term = 1.0  # (-1)^j (m+1/2)_{2j} / (j! (2 z^2)^j)
    for j in range(J + 1):
        value += term
        term *= -(m + 0.5 + 2 * j) * (m + 1.5 + 2 * j) / ((j + 1) * 2.0 * z * z)

    # First omitted term magnitude (j = J+1 relative to the sum above is the
    # bound's T_J with J terms *kept* meaning indices 0..J; the omitted index
    # is J+1, and the bound formula is stated for the truncation after J kept
    # correction terms, i.e. uses (m+1/2)_{2J} at the truncation order J).
    Jb = J + 1  # order of the first omitted term
    t_j = pochhammer(m + 0.5, 2 * Jb) / (math.factorial(Jb) * (2.0 * z * z) ** Jb)
    w = 1.0 - 4.0 * Jb * Jb / z**4
    if w <= -1.0:
        warnings.warn(
            f"2F1 argument {w:.3g} outside (-1, 1]; principal-branch value used",
            RuntimeWarning,
        )
    ratio = 2.0 * z * z / (z * z + 2.0 * m)
    f1 = float(hyp2f1(0.5 * Jb, 0.5, 0.5 * Jb + 1.0, w))
    f2 = float(hyp2f1(0.5, 0.5, 1.5, w))
    bound = ratio * t_j * abs(f1) * math.exp(ratio * (2.0 / (z * z)) * abs(f2))
    return value, bound


_SUM_CAP = 400  # terms an adaptive sum may take before it counts as not converged


def adaptive_sum(term, tol: float, cap: int | None, what: str) -> float:
    """sum_k term(k), stopped once three consecutive terms each satisfy
    |term| <= tol |partial sum| (the Cauchy stop).

    With `cap` the sum is a truncation: it also ends after `cap` terms.
    Without it, a sum that has not stopped within _SUM_CAP terms raises
    ArithmeticError.
    """
    total = 0.0
    small = 0
    for k in range(_SUM_CAP if cap is None else cap):
        inc = term(k)
        total += inc
        if abs(inc) <= tol * max(1e-300, abs(total)):
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    if cap is not None:
        return total
    raise ArithmeticError(f"{what}: Cauchy criterion not met within {_SUM_CAP} terms")


def pcf_taylor_shift(
    nu: float, x: float, t: float, terms: int | None = None, tol: float = 1e-12
) -> float:
    """Truncated Taylor-shift series e^{x^2/4} sum_k (nu)_k/k! t^k D_{-nu-k}(x).

    Converges to e^{(x-t)^2/4} D_{-nu}(x-t).  nu must be of the form m + 1/2
    so every shifted order stays in the supported half-integer family.
    """
    m0 = _order_to_m(-nu)  # validates nu = m0 + 1/2

    def term(k: int) -> float:
        return pochhammer(nu, k) / math.factorial(k) * math.exp(
            log_equarter_D(m0 + k, x)
        ) * t**k

    return adaptive_sum(term, tol, terms, "pcf_taylor_shift")


def pcf_taylor_shift_scaled(
    nu: float, z: float, t: float, terms: int | None = None, tol: float = 1e-12
) -> float:
    """Scaled-function form: sum_k (nu)_k/k! t^k scriptD_{-nu-k}(z).

    Converges to (1-t)^{-nu} scriptD_{-nu}(z (1-t)) for |t| < 1.
    """
    _order_to_m(-nu)
    if abs(t) >= 1.0:
        raise ValueError(f"Taylor-shift scaled form needs |t| < 1, got {t}")

    def term(k: int) -> float:
        return pochhammer(nu, k) / math.factorial(k) * pcf_scaled(-nu - k, z) * t**k

    return adaptive_sum(term, tol, terms, "pcf_taylor_shift_scaled")


# ---------------------------------------------------------------------------
# Hermite families
# ---------------------------------------------------------------------------


def hermite(n: int, x: float) -> float:
    """Ordinary (physicists') Hermite polynomial H_n(x) = H_n(2x, -1)."""
    return hermite2(n, 2.0 * x, -1.0)


def hermite2(n: int, x, y):
    """Two-variable Hermite polynomial H_n(x, y) = n! sum x^{n-2k} y^k / ((n-2k)! k!).

    Generating function: sum_n z^n/n! H_n(x,y) = exp(x z + y z^2).  Computed by
    the recurrence H_{k+1} = x H_k + 2k y H_{k-1} from H_0 = 1, H_1 = x, so it
    accepts any arguments supporting + and * (floats, arrays, mpf, Fractions);
    its constants are integers, which keeps Fraction arguments exact.
    """
    if not 0 <= n <= 64:
        raise ValueError(f"n must lie in [0, 64], got {n}")
    h_prev, h = 1, x
    if n == 0:
        return h_prev
    for k in range(1, n):
        h_prev, h = h, x * h + 2 * k * y * h_prev
    return h


def _incomplete_hermite_table(n: int, kappa: int, gamma: float) -> np.ndarray:
    """Coefficients C[p, q] of phi_beta^p phi_0^q in scriptH_{n-kappa,kappa}(. | gamma),
    an (n+1) x (n+1) table."""
    C = np.zeros((n + 1, n + 1))
    for k in range(min(n - kappa, kappa) + 1):
        C[n - kappa - k, kappa - k] = gamma**k / (
            math.factorial(n - kappa - k) * math.factorial(k) * math.factorial(kappa - k)
        )
    return C


def incomplete_hermite(spec: HermiteIncompleteSpec, phi_beta: float, phi_0: float) -> float:
    """Modified incomplete Hermite polynomial scriptH_{n-kappa,kappa}(phi_beta, phi_0 | gamma).

    scriptH = sum_{k=0}^{min(n-kappa, kappa)} phi_beta^{n-kappa-k} phi_0^{kappa-k}
              gamma^k / ((n-kappa-k)! k! (kappa-k)!).
    """
    C = _incomplete_hermite_table(spec.n, spec.kappa, spec.gamma)
    return float(polyval2d(phi_beta, phi_0, C))


def multiindex_hermite(
    n: int,
    xs: Sequence[float],
    ms: Sequence[float],
    taus: Mapping[tuple[int, int], float] | None = None,
) -> float:
    """Multi-index Hermite polynomial H_{n,...,n}(x_i, m_i | tau_{jk}) for mu <= 4 slots.

    Defined by the generating function
        exp( sum_i (x_i u_i + m_i u_i^2) + sum_{j<k} tau_{jk} u_j u_k )
    as the coefficient of prod u_i^n/n!.  Explicit combinatorial sum:
        (prod n!) sum_{s_{jk}} prod tau_{jk}^{s_{jk}}/s_{jk}!
                  prod_i H_{n-r_i}(x_i, m_i)/(n-r_i)!,   r_i = sum_{k != i} s_{ik}.
    """
    mu = len(xs)
    if mu != len(ms):
        raise ValueError("xs and ms must have equal length")
    if not 1 <= mu <= 4:
        raise ValueError(f"number of index slots must be 1..4, got {mu}")
    if not 0 <= n <= 8:
        raise ValueError(f"n must lie in [0, 8], got {n}")
    taus = dict(taus or {})
    for (j, k) in taus:
        if not (0 <= j < k < mu):
            raise ValueError(f"bad coupling index pair {(j, k)}")

    pairs = list(combinations(range(mu), 2))
    tau_vals = [taus.get(p, 0.0) for p in pairs]
    # Cache the single-slot values H_r(x_i, m_i)/r!.
    h_over_fact = [
        [hermite2(r, xs[i], ms[i]) / math.factorial(r) for r in range(n + 1)]
        for i in range(mu)
    ]
    active = [i for i, t in enumerate(tau_vals) if t != 0.0]
    total = 0.0
    for s_active in product(range(n + 1), repeat=len(active)):
        s = [0] * len(pairs)
        for idx, val in zip(active, s_active):
            s[idx] = val
        r = [0] * mu
        for (j, k), sv in zip(pairs, s):
            r[j] += sv
            r[k] += sv
        if any(ri > n for ri in r):
            continue
        contrib = 1.0
        for idx in active:
            contrib *= tau_vals[idx] ** s[idx] / math.factorial(s[idx])
        for i in range(mu):
            contrib *= h_over_fact[i][n - r[i]]
        total += contrib
    return total * math.factorial(n) ** mu


# ---------------------------------------------------------------------------
# A-coefficients
# ---------------------------------------------------------------------------


def a_coeff(j: int, k: int) -> int:
    """Exact coefficient A_j^k = 2^{2j-k} C(k,j) j!/(2j-k)!; 0 outside support.

    Support: 0 <= j <= k and 2j >= k.  Always an integer on support.
    """
    if j < 0 or k < 0 or j > k or 2 * j < k:
        return 0
    return 2 ** (2 * j - k) * math.comb(k, j) * math.factorial(j) // math.factorial(2 * j - k)


def a_sum(n: int, d: float) -> float:
    """sum_i A_i^n d^i over the coefficient support (real arithmetic).

    Equals (-sqrt(-d))^n H_n(sqrt(-d)), which is real for d > 0; the sum form
    never touches complex intermediates.
    """
    if not 0 <= n <= 32:
        raise ValueError(f"n must lie in [0, 32], got {n}")
    total = 0.0
    for i in range((n + 1) // 2, n + 1):
        total += a_coeff(i, n) * d**i
    return total
