"""Ground-truth evaluation of the time-sliced propagator W_N.

The defining object is the (N-1)-dimensional integral

    W_N = (2 pi D / c_0)^{-1/2} int prod_{i=1}^{N-1} (2 pi D / c_i)^{-1/2}
          dphi_i  exp(-E_N),
    E_N = sum_{i=1}^N D [ c_i/2 ((phi_i - phi_{i-1})/D)^2
                          + b_i phi_i^2 + a_i phi_i^4 ],    D = beta / N,

with fixed endpoints phi_0 and phi_N and coefficients sampled at tau_i = i D.
Three independent evaluations are provided: deterministic transfer-matrix
quadrature, Gaussian-bridge importance-sampled Monte Carlo, and (for N <= 3)
the exact parabolic-cylinder multi-sum.  continuum_extrapolate pushes a
sequence of W_N values toward N -> infinity.
"""
from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.special import poch

from .oscillator_ode import BoundaryData, CoefficientModel, _require_finite_endpoints
from .special_fn import pcf_scaled

__all__ = [
    "SlicedModel",
    "sliced_model",
    "wn_quadrature",
    "wn_montecarlo",
    "wn_series_exact",
    "continuum_extrapolate",
]

log = logging.getLogger(__name__)

_MC_CHUNK = 1 << 16  # fixed chunk size so results do not depend on `workers`
_MC_BLOCK = 4096  # bridge rows solved at a time: a slice of them stays in L2


def _endpoints(boundary) -> tuple[float, float]:
    if isinstance(boundary, BoundaryData):
        return boundary.phi0, boundary.phiB
    phi0, phiN = boundary
    return float(phi0), float(phiN)


# ---------------------------------------------------------------------------
# Sliced model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlicedModel:
    """Per-slice coefficient samples and the derived discrete symbols.

    Arrays are indexed by the slice point i (tau_i = i*delta), padded with
    leading entries so that `a[i]` is a(tau_i); entries outside each symbol's
    defined range are zero.  sigma, z, psi live on i = 1..N-1; Sigma on
    i = 1..N-2; Omega on i = 0..N-2; Q on i = 0..N-1 (difference equation);
    d on i = 0..N-2; D[i] is the suffix sum d_i + ... + d_{N-2}; X and Y are
    the endpoint-dependent globals (Y = D[0]).  z[i] is +inf where a_i = 0.
    """

    N: int
    delta: float
    phi0: float
    phiN: float
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    sigma: np.ndarray
    Sigma: np.ndarray
    z: np.ndarray
    psi: np.ndarray
    Omega: np.ndarray
    Q: np.ndarray
    d: np.ndarray
    D: np.ndarray
    X: float
    Y: float


def sliced_model(model: CoefficientModel, N: int, phi0: float, phiN: float) -> SlicedModel:
    """Sample the continuum model on the N-slice grid and build the symbols.

    Raises ValueError, naming i and tau_i, where a_i < 0 for some i = 1..N.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    _require_finite_endpoints(phi0=phi0, phiN=phiN)
    delta = model.beta / N
    tau = delta * np.arange(N + 1)
    a = np.asarray(model.a(tau), dtype=float)
    b = np.asarray(model.b(tau), dtype=float)
    c = np.asarray(model.c(tau), dtype=float)
    # CoefficientModel probes a on a fixed lattice only; the weight
    # exp(-delta a_i phi_i^4) of every oracle needs a_i >= 0 on this one.
    negative = np.flatnonzero(a[1:] < 0.0)
    if negative.size:
        i = int(negative[0]) + 1
        raise ValueError(
            f"the sliced quartic weight needs a_i >= 0, got a_{i} = {float(a[i])!r} "
            f"at tau_{i} = {float(tau[i])!r}"
        )

    sigma = np.zeros(N + 1)
    z = np.zeros(N + 1)
    psi = np.zeros(N + 1)
    for i in range(1, N):
        denom = (c[i] + c[i + 1]) / (2.0 * delta) + b[i] * delta
        if denom <= 0.0:
            raise ArithmeticError(
                f"sigma_{i} not positive (slice too coarse for b_{i}={b[i]})"
            )
        sigma[i] = 1.0 / denom
        z[i] = denom / math.sqrt(2.0 * a[i] * delta) if a[i] > 0.0 else math.inf
        psi[i] = c[i + 1] / (c[i + 1] + c[i] + 2.0 * b[i] * delta**2)

    Sigma = np.zeros(N + 1)
    for i in range(1, N - 1):
        Sigma[i] = (c[i + 1] / (2.0 * delta)) ** 2 * sigma[i] * sigma[i + 1]

    Omega = np.zeros(N + 1)
    Omega[0] = 1.0
    for i in range(1, N - 1):
        Omega[i] = 1.0 - Sigma[i] / Omega[i - 1]

    # Q_0 = delta, Omega_0 = psi_1 Q_1 / Q_0 = 1, then
    # c_{i+2} Q_{i+1} = (c_{i+2} + c_{i+1} + 2 b_{i+1} delta^2) Q_i
    #                   - c_{i+1} Q_{i-1}.
    Q = np.zeros(N)
    Q[0] = delta
    if N >= 2:
        Q[1] = Q[0] / psi[1]
    for i in range(1, N - 1):
        Q[i + 1] = (
            (c[i + 2] + c[i + 1] + 2.0 * b[i + 1] * delta**2) * Q[i]
            - c[i + 1] * Q[i - 1]
        ) / c[i + 2]

    d = np.zeros(max(N - 1, 0))
    if N >= 2:
        head = Q[0] * Q[1] / (2.0 * delta**2) * (c[1] * c[2] / 2.0) * phi0**2 * delta
        for i in range(N - 1):
            d[i] = head / (c[i + 2] * Q[i + 1] * Q[i])
    D = np.zeros(max(N - 1, 0))
    if N >= 2:
        D = np.cumsum(d[::-1])[::-1].copy()
    Y = float(D[0]) if N >= 2 else 0.0
    X = (
        math.sqrt(Q[0] * Q[1] / (2.0 * delta**2) * c[1] * c[2]) * phi0 * phiN / Q[N - 1]
        if N >= 2
        else 0.0
    )
    return SlicedModel(
        N=N, delta=delta, phi0=phi0, phiN=phiN, a=a, b=b, c=c,
        sigma=sigma, Sigma=Sigma, z=z, psi=psi, Omega=Omega, Q=Q,
        d=d, D=D, X=X, Y=Y,
    )


# ---------------------------------------------------------------------------
# Transfer-matrix quadrature
# ---------------------------------------------------------------------------


def _slice_factor(sm: SlicedModel, i: int, x, y):
    """exp(-delta [ c_i (y-x)^2/(2 delta^2) + b_i y^2 + a_i y^4 ])."""
    d = sm.delta
    return np.exp(
        -(sm.c[i] * (y - x) ** 2 / (2.0 * d) + d * (sm.b[i] * y**2 + sm.a[i] * y**4))
    )


def _read_only_leggauss(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    xg, wg = leggauss(n_nodes)
    xg.setflags(write=False)
    wg.setflags(write=False)
    return xg, wg


_NODE_COUNTS = (120, 240, 480, 960)
# Gauss-Legendre nodes and weights on [-1, 1] for the first two node counts,
# where the schedule normally stops; built once and shared by every call.
_LEGGAUSS_TABLES = tuple(_read_only_leggauss(n) for n in _NODE_COUNTS[:2])


def _nodes(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    for xg, wg in _LEGGAUSS_TABLES:
        if xg.size == n_nodes:
            return xg, wg
    return leggauss(n_nodes)


def _wn_transfer(sm: SlicedModel, n_nodes: int, radius: float) -> float:
    """W_N, N >= 2, on Gauss-Legendre nodes over [-radius, radius]."""
    N, d = sm.N, sm.delta
    xg, wg = _nodes(n_nodes)
    xg = xg * radius
    wg = wg * radius
    F = _slice_factor(sm, 1, sm.phi0, xg)
    for i in range(2, N):
        meas = (2.0 * math.pi * d / sm.c[i - 1]) ** -0.5
        F = meas * (_slice_factor(sm, i, xg[:, None], xg[None, :]).T @ (wg * F))
    meas = (2.0 * math.pi * d / sm.c[N - 1]) ** -0.5
    last = float(np.sum(wg * F * _slice_factor(sm, N, xg, sm.phiN)))
    return (2.0 * math.pi * d / sm.c[0]) ** -0.5 * meas * last


def _transfer_converged(sm: SlicedModel, rtol: float = 1e-12) -> float:
    c_min = float(np.min(sm.c[1:]))
    base_r = max(abs(sm.phi0), abs(sm.phiN)) + 8.0 * math.sqrt(sm.delta * sm.N / c_min)
    prev = None
    for radius in (base_r, 1.4 * base_r):
        for n_nodes in _NODE_COUNTS:
            val = _wn_transfer(sm, n_nodes, radius)
            if prev is not None and abs(val - prev) <= rtol * max(abs(val), 1e-300):
                log.info(
                    "wn_quadrature: N=%d converged at %d nodes, radius %.6g, "
                    "relative change %.3e",
                    sm.N, n_nodes, radius, abs(val - prev) / max(abs(val), 1e-300),
                )
                return val
            prev = val
    raise ArithmeticError(
        f"wn_quadrature failed to converge to rtol={rtol} (last value {prev})"
    )


def wn_quadrature(model: CoefficientModel, boundary, N: int) -> float:
    """Deterministic evaluation of W_N; N = 1 is the closed form, N <= 5."""
    if not 1 <= N <= 5:
        raise ValueError(f"wn_quadrature supports 1 <= N <= 5, got {N}")
    phi0, phiN = _endpoints(boundary)
    sm = sliced_model(model, N, phi0, phiN)
    if N == 1:  # no interior point: W_1 is the bare slice factor
        meas = (2.0 * math.pi * sm.delta / sm.c[0]) ** -0.5
        return meas * float(_slice_factor(sm, 1, phi0, phiN))
    return _transfer_converged(sm)


# ---------------------------------------------------------------------------
# Gaussian-bridge Monte Carlo
# ---------------------------------------------------------------------------


def _bridge_setup(sm: SlicedModel):
    """Banded precision matrix, source vector and Gaussian normalization."""
    N, d = sm.N, sm.delta
    n = N - 1
    diag = np.array([(sm.c[i] + sm.c[i + 1]) / d + 2.0 * sm.b[i] * d for i in range(1, N)])
    off = np.array([-sm.c[i + 1] / d for i in range(1, N - 1)])
    ab = np.zeros((2, n))
    ab[0, 1:] = off
    ab[1, :] = diag
    try:
        chol = cholesky_banded(ab, lower=False)
    except Exception as exc:
        raise ArithmeticError(
            f"degenerate Gaussian bridge covariance at N={N}: {exc}"
        ) from exc
    s = np.zeros(n)
    s[0] += sm.c[1] * sm.phi0 / d
    s[-1] += sm.c[N] * sm.phiN / d
    const = (
        sm.c[1] * sm.phi0**2 / (2.0 * d)
        + sm.c[N] * sm.phiN**2 / (2.0 * d)
        + sm.b[N] * d * sm.phiN**2
        + sm.a[N] * d * sm.phiN**4
    )
    # P = L L^T; mean = P^{-1} s; Z = C_m (2 pi)^{n/2} det(P)^{-1/2}
    #                                 * exp(s^T P^{-1} s / 2 - const)
    mean = cho_solve_banded((chol, False), s)
    log_det = 2.0 * float(np.sum(np.log(chol[1, :])))
    log_cm = -0.5 * sum(
        math.log(2.0 * math.pi * d / sm.c[i]) for i in range(N)
    )
    log_z = (
        log_cm
        + 0.5 * n * math.log(2.0 * math.pi)
        - 0.5 * log_det
        + 0.5 * float(s @ mean)
        - const
    )
    # Shared by every worker thread: an in-place write must raise, not race.
    chol.setflags(write=False)
    mean.setflags(write=False)
    return chol, mean, log_z


def _mc_chunk(bridges, seq, count: int):
    """Sum and sum-of-squares of the quartic reweighting over one chunk, for
    each (sliced model, Cholesky factor, mean) in `bridges`.

    Every N reads the chunk's one stream of normals from its start, in rows
    of its own n = N - 1, so each N sees exactly the rows that it alone would
    draw.  The stream is drawn once, _MC_BLOCK * n_max normals at a time, into
    one buffer that keeps the last n_max - 1 normals of the piece before it:
    a row that straddles two pieces is still read whole.
    """
    rng = np.random.Generator(np.random.Philox(seq))
    n_max = max(mean.size for _, _, mean in bridges)
    keep = n_max - 1
    buf = np.empty(keep + _MC_BLOCK * n_max)
    logws = [np.zeros(count) for _ in bridges]
    tmp = np.empty(min(_MC_BLOCK, count))
    drawn = 0  # buf[keep] is normal number `drawn` of the stream
    while drawn < n_max * count:
        piece = min(_MC_BLOCK * n_max, n_max * count - drawn)
        rng.standard_normal(out=buf[keep : keep + piece])
        for (sm, (u, diag), mean), logw in zip(bridges, logws):
            n = mean.size
            a = sm.a[1 : sm.N]
            # Rows whose normals all lie in the buffer and were not weighed
            # with the piece before.
            first, end = min(count, drawn // n), min(count, (drawn + piece) // n)
            # Block after block of at most _MC_BLOCK rows.  P = U^T U with U
            # upper bidiagonal (diag, u), so a path is mean + x with U x = xi,
            # solved from the last slice up; a_j (phi_j^2)^2 joins the
            # log-weight as soon as slice j is solved.  (phi^2)^2 rather than
            # phi**4: numpy evaluates the power with libm pow, which is slow
            # for negative bases.
            for start in range(first, end, _MC_BLOCK):
                rows = min(_MC_BLOCK, end - start)
                at = keep + start * n - drawn
                # A copy even for n = 1, where the transpose is contiguous
                # already: the solve below writes into x in place.
                x = buf[at : at + rows * n].reshape(rows, n).T.copy()
                acc, t = logw[start : start + rows], tmp[:rows]
                for j in range(n - 1, -1, -1):
                    if j < n - 1:
                        x[j] -= np.multiply(x[j + 1], u[j + 1], out=t)
                    x[j] /= diag[j]
                    np.square(np.add(x[j], mean[j], out=t), out=t)
                    np.square(t, out=t)
                    t *= a[j]
                    acc += t
        buf[:keep] = buf[piece : piece + keep]
        drawn += piece
    sums = []
    for (sm, _, _), logw in zip(bridges, logws):
        logw *= -sm.delta
        w = np.exp(logw, out=logw)
        sums.append((float(np.sum(w)), float(np.sum(w * w))))
    return sums


def wn_montecarlo(
    model: CoefficientModel,
    boundary,
    N: int | Sequence[int],
    samples: int,
    seed: int,
    workers: int = 1,
) -> tuple[float, float] | tuple[tuple[float, float], ...]:
    """Importance-sampled W_N estimate; returns (mean, stderr).

    The harmonic bridge (kinetic + quadratic terms, fixed endpoints) is
    sampled exactly via the banded Cholesky factor of the tridiagonal
    precision matrix and reweighted by exp(-sum a_i D phi_i^4).  Streams are
    Philox counter chunks spawned from SeedSequence(seed), accumulated in a
    fixed order, so the result depends only on (inputs, seed) — never on
    `workers`.

    `N` may also be a sequence of slice counts; the result is then a tuple
    of (mean, stderr) pairs in the same order, each bit-identical to its own
    call with that N.  Every N reads the same per-chunk streams, so they are
    drawn once for all of them, and the N's estimates share their normals
    exactly as separate calls would.
    """
    single = np.ndim(N) == 0
    ns = [N] if single else list(N)
    if not ns:
        raise ValueError("wn_montecarlo needs at least one N, got an empty sequence")
    for n in ns:
        if n < 2 or n > 512:
            where = "" if single else f" in {ns}"
            raise ValueError(f"wn_montecarlo supports 2 <= N <= 512, got {n}{where}")
    if samples < 10_000:
        raise ValueError(f"samples must be >= 10000, got {samples}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    phi0, phiN = _endpoints(boundary)
    bridges, z_gauss = [], []
    for n in ns:
        sm = sliced_model(model, n, phi0, phiN)
        chol, mean, log_z = _bridge_setup(sm)
        bridges.append((sm, chol, mean))
        z_gauss.append(math.exp(log_z))

    n_chunks = (samples + _MC_CHUNK - 1) // _MC_CHUNK
    counts = [min(_MC_CHUNK, samples - k * _MC_CHUNK) for k in range(n_chunks)]
    seqs = np.random.SeedSequence(seed).spawn(n_chunks)

    def run(k: int):
        return _mc_chunk(bridges, seqs[k], counts[k])

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, range(n_chunks)))
    else:
        parts = [run(k) for k in range(n_chunks)]
    results = []
    for z, chunk_sums in zip(z_gauss, zip(*parts)):
        sum_w = 0.0
        sum_w2 = 0.0
        for sw, sw2 in chunk_sums:  # fixed reduction order
            sum_w += sw
            sum_w2 += sw2
        mean_w = sum_w / samples
        var_w = max(sum_w2 / samples - mean_w**2, 0.0)
        stderr = math.sqrt(var_w / samples)
        results.append((z * mean_w, z * stderr))
    return results[0] if single else tuple(results)


# ---------------------------------------------------------------------------
# Exact multi-sum (N <= 3)
# ---------------------------------------------------------------------------


def _series_prefactor(sm: SlicedModel) -> float:
    N, d = sm.N, sm.delta
    val = (2.0 * math.pi * d / sm.c[0]) ** -0.5
    for i in range(1, N):
        val /= math.sqrt((sm.c[i] + sm.c[i + 1]) / sm.c[i] + 2.0 * sm.b[i] * d**2 / sm.c[i])
    val *= math.exp(
        -sm.a[N] * d * sm.phiN**4
        - (sm.c[N] / (2.0 * d) + sm.b[N] * d) * sm.phiN**2
        - sm.c[1] * sm.phi0**2 / (2.0 * d)
    )
    return val


def _series_sum(sm: SlicedModel, cap: int) -> float:
    """The rho/n_i multi-sum for N in {2, 3} with all caps equal to `cap`."""
    N, d = sm.N, sm.delta
    if N not in (2, 3):
        raise ValueError(f"wn_series_exact supports N <= 3, got {N}")
    s0 = sm.c[1] * sm.phi0 * math.sqrt(sm.sigma[1]) / d
    t_last = sm.c[N] * sm.phiN * math.sqrt(sm.sigma[N - 1]) / (2.0 * d)
    # scriptD_{-m-1/2}(z_i), m = 0..2 cap, on the interior slices i >= 1
    # (z_0 = 0 lies outside pcf_scaled's domain and is never used).
    pcf = [None] + [
        np.array([pcf_scaled(-m - 0.5, sm.z[i]) for m in range(2 * cap + 1)])
        for i in range(1, N)
    ]

    total = 0.0
    n = np.arange(cap)
    for rho in (0, 1):
        # v[n_0] = s0^(2 n_0 + rho) / (2 n_0 + rho)!.  Interior slice i maps it to
        # v[n_i] = w_i(n_i) / n_i! sum_{n_{i-1}} v[n_{i-1}] (n_i + rho + 1/2)_{n_{i-1}}
        #          scriptD_{-(n_i + rho + n_{i-1}) - 1/2}(z_i),
        # with w_i(n) = Sigma_i^(n + rho/2), or t_last^(2n + rho) on the last slice.
        v = np.array([s0 ** (2 * k + rho) / math.factorial(2 * k + rho) for k in n])
        for i in range(1, N):
            v = np.array(
                [
                    (t_last ** (2 * k + rho) if i == N - 1 else sm.Sigma[i] ** (k + rho / 2.0))
                    / math.factorial(k)
                    * float(np.sum(v * poch(k + rho + 0.5, n) * pcf[i][k + rho + n]))
                    for k in range(cap)
                ]
            )
        acc = 0.0
        for term in v:  # sequential, not np.sum's pairwise order
            acc += term
        total += acc
    return total


def wn_series_exact(
    model: CoefficientModel,
    boundary,
    N: int,
    caps: int = 28,
    tail_tol: float = 1e-8,
) -> float:
    """Exact parabolic-cylinder multi-sum for W_N, N <= 3.

    Sums the rho in {0,1}, n_i series with the per-index cap `caps`,
    doubling the cap until the relative change is below tail_tol; the final
    tail estimate is logged and a violation raises ArithmeticError.
    """
    if not 2 <= N <= 3:
        raise ValueError(f"wn_series_exact supports N in {{2, 3}}, got {N}")
    phi0, phiN = _endpoints(boundary)
    sm = sliced_model(model, N, phi0, phiN)
    if np.any(sm.a[1:N] <= 0.0):
        raise ValueError("wn_series_exact needs a_i > 0 on interior slices")
    pref = _series_prefactor(sm)
    prev = _series_sum(sm, caps)
    for cap in (int(1.5 * caps), 2 * caps, 3 * caps):
        cur = _series_sum(sm, cap)
        tail = abs(cur - prev) / max(abs(cur), 1e-300)
        if tail <= tail_tol:
            log.info("wn_series_exact: cap=%d tail estimate %.3e", cap, tail)
            return pref * cur
        prev = cur
    raise ArithmeticError(
        f"wn_series_exact tail {tail:.3e} above {tail_tol} at cap {cap}"
    )


# ---------------------------------------------------------------------------
# Continuum extrapolation
# ---------------------------------------------------------------------------


def continuum_extrapolate(values) -> tuple[float, float]:
    """Polynomial-in-1/N extrapolation of (N, W_N) pairs.

    Fits W_N = p(1/N) by least squares (degree min(3, len-1)) and returns
    (p(0), error_estimate), where the error estimate is the leave-one-out
    spread of the limit, inflated when the sequence is not monotone.
    Raises ValueError, naming the N, for an N below 1 or a repeated N (a
    repeat makes the fit rank-deficient).
    """
    pairs = sorted((int(n), float(v)) for n, v in values)
    if len(pairs) < 3:
        raise ValueError("continuum_extrapolate needs at least 3 values")
    ns = [n for n, _ in pairs]
    for n in ns:
        if n < 1 or ns.count(n) > 1:
            raise ValueError(f"continuum_extrapolate needs distinct N >= 1, got N = {n} in {ns}")
    ws = np.array([v for _, v in pairs])
    x = 1.0 / np.array(ns, dtype=float)
    deg = min(3, len(pairs) - 1)

    def fit(xs, ys, degree):
        coeffs = np.polynomial.polynomial.polyfit(xs, ys, degree)
        return float(coeffs[0])

    limit = fit(x, ws, deg)
    spreads = []
    if len(pairs) > 3:
        for k in range(len(pairs)):
            mask = np.arange(len(pairs)) != k
            spreads.append(abs(fit(x[mask], ws[mask], min(deg, len(pairs) - 2)) - limit))
    else:
        spreads.append(abs(fit(x, ws, deg - 1) - limit))
    err = max(spreads)
    diffs = np.diff(ws)
    if np.any(diffs > 0) and np.any(diffs < 0):
        log.warning("continuum_extrapolate: non-monotone W_N sequence")
        err = 2.0 * err + float(np.max(np.abs(diffs)))
    return limit, err
