"""Tests for the characteristic ODE solutions, the kernel I(tau), the
regularized boundary integral, and the harmonic propagator factor.

Closed forms used as oracles:
  - constant b, c: Q(tau) = sinh(omega tau)/omega with omega = sqrt(2b/c);
  - c = 1, b = 0: Q = tau, I(tau) = 1/tau - 1/beta, Y_reg = -1/beta;
  - constant coefficients: Y_reg = -(omega/c) coth(omega beta).
"""
import dataclasses
import hashlib
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import CubicSpline, PPoly

from anharmprop import (
    BoundaryData,
    Coefficient,
    CoefficientModel,
    const_coefficient,
    harmonic_propagator,
    kernel_I,
    make_boundary,
    mehler_reference,
    nested_integral,
    poly_coefficient,
    propagator,
    regularized_Y,
    solve_Q,
    solve_f,
    table_coefficient,
    w_mu_direct,
)
from anharmprop import oscillator_ode

CONSTANT = CoefficientModel(a=0.0, b=0.5, c=1.0, beta=1.0)
LINEAR_C = CoefficientModel(
    a=0.0, b=const_coefficient(0.4), c=poly_coefficient([1.0, 0.5]), beta=1.2
)
OSCILLATING_B = CoefficientModel(
    a=0.0,
    b=Coefficient(
        "poly",
        lambda t: 0.5 + 0.3 * np.cos(2.0 * np.asarray(t, dtype=float)),
        lambda t: -0.6 * np.sin(2.0 * np.asarray(t, dtype=float)),
        lambda t: -1.2 * np.cos(2.0 * np.asarray(t, dtype=float)),
    ),
    c=1.0,
    beta=1.5,
)
MODELS = [CONSTANT, LINEAR_C, OSCILLATING_B]


def _table(beta, values):
    return table_coefficient(np.linspace(0.0, beta, len(values)), values)


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


# Non-constant c and b make every RK4 stage time matter, so these pin the
# stage times (the points of the lattice linspace(0, beta, 4 grid_n + 1))
# bit for bit.
# Values: sha256 of the Q, Qdot, f, fdot bytes, then richardson["Q"],
# richardson["f"] and Y_reg as float.hex(), at grid_n = 512.
PINNED = {
    "poly-c": (
        CoefficientModel(a=0.05, b=0.5, c=poly_coefficient([1.0, 0.3, -0.1]), beta=1.3),
        "fa0dea24b8bc4b8576f7bb39454e9c7a22b04bb3b6f99f5734f732d891131012",
        "0x1.01100d2813a00p-45",
        "0x1.0fdda685b64d9p-46",
        "-0x1.19045573a0a3ap+0",
    ),
    "table-c": (
        CoefficientModel(
            a=0.05, b=0.6, c=_table(1.1, [1.0, 1.08, 1.12, 1.05, 0.96, 0.91, 0.95]), beta=1.1
        ),
        "945772d32a8a50ac4857462a1c294c11861cbcbef0cae5814866f0ff50a6c88a",
        "0x1.2a7eda8d4a35fp-34",
        "0x1.556399f602b17p-33",
        "-0x1.2b6a66ea23a57p+0",
    ),
    "table-b": (
        CoefficientModel(
            a=0.05, b=_table(1.4, [0.4, 0.55, 0.7, 0.62, 0.48, 0.5]), c=1.0, beta=1.4
        ),
        "76e836baa927a2c399204f569e479acef905f614f7b4e4c75158d90933f77ef7",
        "0x1.0233e24a3bbedp-43",
        "0x1.02316b2d42165p-43",
        "-0x1.2741ecd8c9d26p+0",
    ),
}


# Only + and * models: a vectorized transcendental (OSCILLATING_B's cos) may
# round differently from its scalar call on some CPUs.
STAGEWISE_MODELS = pytest.mark.parametrize(
    "model", [CONSTANT, LINEAR_C, PINNED["table-c"][0], PINNED["table-b"][0]],
    ids=["constant", "linear-c", "table-c", "table-b"],
)


def _lattice(model, grid_n):
    """The RK4 stage times of two sub-steps per grid interval, in order."""
    return np.linspace(0.0, model.beta, 4 * grid_n + 1)


def _stagewise_times(model, grid_n):
    """The RK4 stage times (t, t + h/2, t + h) of every fine sub-step in step
    order, read from the lattice, and the sub-step size h of each."""
    lattice = _lattice(model, grid_n)
    grid = np.linspace(0.0, model.beta, grid_n + 1)
    for i in range(grid_n):
        h = (grid[i + 1] - grid[i]) / 2
        for k in (4 * i, 4 * i + 2):
            yield tuple(lattice[k : k + 3]), h


def _stagewise_rk4(model, grid_n, which):
    """Reference: the RK4 map in 40-digit mpmath on two sub-steps per interval,
    with the coefficients evaluated in floats per stage."""
    c, b = model.c, model.b

    def coefficients(t):
        cc = float(c.value(t))
        l1 = float(c.d1(t)) / cc
        if which == "Q":
            return mpmath.mpf(-l1), mpmath.mpf(2.0 * float(b.value(t)) / cc)
        l2 = float(c.d2(t)) / cc - l1 * l1
        return mpmath.mpf(l1), mpmath.mpf(2.0 * float(b.value(t)) / cc + l2)

    with mpmath.workdps(40):
        y0 = mpmath.mpf(0)
        y1 = mpmath.mpf(1.0 if which == "Q" else 2.0 * math.pi / float(c.value(0.0)))
        out = [(y0, y1)]
        for k, (stages, h) in enumerate(_stagewise_times(model, grid_n)):
            (pa, qa), (pb, qb), (pc, qc) = map(coefficients, stages)
            h = mpmath.mpf(h)
            k1, m1 = y1, pa * y1 + qa * y0
            k2, m2 = y1 + h / 2 * m1, pb * (y1 + h / 2 * m1) + qb * (y0 + h / 2 * k1)
            k3, m3 = y1 + h / 2 * m2, pb * (y1 + h / 2 * m2) + qb * (y0 + h / 2 * k2)
            k4, m4 = y1 + h * m3, pc * (y1 + h * m3) + qc * (y0 + h * k3)
            y0 = y0 + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            y1 = y1 + h / 6 * (m1 + 2 * m2 + 2 * m3 + m4)
            if k % 2:
                out.append((y0, y1))
    return out


def _recording(model):
    """model with every argument of b and c's callables recorded, as an
    array, by callable name in calls."""
    calls = {}

    def recorded(name, fn):
        def call(t):
            calls.setdefault(name, []).append(np.array(t))
            return fn(t)

        return call

    def wrap(coeff, prefix):
        return Coefficient(
            coeff.kind,
            *(recorded(prefix + part, getattr(coeff, part)) for part in ("value", "d1", "d2")),
        )

    recorded_model = CoefficientModel(
        a=model.a, b=wrap(model.b, "b."), c=wrap(model.c, "c."), beta=model.beta
    )
    calls.clear()  # drop the positivity probe of the constructor
    return recorded_model, calls


def _counting(model):
    """model with every coefficient callable counted in calls[0]."""
    calls = [0]

    def counted(fn):
        def call(t):
            calls[0] += 1
            return fn(t)

        return call

    def wrap(coeff):
        return Coefficient(
            coeff.kind, counted(coeff.value), counted(coeff.d1), counted(coeff.d2)
        )

    return (
        CoefficientModel(a=wrap(model.a), b=wrap(model.b), c=wrap(model.c), beta=model.beta),
        calls,
    )


class TestCoefficients:
    def test_const(self):
        coeff = const_coefficient(2.5)
        tau = np.linspace(0.0, 1.0, 7)
        assert np.all(coeff(tau) == 2.5)
        assert np.all(coeff.d1(tau) == 0.0)
        assert np.all(coeff.d2(tau) == 0.0)

    def test_poly(self):
        coeff = poly_coefficient([1.0, -2.0, 3.0])
        tau = np.linspace(0.0, 2.0, 9)
        assert coeff(tau) == pytest.approx(1.0 - 2.0 * tau + 3.0 * tau**2)
        assert coeff.d1(tau) == pytest.approx(-2.0 + 6.0 * tau)
        assert coeff.d2(tau) == pytest.approx(np.full_like(tau, 6.0))

    def test_table_matches_sampled_function(self):
        taus = np.linspace(0.0, 1.0, 41)
        coeff = table_coefficient(taus, np.exp(-taus))
        probe = np.linspace(0.05, 0.95, 13)
        assert coeff(probe) == pytest.approx(np.exp(-probe), rel=1e-6)
        assert coeff.d1(probe) == pytest.approx(-np.exp(-probe), rel=1e-4)

    def test_table_rejects_bad_input(self):
        with pytest.raises(ValueError):
            table_coefficient([0.0, 1.0, 0.5, 2.0], [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            table_coefficient([0.0, 1.0], [1.0, 2.0])

    def test_model_validation(self):
        with pytest.raises(ValueError):
            CoefficientModel(a=0.0, b=0.0, c=1.0, beta=-1.0)
        with pytest.raises(ValueError):
            CoefficientModel(a=0.0, b=0.0, c=-1.0, beta=1.0)
        with pytest.raises(ValueError):
            CoefficientModel(a=-0.1, b=0.0, c=1.0, beta=1.0)

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_model_rejects_non_finite_beta(self, beta):
        with pytest.raises(ValueError, match="beta"):
            CoefficientModel(a=0.0, b=0.0, c=1.0, beta=beta)

    @pytest.mark.parametrize("name", ["a", "b", "c"])
    @pytest.mark.parametrize(
        "taus, span",
        [
            (np.linspace(0.2, 1.0, 21), "[0.2, 1.0]"),
            (np.linspace(0.0, 0.75, 16), "[0.0, 0.75]"),
        ],
        ids=["starts-late", "ends-early"],
    )
    def test_model_rejects_table_not_covering_beta(self, name, taus, span):
        # Unchecked, propagator returned 0.3194666705521438 for the
        # starts-late table as c, from the cubic's extrapolation to [0, 0.2).
        coefficients = {"a": 0.05, "b": 0.5, "c": 1.0}
        coefficients[name] = table_coefficient(taus, np.ones_like(taus))
        with pytest.raises(ValueError, match=rf"table coefficient {name} spans \{span}"):
            CoefficientModel(**coefficients, beta=1.0)

    def test_model_checks_a_table_with_wrapped_callables(self):
        # A table rebuilt around wrapped callables, as a profiler does, keeps
        # its describe and so keeps its span check.
        taus = np.linspace(0.2, 1.0, 21)
        table = table_coefficient(taus, np.ones_like(taus))
        wrapped = Coefficient(
            table.kind,
            *(lambda t, _f=getattr(table, part): _f(t) for part in ("value", "d1", "d2")),
            describe=table.describe,
        )
        with pytest.raises(ValueError, match=r"table coefficient c spans \[0.2, 1.0\]"):
            CoefficientModel(a=0.05, b=0.5, c=wrapped, beta=1.0)

    def test_model_accepts_table_beyond_beta(self):
        taus = np.linspace(-0.1, 1.3, 15)
        c = table_coefficient(taus, np.ones_like(taus))
        model = CoefficientModel(a=0.05, b=0.5, c=c, beta=1.0)
        assert model.c(np.array([0.0, 1.0])) == pytest.approx([1.0, 1.0], rel=1e-14, abs=0.0)


class TestQSolution:
    def test_constant_coefficients_closed_form(self):
        b, c, beta = 0.5, 2.0, 1.3
        omega = math.sqrt(2.0 * b / c)
        sol = solve_Q(CoefficientModel(a=0.0, b=b, c=c, beta=beta))
        expected = np.sinh(omega * sol.grid) / omega
        assert sol.Q == pytest.approx(expected, rel=1e-10, abs=1e-12)
        assert sol.Qdot == pytest.approx(np.cosh(omega * sol.grid), rel=1e-10)

    def test_c_zero_between_probe_points_raises(self):
        # c = (tau - 1/2048)^2 passes CoefficientModel's 257-point probe, but
        # is exactly 0 at lattice point 1 of grid_n 512: refused by name
        # instead of reaching the ODEs as a NaN Richardson estimate.
        model = CoefficientModel(
            a=0.05, b=0.5, c=poly_coefficient([2.0**-22, -(2.0**-10), 1.0]), beta=1.0
        )
        with pytest.raises(ValueError, match=r"c\(tau\) must be positive"):
            solve_Q(model, grid_n=512)

    def test_nan_richardson_estimate_fails_the_step_size_check(self):
        # A NaN sample makes the estimate NaN, which must fail, not pass, the
        # 1e-6 gate.
        grid = np.linspace(0.0, 1.0, 65)
        lattice = np.linspace(0.0, 1.0, 257)
        b = np.full_like(lattice, 0.5)
        b[5] = math.nan
        ones, zeros = np.ones_like(lattice), np.zeros_like(lattice)
        with pytest.raises(ArithmeticError, match="Richardson estimate nan"):
            oscillator_ode._solve_systems(grid, ones, zeros, zeros, b)

    def test_free_particle(self):
        sol = solve_Q(CoefficientModel(a=0.0, b=0.0, c=1.0, beta=2.0))
        assert sol.Q == pytest.approx(sol.grid, abs=1e-13)

    def test_ode_residual_on_grid(self):
        for model in MODELS:
            sol = solve_Q(model, grid_n=256)
            g = sol.grid
            c, b = model.c, model.b
            # Second derivative from the interior finite-difference stencil.
            h = g[1] - g[0]
            qpp = (sol.Q[2:] - 2.0 * sol.Q[1:-1] + sol.Q[:-2]) / h**2
            lhs = (
                qpp
                + (c.d1(g[1:-1]) / c(g[1:-1]))
                * (sol.Q[2:] - sol.Q[:-2])
                / (2.0 * h)
                - 2.0 * b(g[1:-1]) / c(g[1:-1]) * sol.Q[1:-1]
            )
            # The stencil itself is O(h^2); the solution is far more accurate.
            assert np.max(np.abs(lhs)) < 50.0 * h**2

    def test_grid_refinement_convergence(self):
        model = OSCILLATING_B
        coarse = solve_Q(model, grid_n=256)
        fine = solve_Q(model, grid_n=512)
        diff = abs(float(coarse.Q[-1]) - float(fine.Q[-1]))
        assert diff <= 16.0 * max(coarse.richardson["Q"], 1e-15)

    def test_q_positive_flag(self):
        assert solve_Q(CONSTANT).q_positive
        # Strongly negative b drives Q through zero (oscillatory regime).
        unstable = CoefficientModel(a=0.0, b=-30.0, c=1.0, beta=2.0)
        assert not solve_Q(unstable).q_positive

    def test_grid_n_validation(self):
        with pytest.raises(ValueError):
            solve_Q(CONSTANT, grid_n=32)

    @pytest.mark.parametrize("name", list(PINNED))
    def test_pinned_fingerprint(self, name):
        model, digest, q_est, f_est, y_reg = PINNED[name]
        sol = solve_Q(model, grid_n=512)
        h = hashlib.sha256()
        for arr in (sol.Q, sol.Qdot, sol.f, sol.fdot):
            h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest() == digest
        assert sol.richardson["Q"].hex() == q_est
        assert sol.richardson["f"].hex() == f_est
        assert sol.Y_reg.hex() == y_reg

    @STAGEWISE_MODELS
    def test_stage_times_match_stagewise_reference(self, model):
        # b and c are sampled once per solve, on the lattice that holds every
        # RK4 stage of both passes; the grid, c(grid) and c(0) are read from it.
        for grid_n in (256, 257):
            recorded, calls = _recording(model)
            sol = solve_Q(recorded, grid_n=grid_n)
            lattice = _lattice(model, grid_n)
            grid = np.linspace(0.0, model.beta, grid_n + 1)
            assert sol.grid.tobytes() == grid.tobytes() == lattice[::4].tobytes()
            assert sorted(calls) == ["b.value", "c.d1", "c.d2", "c.value"], grid_n
            for name, got in calls.items():
                assert len(got) == 1, (grid_n, name)
                assert got[0].tobytes() == lattice.tobytes(), (grid_n, name)

    @STAGEWISE_MODELS
    def test_matches_stagewise_reference(self, model):
        # The prefix product reorders the RK4 arithmetic, so it is held to the
        # exact RK4 map on the same samples: within 5e-16 of each column's
        # max |value|, at a power-of-two grid and at one that is not.
        for grid_n in (256, 257):
            sol = solve_Q(model, grid_n=grid_n)
            for which, y, ydot in (("Q", sol.Q, sol.Qdot), ("f", sol.f, sol.fdot)):
                ref = _stagewise_rk4(model, grid_n, which)
                for col, exact in ((y, [r[0] for r in ref]), (ydot, [r[1] for r in ref])):
                    err = max(abs(mpmath.mpf(float(v)) - e) for v, e in zip(col, exact))
                    rel = float(err) / np.max(np.abs(col))
                    assert rel <= 5e-16, (grid_n, which, rel)

    def test_coefficient_calls_independent_of_grid(self):
        model, calls = _counting(PINNED["poly-c"][0])
        counts = []
        for grid_n in (128, 1024):
            calls[0] = 0
            solve_Q(model, grid_n=grid_n)
            counts.append(calls[0])
        assert counts == [4, 4]

    @pytest.mark.parametrize("name", ["poly-c", "table-c"])
    def test_solution_carries_c_samples(self, name):
        # c(grid), c(0) and c(beta) are the lattice samples, bit for bit
        # equal to evaluating the model again.
        model = PINNED[name][0]
        sol = solve_Q(model, grid_n=257)
        assert sol.c.tobytes() == model.c(sol.grid).tobytes()
        assert sol.c[0] == float(model.c(0.0)) and sol.c[-1] == float(model.c(model.beta))

    @pytest.mark.parametrize("mu_max", range(5))
    def test_propagator_calls(self, mu_max):
        # The solve's four lattice calls, then a(grid) once per order.
        model, calls = _counting(PINNED["poly-c"][0])
        calls[0] = 0  # drop the positivity probe of the constructor
        propagator(model, 0.3, -0.2, mu_max=mu_max, grid_n=128)
        assert calls[0] == 4 + mu_max

    def test_calls_after_the_solve(self):
        # Past solve_Q, c is read from the solution; only a comes from the model.
        model, calls = _counting(PINNED["poly-c"][0])
        br = propagator(model, 0.3, -0.2, mu_max=2, grid_n=128)
        sol, bd = br.solution, br.boundary
        layers = {
            "make_boundary": (lambda: make_boundary(sol, 0.4, 0.1), 0),
            "harmonic_propagator": (lambda: harmonic_propagator(sol, bd), 0),
            "kernel_I": (lambda: kernel_I(sol, 0.5), 0),
            "p1": (lambda: br.p1, 1),
            "nested_integral": (lambda: nested_integral(sol, model, (4, 0)), 1),
            "w_mu_direct": (lambda: w_mu_direct(sol, model, bd, 1), 1),
        }
        for name, (call, expected) in layers.items():
            calls[0] = 0
            call()
            assert calls[0] == expected, name

    def test_no_spline_per_solve(self, monkeypatch):
        # The kernel integrand is integrated by the in-house quintic rule and
        # node 0 is extrapolated by closed-form weights: no scipy spline, PPoly
        # or least-squares fit is built.
        builds = []

        def counted(*args, **kwargs):
            builds.append(args)
            return CubicSpline(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("least-squares fit in solve_Q")

        ppoly_init = PPoly.__init__

        def counted_ppoly(self, *args, **kwargs):
            builds.append(args)
            ppoly_init(self, *args, **kwargs)

        monkeypatch.setattr(oscillator_ode, "CubicSpline", counted)
        monkeypatch.setattr(PPoly, "__init__", counted_ppoly)
        monkeypatch.setattr(np, "polyfit", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        for name in PINNED:
            solve_Q(PINNED[name][0], grid_n=128)
        assert builds == []

    def test_solution_is_frozen_and_complete(self):
        sol = solve_Q(LINEAR_C)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.Y_reg = 0.0
        assert not hasattr(sol, "_Q_spline")
        assert sol.q_positive and math.isfinite(sol.Y_reg)
        assert np.all(np.isfinite(sol.I_of_tau[1:]))
        unstable = solve_Q(CoefficientModel(a=0.0, b=-30.0, c=1.0, beta=2.0))
        assert not unstable.q_positive and math.isnan(unstable.Y_reg)
        assert np.all(np.isnan(unstable.I_of_tau))
        assert unstable._integrand is None


class TestFQProportionality:
    @pytest.mark.parametrize("model", MODELS, ids=["constant", "linear-c", "oscillating-b"])
    def test_f_equals_scaled_cQ(self, model):
        sol = solve_f(model, grid_n=512)
        c0 = float(model.c(0.0))
        expected = 2.0 * math.pi * model.c(sol.grid) * sol.Q / c0**2
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(sol.f - expected)) / scale < 1e-8


class TestKernel:
    def test_free_particle_closed_form(self):
        beta = 1.7
        sol = solve_Q(CoefficientModel(a=0.0, b=0.0, c=1.0, beta=beta))
        for tau in (0.1, 0.37, 0.9, 1.3, beta):
            assert kernel_I(sol, tau) == pytest.approx(
                1.0 / tau - 1.0 / beta, rel=1e-9, abs=1e-12
            )

    def test_constant_coefficients_closed_form(self):
        # I(tau) = (omega/c) [coth(omega tau) - coth(omega beta)].
        b, c, beta = 0.8, 1.5, 1.2
        omega = math.sqrt(2.0 * b / c)
        sol = solve_Q(CoefficientModel(a=0.0, b=b, c=c, beta=beta))
        for tau in (0.05, 0.3, 0.75, 1.1):
            expected = (omega / c) * (
                1.0 / math.tanh(omega * tau) - 1.0 / math.tanh(omega * beta)
            )
            assert kernel_I(sol, tau) == pytest.approx(expected, rel=1e-8)

    def test_gridded_kernel_matches_pointwise(self):
        # kernel_I at a node integrates the node's whole interval and adds
        # I of the next node; I_of_tau sums every interval from beta.
        sol = solve_Q(LINEAR_C)
        for i in range(1, sol.grid.size):
            assert sol.I_of_tau[i] == pytest.approx(
                kernel_I(sol, float(sol.grid[i])), rel=1e-15, abs=0.0
            ), i
        assert sol.I_of_tau[0] == np.inf
        assert sol.I_of_tau[-1] == 0.0

    @pytest.mark.parametrize("grid_n", [64, 512])
    @pytest.mark.parametrize("name", list(PINNED))
    def test_off_grid_matches_scipy_spline(self, name, grid_n):
        # scipy's piecewise polynomial of the same local quintics through the
        # same integrand values is the independent reference.  Its integrate()
        # sums local antiderivatives per interval; antiderivative(beta) -
        # antiderivative(tau) would cancel near beta.
        model = PINNED[name][0]
        sol = solve_Q(model, grid_n=grid_n)
        pp = _local_quintic_ppoly(sol.grid, sol._integrand)
        c0, beta = float(sol.c[0]), model.beta
        taus = np.concatenate([
            np.random.default_rng(7).uniform(0.0, 0.999 * beta, 40),
            sol.grid[1:4] / 3.0,
            [0.999 * beta],
        ])
        for tau in taus:
            expected = pp.integrate(tau, beta) + (beta - tau) / (c0 * tau * beta)
            assert kernel_I(sol, float(tau)) == pytest.approx(expected, rel=1e-14, abs=0.0), tau

    @pytest.mark.parametrize("offset", [1e-4, 1e-9, 1e-13])
    def test_near_beta_matches_exact_local_integral(self, offset):
        # Close to beta, I is the integral over [tau, beta] of the quintic
        # through the last six nodes, here taken in 40-digit mpmath.
        model = PINNED["poly-c"][0]
        sol = solve_Q(model, grid_n=128)
        beta = model.beta
        tau = beta * (1.0 - offset)
        with mpmath.workdps(40):
            nodes = [mpmath.mpf(float(t)) for t in sol.grid[-6:]]
            values = [mpmath.mpf(float(v)) for v in sol._integrand[-6:]]
            lo, hi = mpmath.mpf(tau), mpmath.mpf(beta)

            def quintic(x):
                return sum(
                    v * mpmath.fprod((x - m) / (t - m) for m in nodes if m != t)
                    for t, v in zip(nodes, values)
                )

            expected = mpmath.quad(quintic, [lo, hi]) + (hi - lo) / (
                mpmath.mpf(float(sol.c[0])) * lo * hi
            )
        assert kernel_I(sol, tau) == pytest.approx(float(expected), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("name", list(PINNED))
    def test_gridded_kernel_is_a_right_sum(self, name):
        # I_of_tau is the right sum of the rule's interval integrals plus the
        # subtracted part, within rounding of the same sum in long double.
        model = PINNED[name][0]
        sol = solve_Q(model, grid_n=512)
        ld = np.longdouble
        grid, g = sol.grid.astype(ld), sol._integrand.astype(ld)
        n = grid.size - 1
        start = np.clip(np.arange(n) - 2, 0, n - 5)
        w = oscillator_ode._QUINTIC_WEIGHTS.astype(ld)[np.arange(n) - start]
        pieces = sum(w[:, j] * g[start + j] for j in range(6)) * (np.diff(grid) / 1440)
        F = np.cumsum(pieces[::-1])[::-1]
        beta, c0 = ld(model.beta), ld(float(sol.c[0]))
        expected = F[1:] + (beta - grid[1:-1]) / (c0 * grid[1:-1] * beta)
        rel = np.abs((sol.I_of_tau[1:-1] - expected) / expected)
        assert float(np.max(rel)) <= 1e-15

    def test_domain_errors(self):
        sol = solve_Q(CONSTANT)
        with pytest.raises(ValueError):
            kernel_I(sol, 0.0)
        with pytest.raises(ValueError):
            kernel_I(sol, 1.5)
        unstable = solve_Q(CoefficientModel(a=0.0, b=-30.0, c=1.0, beta=2.0))
        with pytest.raises(ArithmeticError):
            kernel_I(unstable, 0.5)


def _exact_quintic_table():
    """[p][j][k]: 1440 times the coefficient of v^(k+1) in the integral over
    [p + 1 - v, p + 1] of node j's Lagrange basis on the nodes 0..5, in Fractions."""
    table = [[None] * 6 for _ in range(5)]
    for j in range(6):
        basis = [Fraction(1)]  # ascending coefficients in x
        for m in range(6):
            if m != j:
                basis = [(b - m * a) / (j - m) for a, b in zip(basis + [0], [0] + basis)]
        for p in range(5):
            # basis(p + 1 - v) in powers of v, then integrated from v = 0.
            in_v = [
                sum(c * math.comb(k, r) * (p + 1) ** (k - r) * (-1) ** r
                    for k, c in enumerate(basis) if k >= r)
                for r in range(6)
            ]
            table[p][j] = [1440 * c / (r + 1) for r, c in enumerate(in_v)]
    return table


class TestQuinticTable:
    def test_matches_exact_lagrange_integrals(self):
        exact = _exact_quintic_table()
        assert all(c.denominator == 1 for row in exact for col in row for c in col)
        assert oscillator_ode._QUINTIC_TABLE.tolist() == [
            [[int(c) for c in col] for col in row] for row in exact
        ]
        # The float construction lands within rounding of the integers.
        raw = oscillator_ode._lagrange_integrals()
        assert np.max(np.abs(raw - oscillator_ode._QUINTIC_TABLE)) <= 1e-6

    def test_whole_interval_weights(self):
        w = oscillator_ode._QUINTIC_WEIGHTS
        assert w[2].tolist() == [11, -93, 802, 802, -93, 11]
        assert np.all(w.sum(axis=-1) == 1440)
        # The end rows mirror each other.
        assert np.array_equal(w[::-1, ::-1], w)


class TestExtrapolateNode0:
    @pytest.mark.parametrize("kind", ["uniform", "non-uniform"])
    def test_exact_on_quadratics(self, kind):
        grid = np.linspace(0.0, 1.3, 9)
        if kind == "non-uniform":
            grid = np.array([0.0, 0.013, 0.031, 0.042, 0.2, 0.5, 0.9, 1.3])
        coeffs = np.array([[0.7, -1.1, 2.5], [-3.0, 0.4, 0.0], [1e-3, 5.0, -9.0]])
        # One quadratic per column, as w_mu_direct passes them.
        y = coeffs[:, 0] + coeffs[:, 1] * grid[:, None] + coeffs[:, 2] * grid[:, None] ** 2
        got = oscillator_ode.extrapolate_node0(grid, y)
        scale = np.abs(y[1:4]).max(axis=0)
        assert np.all(np.abs(got - coeffs[:, 0]) <= 8 * np.finfo(float).eps * scale)
        assert oscillator_ode.extrapolate_node0(grid, y[:, 1]) == got[1]

    def test_uniform_weights(self):
        # On a uniform grid the weights are 3, -3, 1.
        grid = np.linspace(0.0, 1.0, 5)
        y = np.array([np.nan, 1.0, 10.0, 100.0, 1000.0])
        assert oscillator_ode.extrapolate_node0(grid, y) == pytest.approx(73.0, rel=1e-15, abs=0.0)


def _table_model(b0, beta):
    """b and c 6-point tables: c swings by 30 % and b by 60 %."""
    taus = np.linspace(0.0, beta, 6)
    return CoefficientModel(
        a=0.05,
        b=table_coefficient(taus, [b0 * v for v in (1.0, 0.5, 1.3, 1.0, 0.7, 1.0)]),
        c=table_coefficient(taus, [1.0, 1.3, 0.8, 1.1, 0.9, 1.0]),
        beta=beta,
    )


class TestRegularizedY:
    def test_free_particle(self):
        beta = 2.0
        sol = solve_Q(CoefficientModel(a=0.0, b=0.0, c=1.0, beta=beta))
        assert regularized_Y(sol) == pytest.approx(-1.0 / beta, abs=1e-9)

    @pytest.mark.parametrize("b,c,beta", [(0.5, 1.0, 1.0), (0.8, 1.5, 1.2), (2.0, 0.5, 0.7)])
    def test_constant_coefficients(self, b, c, beta):
        omega = math.sqrt(2.0 * b / c)
        sol = solve_Q(CoefficientModel(a=0.0, b=b, c=c, beta=beta))
        expected = -(omega / c) / math.tanh(omega * beta)
        assert regularized_Y(sol) == pytest.approx(expected, rel=1e-8)

    def test_routes_cross_checked(self):
        # Non-constant c exercises both the analytic-subtraction route and
        # the transfer-matrix route with its c'(0) term; solve_Q raises if
        # they disagree.
        sol = solve_Q(LINEAR_C)
        assert math.isfinite(regularized_Y(sol))

    @pytest.mark.parametrize("model", [CONSTANT, LINEAR_C, PINNED["poly-c"][0]],
                             ids=["constant", "linear-c", "poly-c"])
    def test_transfer_matrix_r_beta(self, model, monkeypatch):
        # R solves (c R')' = 2 b R with R(0) = 1, R'(0) = 0; its value at beta,
        # read from the prefix product, against a tight DOP853 solve.
        seen = []
        real = oscillator_ode._regularized_Y_impl

        def capture(*args):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(oscillator_ode, "_regularized_Y_impl", capture)
        solve_Q(model)
        r_beta = seen[-1][5]
        c, b = model.c, model.b

        def rhs(t, y):
            return [y[1], (2.0 * float(b(t)) * y[0] - float(c.d1(t)) * y[1]) / float(c(t))]

        ref = solve_ivp(rhs, (0.0, model.beta), [1.0, 0.0], method="DOP853",
                        rtol=1e-13, atol=1e-15).y[0, -1]
        assert r_beta == pytest.approx(ref, rel=1e-10)
        if model is CONSTANT:
            # R = cosh(omega tau) = Q': the fine run's RK4 maps have equal
            # diagonals, so R(beta) and Q'(beta) agree to rounding.
            assert r_beta == pytest.approx(float(solve_Q(model).Qdot[-1]), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("b0", [0.5, 1, 2, 4, 8])
    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_routes_agree_on_swinging_tables(self, b0, beta):
        # The grid-read bracket route this check once used was 1.6e-6 to
        # 1.4e-5 off route (i) on these models at grid_n = 512, and raised.
        assert math.isfinite(regularized_Y(solve_Q(_table_model(b0, beta), grid_n=512)))

    @pytest.mark.parametrize("route", ["i", "ii"])
    def test_perturbed_route_raises(self, route, monkeypatch):
        # Each route is checked against the other: 1e-5 moved on either one
        # must raise, 1e-9 must not.
        for shift, raises in ((1e-9, False), (1e-5, True)):
            monkeypatch.undo()
            if route == "i":
                real = oscillator_ode._sum_from_right

                def perturbed(pieces, real=real, shift=shift):
                    F = real(pieces)
                    F[0] += shift  # F[0] enters route (i) only; I(0) = inf
                    return F

                monkeypatch.setattr(oscillator_ode, "_sum_from_right", perturbed)
            else:
                real = oscillator_ode._solve_systems

                def perturbed(*args, real=real, shift=shift):
                    systems, r_beta = real(*args)
                    return systems, r_beta + shift

                monkeypatch.setattr(oscillator_ode, "_solve_systems", perturbed)
            if raises:
                with pytest.raises(ArithmeticError, match="routes disagree"):
                    solve_Q(LINEAR_C)
            else:
                assert math.isfinite(solve_Q(LINEAR_C).Y_reg)

    @pytest.mark.parametrize("case", ["poly-b", "table-abc"])
    def test_routes_agree_with_large_eps3_term(self, case):
        # Large 2 b beta^2 / c and a fast-varying table c near tau = 0 give the
        # grid-read bracket a sizeable O(eps^3) term; the returned route (i)
        # does not read the bracket, and its value is pinned.
        if case == "poly-b":
            beta = 1.9598783855645927
            model = CoefficientModel(
                a=0.07007997001442355,
                b=poly_coefficient(
                    [0.9754077052070219, 0.00153631279720085, 0.04102157935032541]
                ),
                c=0.8854323781022119,
                beta=beta,
            )
            expected = -1.6928882699057235
        else:
            beta = 1.405973793337567
            a = [0.14145623083983516, 0.1495273484943405, 0.14772698799456077,
                 0.13657638072121697, 0.11930379480487147, 0.10090990305905226,
                 0.08672001316112635, 0.0808423111686524, 0.08497848000867661]
            b = [0.6956762757242088, 0.725021913786671, 0.7509126052095152,
                 0.7718972619253704, 0.7867997629701062, 0.7947848721931379,
                 0.7954050504955301, 0.7886255389239765, 0.7748263067957658]
            c = [0.67110429628977, 0.7140384533952981, 0.7903815796530822,
                 0.8786822410663854, 0.9541290904579953, 0.9955225360726452,
                 0.9912315534812084, 0.9424618534575737, 0.8629170927994081]
            model = CoefficientModel(
                a=_table(beta, a), b=_table(beta, b), c=_table(beta, c), beta=beta
            )
            expected = -2.369160837455926
        assert regularized_Y(solve_Q(model)) == pytest.approx(expected, rel=1e-12)


WRONG_WHEN_C1_NONZERO = pytest.mark.xfail(strict=True, reason=(
    "the phi0^2 term uses Y_reg where the action needs (Q I)'(0); "
    "the log is off by c'(0) phi0^2 / 4 when c'(0) != 0"
))


class TestHarmonicPropagator:
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("b", [0.25, 1.0])
    def test_matches_mehler(self, c, b):
        beta = 1.0
        model = CoefficientModel(a=0.0, b=b, c=c, beta=beta)
        sol = solve_Q(model)
        k = math.sqrt(2.0 * b * c)
        nu = beta * math.sqrt(2.0 * b / c)
        for x_i in np.linspace(-1.0, 1.0, 5):
            for x_f in np.linspace(-1.0, 1.0, 5):
                _, _, value = harmonic_propagator(sol, make_boundary(sol, x_i, x_f))
                assert value == pytest.approx(
                    mehler_reference(k, nu, x_i, x_f), rel=1e-6
                )

    # Free particle, c(tau) > 0: K = sqrt(c(0)/c(beta)) (2 pi T)^{-1/2}
    # exp(-(phiB - phi0)^2 / 2T) with T = int_0^beta dtau / c.
    @pytest.mark.parametrize(
        "coeffs",
        [
            [1.0, 0.0, 0.3],
            pytest.param([1.0, 0.3], marks=WRONG_WHEN_C1_NONZERO),
            pytest.param([1.2, -0.4], marks=WRONG_WHEN_C1_NONZERO),
        ],
        ids=["c=1+0.3t^2", "c=1+0.3t", "c=1.2-0.4t"],
    )
    def test_free_particle_tau_dependent_c(self, coeffs):
        beta = 1.0
        c = poly_coefficient(coeffs)
        sol = solve_Q(CoefficientModel(a=0.0, b=0.0, c=c, beta=beta))
        T = quad(lambda t: 1.0 / float(c(t)), 0.0, beta, epsabs=0.0, epsrel=1e-13)[0]
        for phi0, phiB in ((0.3, -0.2), (-0.5, 0.4), (0.8, 0.8)):
            _, _, value = harmonic_propagator(sol, make_boundary(sol, phi0, phiB))
            log_exact = (
                0.5 * math.log(float(c(0.0)) / float(c(beta)))
                - 0.5 * math.log(2.0 * math.pi * T)
                - (phiB - phi0) ** 2 / (2.0 * T)
            )
            assert abs(math.log(value) - log_exact) < 1e-10, (phi0, phiB)

    def test_value_is_prefactor_times_exp(self):
        sol = solve_Q(LINEAR_C)
        boundary = make_boundary(sol, 0.4, -0.3)
        pref, expo, value = harmonic_propagator(sol, boundary)
        assert value == pytest.approx(pref * math.exp(expo), rel=1e-15, abs=0.0)
        assert pref == pytest.approx(1.0 / math.sqrt(float(sol.f[-1])), rel=1e-15, abs=0.0)

    def test_boundary_hatted_variables(self):
        sol = solve_Q(CONSTANT)
        boundary = make_boundary(sol, 0.7, -0.2)
        c0 = float(CONSTANT.c(0.0))
        assert boundary.phi0_hat == pytest.approx(c0 * 0.7 / math.sqrt(2.0))
        assert boundary.phiB_hat == pytest.approx(
            -0.2 / (math.sqrt(2.0) * float(sol.Q[-1]))
        )
        assert boundary.gamma == 0.25

    def test_mehler_validation(self):
        with pytest.raises(ValueError):
            mehler_reference(0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            mehler_reference(1.0, -1.0, 0.0, 0.0)
