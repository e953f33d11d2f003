"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line.  Run with ``pytest -s tests/test_acceptance.py`` to see the
lines as they are produced.
"""
import math
import time
from pathlib import Path

import numpy as np
import pytest

from anharmprop import (
    Coefficient,
    CoefficientModel,
    const_coefficient,
    continuum_extrapolate,
    hermite2,
    a_sum,
    i1_hermite_method,
    i1_quadrature,
    i1_series,
    make_boundary,
    mehler_reference,
    pcf_poincare,
    pcf_scaled,
    poly_coefficient,
    propagator,
    solve_Q,
    solve_f,
    w_mu,
    w_mu_direct,
    wn_montecarlo,
    wn_quadrature,
    wn_series_exact,
)
from anharmprop.cli import main as cli_main

REFERENCE = CoefficientModel(a=0.05, b=0.5, c=1.0, beta=1.0)


def report(num: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {description} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_free_particle():
    worst = 0.0
    start = time.monotonic()
    for beta in (0.5, 1.0, 2.0):
        model = CoefficientModel(a=0.0, b=0.0, c=1.0, beta=beta)
        for phi0 in (-1.0, 0.0, 1.0):
            for phiB in (-1.0, 0.0, 1.0):
                got = propagator(model, phi0, phiB, mu_max=0, grid_n=64).total
                ref = math.exp(-((phiB - phi0) ** 2) / (2.0 * beta)) / math.sqrt(
                    2.0 * math.pi * beta
                )
                worst = max(worst, abs(got / ref - 1.0))
    elapsed = time.monotonic() - start
    report(
        1,
        "free-particle identity",
        worst < 1e-8 and elapsed < 1.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_02_mehler_harmonic():
    worst = 0.0
    start = time.monotonic()
    grid = np.linspace(-1.0, 1.0, 5)
    for c in (0.5, 1.0, 2.0):
        for b in (0.25, 1.0):
            model = CoefficientModel(a=0.0, b=b, c=c, beta=1.0)
            k = math.sqrt(2.0 * b * c)
            nu = math.sqrt(2.0 * b / c)
            sol = solve_Q(model)
            from anharmprop import harmonic_propagator

            for x_i in grid:
                for x_f in grid:
                    _, _, got = harmonic_propagator(
                        sol, make_boundary(sol, x_i, x_f)
                    )
                    ref = mehler_reference(k, nu, x_i, x_f)
                    worst = max(worst, abs(got / ref - 1.0))
    elapsed = time.monotonic() - start
    report(
        2,
        "Mehler/harmonic agreement",
        worst < 1e-6 and elapsed < 10.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_03_f_q_proportionality():
    models = {
        "constant": CoefficientModel(a=0.0, b=0.5, c=1.0, beta=1.0),
        "linear-c": CoefficientModel(
            a=0.0, b=const_coefficient(0.4), c=poly_coefficient([1.0, 0.5]), beta=1.2
        ),
        "oscillating-b": CoefficientModel(
            a=0.0,
            b=Coefficient(
                "poly",
                lambda t: 0.5 + 0.3 * np.cos(2.0 * np.asarray(t, dtype=float)),
                lambda t: -0.6 * np.sin(2.0 * np.asarray(t, dtype=float)),
                lambda t: -1.2 * np.cos(2.0 * np.asarray(t, dtype=float)),
            ),
            c=1.0,
            beta=1.5,
        ),
    }
    worst = 0.0
    for name, model in models.items():
        sol = solve_f(model)
        c0 = float(model.c(0.0))
        expected = 2.0 * math.pi * model.c(sol.grid) * sol.Q / c0**2
        scale = max(1.0, float(np.max(np.abs(expected))))
        worst = max(worst, float(np.max(np.abs(sol.f - expected))) / scale)
    report(
        3,
        "f = 2 pi c Q / c(0)^2 proportionality",
        worst < 1e-8,
        f"worst scaled err {worst:.2e}",
    )


def test_criterion_04_i1_three_way():
    worst = 0.0
    start = time.monotonic()
    for a in (0.5, 1.0, 2.0):
        for b in (0.25, 1.0, 2.0):
            for c in (0.0, 0.5, 1.0):
                ref = i1_quadrature(a, b, c)
                worst = max(
                    worst,
                    abs(i1_series(a, b, c) / ref - 1.0),
                    abs(i1_hermite_method(a, b, c) / ref - 1.0),
                )
    elapsed = time.monotonic() - start
    report(
        4,
        "quartic-integral three-way agreement",
        worst < 1e-8 and elapsed < 30.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_05_poincare_bound():
    ok = True
    worst_margin = math.inf
    for z in (5.0, 10.0, 20.0):
        for m in (0, 1, 2, 3):
            nu = -m - 0.5
            exact = pcf_scaled(nu, z)
            for J in range(7):
                value, bound = pcf_poincare(nu, z, J)
                err = abs(exact - value)
                ok = ok and err <= bound
                if err > 0.0:
                    worst_margin = min(worst_margin, bound / err)
    report(
        5,
        "Poincare remainder within certified bound",
        ok,
        f"smallest bound/error ratio {worst_margin:.3g}",
    )


def test_criterion_06_a_sum_identity():
    rng = np.random.default_rng(606)
    worst = 0.0
    for d in rng.uniform(0.0, 2.0, 50) + 1e-12:
        for n in range(13):
            got = a_sum(n, float(d))
            ref = hermite2(n, 2.0 * float(d), float(d))
            denom = max(abs(ref), 1e-300)
            worst = max(worst, abs(got - ref) / denom)
    report(6, "A-coefficient sum identity", worst < 1e-10, f"worst rel err {worst:.2e}")


def test_criterion_07_anharmonic_vs_oracle():
    start = time.monotonic()
    analytic = propagator(REFERENCE, 0.3, -0.2, mu_max=2).total
    bd = (0.3, -0.2)
    pairs = [(n, wn_quadrature(REFERENCE, bd, n)) for n in (2, 3, 4, 5)]
    mc_errs = []
    mc_ns = (32, 64, 128)
    for n, (val, err) in zip(mc_ns, wn_montecarlo(REFERENCE, bd, mc_ns, 1_000_000, seed=1234,
                                                  workers=4)):
        pairs.append((n, val))
        mc_errs.append(err)
    limit, extrap_err = continuum_extrapolate(pairs)
    combined = extrap_err + max(mc_errs)
    tol = max(3.0 * combined, 0.01 * abs(limit))
    diff = abs(analytic - limit)
    elapsed = time.monotonic() - start
    report(
        7,
        "anharmonic propagator vs sliced oracles",
        diff < tol and elapsed < 300.0,
        f"|analytic - limit| {diff:.2e} vs tol {tol:.2e}, {elapsed:.1f} s",
    )


def test_criterion_08_representation_equivalence():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(10):
        model = CoefficientModel(
            a=poly_coefficient([rng.uniform(0.02, 0.15), rng.uniform(0.0, 0.1)]),
            b=poly_coefficient([rng.uniform(0.2, 0.9), rng.uniform(-0.2, 0.2)]),
            c=poly_coefficient([rng.uniform(0.7, 1.5), rng.uniform(-0.1, 0.2)]),
            beta=rng.uniform(0.6, 1.4),
        )
        sol = solve_Q(model)
        boundary = make_boundary(
            sol, rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)
        )
        for mu in (1, 2):
            direct = w_mu_direct(sol, model, boundary, mu)
            recurred = w_mu(sol, model, boundary, mu)
            denom = max(abs(direct), 1e-300)
            worst = max(worst, abs(recurred - direct) / denom)
    report(
        8,
        "derivative vs recurrence W(mu) routes",
        worst < 1e-8,
        f"worst rel err {worst:.2e}",
    )


def test_criterion_09_order_scaling():
    sol_b = solve_Q(REFERENCE)
    bd_b = make_boundary(sol_b, 0.3, -0.2)
    worst = 0.0
    for lam in (0.5, 2.0):
        scaled = CoefficientModel(a=0.05 * lam, b=0.5, c=1.0, beta=1.0)
        sol_s = solve_Q(scaled)
        bd_s = make_boundary(sol_s, 0.3, -0.2)
        for mu in (1, 2, 3):
            w_base = w_mu(sol_b, REFERENCE, bd_b, mu)
            w_scaled = w_mu(sol_s, scaled, bd_s, mu)
            worst = max(worst, abs(w_scaled / (lam**mu * w_base) - 1.0))
    report(9, "quartic-coupling order scaling", worst < 1e-12, f"worst rel err {worst:.2e}")


def test_criterion_10_exact_multisum():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(5):
        model = CoefficientModel(
            a=rng.uniform(0.02, 0.3),
            b=rng.uniform(0.1, 1.0),
            c=rng.uniform(0.5, 2.0),
            beta=rng.uniform(0.5, 1.5),
        )
        bd = (rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        for N in (2, 3):
            got = wn_series_exact(model, bd, N)
            ref = wn_quadrature(model, bd, N)
            worst = max(worst, abs(got / ref - 1.0))
    report(
        10,
        "exact multi-sum vs transfer quadrature",
        worst < 1e-6,
        f"worst rel err {worst:.2e}",
    )


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "det.cfg"
    base = (
        "beta = 1.0\nphi0 = 0.3\nphiN = -0.2\nmu_max = 2\ngrid_n = 256\n"
        "[coeff]\na = const:0.05\nb = const:0.5\nc = const:1.0\n"
        "[oracle]\nN_list = 2,3,4,5,16,32\nsamples = 50000\nseed = 1234\n"
        "workers = {workers}\n"
    )
    outputs = {}
    for tag, workers in (("run1", 1), ("run2", 1), ("w4", 4)):
        cfg.write_text(base.format(workers=workers))
        out = tmp_path / tag
        rc = cli_main(["--config", str(cfg), "--out", str(out), "compare"])
        assert rc == 0
        outputs[tag] = (out / "compare.csv").read_bytes()
    ok = outputs["run1"] == outputs["run2"] == outputs["w4"]
    report(
        11,
        "byte-identical compare output across runs and worker counts",
        ok,
        f"{len(outputs['run1'])} bytes",
    )
