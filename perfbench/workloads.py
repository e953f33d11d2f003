"""Seeded inputs and operations of the three benchmark workloads.

Inputs come from ``random.Random(seed)`` only, so a seed gives the same
inputs on every machine and numpy version.  Every generated model is valid
by construction: beta in [0.5, 2], a(tau) >= 0, b(tau) > 0 (no caustic),
c(tau) > 0 with a smooth variation of at most 20 %, endpoints in [-1, 1].

Every generated op also succeeds at grid_n = 512.  solve_Q cross-checks
Y_reg against a Richardson extrapolation whose own error (independent of
grid_n) reaches the check's 1e-6 tolerance for large 2 b beta^2 / c and for
table coefficients that vary fast near tau = 0; about 2.6 % of models drawn
with b base up to 1 at every beta and tables of up to 0.75 periods failed
it.  So the b base is capped at B_BETA2_MAX / beta^2 and tables span at
most TABLE_PERIODS[1] periods; the largest disagreement on 4500 generated
models (model-sweep seeds 1-40, endpoint-grid seeds 1-10) was then 3.8e-7.

Coefficient kinds (const, poly, table) are stratified in blocks of nine
models: each pair of kinds of two coefficients occurs once per block, and
each aligned group of three models uses each kind once per coefficient.  The
kinds of b and c set most of the ODE cost, so a run of any length sees
nearly the same cost mix whatever the seed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

KINDS = ("const", "poly", "table")
TABLE_POINTS = 9
TABLE_PERIODS = (0.1, 0.3)  # periods of the sine a table samples on [0, beta]
B_BETA2_MAX = 1.2  # largest b base * beta^2

# (lowest base, highest base, largest relative variation) of each coefficient.
A_RANGE = (0.02, 0.12, 0.3)
B_RANGE = (0.25, 1.0, 0.2)
C_RANGE = (0.8, 1.25, 0.2)

ORACLE_N_LIST = "2,3,4,5,32,64"
ORACLE_SAMPLES = 100000
GRID_N = 512
ENDPOINT_GRID = ((-0.6, 0.7), (-0.8, 0.1, 0.9))  # (phi0 values, phiB values) shape
REL_TOL = 1e-9


@dataclass(frozen=True)
class CoeffSpec:
    """One coefficient: kind plus the numbers that define it."""

    kind: str
    numbers: tuple[float, ...]  # const: (v,); poly: coeffs in tau; table: values
    taus: tuple[float, ...] = ()  # table only


@dataclass(frozen=True)
class ModelSpec:
    beta: float
    a: CoeffSpec
    b: CoeffSpec
    c: CoeffSpec

    @property
    def kinds(self) -> str:
        return "/".join((self.a.kind, self.b.kind, self.c.kind))


@dataclass(frozen=True)
class Op:
    """One benchmark operation: a model, endpoints and the series order."""

    index: int
    model: ModelSpec
    phi0: float
    phiB: float
    mu_max: int


def _coeff(rng: random.Random, kind: str, lo_hi_rel, beta: float) -> CoeffSpec:
    lo, hi, rel = lo_hi_rel
    base = rng.uniform(lo, hi)
    if kind == "const":
        return CoeffSpec("const", (base,))
    if kind == "poly":
        # base * (1 + p1 x + p2 x^2), x = tau/beta, |p1| + |p2| <= rel.
        u1 = rng.uniform(-1.0, 1.0)
        u2 = rng.uniform(-1.0, 1.0) * (1.0 - abs(u1))
        return CoeffSpec("poly", (base, base * rel * u1 / beta, base * rel * u2 / beta**2))
    # base * (1 + rel sin(2 pi f x + phase)), f in TABLE_PERIODS.
    freq = rng.uniform(*TABLE_PERIODS)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    taus = tuple(beta * k / (TABLE_POINTS - 1) for k in range(TABLE_POINTS))
    values = tuple(
        base * (1.0 + rel * math.sin(2.0 * math.pi * freq * t / beta + phase)) for t in taus
    )
    return CoeffSpec("table", values, taus)


def _kind_block(rng: random.Random) -> list[tuple[str, str, str]]:
    """Nine (a, b, c) kind triples: every pair of kinds of two coefficients
    occurs once, and each aligned group of three uses each kind once per
    coefficient.  Kind labels and the order of groups and of triples within
    a group are seeded."""
    labels = [rng.sample(KINDS, 3) for _ in range(3)]
    block = []
    for t in rng.sample(range(3), 3):
        group = [((2 * b + t) % 3, b, (b + t) % 3) for b in range(3)]
        rng.shuffle(group)
        block += group
    return [(labels[0][a], labels[1][b], labels[2][c]) for a, b, c in block]


def models(seed: int):
    """Endless stream of stratified random models for a seed."""
    rng = random.Random(seed)
    while True:
        for ka, kb, kc in _kind_block(rng):
            beta = rng.uniform(0.5, 2.0)
            b_range = (B_RANGE[0], min(B_RANGE[1], B_BETA2_MAX / beta**2), B_RANGE[2])
            yield ModelSpec(
                beta=beta,
                a=_coeff(rng, ka, A_RANGE, beta),
                b=_coeff(rng, kb, b_range, beta),
                c=_coeff(rng, kc, C_RANGE, beta),
            ), rng


def _endpoint_group(rng: random.Random) -> list[tuple[float, float]]:
    """Four endpoint pairs: two magnitude draws, each used with both mirror
    signs, so every quadrant of (phi0, phiB) occurs once; seeded order."""
    u0, ub, v0, vb = (rng.uniform(0.0, 1.0) for _ in range(4))
    group = [(u0, ub), (-u0, -ub), (v0, -vb), (-v0, vb)]
    rng.shuffle(group)
    return group


def model_sweep(seed: int):
    """A fresh model and fresh endpoints for every op; mu_max = 2.

    Endpoints come in mirrored groups of four (see _endpoint_group).  Monte
    Carlo time on cli-verify depends on how many sampled path values are
    negative (``phi**4`` is slower for negative bases), and a mirrored pair
    of ops has about as many negative values as positive ones.
    """
    endpoints: list[tuple[float, float]] = []
    for i, (spec, rng) in enumerate(models(seed)):
        if not endpoints:
            endpoints = _endpoint_group(rng)
        phi0, phiB = endpoints.pop()
        yield Op(i, spec, phi0, phiB, 2)


def endpoint_grid(seed: int):
    """Each model is reused for a grid of endpoint pairs; mu_max = 4.

    The grid is the fixed shape ENDPOINT_GRID, shifted by a seeded offset per
    model so that the endpoints stay in [-1, 1] and differ between models.
    """
    i = 0
    for spec, rng in models(seed):
        shift = rng.uniform(-0.1, 0.1)
        for p0 in ENDPOINT_GRID[0]:
            for pb in ENDPOINT_GRID[1]:
                yield Op(i, spec, p0 + shift, pb - shift, 4)
                i += 1


def cli_verify(seed: int):
    """Same models and endpoints as model-sweep, run through the CLI."""
    return model_sweep(seed)


GENERATORS = {
    "model-sweep": model_sweep,
    "endpoint-grid": endpoint_grid,
    "cli-verify": cli_verify,
}


def first_ops(workload: str, seed: int, count: int) -> list[Op]:
    gen = GENERATORS[workload](seed)
    return [next(gen) for _ in range(count)]


# ---------------------------------------------------------------------------
# Building library inputs
# ---------------------------------------------------------------------------


def build_coefficient(ap, spec: CoeffSpec):
    if spec.kind == "const":
        return ap.const_coefficient(spec.numbers[0])
    if spec.kind == "poly":
        return ap.poly_coefficient(list(spec.numbers))
    return ap.table_coefficient(list(spec.taus), list(spec.numbers))


def build_model(ap, spec: ModelSpec, wrap=None):
    """CoefficientModel for a spec; `wrap` post-processes each Coefficient."""
    coeffs = [build_coefficient(ap, s) for s in (spec.a, spec.b, spec.c)]
    if wrap is not None:
        coeffs = [wrap(c) for c in coeffs]
    return ap.CoefficientModel(a=coeffs[0], b=coeffs[1], c=coeffs[2], beta=spec.beta)


def _cfg_coeff(spec: CoeffSpec, name: str, tables: Path, index: int) -> str:
    if spec.kind == "const":
        return f"const:{spec.numbers[0]!r}"
    if spec.kind == "poly":
        return "poly:" + ",".join(repr(v) for v in spec.numbers)
    csv = tables / f"op{index:04d}_{name}.csv"
    csv.write_text("".join(f"{t!r},{v!r}\n" for t, v in zip(spec.taus, spec.numbers)))
    return f"table:{csv.name}"


def write_config(op: Op, seed: int, tables: Path) -> Path:
    """Write the op's config (and its table CSVs) under `tables`."""
    m = op.model
    coeff = {n: _cfg_coeff(getattr(m, n), n, tables, op.index) for n in "abc"}
    text = (
        f"beta = {m.beta!r}\nphi0 = {op.phi0!r}\nphiN = {op.phiB!r}\n"
        f"mu_max = {op.mu_max}\ngrid_n = {GRID_N}\n\n"
        f"[coeff]\na = {coeff['a']}\nb = {coeff['b']}\nc = {coeff['c']}\n\n"
        f"[oracle]\nN_list = {ORACLE_N_LIST}\nsamples = {ORACLE_SAMPLES}\n"
        f"seed = {seed}\nworkers = 1\n"
    )
    path = tables / f"op{op.index:04d}.cfg"
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# Running one op and checking its outputs
# ---------------------------------------------------------------------------


class WrongOutput(Exception):
    """The op returned outputs that fail a check."""


class CliExit(Exception):
    """A CLI subcommand exited with a non-zero code."""


def _check_finite_positive(total: float, trunc: float) -> None:
    if not (math.isfinite(total) and total > 0.0):
        raise WrongOutput(f"total {total!r} is not finite and positive")
    if not math.isfinite(trunc):
        raise WrongOutput(f"truncation estimate {trunc!r} is not finite")


def run_library_op(ap, model, op: Op) -> dict:
    """One propagator call; returns the outputs the checks look at."""
    bd = ap.propagator(model, op.phi0, op.phiB, mu_max=op.mu_max, grid_n=GRID_N)
    _check_finite_positive(bd.total, bd.truncation_estimate)
    return {"total": bd.total, "truncation_estimate": bd.truncation_estimate}


def _read_csv(path: Path) -> list[dict[str, str]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def run_cli_op(cli, cfg: Path, outdir: Path) -> dict:
    """`propagator` then `compare` on one config, in this process."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        for command in ("propagator", "compare"):
            code = cli.main(["--config", str(cfg), "--out", str(outdir), command])
            if code != 0:
                raise CliExit(f"cli {command} exited with {code}: {stderr.getvalue().strip()}")
    printed = dict(
        line.split(" = ", 1) for line in stdout.getvalue().splitlines() if " = " in line
    )
    total = float(printed["total"])
    trunc = float(printed["truncation_estimate"])
    _check_finite_positive(total, trunc)
    breakdown = _read_csv(outdir / "breakdown.csv")
    compare = {row["method"]: row for row in _read_csv(outdir / "compare.csv")}
    analytic = float(compare["analytic"]["value"])
    extrapolated = float(compare["extrapolated"]["value"])
    cumulative = float(breakdown[-1]["cumulative_total"])
    for name, value in (("analytic", analytic), ("cumulative_total", cumulative)):
        if not math.isfinite(value) or abs(value - total) > REL_TOL * abs(total):
            raise WrongOutput(f"{name} {value!r} disagrees with total {total!r}")
    return {
        "total": total,
        "truncation_estimate": trunc,
        "analytic": analytic,
        "cumulative_total": cumulative,
        "oracle_gap": abs(analytic - extrapolated) / abs(extrapolated),
        "bytes_written": sum(p.stat().st_size for p in outdir.iterdir()),
    }


CHECKED_KEYS = ("total", "analytic", "cumulative_total")


def check_reference(result: dict, expected: dict) -> None:
    """Fail when a checked output is more than REL_TOL away from the reference."""
    for key in CHECKED_KEYS:
        if key in expected:
            got, want = result[key], expected[key]
            if abs(got - want) > REL_TOL * abs(want):
                raise WrongOutput(f"{key} {got!r} differs from reference {want!r}")


def fingerprint(results: list[dict]) -> str:
    """sha256 over the exact bytes of every op's checked outputs, in op order."""
    h = hashlib.sha256()
    for res in results:
        for key in CHECKED_KEYS:
            if key in res:
                h.update(f"{key}={res[key].hex()};".encode())
        h.update(b"\n")
    return h.hexdigest()
