"""Configuration-driven command-line front end.

Subcommands:

* ``propagator`` — evaluate the truncated correction series for the model in
  the config file; writes ``breakdown.csv`` and ``solution.csv``.
* ``compare``    — evaluate the analytic propagator and the time-sliced
  oracles side by side; writes ``compare.csv``.
* ``i1``         — tabulate the one-dimensional quartic integral by all three
  methods over coefficient grids.
* ``table``      — tabulate special functions (pcf, hermite,
  incomplete-hermite, a-coeff).

Config grammar: flat ``key = value`` lines, ``#`` comments (at the start of
a line or after whitespace, so ``#`` inside a value such as a path is kept),
optional ``[section]`` headers that prefix following keys with ``section.``.
A key that neither ``propagator`` nor ``compare`` reads is an error.
``beta`` must be positive.  Coefficients accept ``const:<v>``,
``poly:<c0,c1,...>`` or ``table:<path>`` (CSV of ``tau,value`` rows whose
``tau`` column covers [0, beta]).  All emitted CSV uses ``.`` decimals, 17
significant digits and LF line endings, and is a deterministic function of
(config, seed).

Exit codes: 0 success, 2 configuration error (an output that cannot be
written included), 3 numeric/domain error.
"""
from __future__ import annotations

import argparse
import logging
import math
import re
import sys
from pathlib import Path

import numpy as np

from .anharmonic import MU_CAP, propagator
from .oscillator_ode import (
    GRID_N_MIN,
    CoefficientModel,
    const_coefficient,
    harmonic_propagator,
    poly_coefficient,
    table_coefficient,
)
from .oracle import continuum_extrapolate, wn_montecarlo, wn_quadrature
from .quartic_integral import i1_hermite_method, i1_quadrature, i1_series
from .special_fn import HermiteIncompleteSpec, a_coeff, hermite, incomplete_hermite, pcf_scaled

log = logging.getLogger(__name__)


class ConfigError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def parse_config(path: str) -> dict[str, str]:
    """Flat key-value config with [section] prefixes and # comments; a key
    given twice (in the same section) is an error."""
    cfg: dict[str, str] = {}
    first_line: dict[str, int] = {}
    section = ""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        key = f"{section}.{key}" if section else key
        if key in first_line:
            raise ConfigError(
                f"{path}:{lineno}: repeated key {key!r} (first given on line {first_line[key]})"
            )
        first_line[key] = lineno
        cfg[key] = value
    return cfg


# Every key that propagator or compare reads.  Both accept the same config, so
# a key outside this set is read by neither and is refused, not ignored.
_CONFIG_KEYS = frozenset(
    ["beta", "phi0", "phiN", "mu_max", "grid_n", "coeff.a", "coeff.b", "coeff.c",
     "oracle.N_list", "oracle.samples", "oracle.seed", "oracle.workers"]
)


def _finite(text: str) -> float:
    """float(text), refusing nan and +-inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _parse_coefficient(spec: str, base: Path, beta: float):
    kind, _, payload = spec.partition(":")
    try:
        if kind == "const":
            return const_coefficient(_finite(payload))
        if kind == "poly":
            return poly_coefficient([_finite(t) for t in payload.split(",")])
        if kind == "table":
            rows = np.loadtxt(base / payload, delimiter=",", ndmin=2)
            coefficient = table_coefficient(rows[:, 0], rows[:, 1])
            # The cubic would extrapolate past the samples without a word.
            lo, hi = float(rows[0, 0]), float(rows[-1, 0])
            if not (lo <= 0.0 and hi >= beta):
                raise ConfigError(
                    f"bad coefficient spec {spec!r}: its tau column spans [{lo!r}, {hi!r}],"
                    f" which does not cover [0, beta] = [0, {beta!r}]"
                )
            return coefficient
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"bad coefficient spec {spec!r}: {exc}") from exc
    raise ConfigError(
        f"bad coefficient spec {spec!r}: expected const:, poly: or table:"
    )


def _get(cfg: dict[str, str], key: str, kind=_finite, default=None):
    """cfg[key] converted by `kind` (a finite float by default, or int, str,
    ...); a missing key gives `default`, or is an error when there is none."""
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    try:
        return kind(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def build_model(cfg: dict[str, str], base: Path) -> CoefficientModel:
    beta = _get(cfg, "beta")
    if beta <= 0.0:
        raise ConfigError(f"bad value for beta: {beta!r} is not positive")
    return CoefficientModel(
        a=_parse_coefficient(_get(cfg, "coeff.a", str), base, beta),
        b=_parse_coefficient(_get(cfg, "coeff.b", str), base, beta),
        c=_parse_coefficient(_get(cfg, "coeff.c", str), base, beta),
        beta=beta,
    )


def _series_inputs(cfg: dict[str, str], base: Path):
    """The model, endpoints and series settings shared by propagator and compare."""
    model, phi0, phiN = build_model(cfg, base), _get(cfg, "phi0"), _get(cfg, "phiN")
    mu_max = _get(cfg, "mu_max", int, 2)
    grid_n = _get(cfg, "grid_n", int, 512)
    if not 0 <= mu_max <= MU_CAP:
        raise ConfigError(f"bad value for mu_max: {mu_max} is outside 0..{MU_CAP}")
    if grid_n < GRID_N_MIN:
        raise ConfigError(f"bad value for grid_n: {grid_n} is below {GRID_N_MIN}")
    return model, phi0, phiN, mu_max, grid_n


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def run_propagator(cfg: dict[str, str], base: Path, outdir: Path) -> None:
    model, phi0, phiN, mu_max, grid_n = _series_inputs(cfg, base)
    breakdown = propagator(model, phi0, phiN, mu_max=mu_max, grid_n=grid_n)
    harm = harmonic_propagator(breakdown.solution, breakdown.boundary)[2]
    rows = []
    cumulative = 0.0
    for mu, (coeff, w) in enumerate(
        zip(breakdown.series_coefficients, breakdown.W_mu_terms)
    ):
        cumulative += harm * coeff * w
        rows.append([str(mu), _fmt(coeff), _fmt(w), _fmt(cumulative)])
    _write_csv(outdir / "breakdown.csv", ["mu", "coefficient", "W_mu", "cumulative_total"], rows)

    solution = breakdown.solution
    sol_rows = [
        [_fmt(t), _fmt(q), _fmt(f), _fmt(i)]
        for t, q, f, i in zip(solution.grid, solution.Q, solution.f, solution.I_of_tau)
    ]
    _write_csv(outdir / "solution.csv", ["tau", "Q", "f", "I"], sol_rows)
    print(f"total = {_fmt(breakdown.total)}")
    print(f"truncation_estimate = {_fmt(breakdown.truncation_estimate)}")


def _n_list(text: str) -> list[int]:
    """Slice counts for the oracles: at least 3, none repeated (a repeat makes
    the polynomial-in-1/N extrapolation rank-deficient), each in 1..512."""
    ns = [int(tok) for tok in text.split(",")]
    if not all(1 <= n <= 512 for n in ns) or len(set(ns)) < max(3, len(ns)):
        raise ValueError(f"need at least 3 N, none repeated, each in 1..512, got {text!r}")
    return ns


def run_compare(cfg: dict[str, str], base: Path, outdir: Path) -> None:
    n_list = _get(cfg, "oracle.N_list", _n_list)
    samples = _get(cfg, "oracle.samples", int, 100000)
    seed = _get(cfg, "oracle.seed", int, 0)
    workers = _get(cfg, "oracle.workers", int, 1)
    if samples < 10000:
        raise ConfigError(f"bad value for oracle.samples: {samples} is below 10000")
    if workers < 1:
        raise ConfigError(f"bad value for oracle.workers: {workers} is below 1")
    if seed < 0:
        raise ConfigError(f"bad value for oracle.seed: {seed} is below 0")
    model, phi0, phiN, mu_max, grid_n = _series_inputs(cfg, base)

    analytic = propagator(model, phi0, phiN, mu_max=mu_max, grid_n=grid_n).total
    bd = (phi0, phiN)
    mc_ns = [n for n in n_list if n > 5]
    mc = {}
    if mc_ns:  # one call: every N reads the same streams, drawn once
        mc = dict(zip(mc_ns, wn_montecarlo(model, bd, mc_ns, samples, seed, workers=workers)))
    oracle_rows = []  # (method, N, samples, seed, value, stderr)
    for n in n_list:
        if n <= 5:
            oracle_rows.append(("quadrature", n, 0, 0, wn_quadrature(model, bd, n), 0.0))
        else:
            oracle_rows.append(("montecarlo", n, samples, seed, *mc[n]))
    limit, extrap_err = continuum_extrapolate([(n, v) for _, n, _, _, v, _ in oracle_rows])
    mc_err = max([se for m, *_, se in oracle_rows if m == "montecarlo"], default=0.0)
    combined = max(extrap_err + mc_err, 0.01 * abs(limit) / 3.0, 1e-300)

    rows = [["analytic", "", "", "", _fmt(analytic), _fmt(0.0), _fmt(0.0)]]
    for method, n, ns, sd, val, se in oracle_rows:
        denom = se + abs(val - limit) + 1e-300
        rows.append(
            [method, str(n), str(ns), str(sd), _fmt(val), _fmt(se),
             _fmt(abs(val - analytic) / denom)]
        )
    rows.append(
        ["extrapolated", "", "", "", _fmt(limit), _fmt(extrap_err),
         _fmt(abs(limit - analytic) / combined)]
    )
    _write_csv(
        outdir / "compare.csv",
        ["method", "N", "samples", "seed", "value", "stderr", "discrepancy"],
        rows,
    )
    print(f"analytic = {_fmt(analytic)}")
    print(f"extrapolated = {_fmt(limit)} +- {_fmt(extrap_err)}")


def _grid(spec: str) -> list[float]:
    """'lo:hi:n' -> n evenly spaced points; 'v1,v2,...' -> those values."""
    if ":" in spec:
        lo, hi, n = spec.split(":")
        return list(np.linspace(_finite(lo), _finite(hi), int(n)))
    return [_finite(tok) for tok in spec.split(",")]


def run_i1(args, outdir: Path) -> None:
    rows = []
    for a in args.a:
        for b in args.b:
            for c in args.c:
                quad = i1_quadrature(a, b, c)
                ser = i1_series(a, b, c)
                herm = i1_hermite_method(a, b, c) if b > 0 else math.nan
                rows.append([_fmt(a), _fmt(b), _fmt(c), _fmt(quad), _fmt(ser), _fmt(herm)])
    _write_csv(outdir / "i1.csv", ["a", "b", "c", "quadrature", "series", "hermite"], rows)
    print(f"wrote {len(rows)} rows to {outdir / 'i1.csv'}")


def run_table(args, outdir: Path) -> None:
    kind = args.kind
    if kind == "pcf":
        rows = [
            [_fmt(args.nu), _fmt(z), _fmt(pcf_scaled(args.nu, z))] for z in args.z
        ]
        _write_csv(outdir / "pcf.csv", ["nu", "z", "scriptD"], rows)
    elif kind == "hermite":
        rows = [
            [str(n), _fmt(x), _fmt(hermite(n, x))]
            for n in range(args.n_max + 1)
            for x in args.x
        ]
        _write_csv(outdir / "hermite.csv", ["n", "x", "H_n"], rows)
    elif kind == "incomplete-hermite":
        rows = []
        for n in range(args.n_max + 1):
            for kappa in range(n + 1):
                spec = HermiteIncompleteSpec(n=n, kappa=kappa, gamma=args.tau)
                rows.append(
                    [str(n), str(kappa), _fmt(args.tau),
                     _fmt(incomplete_hermite(spec, args.phi_beta, args.phi_0))]
                )
        _write_csv(
            outdir / "incomplete_hermite.csv",
            ["n", "kappa", "gamma", "H_incomplete"],
            rows,
        )
    elif kind == "a-coeff":
        rows = [
            [str(j), str(k), str(a_coeff(j, k))]
            for k in range(args.k_max + 1)
            for j in range(2 * k + 1)
        ]
        _write_csv(outdir / "a_coeff.csv", ["j", "k", "A_jk"], rows)
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown table kind {kind!r}")
    print(f"wrote {kind} table to {outdir}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _arg(convert):
    """`convert` as an argparse type, so a refused value's message is shown."""

    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anharmprop",
        description="Euclidean propagator of the quartic anharmonic oscillator",
    )
    parser.add_argument("--config", help="path to key=value config file")
    parser.add_argument("--out", default=".", help="output directory (default: cwd)")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("propagator", help="correction-series evaluation")
    sub.add_parser("compare", help="analytic vs time-sliced oracles")

    p_i1 = sub.add_parser("i1", help="quartic integral by three methods")
    p_i1.add_argument("--a", type=_arg(_grid), default="1", help="grid: lo:hi:n or v1,v2,...")
    p_i1.add_argument("--b", type=_arg(_grid), default="1")
    p_i1.add_argument("--c", type=_arg(_grid), default="1")

    p_table = sub.add_parser("table", help="special-function tables")
    p_table.add_argument(
        "--kind",
        required=True,
        choices=["pcf", "hermite", "incomplete-hermite", "a-coeff"],
    )
    p_table.add_argument("--nu", type=_arg(_finite), default=-0.5)
    p_table.add_argument("--z", type=_arg(_grid), default="1:10:10")
    p_table.add_argument("--n-max", type=int, default=8)
    p_table.add_argument("--x", type=_arg(_grid), default="-2:2:9")
    p_table.add_argument("--k-max", type=int, default=6)
    p_table.add_argument("--tau", type=_arg(_finite), default=0.25)
    p_table.add_argument("--phi-beta", type=_arg(_finite), default=0.5)
    p_table.add_argument("--phi-0", type=_arg(_finite), default=0.5)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    outdir = Path(args.out)
    try:
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot write output {outdir}: {exc}") from exc
        if args.command in ("propagator", "compare"):
            if not args.config:
                raise ConfigError(f"{args.command} requires --config")
            cfg = parse_config(args.config)
            unknown = sorted(cfg.keys() - _CONFIG_KEYS)
            if unknown:
                raise ConfigError(f"unknown config key {', '.join(map(repr, unknown))}")
            base = Path(args.config).resolve().parent
            if args.command == "propagator":
                run_propagator(cfg, base, outdir)
            else:
                run_compare(cfg, base, outdir)
        elif args.command == "i1":
            run_i1(args, outdir)
        else:
            run_table(args, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
