"""Spans around the calls into each layer, recorded from outside the program.

`instrumented(tracer, anharmonic, oscillator_ode, cli)` rebinds the names
that caller modules look up, so calls between the package's own modules
pass through a span:

* in ``anharmonic``: solve_Q, make_boundary, harmonic_propagator, w_mu,
  p1_series and CubicSpline (spline builds of the series layer);
* in ``oscillator_ode``: solve_Q (the CLI imports it locally) and
  CubicSpline (spline builds of the ODE layer);
* in ``cli``: main, run_propagator, run_compare, propagator, wn_quadrature,
  wn_montecarlo, continuum_extrapolate, build_model and the coefficient
  factories, whose products get wrapped callables.

Coefficient callables run about 50 000 times per ODE solve, so they are not
stored as spans: each call adds its duration and a count to the enclosing
span instead, which keeps self times exact without holding millions of
records.  Spans stay in memory until `write` is called at the end of a run.
"""
from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

_clock = time.perf_counter

# Span record fields.
NAME, START, END, PARENT, OP, LEAF_S = range(6)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self.leaf_calls: dict[int, int] = defaultdict(int)  # op -> calls
        self.leaf_s: dict[int, float] = defaultdict(float)  # op -> seconds

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), None, parent, self.op, 0.0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = _clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, name, fn):
        """fn wrapped in a span; `name` may be a callable of fn's arguments."""

        def traced(*args, **kwargs):
            idx = self.open(name(*args, **kwargs) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def wrap_leaf(self, fn):
        """fn counted and timed against the enclosing span, inside ops only."""

        def counted(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                parent = self._stack[-1]
                self.spans[parent][LEAF_S] += dt
                self.leaf_calls[self.op] += 1
                self.leaf_s[self.op] += dt

        return counted

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op, leaf_s."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that child spans cover.

    Children of one span run one after another in a single thread, but the
    union of their intervals is taken anyway, clipped to the parent, so that
    overlapping or out-of-range children never count twice.  Aggregated leaf
    time (coefficient calls) is subtracted as well.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    out = []
    for idx, rec in enumerate(spans):
        lo, hi = rec[START], rec[END]
        covered = 0.0
        cur_start = cur_end = None
        for s, e in sorted(children.get(idx, ())):
            s, e = max(s, lo), min(e, hi)
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(max(0.0, (hi - lo) - covered - rec[LEAF_S]))
    return out


def wrap_coefficient(tracer: Tracer, coeff_cls, coeff):
    """A Coefficient whose value/d1/d2 callables are counted and timed."""
    return coeff_cls(
        coeff.kind,
        *(tracer.wrap_leaf(getattr(coeff, part)) for part in ("value", "d1", "d2")),
        describe=coeff.describe,
    )


def _w_mu_name(solution, model, boundary, mu):
    return f"series.w_mu.mu{mu}"


@contextlib.contextmanager
def instrumented(tracer: Tracer, anharmonic, oscillator_ode, cli):
    """Rebind the looked-up names for the duration of the block."""
    saved = []

    def rebind(module, attr, replacement):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def spanned(module, attr, name):
        rebind(module, attr, tracer.wrap(name, getattr(module, attr)))

    spanned(anharmonic, "solve_Q", "ode.solve_Q")
    spanned(anharmonic, "make_boundary", "ode.make_boundary")
    spanned(anharmonic, "harmonic_propagator", "ode.harmonic_propagator")
    spanned(anharmonic, "w_mu", _w_mu_name)
    spanned(anharmonic, "p1_series", "series.p1_series")
    spanned(anharmonic, "CubicSpline", "series.spline_build")
    spanned(oscillator_ode, "solve_Q", "ode.solve_Q")
    spanned(oscillator_ode, "CubicSpline", "ode.spline_build")
    spanned(cli, "main", "cli.main")
    spanned(cli, "run_propagator", "cli.propagator")
    spanned(cli, "run_compare", "cli.compare")
    spanned(cli, "build_model", "cli.build_model")
    spanned(cli, "propagator", "series.propagator")
    spanned(cli, "wn_quadrature", "oracle.wn_quadrature")
    spanned(cli, "wn_montecarlo", "oracle.wn_montecarlo")
    spanned(cli, "continuum_extrapolate", "oracle.continuum_extrapolate")
    for factory in ("const_coefficient", "poly_coefficient", "table_coefficient"):
        build = getattr(cli, factory)
        rebind(
            cli,
            factory,
            lambda *a, _build=build, **k: wrap_coefficient(
                tracer, oscillator_ode.Coefficient, _build(*a, **k)
            ),
        )
    try:
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
