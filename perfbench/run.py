"""Layered benchmark of anharmprop.

    python3 perfbench/run.py --workload model-sweep --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``model-sweep``   one op = one propagator(mu_max=2) call on a fresh model;
* ``endpoint-grid`` one op = one propagator(mu_max=4) call, models reused
  across a grid of endpoints;
* ``cli-verify``    one op = ``cli.main(... propagator)`` then ``compare``
  on one generated config.

Each workload is a closed loop with one client in this process.  The run
sets up (imports the package and warms up) in four fresh interpreters started
one after the other and then in this one, reports the median as ``setup_s``,
then runs ops until ``--seconds`` have passed and at least MIN_OPS ops
succeeded.  Op timings are reported at a nominal machine speed measured by a
fixed kernel timed between ops (calibration.py); their wall-clock values go
into the run record.  With ``--trace 1`` each op runs once with spans recorded around
the calls into every layer and once without, on the same inputs, and the
per-layer metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record of
the run (environment, kind mix, failures, output fingerprint, tail
percentile) is printed on the line before it and written under
``.bench_runs/`` in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

sys.path.insert(0, str(ROOT))
from perfbench import calibration, tracing, workloads  # noqa: E402  (no numpy yet)

DEFAULT_SEED = 1
SETUP_SAMPLES = 5  # four fresh interpreters, then this one
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
MIN_OPS = TAIL_BEYOND + 1
COUNT_OPS = 2  # per-layer counts come from the first ops only, so they repeat
GRACE_S = 60.0  # past --seconds, stop even when too few ops succeeded
CLI_POOL = 48  # configs written during set-up on cli-verify
FINGERPRINT_OPS = 10  # every default-length run completes at least these
_clock = time.perf_counter


def _cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

WARM_MODEL = workloads.ModelSpec(
    beta=1.0,
    a=workloads.CoeffSpec("const", (0.05,)),
    b=workloads.CoeffSpec("const", (0.5,)),
    c=workloads.CoeffSpec("const", (1.0,)),
)
WARM_OP = workloads.Op(-1, WARM_MODEL, 0.3, -0.2, 2)


class Bench:
    """Imported modules, the workload's op stream and its working directory."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        import anharmprop
        import numpy
        from anharmprop import anharmonic, cli, oscillator_ode

        self.ap, self.anharmonic, self.cli, self.ode = anharmprop, anharmonic, cli, oscillator_ode
        self.np = numpy
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.ops = workloads.GENERATORS[workload](seed)
        self.configs: dict[int, Path] = {}
        self._models: tuple = (None, None, None)  # (spec, plain, traced)
        self.tracer: tracing.Tracer | None = None

    def set_up(self) -> None:
        """Inputs that set-up provides, then one warm-up call per layer used."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        mu_max = 4 if self.workload == "endpoint-grid" else 2
        model = workloads.build_model(self.ap, WARM_MODEL)
        self.ap.propagator(model, 0.3, -0.2, mu_max=mu_max, grid_n=workloads.GRID_N)
        if self.workload == "cli-verify":
            for op in workloads.first_ops(self.workload, self.seed, CLI_POOL):
                self.configs[op.index] = workloads.write_config(op, self.seed, self.workdir)
            warm_cfg = workloads.write_config(WARM_OP, self.seed, self.workdir)
            with contextlib.redirect_stdout(io.StringIO()):
                self.cli.main(["--config", str(warm_cfg), "--out", str(self.workdir / "warm"),
                               "propagator"])
            bd = (0.3, -0.2)
            values = [(n, self.ap.wn_quadrature(model, bd, n)) for n in (2, 3)]
            values.append((8, self.ap.wn_montecarlo(model, bd, 8, 10_000, self.seed)[0]))
            self.ap.continuum_extrapolate(values)

    def prepare(self, op: workloads.Op, traced: bool):
        """A zero-argument callable that runs the op (inputs built here, untimed)."""
        if self.workload == "cli-verify":
            cfg = self.configs.get(op.index)
            if cfg is None:
                cfg = self.configs[op.index] = workloads.write_config(op, self.seed, self.workdir)
            outdir = self.workdir / ("out-traced" if traced else "out")
            shutil.rmtree(outdir, ignore_errors=True)  # no stale CSVs from the last op
            return lambda: workloads.run_cli_op(self.cli, cfg, outdir)
        spec, plain, wrapped = self._models
        if self.workload == "model-sweep" or spec is not op.model:
            plain = wrapped = None  # model-sweep: nothing is shared between ops
        if traced and wrapped is None:
            wrapped = workloads.build_model(self.ap, op.model, self._wrap_coefficient)
        if not traced and plain is None:
            plain = workloads.build_model(self.ap, op.model)
        self._models = (op.model, plain, wrapped)
        model = wrapped if traced else plain
        return lambda: workloads.run_library_op(self.ap, model, op)

    def _wrap_coefficient(self, coeff):
        return tracing.wrap_coefficient(self.tracer, self.ode.Coefficient, coeff)


def set_up_here(workload: str, seed: int, workdir: Path):
    """Import the package and warm up; returns (bench, import_s, warmup_s)."""
    t0 = _clock()
    import anharmprop  # noqa: F401  (the timed import)

    t1 = _clock()
    bench = Bench(workload, seed, workdir)
    bench.set_up()
    return bench, t1 - t0, _clock() - t1


def set_up_in_fresh_interpreter(workload: str, seed: int) -> tuple[float, float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["import_s"], probe["warmup_s"]


# ---------------------------------------------------------------------------
# Timed phase
# ---------------------------------------------------------------------------


def load_reference(workload: str, seed: int) -> list[dict]:
    if seed != DEFAULT_SEED or not REFERENCE.exists():
        return []
    data = json.loads(REFERENCE.read_text())
    if data["seed"] != seed:
        return []
    return data["ops"].get(workload, [])


def run_op(fn, op, reference: list[dict]):
    """Time one prepared op; returns (seconds, result or None, failure or None).

    A failure is a "wrong output" when the op returned numbers that fail a
    check, and an "error" when the program raised or exited non-zero.
    """
    t0 = _clock()
    try:
        result = fn()
        dt = _clock() - t0
        expected = reference[op.index] if op.index < len(reference) else None
        if expected is not None:
            workloads.check_reference(result, expected)
    except workloads.WrongOutput as exc:
        return _clock() - t0, None, _failure(op, "wrong output", exc)
    except Exception as exc:  # a failing op is counted, the run goes on
        return _clock() - t0, None, _failure(op, "error", exc)
    return dt, result, None


def _failure(op, kind: str, exc: Exception) -> dict:
    return {"op": op.index, "kinds": op.model.kinds, "kind": kind,
            "message": f"{type(exc).__name__}: {exc}"}


def _more(start: float, seconds: float, succeeded: int, min_ops: int) -> bool:
    elapsed = _clock() - start
    return elapsed < seconds or (succeeded < min_ops and elapsed < seconds + GRACE_S)


def timed_loop(bench: Bench, seconds: float, reference, min_ops: int = MIN_OPS) -> dict:
    """Untraced closed loop: ops until `seconds` have passed and min_ops succeeded.

    The calibration kernel runs between ops.  `latencies` are the times of
    the ops that succeeded at the nominal speed and `raw_latencies` their
    wall times; `busy_s` is the nominal-speed time of every op attempted.
    Failed ops count in `failures` against the ops attempted.
    """
    meter = calibration.SpeedMeter(bench.np)
    timings, results, failures, kinds = [], [], [], Counter()  # timings: (start, s, ok)
    meter.sample()
    start = _clock()
    while _more(start, seconds, len(results), min_ops):
        op = next(bench.ops)
        fn = bench.prepare(op, False)
        t0 = _clock()
        dt, res, err = run_op(fn, op, reference)
        meter.sample()
        timings.append((t0, dt, err is None))
        kinds.update(f"{n}.{getattr(op.model, n).kind}" for n in "abc")
        if err:
            failures.append(err)
        else:
            results.append(res)
    elapsed = _clock() - start
    nominal = [meter.nominal(dt, t0) for t0, dt, _ in timings]
    return {"elapsed": elapsed, "attempted": len(timings),
            "latencies": [n for n, (_, _, ok) in zip(nominal, timings) if ok],
            "raw_latencies": [dt for _, dt, ok in timings if ok], "busy_s": sum(nominal),
            "results": results, "failures": failures, "kinds": dict(sorted(kinds.items()))}


def traced_loop(bench: Bench, seconds: float, reference, min_ops: int = COUNT_OPS) -> dict:
    """Each op traced, then untraced on the same inputs, until `seconds` pass.

    `pairs` holds (op index, traced s, untraced s) of the ops that succeeded;
    the per-layer metrics come from those ops only.
    """
    tracer = bench.tracer = tracing.Tracer()
    pairs, results, failures, kinds = [], [], [], Counter()
    start = _clock()
    while _more(start, seconds, len(pairs), min_ops):
        op = next(bench.ops)
        fn = bench.prepare(op, True)
        tracer.op = op.index
        with tracing.instrumented(tracer, bench.anharmonic, bench.ode, bench.cli):
            with tracer.span("op"):
                dt_t, res_t, err = run_op(fn, op, reference)
        tracer.op = None
        dt_u, res_u, err_u = run_op(bench.prepare(op, False), op, reference)
        err = err or err_u
        if not err and any(res_t[k] != res_u[k] for k in workloads.CHECKED_KEYS if k in res_t):
            err = _failure(op, "wrong output", workloads.WrongOutput("traced output differs"))
        kinds.update(f"{n}.{getattr(op.model, n).kind}" for n in "abc")
        if err:
            failures.append(err)
        else:
            pairs.append((op.index, dt_t, dt_u))
            results.append(res_t)
    return {"elapsed": _clock() - start, "attempted": len(pairs) + len(failures),
            "pairs": pairs, "results": results,
            "failures": failures, "kinds": dict(sorted(kinds.items()))}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail_percentile(samples: list[float]) -> tuple[float, float, int] | None:
    """(percentile, value, samples beyond) for the highest percentile that has
    at least TAIL_BEYOND samples beyond it; None with too few samples."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(samples)
    k = n - TAIL_BEYOND  # the k-th smallest has exactly TAIL_BEYOND above it
    return 100.0 * k / n, ordered[k - 1], TAIL_BEYOND


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(loop: dict, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and details that go next to them.

    Op timings are at the nominal speed (calibration.py); the details carry
    their wall-clock values too.  `setup_s` stays wall-clock: it is over
    before the kernel runs, and scaling it by a kernel sample taken right
    after set-up made it less steady on the machine this was written on.
    """
    lat, raw = loop["latencies"], loop["raw_latencies"]
    attempted = loop["attempted"]
    tail = tail_percentile(lat)
    raw_tail = tail_percentile(raw)
    gaps = [r["oracle_gap"] for r in loop["results"] if "oracle_gap" in r]
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail[1] if tail else max(lat), "s"),
        "throughput_per_s": (len(lat) / loop["busy_s"], "1/s"),
        "success_ratio": ((attempted - len(loop["failures"])) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details = {
        "latency_tail_percentile": tail[0] if tail else None,
        "latency_tail_samples_beyond": tail[2] if tail else 0,
        "latency_samples": len(lat),
        "failed_ratio": len(loop["failures"]) / attempted,
        "oracle_gap_max": max(gaps) if gaps else None,
        "wall_clock": {
            "latency_p50_s": statistics.median(raw),
            "latency_tail_s": raw_tail[1] if raw_tail else max(raw),
            "throughput_per_s": len(lat) / loop["elapsed"],
        },
        "speed_factor": statistics.median(r / n for r, n in zip(raw, lat)),
        "op_latencies_s": lat,
        "op_wall_clock_s": raw,
    }
    return metrics, details


def per_layer(loop: dict, tracer: tracing.Tracer, import_s: float, warmup_s: float) -> dict:
    """Per-op layer metrics from the spans of a traced loop."""
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    op_ids = [p[0] for p in loop["pairs"]]
    succeeded = set(op_ids)
    n_ops = len(op_ids)
    count_ids = set(op_ids[:COUNT_OPS])
    dur = defaultdict(float)  # name -> seconds over all traced ops
    self_s = defaultdict(float)
    counts = Counter()  # name -> calls over the count ops
    ode_splines = cli_solves = 0  # spline builds in solve_Q; solve_Q in cli.propagator
    for idx, rec in enumerate(spans):
        if rec[tracing.OP] not in succeeded:
            continue
        name = rec[tracing.NAME]
        dur[name] += rec[tracing.END] - rec[tracing.START]
        self_s[name] += selfs[idx]
        if rec[tracing.OP] in count_ids:
            counts[name] += 1
            parent = rec[tracing.PARENT]
            if name == "ode.spline_build" and parent >= 0 and spans[parent][tracing.NAME] == "ode.solve_Q":
                ode_splines += 1
            if name == "ode.solve_Q" and _has_ancestor(spans, idx, "cli.propagator"):
                cli_solves += 1
    leaf_calls = sum(tracer.leaf_calls[op] for op in count_ids)
    leaf_s = sum(tracer.leaf_s[op] for op in succeeded)
    results = loop["results"]
    op_s = dur["op"]

    def per_op(x):
        return x / n_ops

    def share(x):
        return x / op_s if op_s > 0 else 0.0

    def per_count(x):
        return x / len(count_ids)

    w_mu = [n for n in dur if n.startswith("series.w_mu.")]
    oracle = [n for n in dur if n.startswith("oracle.")]
    cli_names = ("cli.main", "cli.propagator", "cli.compare", "cli.build_model")
    mc_s = dur["oracle.wn_montecarlo"]
    mc_calls = sum(1 for rec in spans
                   if rec[tracing.NAME] == "oracle.wn_montecarlo" and rec[tracing.OP] in succeeded)
    gaps = [r["oracle_gap"] for r in results if "oracle_gap" in r]
    first_bytes = [r["bytes_written"] for r in results[:COUNT_OPS] if "bytes_written" in r]
    pairs = loop["pairs"]
    m = {
        "import.s": (import_s, "s"),
        "warmup.s": (warmup_s, "s"),
        "op.s": (per_op(op_s), "s"),
        "coeff.calls": (per_count(leaf_calls), "count"),
        "coeff.s": (per_op(leaf_s), "s"),
        "ode.solve_Q.calls": (per_count(counts["ode.solve_Q"]), "count"),
        "ode.solve_Q.s": (per_op(dur["ode.solve_Q"]), "s"),
        "ode.solve_Q.self_s": (per_op(self_s["ode.solve_Q"]), "s"),
        "ode.spline_builds": (per_count(ode_splines), "count"),
        "series.w_mu.calls": (per_count(sum(counts[n] for n in w_mu)), "count"),
    }
    for mu in range(1, 5):
        m[f"series.w_mu.mu{mu}.s"] = (per_op(dur[f"series.w_mu.mu{mu}"]), "s")
    m.update({
        "series.p1_series.s": (per_op(dur["series.p1_series"]), "s"),
        "series.spline_builds": (per_count(counts["series.spline_build"]), "count"),
        "oracle.wn_quadrature.calls": (per_count(counts["oracle.wn_quadrature"]), "count"),
        "oracle.wn_quadrature.s": (per_op(dur["oracle.wn_quadrature"]), "s"),
        "oracle.wn_montecarlo.s": (per_op(mc_s), "s"),
        "oracle.wn_montecarlo.samples_per_s": (
            mc_calls * workloads.ORACLE_SAMPLES / mc_s if mc_s > 0 else 0.0, "1/s"),
        "oracle.continuum_extrapolate.s": (per_op(dur["oracle.continuum_extrapolate"]), "s"),
        "cli.propagator.s": (per_op(dur["cli.propagator"]), "s"),
        "cli.compare.s": (per_op(dur["cli.compare"]), "s"),
        "cli.self_s": (per_op(sum(self_s[n] for n in cli_names)), "s"),
        "cli.solve_Q_per_propagator": (
            cli_solves / counts["cli.propagator"] if counts["cli.propagator"] else 0.0, "count"),
        "cli.bytes_written": (sum(first_bytes) / len(first_bytes) if first_bytes else 0.0, "B"),
        "share.ode": (share(sum(dur[n] for n in ("ode.solve_Q", "ode.make_boundary",
                                                 "ode.harmonic_propagator"))), "ratio"),
        "share.series": (share(sum(dur[n] for n in w_mu) + dur["series.p1_series"]), "ratio"),
        "share.oracle": (share(sum(dur[n] for n in oracle)), "ratio"),
        "share.cli": (share(sum(self_s[n] for n in cli_names)), "ratio"),
        "oracle_gap_max": (max(gaps) if gaps else 0.0, "ratio"),
        "trace.overhead_ratio": (sum(p[1] for p in pairs) / sum(p[2] for p in pairs), "ratio"),
    })
    return m


def _has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][tracing.PARENT]
    while parent >= 0:
        if spans[parent][tracing.NAME] == name:
            return True
        parent = spans[parent][tracing.PARENT]
    return False


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": _git_commit(),
        "machine_settings": "none changed to take these measurements",
    }


def _metric_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nproc = _cap_blas_threads()
    if not (SRC / "anharmprop" / "__init__.py").is_file():
        print(f"benchmark: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{os.getpid()}"
    # The other interpreters set up first: once numpy is loaded here, its idle
    # BLAS threads could compete with them for the CPUs.
    samples = [] if args.probe else [set_up_in_fresh_interpreter(args.workload, args.seed)
                                     for _ in range(SETUP_SAMPLES - 1)]
    try:
        bench, import_s, warmup_s = set_up_here(args.workload, args.seed, workdir)
        if args.probe:
            print(json.dumps({"import_s": import_s, "warmup_s": warmup_s}))
            return 0
        samples.append((import_s, warmup_s))
        reference = load_reference(args.workload, args.seed)
        loop = (traced_loop if args.trace else timed_loop)(bench, args.seconds, reference)
        if not loop["results"]:
            print(f"benchmark: no op succeeded; failures: {loop['failures'][:3]}", file=sys.stderr)
            return 3
        if args.trace:
            metrics = per_layer(loop, bench.tracer,
                                statistics.median(i for i, _ in samples),
                                statistics.median(w for _, w in samples))
            details = {"trace_pairs": len(loop["pairs"])}
        else:
            metrics, details = end_to_end(loop, statistics.median(i + w for i, w in samples))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    attempted, failed = loop["attempted"], len(loop["failures"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(nproc),
        "setup_samples": [{"import_s": i, "warmup_s": w} for i, w in samples],
        "kind_mix": loop["kinds"], "failures": loop["failures"],
        "fingerprint": {"ops": len(loop["results"][:FINGERPRINT_OPS]),
                        "sha256": workloads.fingerprint(loop["results"][:FINGERPRINT_OPS])},
        "reference_checked_ops": min(len(reference), attempted),
        **details, "metrics": _metric_json(metrics),
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        bench.tracer.write(OUT / f"{tag}.spans.jsonl")
    _print_table(f"{tag}: {attempted} ops, {failed} failed", metrics)
    if not args.trace:
        pct = details["latency_tail_percentile"]
        print(f"  latency_tail_s is p{pct:.1f} of {details['latency_samples']} ops, "
              f"{details['latency_tail_samples_beyond']} beyond" if pct else
              "  latency_tail_s is the maximum: too few ops for the tail rule")
        print(f"  failed_ratio {details['failed_ratio']:.6g} ratio; "
              f"oracle_gap_max {details['oracle_gap_max']} ratio")
        print(f"  wall-clock (speed factor {details['speed_factor']:.4g}): "
              f"{details['wall_clock']}")
    print(json.dumps(record))
    correct = not any(f["kind"] == "wrong output" for f in loop["failures"])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": _metric_json(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
