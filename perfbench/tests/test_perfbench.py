"""Tests of the benchmark itself: input generator, tail rule, span arithmetic,
speed calibration, metric names, and a one-op smoke run of every workload."""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import run, tracing, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SEEDS = (0, 1, 7, 12345)


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.first_ops(workload, 3, 20)
    assert first == workloads.first_ops(workload, 3, 20)
    assert first != workloads.first_ops(workload, 4, 20)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generated_models_are_valid(workload, seed):
    import anharmprop as ap
    import numpy as np

    for op in workloads.first_ops(workload, seed, 36):
        spec = op.model
        assert 0.5 <= spec.beta <= 2.0
        assert -1.0 <= op.phi0 <= 1.0 and -1.0 <= op.phiB <= 1.0
        model = workloads.build_model(ap, spec)  # the library validates a >= 0, c > 0
        tau = np.linspace(0.0, spec.beta, 1001)
        a, b, c = model.a(tau), model.b(tau), model.c(tau)
        assert np.all(a >= 0.0)
        assert np.all(b > 0.0)
        assert np.all(c > 0.0)
        if spec.c.kind == "table":  # knots within +-20 %, the spline close to them
            assert c.max() / c.min() <= 1.01 * 1.2 / 0.8
        else:
            assert np.all(np.abs(c / spec.c.numbers[0] - 1.0) <= 0.2 + 1e-12)


@pytest.mark.parametrize("seed", SEEDS)
def test_kinds_are_stratified(seed):
    ops = workloads.first_ops("model-sweep", seed, 36)
    for start in range(0, 36, 3):
        group = ops[start : start + 3]
        for name in "abc":
            assert sorted(getattr(op.model, name).kind for op in group) == sorted(workloads.KINDS)
    for start in range(0, 36, 9):
        block = [op.model for op in ops[start : start + 9]]
        for x, y in ("ab", "ac", "bc"):
            assert len({(getattr(m, x).kind, getattr(m, y).kind) for m in block}) == 9


def test_endpoint_grid_reuses_each_model_for_its_grid():
    ops = workloads.first_ops("endpoint-grid", 5, 18)
    per_model = len(workloads.ENDPOINT_GRID[0]) * len(workloads.ENDPOINT_GRID[1])
    for start in range(0, 18, per_model):
        group = ops[start : start + per_model]
        assert all(op.model is group[0].model for op in group)
        assert len({(op.phi0, op.phiB) for op in group}) == per_model
    assert ops[0].model is not ops[per_model].model


def test_config_round_trips_the_model(tmp_path):
    from anharmprop import cli

    op = workloads.first_ops("cli-verify", 2, 3)[1]
    cfg = workloads.write_config(op, 2, tmp_path)
    parsed = cli.parse_config(str(cfg))
    model = cli.build_model(parsed, tmp_path)
    assert float(parsed["phi0"]) == op.phi0 and float(parsed["phiN"]) == op.phiB
    assert model.beta == op.model.beta
    assert parsed["oracle.N_list"] == "2,3,4,5,32,64" and parsed["oracle.samples"] == "100000"


# ---------------------------------------------------------------------------
# Metric arithmetic
# ---------------------------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 10) is None
    pct, value, beyond = run.tail_percentile([float(i) for i in range(11)])
    assert (value, beyond) == (0.0, 10) and pct == pytest.approx(100.0 / 11)
    samples = [float(i) for i in range(100, 0, -1)]
    pct, value, beyond = run.tail_percentile(samples)
    assert pct == 90.0 and value == 90.0
    assert sum(1 for s in samples if s > value) == beyond == 10


def _span(name, start, end, parent, leaf=0.0):
    return [name, start, end, parent, 0, leaf]


def test_self_time_subtracts_children_and_leaf_time():
    spans = [
        _span("op", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 4.0, 0),  # overlaps a: the union [1, 4] counts once
        _span("c", 9.0, 12.0, 0),  # clipped to the parent's end
        _span("d", 1.5, 2.5, 1, leaf=0.25),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[4] == pytest.approx(1.0 - 0.25)
    assert selfs[3] == pytest.approx(3.0)


def test_tracer_nests_spans_and_counts_leaf_calls():
    tracer = tracing.Tracer()
    leaf = tracer.wrap_leaf(lambda v: v + 1)
    outer = tracer.wrap("outer", lambda: leaf(1) + leaf(2))
    assert leaf(0) == 1  # outside any span: not counted
    tracer.op = 3
    with tracer.span("op"):
        assert outer() == 5
    names = [rec[tracing.NAME] for rec in tracer.spans]
    assert names == ["op", "outer"]
    assert tracer.spans[1][tracing.PARENT] == 0
    assert tracer.leaf_calls == {3: 2}
    assert tracer.spans[1][tracing.LEAF_S] > 0.0


def test_nominal_speed_uses_kernel_samples_near_the_op():
    import numpy as np

    from perfbench import calibration

    meter = calibration.SpeedMeter(np)
    nominal = calibration.NOMINAL_S
    meter.times, meter.seconds = [0.0, 5.0, 30.0], [nominal, 2.0 * nominal, 10.0 * nominal]
    assert meter.nominal(1.0, 4.5) == pytest.approx(1.0 / 1.5)  # samples at 0 and 5 only
    assert meter.nominal(1.0, 29.5) == pytest.approx(0.1)
    meter.sample()
    assert len(meter.seconds) == 4 and meter.seconds[-1] > 0.0


def test_reference_check_uses_relative_tolerance():
    workloads.check_reference({"total": 1.0 + 5e-10}, {"total": 1.0})
    with pytest.raises(workloads.WrongOutput):
        workloads.check_reference({"total": 1.0 + 2e-9}, {"total": 1.0})


def test_metric_names_use_the_allowed_charset():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name


# ---------------------------------------------------------------------------
# Smoke runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=sorted(workloads.GENERATORS))
def smoke(request, tmp_path_factory):
    workload = request.param
    bench, import_s, warmup_s = run.set_up_here(workload, 3, tmp_path_factory.mktemp(workload))
    untraced = run.timed_loop(bench, 0.0, [], min_ops=1)
    traced = run.traced_loop(bench, 0.0, [], min_ops=1)
    e2e, details = run.end_to_end(untraced, import_s + warmup_s)
    layers = run.per_layer(traced, bench.tracer, import_s, warmup_s)
    return workload, untraced, traced, e2e, details, layers


def test_smoke_run_prints_every_listed_metric(smoke):
    workload, untraced, traced, e2e, details, layers = smoke
    assert set(e2e) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(layers) == {m["name"] for m in BENCHMARK["per_layer"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    for name, (value, unit) in {**e2e, **layers}.items():
        assert math.isfinite(value), name
        assert unit == units[name], name
    for name, (value, _) in e2e.items():
        assert value > 0.0, name


def test_smoke_run_outputs_are_correct(smoke):
    workload, untraced, traced, *_ = smoke
    for loop in (untraced, traced):
        assert not [f for f in loop["failures"] if f["kind"] == "wrong output"]
        for res in loop["results"]:
            assert math.isfinite(res["total"]) and res["total"] > 0.0


def test_smoke_run_layers_match_the_workload(smoke):
    workload, _, traced, _, details, layers = smoke
    assert layers["ode.solve_Q.calls"][0] >= 1
    assert layers["coeff.calls"][0] > 0
    if workload == "cli-verify":
        assert layers["oracle.wn_quadrature.calls"][0] == 4
        assert layers["cli.solve_Q_per_propagator"][0] >= 1
        assert layers["cli.bytes_written"][0] > 0
        assert details["oracle_gap_max"] is not None
    else:
        assert layers["oracle.wn_quadrature.s"][0] == 0.0
        assert layers["share.oracle"][0] == 0.0
    if workload == "endpoint-grid":
        assert layers["series.w_mu.mu4.s"][0] > 0.0


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "model-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
