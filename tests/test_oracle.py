"""Tests for the time-sliced oracles: the sampled model and its refusals, the
transfer-matrix quadrature, the Monte Carlo estimator, the exact
parabolic-cylinder multi-sum, and the continuum extrapolation.
"""
import logging
import math
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.linalg import solve_banded

from anharmprop import (
    CoefficientModel,
    continuum_extrapolate,
    make_boundary,
    mehler_reference,
    poly_coefficient,
    sliced_model,
    solve_Q,
    table_coefficient,
    wn_montecarlo,
    wn_quadrature,
    wn_series_exact,
)
from anharmprop import oracle

REFERENCE = CoefficientModel(a=0.05, b=0.5, c=1.0, beta=1.0)
BOUNDARY = (0.3, -0.2)
VARYING = CoefficientModel(
    a=poly_coefficient([0.05, 0.02]),
    b=poly_coefficient([0.5, -0.1]),
    c=poly_coefficient([1.0, 0.15]),
    beta=1.1,
)
TABLE = CoefficientModel(
    a=table_coefficient(np.linspace(0.0, 1.2, 5), [0.05, 0.08, 0.03, 0.06, 0.04]),
    b=poly_coefficient([0.5, -0.1]),
    c=poly_coefficient([1.0, 0.15]),
    beta=1.2,
)

# a = (tau - 1/3)^2 - 1e-7 passes CoefficientModel's probe of a but is
# negative at tau = 1/3, a slice point of N = 3 and N = 6 on beta = 1.
NEGATIVE_A = CoefficientModel(
    a=poly_coefficient([1.0 / 9.0 - 1e-7, -2.0 / 3.0, 1.0]), b=0.5, c=1.0, beta=1.0
)

# b = 0.5 + 300.5 tau - 601 tau^2 is positive up to tau = 1/2 and strongly
# negative after it, so the first slice too coarse for it is an inner one:
# i = 2 at N = 3, i = 3 at N = 5 and i = 6 at N = 8.
LATE_NEGATIVE_B = CoefficientModel(
    a=0.05, b=poly_coefficient([0.5, 300.5, -601.0]), c=1.0, beta=1.0
)


def _full_matrix_slice_factor(sm, i, x, y):
    """exp(-delta [c_i (y-x)^2/(2 delta^2) + b_i y^2 + a_i y^4]) in one
    expression, as the transfer step first evaluated it on the node matrix."""
    d = sm.delta
    return np.exp(
        -(sm.c[i] * (y - x) ** 2 / (2.0 * d) + d * (sm.b[i] * y**2 + sm.a[i] * y**4))
    )


def _full_matrix_transfer(sm, n_nodes, radius):
    """The transfer step as it was first written, with fresh Gauss-Legendre
    nodes from leggauss on every call."""
    N, d = sm.N, sm.delta
    xg, wg = leggauss(n_nodes)
    xg = xg * radius
    wg = wg * radius
    F = _full_matrix_slice_factor(sm, 1, sm.phi0, xg)
    for i in range(2, N):
        meas = (2.0 * math.pi * d / sm.c[i - 1]) ** -0.5
        F = meas * (_full_matrix_slice_factor(sm, i, xg[:, None], xg[None, :]).T @ (wg * F))
    meas = (2.0 * math.pi * d / sm.c[N - 1]) ** -0.5
    last = float(np.sum(wg * F * _full_matrix_slice_factor(sm, N, xg, sm.phiN)))
    return (2.0 * math.pi * d / sm.c[0]) ** -0.5 * meas * last


def _pow4_montecarlo(model, boundary, N, samples, seed):
    """An independent reference for wn_montecarlo's chunk kernel: the same
    Philox streams, chunking and chunk reduction, but one (count, n) draw per
    chunk, LAPACK's banded solve, libm pow for phi**4 and numpy's pairwise
    row sum."""
    sm = sliced_model(model, N, *boundary)
    chol, mean, log_z = oracle._bridge_setup(sm)
    n_chunks = (samples + oracle._MC_CHUNK - 1) // oracle._MC_CHUNK
    seqs = np.random.SeedSequence(seed).spawn(n_chunks)
    sum_w = sum_w2 = 0.0
    for k in range(n_chunks):
        count = min(oracle._MC_CHUNK, samples - k * oracle._MC_CHUNK)
        rng = np.random.Generator(np.random.Philox(seqs[k]))
        xi = rng.standard_normal((count, mean.size))
        phi = mean + solve_banded((0, 1), chol, xi.T, check_finite=False).T
        w = np.exp(-sm.delta * (sm.a[1:N] * phi**4).sum(axis=1))
        sum_w += float(np.sum(w))
        sum_w2 += float(np.sum(w * w))
    mean_w = sum_w / samples
    stderr = math.sqrt(max(sum_w2 / samples - mean_w**2, 0.0) / samples)
    z_gauss = math.exp(log_z)
    return z_gauss * mean_w, z_gauss * stderr


class TestSlicedModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            sliced_model(REFERENCE, 0, *BOUNDARY)

    def test_coarse_slice_with_negative_b_is_refused(self):
        # sigma_1 = 1 / ((c_1 + c_2)/(2 delta) + b_1 delta): with delta = 1/2
        # the denominator is 2 - 5/2 < 0.
        model = CoefficientModel(a=0.05, b=-5.0, c=1.0, beta=1.0)
        with pytest.raises(ArithmeticError, match=r"sigma_1 not positive .* b_1=-5\.0"):
            sliced_model(model, 2, *BOUNDARY)
        # 1/sigma_i = 8 + b_i / 8 at N = 8 is positive up to i = 5 and
        # negative from i = 6 on; the first bad i is named.
        with pytest.raises(ArithmeticError, match=r"sigma_6 not positive .* b_6=-112\.1875\)"):
            sliced_model(LATE_NEGATIVE_B, 8, *BOUNDARY)

    def test_negative_quartic_on_the_lattice_is_named(self):
        with pytest.raises(ValueError, match=r"a_2 = -1\.0\d*e-07 at tau_2 = 0\.333"):
            sliced_model(NEGATIVE_A, 6, *BOUNDARY)
        # The model's own probe does not see it, and off 1/3 the lattice is fine.
        assert sliced_model(NEGATIVE_A, 4, *BOUNDARY).a.min() > 0.0


@pytest.mark.parametrize(
    "oracle_call",
    [
        lambda: wn_quadrature(NEGATIVE_A, BOUNDARY, 3),
        lambda: wn_montecarlo(NEGATIVE_A, BOUNDARY, 3, 10_000, 0),
        lambda: wn_series_exact(NEGATIVE_A, BOUNDARY, 3),
    ],
    ids=["quadrature", "montecarlo", "series-exact"],
)
def test_negative_quartic_is_refused_by_every_oracle(oracle_call):
    # Unchecked, the Monte Carlo weight exp(-delta a_1 phi^4) grows without
    # bound in phi and the estimate came back as an ordinary number.
    with pytest.raises(ValueError, match=r"a_1 = .* at tau_1 = 0\.333"):
        oracle_call()


@pytest.mark.parametrize(
    "oracle_call, i",
    [
        (lambda: wn_quadrature(LATE_NEGATIVE_B, BOUNDARY, 5), 3),
        (lambda: wn_montecarlo(LATE_NEGATIVE_B, BOUNDARY, 8, 10_000, 0), 6),
        (lambda: wn_series_exact(LATE_NEGATIVE_B, BOUNDARY, 3), 2),
    ],
    ids=["quadrature", "montecarlo", "series-exact"],
)
def test_coarse_inner_slice_is_refused_before_sampling(monkeypatch, oracle_call, i):
    def no_sampling(*args, **kwargs):
        raise AssertionError("the oracle sampled a model with a non-positive slice width")

    for name in ("_wn_transfer", "_bridge_setup", "_mc_chunk", "_series_prefactor", "_series_sum"):
        monkeypatch.setattr(oracle, name, no_sampling)
    with pytest.raises(ArithmeticError, match=rf"sigma_{i} not positive"):
        oracle_call()


@pytest.mark.parametrize(
    "oracle_call",
    [
        lambda bd: wn_quadrature(REFERENCE, bd, 3),
        lambda bd: wn_montecarlo(REFERENCE, bd, 8, 10_000, 0),
        lambda bd: wn_series_exact(REFERENCE, bd, 3),
    ],
    ids=["quadrature", "montecarlo", "series-exact"],
)
def test_boundary_data_gives_the_tuple_result(oracle_call):
    # The endpoints of a BoundaryData are its phi0 and phiB, bit for bit.
    boundary = make_boundary(solve_Q(REFERENCE), *BOUNDARY)
    assert repr(oracle_call(boundary)) == repr(oracle_call(BOUNDARY))


@pytest.mark.parametrize(
    "oracle_call",
    [
        lambda bd: wn_quadrature(REFERENCE, bd, 3),
        lambda bd: wn_montecarlo(REFERENCE, bd, 8, 10_000, 0),
    ],
    ids=["quadrature", "montecarlo"],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["phi0", "phiN"])
def test_non_finite_endpoint_is_named(oracle_call, bad, name):
    # Unchecked, the oracles warn and then report a failed convergence.
    endpoints = {"phi0": 0.3, "phiN": -0.2, name: bad}
    with pytest.raises(ValueError, match=f"endpoint {name} must be finite"):
        oracle_call((endpoints["phi0"], endpoints["phiN"]))


class TestQuadrature:
    def test_harmonic_sequence_approaches_mehler(self):
        # For a = 0 the sliced propagator converges to the Mehler kernel;
        # with only N <= 5 available, check the Richardson-accelerated trend.
        model = CoefficientModel(a=0.0, b=0.5, c=1.0, beta=1.0)
        target = mehler_reference(1.0, 1.0, *BOUNDARY)
        vals = {N: wn_quadrature(model, BOUNDARY, N) for N in (2, 3, 4, 5)}
        errs = [abs(vals[N] - target) for N in (2, 3, 4, 5)]
        assert errs[0] > errs[1] > errs[2] > errs[3]
        limit, _ = continuum_extrapolate(vals.items())
        assert limit == pytest.approx(target, rel=1e-3)

    def test_node_count_independent(self):
        # The internal node-doubling loop certifies convergence; doubling the
        # sliced N changes the value smoothly, not erratically.
        v2 = wn_quadrature(REFERENCE, BOUNDARY, 2)
        v4 = wn_quadrature(REFERENCE, BOUNDARY, 4)
        assert 0.0 < abs(v4 - v2) < 0.1 * v2

    def test_n_range_validation(self):
        with pytest.raises(ValueError):
            wn_quadrature(REFERENCE, BOUNDARY, 6)
        with pytest.raises(ValueError):
            wn_quadrature(REFERENCE, BOUNDARY, 0)

    def test_n1_closed_form(self):
        # N = 1 has no interior points: the value is the bare slice factor.
        sm_val = wn_quadrature(REFERENCE, BOUNDARY, 1)
        assert math.isfinite(sm_val) and sm_val > 0.0

    @pytest.mark.parametrize(
        "model, pinned",
        [(REFERENCE, "0x1.6159136923cf6p-2"), (VARYING, "0x1.4f5c345388ae6p-2"),
         (TABLE, "0x1.43cde05fb1486p-2")],
        ids=["reference", "varying", "table"],
    )
    def test_n1_bit_identical(self, model, pinned):
        # float.hex() recorded while the closed form lived in the transfer step.
        assert wn_quadrature(model, BOUNDARY, 1).hex() == pinned

    @pytest.mark.parametrize(
        "model, pinned",
        [
            (REFERENCE, ("0x1.4f12c4e903917p-2", "0x1.4b2571bda066cp-2",
                         "0x1.49a74ac848cf0p-2", "0x1.48e9b78257479p-2")),
            (VARYING, ("0x1.39aa89c893ce6p-2", "0x1.342cbbc6e69bap-2",
                       "0x1.31d567b717540p-2", "0x1.3090c889ff4afp-2")),
            (TABLE, ("0x1.2c7921fd2da99p-2", "0x1.25b5ec2123355p-2",
                     "0x1.231d541014d24p-2", "0x1.21b0faea52bedp-2")),
        ],
        ids=["reference", "varying", "table"],
    )
    def test_bit_identical(self, model, pinned):
        # float.hex() recorded while every call still built its own nodes.
        got = tuple(wn_quadrature(model, BOUNDARY, N).hex() for N in (2, 3, 4, 5))
        assert got == pinned

    @pytest.mark.parametrize("n_nodes", [120, 240])
    @pytest.mark.parametrize("model", [REFERENCE, VARYING, TABLE], ids=["reference", "varying", "table"])
    def test_transfer_matches_full_matrix_kernel(self, model, n_nodes):
        sm = sliced_model(model, 5, *BOUNDARY)
        for radius in np.linspace(1.5, 4.5, 7):
            got = oracle._wn_transfer(sm, n_nodes, radius)
            assert got.hex() == _full_matrix_transfer(sm, n_nodes, radius).hex()

    def test_node_tables_are_read_only_and_exact(self):
        assert len(oracle._LEGGAUSS_TABLES) == 2
        for (xg, wg), n_nodes in zip(oracle._LEGGAUSS_TABLES, (120, 240)):
            ref_x, ref_w = leggauss(n_nodes)
            assert xg.tobytes() == ref_x.tobytes() and wg.tobytes() == ref_w.tobytes()
            for table in (xg, wg):
                with pytest.raises(ValueError, match="read-only"):
                    table[0] = 0.0

    def test_first_two_node_counts_build_no_nodes(self, monkeypatch):
        def no_leggauss(n_nodes):
            raise AssertionError(f"leggauss({n_nodes}) called")

        monkeypatch.setattr(oracle, "leggauss", no_leggauss)
        for model in (REFERENCE, VARYING, TABLE):
            for N in (2, 3, 4, 5):
                assert wn_quadrature(model, BOUNDARY, N) > 0.0

    def test_larger_node_counts_still_run(self, monkeypatch):
        built = []

        def counted(n_nodes):
            built.append(n_nodes)
            return leggauss(n_nodes)

        monkeypatch.setattr(oracle, "leggauss", counted)
        sm = sliced_model(REFERENCE, 4, *BOUNDARY)
        with pytest.raises(ArithmeticError, match="failed to converge"):
            oracle._transfer_converged(sm, rtol=0.0)
        assert built == [480, 960, 480, 960]

    def test_convergence_is_logged(self, caplog):
        with caplog.at_level(logging.INFO, logger="anharmprop.oracle"):
            wn_quadrature(REFERENCE, BOUNDARY, 3)
        [record] = [r for r in caplog.records if r.name == "anharmprop.oracle"]
        assert record.levelno == logging.INFO
        message = record.getMessage()
        assert message.startswith("wn_quadrature: N=3 converged at 240 nodes, radius ")
        change = float(message.rsplit(" ", 1)[1])
        assert 0.0 <= change <= 1e-12


class TestMonteCarlo:
    def test_matches_quadrature(self):
        ref = wn_quadrature(REFERENCE, BOUNDARY, 5)
        mean, stderr = wn_montecarlo(REFERENCE, BOUNDARY, 5, 200_000, seed=42)
        assert stderr > 0.0
        assert abs(mean - ref) < 4.0 * stderr

    def test_deterministic_same_seed(self):
        r1 = wn_montecarlo(REFERENCE, BOUNDARY, 16, 50_000, seed=9)
        r2 = wn_montecarlo(REFERENCE, BOUNDARY, 16, 50_000, seed=9)
        assert r1 == r2

    def test_deterministic_across_workers(self):
        # 150 000 samples span three chunks; four threads on shared read-only
        # bridge arrays, with frequent thread switches, must reproduce the
        # serial result bit for bit.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            r4 = wn_montecarlo(REFERENCE, BOUNDARY, 16, 150_000, seed=9, workers=4)
        finally:
            sys.setswitchinterval(interval)
        r1 = wn_montecarlo(REFERENCE, BOUNDARY, 16, 150_000, seed=9, workers=1)
        assert r1[0].hex() == r4[0].hex() and r1[1].hex() == r4[1].hex()

    @pytest.mark.parametrize("block", [7, 1000, 65_536])
    def test_block_size_does_not_move_the_result(self, monkeypatch, block):
        # 70 000 samples end both a chunk and a block part-way.
        ref = wn_montecarlo(REFERENCE, BOUNDARY, 16, 70_000, seed=4)
        monkeypatch.setattr(oracle, "_MC_BLOCK", block)
        got = wn_montecarlo(REFERENCE, BOUNDARY, 16, 70_000, seed=4)
        assert got[0].hex() == ref[0].hex() and got[1].hex() == ref[1].hex()

    def test_chunk_memory_stays_small(self):
        # One (count, n) draw per chunk would hold about 35 MB at N = 64;
        # blocks of _MC_BLOCK rows hold a few MB.
        tracemalloc.start()
        try:
            wn_montecarlo(REFERENCE, BOUNDARY, 64, 100_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_sequence_memory_stays_small(self):
        # Both N of a compare run share one chunk's stream buffer.
        tracemalloc.start()
        try:
            wn_montecarlo(REFERENCE, BOUNDARY, (32, 64), 100_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_bridge_arrays_are_read_only(self):
        chol, mean, _ = oracle._bridge_setup(sliced_model(REFERENCE, 16, *BOUNDARY))
        for arr in (chol, mean):
            with pytest.raises(ValueError, match="read-only"):
                arr += 1.0

    @pytest.mark.parametrize("seed", [5, 23])
    @pytest.mark.parametrize("N", [16, 64])
    @pytest.mark.parametrize("boundary", [BOUNDARY, (-0.9, 0.8)], ids=["+-", "-+"])
    @pytest.mark.parametrize("model", [REFERENCE, TABLE], ids=["reference", "table"])
    def test_kernel_matches_pow4_formula(self, model, boundary, N, seed):
        # The back-substitution differs from LAPACK's solve, (phi^2)^2 from
        # pow(phi, 4) and the running sum over slices from the pairwise row
        # sum by an ulp or two per element, so the estimate may move only at
        # the rounding level.
        mean, stderr = wn_montecarlo(model, boundary, N, 20_000, seed=seed)
        ref_mean, ref_stderr = _pow4_montecarlo(model, boundary, N, 20_000, seed)
        assert abs(mean - ref_mean) <= 1e-15 * abs(ref_mean)
        assert abs(stderr - ref_stderr) <= 1e-12 * ref_stderr

    def test_degenerate_bridge_is_refused(self):
        # b = -1 is an inverted oscillator: every sigma_i is positive, but over
        # beta = 4 the bridge's precision matrix is not positive definite.
        model = CoefficientModel(a=0.05, b=-1.0, c=1.0, beta=4.0)
        with pytest.raises(ArithmeticError, match="degenerate Gaussian bridge covariance at N=16"):
            wn_montecarlo(model, BOUNDARY, 16, 10_000, 0)

    def test_seed_changes_result(self):
        r1 = wn_montecarlo(REFERENCE, BOUNDARY, 16, 50_000, seed=1)
        r2 = wn_montecarlo(REFERENCE, BOUNDARY, 16, 50_000, seed=2)
        assert r1 != r2

    def test_harmonic_exact_zero_variance(self):
        # With a = 0 the importance weight is identically 1: stderr is 0 and
        # the estimate equals the Gaussian bridge normalization exactly.
        model = CoefficientModel(a=0.0, b=0.5, c=1.0, beta=1.0)
        mean, stderr = wn_montecarlo(model, BOUNDARY, 32, 20_000, seed=3)
        assert stderr == 0.0
        k, nu = 1.0, 1.0
        assert mean == pytest.approx(
            mehler_reference(k, nu, *BOUNDARY), rel=1e-3
        )

    @pytest.mark.parametrize(
        "ns, samples",
        [((64, 32, 17), 70_000), ((2, 3, 16), 70_000), ((2,), 20_000), ((32, 64), 100_000)],
        ids=["unsorted", "n-1-first", "n-1-alone", "compare"],
    )
    @pytest.mark.parametrize("model", [REFERENCE, TABLE], ids=["reference", "table"])
    def test_sequence_matches_int_calls(self, model, ns, samples):
        # Each N reads the shared stream from its own position in rows of its
        # own n; 70 000 samples end both a chunk and a block part-way.
        got = wn_montecarlo(model, BOUNDARY, ns, samples, seed=6)
        assert isinstance(got, tuple) and len(got) == len(ns)
        for n, pair in zip(ns, got):
            ref = wn_montecarlo(model, BOUNDARY, n, samples, seed=6)
            assert pair[0].hex() == ref[0].hex() and pair[1].hex() == ref[1].hex(), n

    @pytest.mark.parametrize("block", [7, 1000, 65_536])
    def test_sequence_block_size_does_not_move_the_result(self, monkeypatch, block):
        ns = (16, 2, 9)
        refs = [wn_montecarlo(REFERENCE, BOUNDARY, n, 70_000, seed=4) for n in ns]
        monkeypatch.setattr(oracle, "_MC_BLOCK", block)
        got = wn_montecarlo(REFERENCE, BOUNDARY, ns, 70_000, seed=4)
        for n, pair, ref in zip(ns, got, refs):
            assert pair[0].hex() == ref[0].hex() and pair[1].hex() == ref[1].hex(), n

    def test_sequence_deterministic_across_workers(self):
        ns = (32, 9, 64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            r4 = wn_montecarlo(REFERENCE, BOUNDARY, ns, 150_000, seed=9, workers=4)
        finally:
            sys.setswitchinterval(interval)
        r1 = wn_montecarlo(REFERENCE, BOUNDARY, ns, 150_000, seed=9, workers=1)
        for a, b in zip(r1, r4):
            assert a[0].hex() == b[0].hex() and a[1].hex() == b[1].hex()

    @pytest.mark.parametrize(
        "ns, match",
        [
            ((), "at least one N, got an empty sequence"),
            ([], "at least one N, got an empty sequence"),
            ((32, 600), r"2 <= N <= 512, got 600 in \[32, 600\]"),
            ((1, 32), r"2 <= N <= 512, got 1 in \[1, 32\]"),
            (np.array([32, 64, 0]), r"2 <= N <= 512, got 0 in "),
        ],
        ids=["empty-tuple", "empty-list", "too-large", "too-small", "array"],
    )
    def test_sequence_is_validated_before_any_work(self, monkeypatch, ns, match):
        def no_work(*args, **kwargs):
            raise AssertionError("wn_montecarlo did work before checking its N")

        monkeypatch.setattr(oracle, "sliced_model", no_work)
        monkeypatch.setattr(oracle, "_mc_chunk", no_work)
        with pytest.raises(ValueError, match=match):
            wn_montecarlo(REFERENCE, BOUNDARY, ns, 50_000, seed=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            wn_montecarlo(REFERENCE, BOUNDARY, 1, 50_000, seed=0)
        with pytest.raises(ValueError):
            wn_montecarlo(REFERENCE, BOUNDARY, 16, 100, seed=0)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one_worker(self, workers):
        with pytest.raises(ValueError, match="workers"):
            wn_montecarlo(REFERENCE, BOUNDARY, 16, 20_000, seed=0, workers=workers)

    def test_rejects_negative_seed(self):
        # SeedSequence refuses it only after the bridge setup; this names it.
        with pytest.raises(ValueError, match="seed"):
            wn_montecarlo(REFERENCE, BOUNDARY, 16, 20_000, seed=-1)


class TestSeriesExact:
    @pytest.mark.parametrize("N", [2, 3])
    def test_matches_quadrature_reference(self, N):
        assert wn_series_exact(REFERENCE, BOUNDARY, N) == pytest.approx(
            wn_quadrature(REFERENCE, BOUNDARY, N), rel=1e-10
        )

    @pytest.mark.parametrize("N", [2, 3])
    def test_matches_quadrature_varying(self, N):
        assert wn_series_exact(VARYING, BOUNDARY, N) == pytest.approx(
            wn_quadrature(VARYING, BOUNDARY, N), rel=1e-10
        )

    def test_random_parameter_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            model = CoefficientModel(
                a=rng.uniform(0.02, 0.3),
                b=rng.uniform(0.1, 1.0),
                c=rng.uniform(0.5, 2.0),
                beta=rng.uniform(0.5, 1.5),
            )
            bd = (rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
            N = int(rng.integers(2, 4))
            assert wn_series_exact(model, bd, N) == pytest.approx(
                wn_quadrature(model, bd, N), rel=1e-6
            )

    def test_n_validation(self):
        with pytest.raises(ValueError):
            wn_series_exact(REFERENCE, BOUNDARY, 4)

    def test_harmonic_model_is_refused(self):
        # z_i = sigma_i^-1 / sqrt(2 a_i delta) has no finite value at a = 0.
        model = CoefficientModel(a=0.0, b=0.5, c=1.0, beta=1.0)
        with pytest.raises(ValueError, match="needs a_i > 0 on interior slices"):
            wn_series_exact(model, BOUNDARY, 2)

    def test_unconverged_tail_is_refused(self):
        # caps=2 sums at caps 2, 3, 4 and 6 and stops with the tail still
        # above tail_tol.
        with pytest.raises(ArithmeticError, match=r"tail \S+ above 1e-08 at cap 6$"):
            wn_series_exact(REFERENCE, BOUNDARY, 2, caps=2)

    @pytest.mark.parametrize("caps", [0, 1])
    def test_caps_below_two_are_refused(self, caps):
        # caps = 1 summed at caps 1, 1, 2, 3: the repeated cap read a zero
        # tail and a one-term sum (0.256 against 0.323 at N = 3) came back as
        # converged; caps = 0 returned 0.0.
        with pytest.raises(ValueError, match=rf"needs caps >= 2, got caps = {caps}$"):
            wn_series_exact(REFERENCE, BOUNDARY, 3, caps=caps)

    @pytest.mark.parametrize(
        "model, N, pinned",
        [
            (REFERENCE, 2, "0x1.4f12c4e903913p-2"),
            (REFERENCE, 3, "0x1.4b2571bda066fp-2"),
            (VARYING, 2, "0x1.39aa89c893ce4p-2"),
            (VARYING, 3, "0x1.342cbbc6e69b2p-2"),
        ],
        ids=["constant-2", "constant-3", "varying-2", "varying-3"],
    )
    def test_bit_identical(self, model, N, pinned):
        # float.hex() recorded before the N = 2 and N = 3 branches of the
        # multi-sum became one loop over interior slices.
        assert wn_series_exact(model, BOUNDARY, N).hex() == pinned


class TestContinuumExtrapolate:
    def test_constant_sequence(self):
        limit, err = continuum_extrapolate([(2, 5.0), (3, 5.0), (4, 5.0), (5, 5.0)])
        assert limit == pytest.approx(5.0, abs=1e-12)
        assert err == pytest.approx(0.0, abs=1e-10)

    def test_known_polynomial_in_inverse_n(self):
        f = lambda n: 2.0 + 3.0 / n - 1.5 / n**2
        limit, err = continuum_extrapolate([(n, f(n)) for n in (2, 3, 4, 5, 8)])
        assert limit == pytest.approx(2.0, abs=1e-10)

    def test_harmonic_extrapolation_hits_mehler(self):
        model = CoefficientModel(a=0.0, b=0.5, c=1.0, beta=1.0)
        target = mehler_reference(1.0, 1.0, *BOUNDARY)
        pairs = [
            (N, wn_montecarlo(model, BOUNDARY, N, 20_000, seed=5)[0])
            for N in (8, 16, 32, 64)
        ]
        limit, err = continuum_extrapolate(pairs)
        assert limit == pytest.approx(target, rel=1e-5)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            continuum_extrapolate([(2, 1.0), (3, 1.1)])

    @pytest.mark.parametrize(
        "values, match",
        [
            ([(2, 1.0), (2, 1.1), (3, 1.2)], "distinct N >= 1, got N = 2 in"),
            ([(2, 1.0), (3, 1.1), (5, 1.2), (5, 1.3)], "distinct N >= 1, got N = 5 in"),
            ([(0, 1.0), (2, 1.1), (3, 1.2)], "distinct N >= 1, got N = 0 in"),
            ([(3, 1.0), (-1, 1.1), (2, 1.2)], "distinct N >= 1, got N = -1 in"),
            ([(2, 1.0), (3, math.nan), (4, 1.2)], r"finite W_N, got nan at N = 3 in \[2, 3, 4\]"),
            ([(4, math.inf), (2, 1.1), (3, 1.2)], "finite W_N, got inf at N = 4 in"),
            ([(2, 1.0), (8, -math.inf), (3, 1.2)], "finite W_N, got -inf at N = 8 in"),
        ],
        ids=["repeated", "repeated-last", "zero", "negative", "nan", "inf", "minus-inf"],
    )
    def test_refuses_repeated_or_non_positive_n(self, values, match):
        # A repeated N made the fit rank-deficient and N = 0 divided by zero;
        # both, and a nan or infinite W_N, came back as ordinary numbers.
        with pytest.raises(ValueError, match=match):
            continuum_extrapolate(values)

    @pytest.mark.parametrize(
        "values, pinned",
        [
            ([(2, 1.0), (3, 1.12), (4, 1.15)], ("0x1.1eb851eb851ebp+0", "0x1.8af8af8af8ae8p-3")),
            ([(2, 0.41), (3, 0.405), (4, 0.4031), (5, 0.4022), (16, 0.4009)],
             ("0x1.9a94fe3dd76b6p-2", "0x1.4d6c67277d800p-13")),
        ],
        ids=["three", "five"],
    )
    def test_bit_identical(self, values, pinned):
        # float.hex() recorded before repeated and non-positive N were refused.
        limit, err = continuum_extrapolate(values)
        assert (limit.hex(), err.hex()) == pinned

    def test_non_monotone_sequence_is_flagged(self, caplog):
        # Three points: the limit is the quadratic through them and the spread
        # that of the straight-line fit; a turn in the sequence doubles the
        # spread and adds the largest step, here 1.2 - 1.0.
        x, ws = 1.0 / np.array([2.0, 3.0, 4.0]), np.array([1.0, 1.2, 1.1])
        quadratic = np.polynomial.polynomial.polyfit(x, ws, 2)[0]
        spread = abs(np.polynomial.polynomial.polyfit(x, ws, 1)[0] - quadratic)
        with caplog.at_level(logging.WARNING, logger="anharmprop.oracle"):
            limit, err = continuum_extrapolate([(2, 1.0), (3, 1.2), (4, 1.1)])
        assert "continuum_extrapolate: non-monotone W_N sequence" in caplog.text
        assert limit == quadratic
        assert err == 2.0 * spread + (1.2 - 1.0)
