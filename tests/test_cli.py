"""End-to-end tests of the command-line interface: config parsing, CSV
output, determinism, and exit codes.
"""
import logging
import shutil
from pathlib import Path

import numpy as np
import pytest

import anharmprop
from anharmprop import cli
from anharmprop.cli import ConfigError, main, parse_config

REPO = Path(__file__).resolve().parent.parent
REFERENCE_CFG = REPO / "configs" / "reference.cfg"
GOLDEN = Path(__file__).resolve().parent / "golden"


def write_cfg(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


SMALL_CFG = """\
beta = 1.0
phi0 = 0.3
phiN = -0.2
mu_max = 2
grid_n = 256

[coeff]
a = const:0.05
b = const:0.5
c = const:1.0

[oracle]
N_list = 2,3,4,5,16
samples = 20000
seed = 77
"""


class TestParseConfig:
    def test_sections_and_comments(self, tmp_path):
        cfg = parse_config(
            write_cfg(
                tmp_path / "c.cfg",
                "beta = 1.0  # inline comment\n"
                "# full-line comment\n"
                "[coeff]\n"
                "a = const:0.1\n"
                "c = table:tab#1.csv\t# a '#' inside a value is kept\n",
            )
        )
        assert cfg == {"beta": "1.0", "coeff.a": "const:0.1", "coeff.c": "table:tab#1.csv"}

    def test_error_reports_line_number(self, tmp_path):
        path = write_cfg(tmp_path / "c.cfg", "beta = 1.0\nnot a key value line\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:2"):
            parse_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/path.cfg")

    def test_repeated_key_names_key_and_both_lines(self, tmp_path):
        path = write_cfg(
            tmp_path / "c.cfg",
            "beta = 1.0\n[coeff]\na = const:0.1\nb = const:0.5\na = const:0.2\n",
        )
        with pytest.raises(ConfigError, match=r"c\.cfg:5: repeated key 'coeff\.a'.*line 3"):
            parse_config(str(path))

    def test_same_key_in_different_sections_is_distinct(self, tmp_path):
        path = write_cfg(tmp_path / "c.cfg", "seed = 1\n[oracle]\nseed = 2\n")
        assert parse_config(str(path)) == {"seed": "1", "oracle.seed": "2"}

    def test_repeated_key_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_CFG + "[coeff]\nc = const:2.0\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "propagator"])
        assert rc == 2
        assert "repeated key 'coeff.c'" in capsys.readouterr().err


class TestPropagatorCommand:
    def test_golden_breakdown(self, tmp_path):
        # The reference run is pinned byte for byte.
        rc = main(
            ["--config", str(REFERENCE_CFG), "--out", str(tmp_path), "propagator"]
        )
        assert rc == 0
        for name in ("breakdown.csv", "solution.csv"):
            got = (tmp_path / name).read_bytes()
            assert got == (GOLDEN / name).read_bytes(), name

    def test_solution_csv_columns(self, tmp_path):
        main(["--config", str(REFERENCE_CFG), "--out", str(tmp_path), "propagator"])
        rows = np.loadtxt(
            tmp_path / "solution.csv", delimiter=",", skiprows=1, max_rows=200
        )
        header = (tmp_path / "solution.csv").read_text().splitlines()[0]
        assert header == "tau,Q,f,I"
        # Skip the tau=0 row (I is infinite there) when checking finiteness.
        assert np.all(np.isfinite(rows[1:]))

    def test_harmonic_config_zeroes_corrections(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "h.cfg",
            SMALL_CFG.replace("a = const:0.05", "a = const:0.0"),
        )
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "propagator"])
        assert rc == 0
        lines = (tmp_path / "breakdown.csv").read_text().splitlines()[1:]
        w_mu = [float(line.split(",")[2]) for line in lines]
        assert w_mu[0] == 1.0
        assert abs(w_mu[1]) < 1e-14 and abs(w_mu[2]) < 1e-14

    def test_breakdown_takes_the_harmonic_factor_from_harmonic_propagator(
        self, tmp_path, monkeypatch
    ):
        # breakdown.csv has no copy of the factor: doubling the one that
        # harmonic_propagator returns doubles every cumulative total exactly.
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_CFG)

        def cumulative_totals(outdir):
            assert main(["--config", str(cfg), "--out", str(outdir), "propagator"]) == 0
            lines = (outdir / "breakdown.csv").read_text().splitlines()[1:]
            return [float(line.split(",")[3]) for line in lines]

        plain = cumulative_totals(tmp_path / "plain")
        original = cli.harmonic_propagator

        def doubled(solution, boundary):
            prefactor, exponent, value = original(solution, boundary)
            return prefactor, exponent, 2.0 * value

        monkeypatch.setattr(cli, "harmonic_propagator", doubled)
        assert cumulative_totals(tmp_path / "doubled") == [2.0 * t for t in plain]

    def test_missing_beta_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "bad.cfg",
            "\n".join(l for l in SMALL_CFG.splitlines() if not l.startswith("beta")),
        )
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "propagator"])
        assert rc == 2
        assert "beta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, line, bad_line, key",
        [
            ("propagator", "mu_max = 2", "mu_max = 2.7", "mu_max"),
            ("propagator", "grid_n = 256", "grid_n = 256.5", "grid_n"),
            ("compare", "samples = 20000", "samples = 20000.5", "oracle.samples"),
            ("compare", "seed = 77", "seed = 7.7", "oracle.seed"),
            ("compare", "seed = 77", "seed = 77\nworkers = 1.5", "oracle.workers"),
            ("propagator", "mu_max = 2", "mu_max = 9", "mu_max"),
            ("propagator", "grid_n = 256", "grid_n = 32", "grid_n"),
        ],
        ids=["mu_max", "grid_n", "samples", "seed", "workers", "mu_max-range", "grid_n-range"],
    )
    def test_non_integer_for_integer_key_exits_2(
        self, tmp_path, capsys, monkeypatch, command, line, bad_line, key
    ):
        # Integer keys are rejected, not truncated, and out-of-range ones are
        # config errors too, caught before any solve.
        def no_work(*args, **kwargs):
            raise AssertionError("the command solved before checking its config")

        monkeypatch.setattr(cli, "propagator", no_work)
        cfg = write_cfg(tmp_path / "bad.cfg", SMALL_CFG.replace(line, bad_line))
        rc = main(["--config", str(cfg), "--out", str(tmp_path), command])
        assert rc == 2
        assert f"bad value for {key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, bad_line, key",
        [
            ("phi0 = 0.3", "phi0 = nan", "phi0"),
            ("phiN = -0.2", "phiN = -inf", "phiN"),
            ("beta = 1.0", "beta = inf", "beta"),
            ("beta = 1.0", "beta = 1e400", "beta"),
            ("beta = 1.0", "beta = 0", "bad value for beta"),
            ("beta = 1.0", "beta = -1", "bad value for beta"),
            ("a = const:0.05", "a = const:nan", "const:nan"),
            ("c = const:1.0", "c = poly:1.0,inf", "poly:1.0,inf"),
        ],
        ids=[
            "phi0-nan", "phiN-inf", "beta-inf", "beta-overflow", "beta-zero", "beta-negative",
            "const-nan", "poly-inf",
        ],
    )
    def test_non_finite_value_exits_2(self, tmp_path, capsys, line, bad_line, key):
        cfg = write_cfg(tmp_path / "bad.cfg", SMALL_CFG.replace(line, bad_line))
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "propagator"])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "breakdown.csv").exists()

    @pytest.mark.parametrize("command", ["propagator", "compare"])
    @pytest.mark.parametrize(
        "line, bad_line, key",
        [
            ("mu_max = 2", "mu_mx = 4", "mu_mx"),
            ("seed = 77", "seed = 77\n\n[tol]\nseries = 1e-8", "tol.series"),
        ],
        ids=["misspelt", "unread-section"],
    )
    def test_unknown_key_exits_2(
        self, tmp_path, capsys, monkeypatch, command, line, bad_line, key
    ):
        # A key no subcommand reads is refused before any solve; a misspelt
        # mu_max would otherwise run silently with the default 2.
        def no_work(*args, **kwargs):
            raise AssertionError("the command solved before checking its config")

        monkeypatch.setattr(cli, "propagator", no_work)
        cfg = write_cfg(tmp_path / "bad.cfg", SMALL_CFG.replace(line, bad_line))
        rc = main(["--config", str(cfg), "--out", str(tmp_path), command])
        assert rc == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_c_zero_between_probe_points_exits_3(self, tmp_path, capsys):
        # c = (tau - 1/2048)^2 passes the model's probe but is exactly 0 at
        # lattice point 1 of grid_n 512.
        cfg = write_cfg(
            tmp_path / "c0.cfg",
            SMALL_CFG.replace("grid_n = 256", "grid_n = 512").replace(
                "c = const:1.0", "c = poly:2.384185791015625e-07,-0.0009765625,1.0"
            ),
        )
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "propagator"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "kinetic coefficient c(tau) must be positive" in err
        assert "Traceback" not in err

    def test_missing_config_flag_exits_2(self, tmp_path):
        assert main(["--out", str(tmp_path), "propagator"]) == 2

    def test_bad_coefficient_spec_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "bad.cfg",
            SMALL_CFG.replace("const:0.05", "gaussian:0.05"),
        )
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "propagator"])
        assert rc == 2
        assert "gaussian" in capsys.readouterr().err

    def test_table_coefficient_from_csv(self, tmp_path):
        taus = np.linspace(0.0, 1.0, 21)
        np.savetxt(
            tmp_path / "ctab.csv",
            np.column_stack([taus, np.full_like(taus, 1.0)]),
            delimiter=",",
        )
        cfg = write_cfg(
            tmp_path / "t.cfg", SMALL_CFG.replace("c = const:1.0", "c = table:ctab.csv")
        )
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "propagator"])
        assert rc == 0

    @pytest.mark.parametrize(
        "taus, span",
        [
            (np.linspace(0.2, 1.0, 21), "[0.2, 1.0]"),
            (np.linspace(0.0, 0.75, 21), "[0.0, 0.75]"),
        ],
        ids=["starts-late", "ends-early"],
    )
    def test_table_not_covering_beta_exits_2(self, tmp_path, capsys, taus, span):
        # The cubic would extrapolate past the samples; beta = 1.0.
        np.savetxt(
            tmp_path / "ctab.csv",
            np.column_stack([taus, np.full_like(taus, 1.0)]),
            delimiter=",",
        )
        cfg = write_cfg(
            tmp_path / "t.cfg", SMALL_CFG.replace("c = const:1.0", "c = table:ctab.csv")
        )
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "propagator"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"spans {span}" in err and "does not cover [0, beta]" in err
        assert not (tmp_path / "breakdown.csv").exists()

    @pytest.mark.parametrize(
        "rows",
        ["0.0,1.0\n0.5,1.0\n0.5,1.0\n1.0,1.0\n", "0.0,1.0\n0.25,nan\n0.5,1.0\n1.0,1.0\n"],
        ids=["repeated-tau", "nan-value"],
    )
    def test_malformed_table_exits_2(self, tmp_path, capsys, rows):
        (tmp_path / "ctab.csv").write_text(rows)
        cfg = write_cfg(
            tmp_path / "t.cfg", SMALL_CFG.replace("c = const:1.0", "c = table:ctab.csv")
        )
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "propagator"])
        assert rc == 2
        assert "bad coefficient spec 'table:ctab.csv'" in capsys.readouterr().err
        assert not (tmp_path / "breakdown.csv").exists()

    def test_table_path_containing_hash(self, tmp_path):
        taus = np.linspace(0.0, 1.0, 21)
        np.savetxt(
            tmp_path / "tab#1.csv",
            np.column_stack([taus, np.full_like(taus, 1.0)]),
            delimiter=",",
        )
        cfg = write_cfg(
            tmp_path / "t.cfg",
            SMALL_CFG.replace("c = const:1.0", "c = table:tab#1.csv  # kinetic"),
        )
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "propagator"])
        assert rc == 0
        assert (tmp_path / "out" / "breakdown.csv").is_file()


class TestCompareCommand:
    def test_golden_compare(self, tmp_path):
        # The reference run is pinned byte for byte, Monte Carlo rows
        # included: they depend on numpy's Philox stream and normal sampler.
        rc = main(["--config", str(REFERENCE_CFG), "--out", str(tmp_path), "compare"])
        assert rc == 0
        got = (tmp_path / "compare.csv").read_bytes()
        assert got == (GOLDEN / "compare.csv").read_bytes()

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_CFG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["--config", str(cfg), "--out", str(out1), "compare"]) == 0
        assert main(["--config", str(cfg), "--out", str(out2), "compare"]) == 0
        assert (out1 / "compare.csv").read_bytes() == (out2 / "compare.csv").read_bytes()

    def test_seed_changes_only_mc_rows(self, tmp_path):
        cfg1 = write_cfg(tmp_path / "c1.cfg", SMALL_CFG)
        cfg2 = write_cfg(tmp_path / "c2.cfg", SMALL_CFG.replace("seed = 77", "seed = 78"))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["--config", str(cfg1), "--out", str(out1), "compare"])
        main(["--config", str(cfg2), "--out", str(out2), "compare"])
        lines1 = (out1 / "compare.csv").read_text().splitlines()
        lines2 = (out2 / "compare.csv").read_text().splitlines()
        for l1, l2 in zip(lines1, lines2):
            f1, f2 = l1.split(","), l2.split(",")
            method = f1[0]
            # The trailing discrepancy column is relative to the extrapolated
            # limit, which folds in the Monte Carlo value, so only the value
            # and stderr columns are seed-independent for deterministic rows.
            if method in ("analytic", "quadrature"):
                assert f1[:6] == f2[:6]
            elif method == "montecarlo":
                assert f1[4] != f2[4]

    def test_verbose_logs_each_quadrature_and_keeps_the_csv(self, tmp_path, caplog):
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_CFG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["--config", str(cfg), "--out", str(out1), "compare"]) == 0
        with caplog.at_level(logging.INFO, logger="anharmprop.oracle"):
            assert main(["--verbose", "--config", str(cfg), "--out", str(out2), "compare"]) == 0
        converged = [r.getMessage().split()[1] for r in caplog.records
                     if "converged at" in r.getMessage()]
        assert converged == ["N=2", "N=3", "N=4", "N=5"]
        assert (out1 / "compare.csv").read_bytes() == (out2 / "compare.csv").read_bytes()

    def test_negative_quartic_on_a_monte_carlo_lattice_exits_3(self, tmp_path, capsys):
        # a = (tau - 1/3)^2 - 1e-7 passes the model's probe; tau = 1/3 is a
        # slice point of N = 6 and N = 9 only, so no quadrature row sees it.
        text = SMALL_CFG.replace(
            "a = const:0.05", f"a = poly:{1.0 / 9.0 - 1e-7!r},{-2.0 / 3.0!r},1.0"
        ).replace("N_list = 2,3,4,5,16", "N_list = 2,4,5,6,9")
        cfg = write_cfg(tmp_path / "neg.cfg", text)
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "compare"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "needs a_i >= 0, got a_2 = -1.0" in err and "at tau_2 = 0.333" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "compare.csv").exists()

    def test_rows_and_discrepancies(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_CFG)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "compare"]) == 0
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0] == "method,N,samples,seed,value,stderr,discrepancy"
        methods = [l.split(",")[0] for l in lines[1:]]
        assert methods[0] == "analytic" and methods[-1] == "extrapolated"
        assert methods.count("quadrature") == 4 and methods.count("montecarlo") == 1
        extrap_disc = float(lines[-1].split(",")[-1])
        assert extrap_disc < 1.0  # analytic and extrapolated limits agree


    @pytest.mark.parametrize(
        "oracle, key",
        [
            ("N_list = 2,3,4\nsamples = 5000\nworkers = 1", "oracle.samples"),
            ("N_list = 2,3,4,16\nsamples = 5000\nworkers = 1", "oracle.samples"),
            ("N_list = 2,3,4\nsamples = 20000\nworkers = 0", "oracle.workers"),
            ("N_list = 2,3,4,16\nsamples = 20000\nworkers = 0", "oracle.workers"),
            ("N_list = 2,3,4\nsamples = 20000\nseed = -1", "oracle.seed"),
            ("N_list = 2,3,4,16\nsamples = 20000\nseed = -1", "oracle.seed"),
            ("N_list = 2,3\nsamples = 20000", "oracle.N_list"),
            ("N_list = 2,2,2\nsamples = 20000", "oracle.N_list"),
            ("N_list = 2,2,3,4\nsamples = 20000", "oracle.N_list"),
            ("N_list = 0,2,3,4\nsamples = 20000", "oracle.N_list"),
            ("N_list = 2,3,4,600\nsamples = 20000", "oracle.N_list"),
        ],
        ids=["samples", "samples-mc", "workers", "workers-mc", "seed", "seed-mc", "two-n", "repeated-n",
             "one-repeat", "n-zero", "n-too-large"],
    )
    def test_bad_oracle_config_exits_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, oracle, key
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("compare did work before checking its config")

        monkeypatch.setattr(cli, "propagator", no_work)
        text = SMALL_CFG.split("[oracle]")[0] + "[oracle]\n" + oracle + "\n"
        cfg = write_cfg(tmp_path / "bad.cfg", text)
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "compare"])
        assert rc == 2
        assert f"bad value for {key}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "compare.csv").exists()


class TestUnwritableOutput:
    # --out naming an existing file, and a path below a file: both refused
    # by mkdir, with exit 2 and no traceback.
    COMMANDS = {
        "propagator": ["propagator"],
        "compare": ["compare"],
        "i1": ["i1", "--a", "1"],
        "table": ["table", "--kind", "a-coeff"],
    }

    @pytest.mark.parametrize("below_file", [False, True], ids=["out-is-file", "out-below-file"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_exits_2(self, tmp_path, capsys, monkeypatch, command, below_file):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{command} did work before creating its output directory")

        for name in ("propagator", "wn_quadrature", "wn_montecarlo", "run_i1", "run_table"):
            monkeypatch.setattr(cli, name, no_work)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "out" if below_file else blocker
        cfg = write_cfg(tmp_path / "small.cfg", SMALL_CFG)
        rc = main(["--config", str(cfg), "--out", str(out), *self.COMMANDS[command]])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write output {out}")
        assert blocker.read_text() == ""

    def test_propagator_csv_path_is_directory(self, tmp_path, capsys):
        (tmp_path / "breakdown.csv").mkdir()
        rc = main(["--config", str(REFERENCE_CFG), "--out", str(tmp_path), "propagator"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write output {tmp_path / 'breakdown.csv'}")


class TestNonFiniteArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["i1", "--a", "nan"],
            ["i1", "--b", "0:inf:3"],
            ["i1", "--c=1,-inf"],
            ["table", "--kind", "pcf", "--nu", "nan"],
            ["table", "--kind", "pcf", "--z", "1,inf"],
            ["table", "--kind", "hermite", "--x", "nan"],
            ["table", "--kind", "incomplete-hermite", "--tau", "inf"],
            ["table", "--kind", "incomplete-hermite", "--phi-beta", "nan"],
            ["table", "--kind", "incomplete-hermite", "--phi-0=-inf"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_exits_2_without_output(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(out), *argv])
        assert exc.value.code == 2
        assert "is not a finite number" in capsys.readouterr().err
        assert not out.exists()


class TestI1Command:
    def test_three_columns_agree(self, tmp_path):
        rc = main(
            ["--out", str(tmp_path), "i1", "--a", "0.5,1", "--b", "0.5,1", "--c", "0,1"]
        )
        assert rc == 0
        rows = np.loadtxt(tmp_path / "i1.csv", delimiter=",", skiprows=1)
        assert rows.shape == (8, 6)
        assert np.allclose(rows[:, 4], rows[:, 3], rtol=1e-8)
        assert np.allclose(rows[:, 5], rows[:, 3], rtol=1e-8)

    def test_grid_spec_colon_form(self, tmp_path):
        rc = main(["--out", str(tmp_path), "i1", "--a", "0.5:1.5:3"])
        assert rc == 0
        rows = np.loadtxt(tmp_path / "i1.csv", delimiter=",", skiprows=1)
        assert rows.shape == (3, 6)
        assert rows[:, 0].tolist() == [0.5, 1.0, 1.5]

    def test_invalid_a_exits_3(self, tmp_path):
        assert main(["--out", str(tmp_path), "i1", "--a", "-1"]) == 3


class TestTableCommand:
    def test_pcf_table(self, tmp_path):
        rc = main(
            ["--out", str(tmp_path), "table", "--kind", "pcf", "--nu", "-1.5",
             "--z", "1,2,4"]
        )
        assert rc == 0
        rows = np.loadtxt(tmp_path / "pcf.csv", delimiter=",", skiprows=1)
        assert rows.shape == (3, 3)
        assert np.all(rows[:, 2] > 0.0)

    def test_hermite_table(self, tmp_path):
        rc = main(
            ["--out", str(tmp_path), "table", "--kind", "hermite", "--n-max", "3",
             "--x", "0,1"]
        )
        assert rc == 0
        rows = np.loadtxt(tmp_path / "hermite.csv", delimiter=",", skiprows=1)
        # H_2(1) = 2, H_3(1) = -4 in the physicists' convention 2x H - ...
        by_key = {(int(n), x): v for n, x, v in rows}
        assert by_key[(0, 0.0)] == 1.0
        assert by_key[(1, 1.0)] == 2.0
        assert by_key[(2, 1.0)] == 2.0

    def test_default_hermite_table_golden(self, tmp_path):
        # The default table (n <= 8, x in -2:2:9) is pinned byte for byte.
        assert main(["--out", str(tmp_path), "table", "--kind", "hermite"]) == 0
        got = (tmp_path / "hermite.csv").read_bytes()
        assert got == (GOLDEN / "hermite.csv").read_bytes()

    def test_incomplete_hermite_table(self, tmp_path):
        rc = main(
            ["--out", str(tmp_path), "table", "--kind", "incomplete-hermite",
             "--n-max", "4"]
        )
        assert rc == 0
        text = (tmp_path / "incomplete_hermite.csv").read_text().splitlines()
        assert text[0] == "n,kappa,gamma,H_incomplete"
        assert len(text) - 1 == sum(n + 1 for n in range(5))

    def test_a_coeff_table(self, tmp_path):
        rc = main(["--out", str(tmp_path), "table", "--kind", "a-coeff", "--k-max", "2"])
        assert rc == 0
        rows = np.loadtxt(tmp_path / "a_coeff.csv", delimiter=",", skiprows=1)
        by_key = {(int(j), int(k)): v for j, k, v in rows}
        assert by_key[(0, 0)] == 1.0
        assert by_key[(1, 1)] == 2.0
        assert by_key[(0, 1)] == 0.0  # off support


class TestConsoleScript:
    def test_entry_point_installed(self):
        assert shutil.which("anharmprop") is not None

    def test_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
        with open(REPO / "pyproject.toml", "rb") as fh:
            project = tomllib.load(fh)["project"]
        assert anharmprop.__version__ == project["version"]
