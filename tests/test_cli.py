import csv
import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from fracstep import cli, experiments
from fracstep.cli import main, read_config
from fracstep.experiments import SPATIAL_REFINE, TABLE_2D, ExperimentSpec


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestPadeInfo:
    def test_stdout_csv(self):
        code, out = run_cli(["pade-info", "--ms", "1", "--alphas", "0.5"])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["limit_at_infinity"]) == pytest.approx(1 / 3, rel=1e-10)
        assert float(rows[0]["poles"]) == pytest.approx(-4 / 3, rel=1e-10)

    def test_empty_orders_fail(self, capsys):
        code, out = run_cli(["pade-info", "--ms", ","])
        assert (code, out) == (2, "")
        assert "ms is empty" in capsys.readouterr().err


class TestScalarSweep:
    def test_writes_file(self, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _ = run_cli([
            "scalar-sweep", "--ms", "1", "--alphas", "0.5", "--Ns", "4,8,16",
            "--points", "50", "--out", str(out_path),
        ])
        assert code == 0
        rows = parse_csv(out_path.read_text())
        grm = [r for r in rows if r["scheme"] == "GRM"]
        assert float(grm[0]["fitted_slope"]) == pytest.approx(2.0, abs=0.2)

    def test_empty_exponents_fail(self, capsys):
        code, out = run_cli(["scalar-sweep", "--alphas", ","])
        assert (code, out) == (2, "")
        assert "alphas is empty" in capsys.readouterr().err

    def test_repeated_step_counts_fail(self, capsys):
        # they exited 0 with a slope fitted at one n
        code, out = run_cli(["scalar-sweep", "--Ns", "8,8,8", "--points", "10"])
        assert (code, out) == (2, "")
        assert "Ns must be strictly increasing" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_errors_fail(self, capsys):
        # with so small a shift theta overflows and every sup error is NaN;
        # the sweep exited 0 and printed nan errors and slopes
        code, out = run_cli(["scalar-sweep", "--delta", "1e-320", "--ms", "1",
                             "--alphas", "0.5", "--Ns", "8,16,32"])
        assert (code, out) == (2, "")
        assert "errors must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,message", [("--lambda-lo", "every lambda must be >= delta"),
                                              ("--delta", "delta must be positive")])
    def test_nan_setting_fails(self, flag, message, capsys):
        code, out = run_cli(["scalar-sweep", flag, "nan"])
        assert (code, out) == (2, "")
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("args,setting", [
        # the default lambda_hi is 1e6: this range would run downwards above it
        (("--lambda-lo", "1e7"), "lambda_lo"),
        (("--lambda-lo", "5", "--lambda-hi", "5"), "lambda_lo"),
        (("--lambda-lo", "0"), "lambda_lo"),
        (("--lambda-hi", "nan"), "lambda_hi"),
        (("--lambda-hi", "inf"), "lambda_hi"),
        (("--points", "1"), "points"),
        (("--points", "0"), "points"),
    ])
    def test_bad_grid_fails(self, args, setting, capsys):
        code, out = run_cli(["scalar-sweep", *args])
        assert (code, out) == (2, "")
        assert setting in capsys.readouterr().err


class TestTable1D:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "cases = c\nalphas = 0.5\nms = 1\nNs = 8,16\nh = 0.1\nscheme = grm\n"
        )
        code, out = run_cli(["table-1d", "--config", str(cfg), "--h", "0.02"])
        assert code == 0
        rows = parse_csv(out)
        # flag wins over config: h = 0.02 means L = ceil(2 log2 50) = 12
        assert rows[0]["L"] == "12"
        assert {r["scheme"] for r in rows} == {"GRM"}

    def test_unknown_config_key_fails(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 3\n")
        code, _ = run_cli(["table-1d", "--config", str(cfg)])
        assert code == 2

    def test_mesh_over_the_dense_cap(self):
        # 4999 dofs: the 1D reference is a sine transform, with no cap
        code, out = run_cli(["table-1d", "--h", "2e-4", "--cases", "a", "--alphas", "0.5",
                             "--ms", "2", "--Ns", "8,16", "--scheme", "grm"])
        assert code == 0
        errors = [float(row["rel_error"]) for row in parse_csv(out)]
        assert len(errors) == 2 and errors[1] < errors[0]

    def test_shift_above_the_spectrum_fails(self, capsys):
        # lambda_min is about 9.87: delta = 50 would let every step grow
        code, _ = run_cli(["table-1d", "--h", "0.05", "--cases", "b", "--alphas", "0.5",
                           "--ms", "2", "--Ns", "4,8", "--delta", "50"])
        assert code == 2
        assert "not below lambda_min_est" in capsys.readouterr().err

    def test_empty_step_counts_fail(self, capsys):
        code, out = run_cli(["table-1d", "--Ns", ",", "--h", "0.1"])
        assert (code, out) == (2, "")
        assert "Ns is empty" in capsys.readouterr().err

    def test_invalid_alpha_fails(self):
        code, _ = run_cli(["table-1d", "--alphas", "1.5", "--cases", "c",
                           "--ms", "1", "--Ns", "8,16", "--h", "0.1"])
        assert code == 2

    @pytest.mark.parametrize("flag,value", [("--solver", "cg"), ("--solver-rtol", "1e-10")])
    def test_solver_flags_not_offered(self, flag, value):
        # 1D solves are always direct, so the 1D commands have no solver setting
        for command in ("table-1d", "spatial-refine"):
            with pytest.raises(SystemExit) as exc:
                run_cli([command, flag, value])
            assert exc.value.code == 2

    @pytest.mark.parametrize("command", ("table-1d", "spatial-refine"))
    def test_solver_config_key_fails(self, command, tmp_path, capsys):
        cfg = tmp_path / "cg.cfg"
        cfg.write_text("solver = cg\n")
        code, out = run_cli([command, "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert "does not read ['solver']" in capsys.readouterr().err


    QUICK = ["table-1d", "--h", "0.05", "--cases", "b", "--alphas", "0.5", "--ms", "1",
             "--Ns", "2", "--scheme", "grm"]

    @pytest.mark.parametrize("policy", ((), ("--L-policy", "experiment"),
                                        ("--L-policy", "theorem")))
    def test_depth_outside_the_fixed_policy_fails(self, policy, tmp_path, capsys):
        # the depth would be ignored: the run would report L = 9, not 3
        code, out = run_cli([*self.QUICK, *policy, "--L", "3"])
        assert (code, out) == (2, "")
        assert "L is read only under L-policy fixed" in capsys.readouterr().err
        cfg = tmp_path / "depth.cfg"
        cfg.write_text("L = 3\n")
        code, out = run_cli([*self.QUICK, *policy, "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert "L is read only under L-policy fixed" in capsys.readouterr().err

    @pytest.mark.parametrize("args,message", (
        (("table-1d", "--cases", "z"), "unknown data case 'z'"),
        (("table-2d", "--cases", "a"), "data case 'a' is 1D, the table is 2D"),
        (("table-1d", "--L-policy", "fixed", "--L", "0"), "L = 0 must be >= 1"),
        (("table-1d", "--L-policy", "fixed", "--L", "-3"), "L = -3 must be >= 1"),
        (("table-1d", "--cases", "b,b"), "data_cases has a repeated entry: ('b', 'b')"),
        (("table-1d", "--alphas", "0.5,0.5"), "alphas has a repeated entry"),
        (("table-2d", "--ms", "2,2"), "ms has a repeated entry"),
        (("table-2d", "--n-per-side", "2"), "n_per_side must be >= 3, got 2")))
    def test_bad_case_or_depth_fails_before_assembly(self, args, message, monkeypatch, capsys):
        def refuse(*a):
            raise AssertionError("operator assembled before the settings were checked")

        monkeypatch.setattr(experiments, "assemble_1d", refuse)
        monkeypatch.setattr(experiments, "assemble_2d_tensor", refuse)
        assert run_cli(list(args)) == (2, "")
        assert message in capsys.readouterr().err

    def test_shift_with_shift_fraction_fails(self, capsys):
        # an explicit delta would silently override the fraction
        code, out = run_cli([*self.QUICK, "--delta", "1", "--delta-fraction", "0.9"])
        assert (code, out) == (2, "")
        assert "delta or delta-fraction, not both" in capsys.readouterr().err


class TestTable2D:
    QUICK = ["table-2d", "--n-per-side", "12", "--cases", "e", "--alphas", "0.5",
             "--Ns", "1,2", "--scheme", "grm"]

    def test_cg_tolerance_not_offered(self, tmp_path):
        # every CG solve stops at solvers.CG_RTOL
        with pytest.raises(SystemExit) as exc:
            run_cli([*self.QUICK, "--solver-rtol", "1e-8"])
        assert exc.value.code == 2
        cfg = tmp_path / "rtol.cfg"
        cfg.write_text("solver_rtol = 1e-8\n")
        assert run_cli([*self.QUICK, "--config", str(cfg)]) == (2, "")

    def test_theorem_policy_overrides_the_published_depth(self):
        # TABLE_2D publishes L = 14 under the fixed policy; a given policy
        # drops it without any L being given
        code, out = run_cli([*self.QUICK, "--L-policy", "theorem"])
        assert code == 0
        rows = parse_csv(out)
        assert [r["N"] for r in rows] == ["1", "2"]
        assert rows[0]["L"] != "14"
        assert rows[0]["solver_rtol"] == "1.000000000000e-12"


class TestLibraryDefaults:
    """With no flags, a command hands the library only its own defaults."""

    @pytest.mark.parametrize("command, call, args", [
        ("pade-info", "run_pade_info", ()),
        ("scalar-sweep", "run_scalar_diagnostics", ()),
        ("table-1d", "run_table", (ExperimentSpec(),)),
        ("table-2d", "run_table", (ExperimentSpec(**TABLE_2D),)),
        ("spatial-refine", "run_spatial_refinement", (ExperimentSpec(**SPATIAL_REFINE),)),
    ])
    def test_no_flags(self, monkeypatch, command, call, args):
        calls = []
        monkeypatch.setattr(cli, call, lambda *a, **kw: calls.append((a, kw)) or [])
        assert run_cli([command]) == (0, "")
        assert calls == [(args, {})]


class TestConfigParser:
    def test_values_and_comments(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(
            "# comment line\n"
            "alphas = 0.1, 0.5\n"
            "Ns = 4,8\n"
            "solver = cg   # trailing comment\n"
            "\n"
        )
        values = read_config(str(cfg))
        assert values == {"alphas": (0.1, 0.5), "Ns": (4, 8), "solver": "cg"}

    def test_missing_equals_raises(self, tmp_path):
        cfg = tmp_path / "b.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(ValueError):
            read_config(str(cfg))


class TestSpatialRefine:
    def test_quick_run(self, tmp_path):
        out_path = tmp_path / "sr.csv"
        code, _ = run_cli([
            "spatial-refine", "--Ns", "4", "--ms", "2", "--um-steps", "500",
            "--out", str(out_path),
        ])
        assert code == 0
        rows = parse_csv(out_path.read_text())
        assert rows[0]["nx"] == "72"

    def test_empty_orders_fail(self, capsys):
        code, out = run_cli(["spatial-refine", "--Ns", "4", "--ms", ",", "--um-steps", "50"])
        assert (code, out) == (2, "")
        assert "ms is empty" in capsys.readouterr().err

    def test_unread_flag_rejected(self):
        # --delta-frac must not abbreviate --delta-fraction
        with pytest.raises(SystemExit) as exc:
            run_cli(["spatial-refine", "--delta-frac", "0.5"])
        assert exc.value.code == 2

    QUICK = ["spatial-refine", "--Ns", "4", "--ms", "2", "--um-steps", "50"]

    def test_explicit_shift(self):
        code, out = run_cli([*self.QUICK, "--delta", "1"])
        assert code == 0
        assert float(parse_csv(out)[0]["delta"]) == 1.0

    def test_fixed_depth(self):
        code, out = run_cli([*self.QUICK, "--L-policy", "fixed", "--L", "3"])
        assert code == 0
        assert parse_csv(out)[0]["L"] == "3"

    def test_shift_above_the_spectrum_fails(self, capsys):
        code, out = run_cli([*self.QUICK, "--delta", "50"])
        assert (code, out) == (2, "")
        assert "not below lambda_min_est" in capsys.readouterr().err

    @pytest.mark.parametrize("fraction", ("5", "1", "0", "-0.5", "nan"))
    def test_delta_fraction_outside_unit_interval_fails(self, fraction, capsys):
        # a shift at or above lambda_min would let the steps grow
        code, _ = run_cli(["spatial-refine", "--Ns", "4", "--ms", "2", "--um-steps", "50",
                           "--delta-fraction", fraction])
        assert code == 2
        assert "delta_fraction" in capsys.readouterr().err

    def test_unread_config_key_fails(self, tmp_path):
        cfg = tmp_path / "sr.cfg"
        cfg.write_text("Ns = 4\ncases = a\n")
        code, _ = run_cli(["spatial-refine", "--config", str(cfg)])
        assert code == 2


def test_cli_runs_without_mpmath():
    # mpmath is a test dependency only: a table run must never import it
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    script = ("import io, sys, contextlib; from fracstep import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = cli.main(['table-1d', '--h', '0.1', '--cases', 'c', '--alphas',"
              " '0.5', '--ms', '2', '--Ns', '4,8'])\n"
              "assert code == 0, code\n"
              "assert 'mpmath' not in sys.modules\n"
              # scipy.fft costs 5 MB of resident memory; the sine transform is numpy.fft
              "assert 'scipy.fft' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)


def test_2d_table_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    """One 2D table row at one and at two OpenBLAS threads, byte for byte,
    at two grid sizes.

    Every tensor transform of the direct path multiplies parity-folded
    grids by contiguous half-size factors (see
    ``spectral.FoldedSineBasis``), here for n = 99 and 129 dofs per side.
    Measured with OpenBLAS 0.3.31, full ``table-2d`` CSVs of this row have
    the same bytes at one and two threads for every ``--n-per-side`` tried
    from 100 to 230 (23 sizes) but 200, and at 256, 300 and 400; at 200
    they differ.  So other grids are reproducible only at a fixed thread
    count.  The projection of a 2D callable makes no BLAS product (see
    ``test_fem``); the table's data cases do not take that path.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    for n_per_side in (100, 130):
        argv = ["table-2d", "--n-per-side", str(n_per_side), "--cases", "e", "--alphas",
                "0.5", "--Ns", "2", "--scheme", "grm"]
        runs = [subprocess.Popen([sys.executable, "-m", "fracstep.cli", *argv,
                                  "--out", str(tmp_path / f"{threads}.csv")],
                                 env={**env, "OPENBLAS_NUM_THREADS": str(threads)})
                for threads in (1, 2)]
        assert [run.wait(timeout=300) for run in runs] == [0, 0]
        assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes(), n_per_side
