import csv
import io
from contextlib import redirect_stdout

import pytest

from fracstep.cli import main, read_config


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

    def test_shift_above_the_spectrum_fails(self, capsys):
        # lambda_min is about 9.87: delta = 50 would let every step grow
        code, _ = run_cli(["table-1d", "--h", "0.05", "--cases", "b", "--alphas", "0.5",
                           "--ms", "2", "--Ns", "4,8", "--delta", "50"])
        assert code == 2
        assert "not below lambda_min_est" in capsys.readouterr().err

    def test_invalid_alpha_fails(self):
        code, _ = run_cli(["table-1d", "--alphas", "1.5", "--cases", "c",
                           "--ms", "1", "--Ns", "8,16", "--h", "0.1"])
        assert code == 2


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

    def test_unread_flag_rejected(self):
        # the study reads --delta-fraction only; --delta must not abbreviate it
        with pytest.raises(SystemExit) as exc:
            run_cli(["spatial-refine", "--delta", "5"])
        assert exc.value.code == 2

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
