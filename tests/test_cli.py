import numpy as np
import pytest

from membeam import config, discretization
from membeam.cli import CSV_HEADER, default_config_path, main
from membeam.config import parse_config, with_parameter
from membeam.errors import ConfigError, IncompatibleBoundary


TINY_CFG = """
[domain]
L = 1.0
Nx = 6

[params]
kappa = 0.5
beta = 1.0
lambda1 = 0.5
lambda2 = 1.0

[coefficients]
p = constant 1.0
g = constant 1.0

[kernel]
type = prony
amplitudes = 1.0
rates = 1.0

[memory]
trunc_tol = 1e-4

[time]
dt = 0.1
T = 2.0
sample_every = 2
scheme = split_semilagrangian

[initial]
u0 = poly 0 0 1 -2 1
v0 = constant 0.0
theta0 = sine 1.0 1
history_mode = constant_past

[output]
csv_path = run.csv
report_path = report.txt
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_roundtrip(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, TINY_CFG))
        assert cfg.Nx == 6
        assert cfg.scheme == "split_semilagrangian"
        assert cfg.kernel_type == "prony"

    def test_unknown_key_rejected(self, tmp_path):
        bad = TINY_CFG.replace("kappa = 0.5", "kappa = 0.5\nwobble = 3")
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, bad))

    def test_unknown_section_rejected(self, tmp_path):
        bad = TINY_CFG + "\n[extras]\nfoo = 1\n"
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, bad))

    def test_missing_required_rejected(self, tmp_path):
        bad = TINY_CFG.replace("dt = 0.1", "")
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, bad))

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.cfg")

    def test_with_parameter(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, TINY_CFG))
        swept = with_parameter(cfg, "beta", 0.25)
        assert swept.beta == 0.25 and cfg.beta == 1.0
        swept = with_parameter(cfg, "Nx", 16.0)
        assert swept.Nx == 16 and isinstance(swept.Nx, int)
        for name in ("nonsense", "params.beta"):
            with pytest.raises(ConfigError):
                with_parameter(cfg, name, 1.0)

    def test_boundary_incompatible_profiles(self, tmp_path):
        from membeam.config import build_setup
        bad = TINY_CFG.replace("u0 = poly 0 0 1 -2 1", "u0 = constant 1.0")
        with pytest.raises(IncompatibleBoundary):
            build_setup(parse_config(write_cfg(tmp_path, bad)))
        bad = TINY_CFG.replace("u0 = poly 0 0 1 -2 1", "u0 = sine 1.0 1")
        with pytest.raises(IncompatibleBoundary):
            build_setup(parse_config(write_cfg(tmp_path, bad)))
        bad = TINY_CFG.replace("theta0 = sine 1.0 1", "theta0 = constant 0.5")
        with pytest.raises(IncompatibleBoundary):
            build_setup(parse_config(write_cfg(tmp_path, bad)))


class TestValidateCommand:
    def test_default_config_passes(self):
        assert main(["validate", str(default_config_path())]) == 0

    def test_bad_lambda1_names_field(self, tmp_path, capsys):
        bad = TINY_CFG.replace("lambda1 = 0.5", "lambda1 = 1.2")
        path = write_cfg(tmp_path, bad)
        assert main(["validate", str(path)]) == 1
        assert "lambda1" in capsys.readouterr().out

    def test_power_law_kernel_names_h4(self, tmp_path, capsys):
        s = np.linspace(0.0, 50.0, 2001)
        table = np.column_stack([s, (1 + s) ** -2.0, -2.0 * (1 + s) ** -3.0])
        np.savetxt(tmp_path / "kern.txt", table)
        bad = TINY_CFG.replace(
            "type = prony\namplitudes = 1.0\nrates = 1.0",
            "type = table\npath = kern.txt")
        path = write_cfg(tmp_path, bad)
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "H4: FAIL" in out

    @pytest.mark.parametrize("old,new,code", [
        ("u0 = poly 0 0 1 -2 1", "u0 = sine 1.0 1", 1),
        ("history_mode = constant_past", "history_mode = explicit", 2),
        ("scheme = split_semilagrangian", "scheme = leapfrog", 2),
    ])
    def test_fails_where_simulate_fails(self, tmp_path, monkeypatch, capsys, old, new, code):
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path, TINY_CFG.replace(old, new))
        assert main(["validate", str(path)]) == code
        assert main(["simulate", str(path)]) == code
        out, err = capsys.readouterr()
        assert "PASSED" not in out and "Traceback" not in err
        assert not (tmp_path / "run.csv").exists()

    def test_stops_at_first_failing_stage(self, tmp_path, capsys):
        bad = TINY_CFG.replace("lambda1 = 0.5", "lambda1 = 1.5")
        bad = bad.replace("g = constant 1.0", "g = constant -1")
        assert main(["validate", str(write_cfg(tmp_path, bad))]) == 1
        out = capsys.readouterr().out
        assert out.splitlines() == ["validation FAILED: lambda1 = 1.5 not in (0, 1)"]

    def test_parse_error_exit_2(self, tmp_path):
        path = write_cfg(tmp_path, TINY_CFG + "\ngarbage line\n")
        assert main(["validate", str(path)]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["validate", str(tmp_path / "none.cfg")]) == 2


class TestSimulateCommand:
    def test_writes_csv_and_report(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path, TINY_CFG)
        assert main(["simulate", str(path)]) == 0
        csv = (tmp_path / "run.csv").read_text().splitlines()
        assert csv[0] == CSV_HEADER
        assert len(csv) == 1 + 11  # t=0 plus 10 samples at sample_every=2
        report = (tmp_path / "report.txt").read_text()
        assert "energy_monotone_decay" in report
        assert "spectral abscissa" in report

    def test_zero_initial_data_all_zero_columns(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        text = TINY_CFG.replace("u0 = poly 0 0 1 -2 1", "u0 = constant 0.0")
        text = text.replace("theta0 = sine 1.0 1", "theta0 = constant 0.0")
        path = write_cfg(tmp_path, text)
        assert main(["simulate", str(path)]) == 0
        rows = (tmp_path / "run.csv").read_text().splitlines()[1:]
        data = np.array([[float(v) for v in row.split(",")] for row in rows])
        np.testing.assert_array_equal(data[:, 1:], 0.0)

    def test_sample_every_beyond_run_gives_two_rows(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        text = TINY_CFG.replace("sample_every = 2", "sample_every = 100000")
        path = write_cfg(tmp_path, text)
        assert main(["simulate", str(path)]) == 0
        rows = (tmp_path / "run.csv").read_text().splitlines()
        assert len(rows) == 3
        assert float(rows[1].split(",")[0]) == 0.0
        assert float(rows[2].split(",")[0]) == pytest.approx(2.0)

    def test_deterministic_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path, TINY_CFG)
        assert main(["simulate", str(path), "--csv", "a.csv"]) == 0
        assert main(["simulate", str(path), "--csv", "b.csv"]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_monotone_energy_column(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path, TINY_CFG)
        assert main(["simulate", str(path)]) == 0
        rows = (tmp_path / "run.csv").read_text().splitlines()[1:]
        E = np.array([float(r.split(",")[1]) for r in rows])
        assert np.all(np.diff(E) < 0)


class TestSpectrumCommand:
    def test_small_config_all_left_half_plane(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["spectrum", str(default_config_path("small")),
                     "--csv", "spec.csv"]) == 0
        lines = (tmp_path / "spec.csv").read_text().splitlines()
        assert lines[0].startswith("# abscissa =")
        assert lines[1] == "re,im"
        re = np.array([float(r.split(",")[0]) for r in lines[2:]])
        assert re.max() <= 1e-10

    def test_oversized_config_refused(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["spectrum", str(default_config_path("default"))]) == 1


class TestOracleCheckCommand:
    def test_midpoint_order_at_least_19(self, tmp_path, monkeypatch):
        # ds is tied to the configured dt, so keep the history block small
        # through a coarser truncation tolerance
        monkeypatch.chdir(tmp_path)
        text = TINY_CFG.replace("scheme = split_semilagrangian",
                                "scheme = full_implicit_midpoint")
        text = text.replace("T = 2.0", "T = 0.5")
        text = text.replace("dt = 0.1", "dt = 0.02")
        text = text.replace("trunc_tol = 1e-4", "trunc_tol = 1e-2")
        text = text.replace("p = constant 1.0", "p = constant 0.01")
        path = write_cfg(tmp_path, text)
        assert main(["oracle-check", str(path), "--csv", "oracle.csv"]) == 0
        header = (tmp_path / "oracle.csv").read_text().splitlines()[0]
        order = float(header.rsplit("=", 1)[1])
        assert order >= 1.9

    def test_split_order_at_least_09(self, tmp_path, monkeypatch):
        # coarse truncation keeps the history span below the elapsed time,
        # so the transported initial-history kink has exited by t = T
        monkeypatch.chdir(tmp_path)
        text = TINY_CFG.replace("T = 2.0", "T = 0.5")
        text = text.replace("dt = 0.1", "dt = 0.05")
        text = text.replace("trunc_tol = 1e-4", "trunc_tol = 0.7")
        text = text.replace("p = constant 1.0", "p = constant 0.01")
        path = write_cfg(tmp_path, text)
        assert main(["oracle-check", str(path), "--csv", "oracle.csv"]) == 0
        header = (tmp_path / "oracle.csv").read_text().splitlines()[0]
        assert float(header.rsplit("=", 1)[1]) >= 0.9


class TestSweepCommand:
    def test_beta_sweep_rows_in_order(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        text = TINY_CFG.replace("T = 2.0", "T = 4.0")
        text = text.replace("sample_every = 2", "sample_every = 1")
        path = write_cfg(tmp_path, text)
        assert main(["sweep", str(path), "--param", "beta",
                     "--values", "0,0.5,1.0", "--serial",
                     "--csv", "sweep.csv"]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("beta,gamma_fit")
        values = [float(r.split(",")[0]) for r in lines[1:]]
        assert values == [0.0, 0.5, 1.0]
        conds = [float(r.split(",")[5]) for r in lines[1:]]
        assert all(np.isfinite(conds))

    def test_beta_zero_matches_decoupled_mechanical_rate(self, tmp_path, monkeypatch):
        """With beta = 0 the fitted rate equals the decoupled damped-beam
        rate 2 g0 (every underdamped mode has real part -g0).  dt must
        resolve the fastest beam mode, else the midpoint block leaves it
        underdamped and it pollutes the late fit window."""
        monkeypatch.chdir(tmp_path)
        text = TINY_CFG.replace("T = 2.0", "T = 6.0")
        text = text.replace("dt = 0.1", "dt = 0.01")
        text = text.replace("sample_every = 2", "sample_every = 20")
        text = text.replace("theta0 = sine 1.0 1", "theta0 = constant 0.0")
        path = write_cfg(tmp_path, text)
        assert main(["sweep", str(path), "--param", "beta", "--values", "0",
                     "--serial", "--csv", "sweep.csv"]) == 0
        row = (tmp_path / "sweep.csv").read_text().splitlines()[1]
        gamma = float(row.split(",")[1])
        assert gamma == pytest.approx(2.0, rel=0.05)

    def test_concurrent_matches_serial(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path, TINY_CFG.replace("sample_every = 2",
                                                    "sample_every = 1"))
        assert main(["sweep", str(path), "--param", "kappa",
                     "--values", "0.4,0.6", "--serial", "--csv", "ser.csv"]) == 0
        assert main(["sweep", str(path), "--param", "kappa",
                     "--values", "0.4,0.6", "--csv", "par.csv"]) == 0
        assert (tmp_path / "ser.csv").read_bytes() == (tmp_path / "par.csv").read_bytes()


class TestExitCodes:
    def test_usage_error(self):
        assert main(["no-such-command"]) == 2

    @pytest.mark.parametrize("old,new", [
        ("T = 2.0", "T = nan"),
        ("T = 2.0", "T = inf"),
        ("dt = 0.1", "dt = -inf"),
        ("kappa = 0.5", "kappa = nan"),
        ("rates = 1.0", "rates = 1.0 nan"),
        ("theta0 = sine 1.0 1", "theta0 = sine nan 1"),
        ("theta0 = sine 1.0 1", "theta0 = sine 1.0 x"),
        # an s-grid (1e301 nodes) or a beam grid (1e15 nodes) that cannot be
        # allocated: refused from the sizes alone, before any allocation
        ("dt = 0.1", "dt = 1e-300"),
        ("Nx = 6", "Nx = 1000000000000000"),
    ])
    def test_unrunnable_input_fails_in_one_line(self, tmp_path, monkeypatch, capsys, old, new):
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path, TINY_CFG.replace(old, new))
        code = main(["simulate", str(path)])
        err = capsys.readouterr().err
        assert code in (1, 2)
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_oversized_history_refused_before_beam_grid(self, tmp_path, monkeypatch, capsys,
                                                        command):
        # Nx = 1e9 with Ns = 93 needs terabytes: the (Nx, Ns) history check
        # must refuse it before anything of size Nx is built
        def unreachable(*args):
            raise AssertionError("beam grid built before the history size was checked")

        monkeypatch.setattr(config, "build_spatial_grid", unreachable)
        monkeypatch.setattr(discretization, "build_spatial_grid", unreachable)
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path, TINY_CFG.replace("Nx = 6", "Nx = 1000000000"))
        assert main([command, str(path)]) == 1
        out, err = capsys.readouterr()
        assert "needs about" in out + err and "Traceback" not in err

    def test_non_integer_sweep_nx_is_config_error(self, tmp_path, capsys):
        path = write_cfg(tmp_path, TINY_CFG)
        assert main(["sweep", str(path), "--param", "Nx", "--values", "16.7",
                     "--serial"]) == 2
        assert "integer" in capsys.readouterr().err

    def test_non_finite_sweep_value_is_config_error(self, tmp_path, capsys):
        path = write_cfg(tmp_path, TINY_CFG)
        assert main(["sweep", str(path), "--param", "Nx", "--values", "nan",
                     "--serial"]) == 2
        assert "Traceback" not in capsys.readouterr().err
