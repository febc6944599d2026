import contextlib
import errno
import io
import os
import re
import stat
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import membeam
from membeam import analysis, cli, config, discretization, stepper
from membeam.cli import CSV_HEADER, default_config_path, main
from membeam.config import parse_config, with_parameter
from membeam.errors import ConfigError, MembeamError

from conftest import default_initial_state, exactly, make_assembly


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


# TINY_CFG sampled every step: its fit window [0.4, 2] holds enough
# samples for a decay fit (TINY_CFG itself has 8, fewer than the 10 needed)
FIT_CFG = TINY_CFG.replace("sample_every = 2", "sample_every = 1")

PRONY_LINES = "type = prony\namplitudes = 1.0\nrates = 1.0"


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def edit_cfg(old, new, text=TINY_CFG):
    """text with its one occurrence of old replaced by new."""
    assert text.count(old) == 1, old
    return text.replace(old, new)


def drop_key(key, text=TINY_CFG):
    """text without its one 'key = ...' line."""
    out, count = re.subn(rf"^{re.escape(key)} = .*\n", "", text, flags=re.M)
    assert count == 1, key
    return out


# Every run-file error of parse_config as (id, run file, message), where
# {path} is the run file and {at} is "{path}:<line of the first character
# that differs from TINY_CFG>".
PARSE_ERRORS = [
    ("unknown_section", edit_cfg("[memory]", "[extras]"), "{at}: unknown section [extras]"),
    ("key_outside_section", edit_cfg("\n[domain]", "\nL = 1.0\n[domain]"),
     "{at}: key outside any [section]"),
    ("missing_equals", edit_cfg("kappa = 0.5", "kappa 0.5"), "{at}: expected 'key = value'"),
    ("unknown_key", edit_cfg("kappa = 0.5", "kappa = 0.5\nwobble = 3"),
     "{at}: unknown key 'wobble' in [params]"),
    ("duplicate_key", edit_cfg("beta = 1.0", "beta = 1.0\nbeta = 2.0"),
     "{at}: duplicate key 'beta'"),
    ("bad_int", edit_cfg("Nx = 6", "Nx = 6.5"),
     "{at}: bad value for Nx: invalid literal for int() with base 10: '6.5'"),
    ("bad_float", edit_cfg("kappa = 0.5", "kappa = half"),
     "{at}: bad value for kappa: could not convert string to float: 'half'"),
    ("infinite_float", edit_cfg("kappa = 0.5", "kappa = inf"),
     "{at}: kappa must be a finite number, got 'inf'"),
    ("nan_float", edit_cfg("dt = 0.1", "dt = nan"), "{at}: dt must be a finite number, got 'nan'"),
    ("prony_without_amplitudes", drop_key("amplitudes"),
     "{path}: prony kernel needs [kernel] amplitudes"),
    ("prony_without_rates", drop_key("rates"), "{path}: prony kernel needs [kernel] rates"),
    ("table_without_path", edit_cfg("type = prony", "type = table"),
     "{path}: table kernel needs [kernel] path"),
    ("unknown_kernel_type", edit_cfg("type = prony", "type = wavelet"),
     "{path}: kernel type must be prony or table, got 'wavelet'"),
    ("unknown_scheme", edit_cfg("scheme = split_semilagrangian", "scheme = leapfrog"),
     "{path}: scheme must be one of ('full_implicit_midpoint', 'split_semilagrangian'), "
     "got 'leapfrog'"),
    ("unknown_history_mode", edit_cfg("history_mode = constant_past", "history_mode = explicit"),
     "{path}: history_mode must be one of ('zero', 'constant_past'), got 'explicit'"),
] + [(f"missing_{key}", drop_key(key), f"{{path}}: missing required key [{section}] {key}")
     for section, key in (("domain", "L"), ("domain", "Nx"), ("params", "kappa"),
                          ("params", "beta"), ("params", "lambda1"), ("params", "lambda2"),
                          ("coefficients", "p"), ("coefficients", "g"), ("kernel", "type"),
                          ("time", "dt"), ("time", "T"), ("initial", "u0"), ("initial", "v0"),
                          ("initial", "theta0"))]


# Every error of the profile and list grammar (config.parse_profile,
# _load_table, _floats) and of sweep's --values as (id, run file, command,
# message); {dir} is the run file's directory, which holds ragged.txt (rows
# of two and of one number), one_column.txt, and tables whose x column
# falls (unordered.txt, which np.interp would read as p = 100 past x =
# 0.75), repeats a value (repeated.txt) or holds a nan (nan_x.txt).
VALUE_ERRORS = [(id_, edit_cfg(old, new), ["validate"], message) for id_, old, new, message in (
    ("unknown_profile", "u0 = poly 0 0 1 -2 1", "u0 = wave 1",
     "unknown profile kind 'wave' (constant|poly|table|sine)"),
    ("poly_without_coefficients", "u0 = poly 0 0 1 -2 1", "u0 = poly",
     "poly profile needs coefficients: 'poly'"),
    ("sine_without_amplitude", "u0 = poly 0 0 1 -2 1", "u0 = sine",
     "sine profile takes amplitude [mode]: 'sine'"),
    ("sine_with_three_numbers", "u0 = poly 0 0 1 -2 1", "u0 = sine 1 2 3",
     "sine profile takes amplitude [mode]: 'sine 1 2 3'"),
    ("empty_profile", "u0 = poly 0 0 1 -2 1", "u0 =", "empty profile spec"),
    ("table_without_path", "u0 = poly 0 0 1 -2 1", "u0 = table",
     "table profile takes a path: 'table'"),
    ("table_with_two_paths", "u0 = poly 0 0 1 -2 1", "u0 = table a b",
     "table profile takes a path: 'table a b'"),
    ("missing_table", "u0 = poly 0 0 1 -2 1", "u0 = table absent.txt",
     "cannot read table {dir}/absent.txt: {dir}/absent.txt not found."),
    ("ragged_table", "u0 = poly 0 0 1 -2 1", "u0 = table ragged.txt",
     "malformed table {dir}/ragged.txt: the number of columns changed from 2 to 1 at row 2; "
     "use `usecols` to select a subset and avoid this error"),
    ("one_column_table", "u0 = poly 0 0 1 -2 1", "u0 = table one_column.txt",
     "table {dir}/one_column.txt needs at least 2 columns"),
    ("unordered_table", "p = constant 1.0", "p = table unordered.txt",
     "table {dir}/unordered.txt needs a strictly increasing x column"),
    ("unordered_theta0_table", "theta0 = sine 1.0 1", "theta0 = table unordered.txt",
     "table {dir}/unordered.txt needs a strictly increasing x column"),
    ("repeated_x_table", "u0 = poly 0 0 1 -2 1", "u0 = table repeated.txt",
     "table {dir}/repeated.txt needs a strictly increasing x column"),
    ("nan_x_table", "u0 = poly 0 0 1 -2 1", "u0 = table nan_x.txt",
     "table {dir}/nan_x.txt needs a strictly increasing x column"),
    ("bad_constant", "p = constant 1.0", "p = constant abc", "bad numeric list 'abc'"),
    ("bad_list", "amplitudes = 1.0", "amplitudes = 1,,x", "bad numeric list '1,,x'"),
)] + [("empty_sweep_values", TINY_CFG, ["sweep", "--param", "beta", "--values", ","],
       "sweep needs at least one value")]


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

    @pytest.mark.parametrize("text,message", [case[1:] for case in PARSE_ERRORS],
                             ids=[case[0] for case in PARSE_ERRORS])
    def test_every_parse_error(self, tmp_path, capsys, text, message):
        path = write_cfg(tmp_path, text)
        line = os.path.commonprefix([TINY_CFG, text]).count("\n") + 1
        message = message.format(at=f"{path}:{line}", path=path)
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert str(exc.value) == message
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("text,command,message", [case[1:] for case in VALUE_ERRORS],
                             ids=[case[0] for case in VALUE_ERRORS])
    def test_every_value_error(self, tmp_path, capsys, text, command, message):
        (tmp_path / "ragged.txt").write_text("0 0\n0.5\n1 0\n")
        (tmp_path / "one_column.txt").write_text("0\n0.5\n1\n")
        (tmp_path / "unordered.txt").write_text("0 1\n0.5 1\n1 1\n0.75 100\n")
        (tmp_path / "repeated.txt").write_text("0 0\n0.5 0\n0.5 0\n1 0\n")
        (tmp_path / "nan_x.txt").write_text("0 0\nnan 0\n1 0\n")
        path = write_cfg(tmp_path, text)
        assert main([command[0], str(path), *command[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: {message.format(dir=tmp_path)}\n"

    def test_defaults(self, tmp_path):
        text = TINY_CFG
        for key in ("trunc_tol", "sample_every", "scheme", "history_mode",
                    "csv_path", "report_path"):
            text = drop_key(key, text)
        cfg = parse_config(write_cfg(tmp_path, text))
        assert (cfg.trunc_tol, cfg.sample_every, cfg.scheme, cfg.history_mode,
                cfg.csv_path, cfg.report_path, cfg.kernel_path, cfg.base_dir) == (
            1e-8, 10, "split_semilagrangian", "constant_past",
            "membeam_run.csv", "membeam_report.txt", "", tmp_path)
        table = edit_cfg(PRONY_LINES, "type = table\npath = kern.txt", text)
        cfg = parse_config(write_cfg(tmp_path, table))
        assert (cfg.kernel_type, cfg.kernel_amplitudes, cfg.kernel_rates, cfg.kernel_path) == (
            "table", "", "", "kern.txt")

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
        with pytest.raises(MembeamError, match=exactly("u0 must vanish at x = 0 and x = L")):
            build_setup(parse_config(write_cfg(tmp_path, bad)))
        bad = TINY_CFG.replace("u0 = poly 0 0 1 -2 1", "u0 = sine 1.0 1")
        with pytest.raises(MembeamError,
                           match=exactly("u0 must have zero slope at x = 0 and x = L")):
            build_setup(parse_config(write_cfg(tmp_path, bad)))
        bad = TINY_CFG.replace("theta0 = sine 1.0 1", "theta0 = constant 0.5")
        with pytest.raises(MembeamError, match=exactly("theta0 must vanish at x = 0 and x = L")):
            build_setup(parse_config(write_cfg(tmp_path, bad)))

    def test_end_slope_checked_for_formulas_not_tables(self, tmp_path):
        from membeam.config import build_setup
        # x (1 - x) vanishes at both ends, with slope 1 and -1 there
        x = np.linspace(0.0, 1.0, 11)
        np.savetxt(tmp_path / "u0.txt", np.column_stack([x, x * (1.0 - x)]))
        table = edit_cfg("u0 = poly 0 0 1 -2 1", "u0 = table u0.txt")
        setup = build_setup(parse_config(write_cfg(tmp_path, table)))
        nodes = setup.assembly.grid.nodes
        np.testing.assert_array_equal(setup.initial_state.u, np.interp(nodes, x, x * (1.0 - x)))
        poly = edit_cfg("u0 = poly 0 0 1 -2 1", "u0 = poly 0 1 -1")
        with pytest.raises(MembeamError,
                           match=exactly("u0 must have zero slope at x = 0 and x = L")):
            build_setup(parse_config(write_cfg(tmp_path, poly)))

    @pytest.mark.parametrize("spec", ["constant 1,2", "constant 1, 2", "constant"])
    def test_constant_profile_takes_one_value(self, spec):
        with pytest.raises(ConfigError) as err:
            config.parse_profile(spec, 1.0, Path())
        assert str(err.value) == f"constant profile takes one value: {spec!r}"
        profile, slope = config.parse_profile("constant 2.5", 1.0, Path())
        np.testing.assert_array_equal(profile(np.linspace(0.0, 1.0, 4)), 2.5)
        assert slope(0.5) == 0.0


class TestBuildSetup:
    def test_kernel_is_validated_once(self, tmp_path, monkeypatch):
        from membeam import analysis, model
        calls = []

        def counting(module):
            real = module.validate_kernel

            def validate(kernel):
                calls.append(module.__name__)
                return real(kernel)
            return validate

        for module in (model, analysis):
            monkeypatch.setattr(module, "validate_kernel", counting(module))
        setup = config.build_setup(parse_config(write_cfg(tmp_path, TINY_CFG)))
        assert calls == ["membeam.model"]
        # a library call without the report still validates the kernel
        assert membeam.choose_multipliers_for(setup.assembly) == setup.mcfg
        assert calls == ["membeam.model", "membeam.analysis"]

    def test_far_truncation_refused_before_a_long_scan(self, tmp_path, monkeypatch):
        # mu = e^{-3e-8 s} at dt = 1 crosses its bound near s = 6e8; with
        # 8 GiB and Nx = 64 the scan of build_memory_grid stops near 2
        # million s-nodes, a history that no longer fits
        import tracemalloc
        pages, real = 2**33 // os.sysconf("SC_PAGE_SIZE"), os.sysconf
        monkeypatch.setattr(os, "sysconf",
                            lambda name: pages if name == "SC_PHYS_PAGES" else real(name))
        text = edit_cfg("rates = 1.0", "rates = 3e-8",
                        edit_cfg("Nx = 6", "Nx = 64", edit_cfg("dt = 0.1", "dt = 1.0")))
        cfg = parse_config(write_cfg(tmp_path, text))
        tracemalloc.start()
        try:
            with pytest.raises(membeam.errors.DimensionTooLarge, match="64 x"):
                config.build_setup(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


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

    @pytest.mark.parametrize("old,new", [
        ("T = 8.0", "T = -1"), ("T = 8.0", "T = 8.05"), ("T = 8.0", "T = 1e9"),
        ("sample_every = 2", "sample_every = 0")])
    def test_refuses_every_run_length_simulate_refuses(self, tmp_path, monkeypatch, capsys,
                                                       old, new):
        # stepper.run_length, in the setup every command builds: refused
        # with simulate's message before a step or a spectrum is taken
        monkeypatch.chdir(tmp_path)
        path = str(_small_cfg(tmp_path, old, new))
        assert main(["validate", path]) == 1
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith("validation FAILED: ")
        message = line.removeprefix("validation FAILED: ")
        for command in ("simulate", "spectrum"):
            assert main([command, path]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: {message}\n"
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("scheme", stepper.SCHEMES)
    def test_overflowing_memory_flux_is_refused(self, tmp_path, monkeypatch, capsys, scheme):
        # amplitudes = 1e300 meets every kernel hypothesis, but the squares of
        # its w_k mu_k LAP entries, which every step's residual norm takes,
        # overflow: refused in setup with one line, for both schemes
        monkeypatch.chdir(tmp_path)
        text = default_config_path("small").read_text()
        text = edit_cfg("scheme = split_semilagrangian", f"scheme = {scheme}",
                        edit_cfg("amplitudes = 1.0", "amplitudes = 1e300", text))
        path = str(write_cfg(tmp_path, text))
        assert main(["validate", path]) == 1
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith("validation FAILED: the kernel's largest memory-flux entry")
        assert main(["simulate", path]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {line.removeprefix('validation FAILED: ')}\n"
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("name", ["u0", "v0", "theta0"])
    def test_non_finite_table_profile_is_refused(self, tmp_path, monkeypatch, capsys, name):
        # a nan row interpolates to nan nodes, which the boundary check's
        # comparisons let through
        monkeypatch.chdir(tmp_path)
        (tmp_path / "nan.txt").write_text("0 0\n0.5 nan\n1 0\n")
        text = re.sub(rf"^{name} = .*$", f"{name} = table nan.txt",
                      default_config_path("small").read_text(), flags=re.M)
        path = str(write_cfg(tmp_path, text))
        assert main(["validate", path]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"validation FAILED: {name} holds a non-finite value"]
        assert main(["simulate", path]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {name} holds a non-finite value"]

    def test_non_utf8_run_file_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xff\xfe" + TINY_CFG.encode())
        for command in ("validate", "simulate"):
            assert main([command, str(path)]) == 2
            assert capsys.readouterr() == ("", f"config error: cannot read config {path}: "
                                           "'utf-8' codec can't decode byte 0xff in position 0: "
                                           "invalid start byte\n")
        assert os.listdir(tmp_path) == ["run.cfg"]

    @pytest.mark.parametrize("scheme", stepper.SCHEMES)
    @pytest.mark.parametrize("line, message", [
        ("p = poly 1 1e308", "p up to 9.41e+307 at h = 0.0588 gives a biharmonic p/h^4 with an "
         "entry beyond the float range"),
        ("g = poly 1e308 1e308", "g holds a non-finite value"),
        ("u0 = poly 0 0 1e200 -2e200 1e200", "the initial data u0, v0, theta0 have an energy "
         "beyond the float range"),
        ("theta0 = sine 1e200 1", "the initial data u0, v0, theta0 have an energy beyond the "
         "float range")])
    def test_value_past_the_float_range_is_named(self, tmp_path, monkeypatch, capsys, scheme,
                                                 line, message):
        # p is finite but the p/h^4 entries of bih overflow; g overflows to
        # inf at the nodes; u0 and theta0 are finite but the energy of the
        # state is not.  Each is refused by name in setup, before a residual
        # or a sample overflows, and no numpy warning is raised on the way
        # (pyproject.toml's filterwarnings turn one into an error)
        monkeypatch.chdir(tmp_path)
        name = line.split(" = ")[0]
        text = re.sub(rf"^{name} = .*$", line, default_config_path("small").read_text(),
                      flags=re.M)
        text = edit_cfg("scheme = split_semilagrangian", f"scheme = {scheme}",
                        edit_cfg("T = 8.0", "T = 1.0", text))
        path = str(write_cfg(tmp_path, text))
        assert main(["validate", path]) == 1
        assert capsys.readouterr() == (f"validation FAILED: {message}\n", "")
        assert main(["simulate", path]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not list(tmp_path.glob("*.csv"))

    def test_degenerate_kernel_mass_is_refused(self, tmp_path, monkeypatch, capsys):
        # a Prony amplitude of 1e-16 meets H1-H4, but its mass leaves no
        # feasible Lyapunov multipliers
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path, edit_cfg("amplitudes = 1.0", "amplitudes = 1e-16"))
        with pytest.raises(MembeamError, match=exactly("kernel mass mu0 is degenerate")):
            config.build_setup(parse_config(path))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr() == ("validation FAILED: kernel mass mu0 is degenerate\n", "")
        assert main(["simulate", str(path)]) == 1
        assert capsys.readouterr() == ("", "error: kernel mass mu0 is degenerate\n")
        assert os.listdir(tmp_path) == ["run.cfg"]

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
        path = write_cfg(tmp_path, FIT_CFG)
        assert main(["simulate", str(path)]) == 0
        csv = (tmp_path / "run.csv").read_text().splitlines()
        assert csv[0] == CSV_HEADER
        assert len(csv) == 1 + 21  # t=0 plus 20 samples at sample_every=1
        report = (tmp_path / "report.txt").read_text()
        assert "energy_monotone_decay" in report
        assert "decay fit: gamma=" in report
        assert "spectral abscissa" in report
        assert re.search(r"^check running_sum_drift: worst=\S+ tol=1\.0e-09 PASS$", report,
                         flags=re.M)
        assert "decay_rate_positive" not in report

    @pytest.mark.parametrize("kernel, line", [
        (PRONY_LINES, "spectral abscissa (modal, exact in s): -1.00141 (dim=64)"),
        ("type = prony\namplitudes = " + " 0.008" * 123 + "\nrates = " + " 1.0" * 123,
         "spectral abscissa (modal, exact in s): skipped (dim=2016 > 2000)"),
        ("type = table\npath = kern.txt", None)])
    def test_report_abscissa_is_the_modal_one(self, tmp_path, monkeypatch, capsys, kernel, line):
        # small.cfg's abscissa line is that of its Prony kernel's modal A~,
        # of dimension (3 + modes) Nx under the dense cap, a table kernel
        # has none, and no run builds A_h
        def unexpected(self):
            raise AssertionError("simulate built A_h")

        monkeypatch.setattr(discretization.GeneratorAssembly, "generator_matrix",
                            property(unexpected))
        monkeypatch.chdir(tmp_path)
        s = np.linspace(0.0, 20.0, 2001)
        np.savetxt(tmp_path / "kern.txt", np.column_stack([s, np.exp(-s), -np.exp(-s)]))
        assert main(["simulate", str(_small_cfg(tmp_path, PRONY_LINES, kernel))]) == 0
        out = capsys.readouterr().out
        assert [l for l in out.splitlines() if "abscissa" in l] == ([line] if line else [])

    @pytest.mark.parametrize("scheme", stepper.SCHEMES)
    def test_overflowing_lemma_sides_read_inf(self, tmp_path, monkeypatch, capsys, scheme):
        # amplitudes = 1e140 passes the flux bound, but C1 ||v||^2 in the
        # bounds of lemmas 4.3 and 4.4 overflows: the sides read inf with no
        # RuntimeWarning (which fails a test here), every check is reported
        # and the energy rise and the growing fit fail the run
        monkeypatch.chdir(tmp_path)
        text = default_config_path("small").read_text()
        text = edit_cfg("scheme = split_semilagrangian", f"scheme = {scheme}",
                        edit_cfg("amplitudes = 1.0", "amplitudes = 1e140", text))
        assert main(["simulate", str(write_cfg(tmp_path, text))]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        failed = [l.split(":")[0] for l in out.splitlines()
                  if l.startswith("check ") and l.endswith(" FAIL")]
        assert failed == ["check energy_monotone_decay", "check decay_rate_positive"]
        assert "check lemma_I_bound: worst=-4.890023e+280 tol=1.0e-08 PASS" in out

    @pytest.mark.parametrize("drift", [float("nan"), 2e-9])
    def test_running_sum_drift_is_checked(self, tmp_path, monkeypatch, capsys, drift):
        monkeypatch.chdir(tmp_path)
        run = cli._run_simulation

        def drifted(setup):
            result = run(setup)
            result.running_sum_drift = drift
            return result

        monkeypatch.setattr(cli, "_run_simulation", drifted)
        assert main(["simulate", str(write_cfg(tmp_path, FIT_CFG))]) == 1
        assert f"check running_sum_drift: worst={drift:.6e} tol=1.0e-09 FAIL" in \
            capsys.readouterr().out

    def test_midpoint_run_checks_a_measured_drift(self, tmp_path, monkeypatch):
        # the drift of the midpoint run's carried wmu . eta, not a fixed 0
        monkeypatch.chdir(tmp_path)
        text = edit_cfg("scheme = split_semilagrangian", "scheme = full_implicit_midpoint",
                        FIT_CFG)
        assert main(["simulate", str(write_cfg(tmp_path, text))]) == 0
        line = re.search(r"^check running_sum_drift: worst=(\S+) tol=1\.0e-09 PASS$",
                         (tmp_path / "report.txt").read_text(), flags=re.M)
        assert line and 0.0 < float(line.group(1)) <= 1e-11

    def test_too_few_fit_samples_fails_the_run(self, tmp_path, monkeypatch, capsys):
        # TINY_CFG has 8 samples in its fit window [0.4, 2], fewer than a fit needs
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path, TINY_CFG)
        assert main(["simulate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "decay fit: unavailable (only 8 samples in window" in out
        assert "check decay_fit_available: worst=0.000000e+00 tol=1.0e+00 FAIL" in out
        assert all(line.endswith("PASS") for line in out.splitlines()
                   if line.startswith("check ") and "decay_fit_available" not in line)
        assert len((tmp_path / "run.csv").read_text().splitlines()) == 1 + 11

    def test_rounding_decay_does_not_certify(self, tmp_path, monkeypatch, capsys):
        # at L = 1e70 with u0 = 0 the energy is constant to rounding, and the
        # fit reads a rate of 4e-14 from it: no decay across the window
        monkeypatch.chdir(tmp_path)
        text = edit_cfg("u0 = poly 0 0 1 -2 1", "u0 = constant 0.0",
                        edit_cfg("L = 1.0", "L = 1e70", FIT_CFG))
        assert main(["simulate", str(write_cfg(tmp_path, text))]) == 1
        assert re.search(r"^check decay_rate_positive: worst=\S+ tol=1\.0e-08 FAIL$",
                         capsys.readouterr().out, flags=re.M)

    def test_aborted_run_writes_every_earlier_sample(self, tmp_path, monkeypatch, capsys):
        # the run's factor gets one entry of U's diagonal off in its 5th solve
        monkeypatch.chdir(tmp_path)
        path = str(write_cfg(tmp_path, FIT_CFG))
        assert main(["simulate", path, "--csv", "full.csv", "--report", "full.txt"]) == 0
        real = stepper._start

        def corrupted(state, cfg):
            run = real(state, cfg)
            solve, calls = run.lu.solve_checked, []

            def solve_checked(*args):
                calls.append(args)
                if len(calls) == 5:
                    run.lu._lu[run.lu.kl + run.lu.ku, 7] *= 1.0 + 1e-6
                return solve(*args)

            run.lu.solve_checked = solve_checked
            return run

        monkeypatch.setattr(stepper, "_start", corrupted)
        capsys.readouterr()
        assert main(["simulate", path]) == 1
        out, err = capsys.readouterr()
        (line,) = err.splitlines()
        assert out == "" and line.startswith("error: simulation aborted at step 5: residual ")
        rows = (tmp_path / "run.csv").read_text().splitlines()
        full = (tmp_path / "full.csv").read_text().splitlines()
        assert rows[0] == CSV_HEADER and rows[-1] == "# TRUNCATED at step 5"
        # samples at steps 0-4; the last one's derivative fields are one-sided
        assert [r.split(",")[:3] for r in rows[1:-1]] == [r.split(",")[:3] for r in full[1:6]]
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("scheme", ["split_semilagrangian", "full_implicit_midpoint"])
    def test_fine_grid_step_misses_the_residual_bound(self, tmp_path, monkeypatch, capsys,
                                                      scheme):
        # at Nx = 768, dt = 1e-2 the rounding of tau bih u (entries of size
        # tau/h^4) leaves a step residual about 16 times the 1e-9 bound: the
        # run aborts cleanly at step 1, and validate, which takes no step,
        # passes
        monkeypatch.chdir(tmp_path)
        text = default_config_path("default").read_text()
        for old, new in (("Nx = 64", "Nx = 768"), ("dt = 0.001", "dt = 0.01"),
                         ("T = 10.0", "T = 0.4"), ("sample_every = 10", "sample_every = 1"),
                         ("trunc_tol = 1e-8", "trunc_tol = 1e-3"),
                         ("scheme = split_semilagrangian", f"scheme = {scheme}")):
            text = edit_cfg(old, new, text)
        path = str(write_cfg(tmp_path, text))
        assert main(["simulate", path]) == 1
        out, err = capsys.readouterr()
        assert re.fullmatch(r"error: simulation aborted at step 1: residual \S+ exceeds "
                            r"1\.0e-09 x right-hand side \S+\n", err), err
        assert out == ""
        rows = (tmp_path / "membeam_run.csv").read_text().splitlines()
        assert rows[0] == CSV_HEADER and rows[-1] == "# TRUNCATED at step 1"
        assert not (tmp_path / "membeam_report.txt").exists()
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out.endswith("validation PASSED\n")

    @pytest.mark.parametrize("scheme", stepper.SCHEMES)
    def test_large_history_passes_the_reprojection_check(self, tmp_path, monkeypatch, capsys,
                                                         scheme):
        # theta0 = 1e151 sin(pi x) passes setup; the squared sum over a
        # midpoint run's (Nx, Ns) history overflows, so its re-projection
        # compares plain norms and the run goes on
        monkeypatch.chdir(tmp_path)
        text = default_config_path("default").read_text()
        for old, new in (("Nx = 64", "Nx = 32"), ("dt = 0.001", "dt = 0.01"),
                         ("T = 10.0", "T = 3.0"), ("theta0 = sine 1.0 1", "theta0 = sine 1e151 1"),
                         ("scheme = split_semilagrangian", f"scheme = {scheme}")):
            text = edit_cfg(old, new, text)
        path = str(write_cfg(tmp_path, text, "default.cfg"))
        assert main(["validate", path]) == 0
        assert main(["simulate", path]) == 0
        assert capsys.readouterr().err == ""
        checks = [l for l in (tmp_path / "membeam_report.txt").read_text().splitlines()
                  if l.startswith("check ")]
        assert checks and all(l.endswith(" PASS") for l in checks), checks

    def test_zero_initial_data_all_zero_columns(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        text = TINY_CFG.replace("u0 = poly 0 0 1 -2 1", "u0 = constant 0.0")
        text = text.replace("theta0 = sine 1.0 1", "theta0 = constant 0.0")
        path = write_cfg(tmp_path, text)
        # zero energy has no decay rate to fit, so the run does not pass
        assert main(["simulate", str(path)]) == 1
        assert "check decay_fit_available" in (tmp_path / "report.txt").read_text()
        rows = (tmp_path / "run.csv").read_text().splitlines()[1:]
        data = np.array([[float(v) for v in row.split(",")] for row in rows])
        np.testing.assert_array_equal(data[:, 1:], 0.0)

    def test_sample_every_beyond_run_gives_two_rows(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        text = TINY_CFG.replace("sample_every = 2", "sample_every = 100000")
        path = write_cfg(tmp_path, text)
        # one sample in the fit window: no fit, so the run does not pass
        assert main(["simulate", str(path)]) == 1
        assert "check decay_fit_available" in (tmp_path / "report.txt").read_text()
        rows = (tmp_path / "run.csv").read_text().splitlines()
        assert len(rows) == 3
        assert float(rows[1].split(",")[0]) == 0.0
        assert float(rows[2].split(",")[0]) == pytest.approx(2.0)

    def test_deterministic_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path, FIT_CFG)
        assert main(["simulate", str(path), "--csv", "a.csv"]) == 0
        assert main(["simulate", str(path), "--csv", "b.csv"]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_monotone_energy_column(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path, FIT_CFG)
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

    @pytest.mark.parametrize("command, what", [("spectrum", "dense spectrum"),
                                               ("oracle-check", "oracle")])
    def test_above_the_dense_cap_is_one_error_line(self, tmp_path, monkeypatch, capsys,
                                                   command, what):
        # small.cfg at Nx = 32 has dim 32 (3 + 93) = 3072: refused by the one
        # dense-cap guard before A_h or H is built, and no CSV is written
        def unexpected(self):
            raise AssertionError("a dim x dim matrix built above the dense cap")

        monkeypatch.setattr(discretization.GeneratorAssembly, "_couple", unexpected)
        monkeypatch.chdir(tmp_path)
        path = _small_cfg(tmp_path, "Nx = 16", "Nx = 32")
        assert main([command, str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {what} limited to dimension 2000, "
                                       "got 3072\n")
        assert os.listdir(tmp_path) == ["run.cfg"]

    def test_failed_eigensolve_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        def fail(matrix):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(analysis, "dense_eigvals", fail)
        monkeypatch.chdir(tmp_path)
        setup = config.build_setup(parse_config(default_config_path("small")))
        for system in (setup.assembly, setup.assembly.modal_system):
            with pytest.raises(MembeamError, match=exactly("eigenvalues did not converge")):
                analysis.eigenvalues(system)
        assert main(["spectrum", str(default_config_path("small"))]) == 1
        assert capsys.readouterr() == ("", "error: eigenvalues did not converge\n")
        assert os.listdir(tmp_path) == []
        # simulate's modal abscissa comes after the run's CSV, before its report
        assert main(["simulate", str(default_config_path("small"))]) == 1
        assert capsys.readouterr() == ("", "error: eigenvalues did not converge\n")
        assert os.listdir(tmp_path) == ["membeam_small.csv"]

    def test_eigensolve_fault_is_an_internal_error(self, tmp_path, monkeypatch, capsys):
        # only a LinAlgError means the eigensolve did not converge: a fault
        # in the dense path passes through as itself
        def broken(matrix):
            raise TypeError("eigvals() got an unexpected keyword argument 'overwrite'")

        monkeypatch.setattr(analysis, "dense_eigvals", broken)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(TypeError):
            analysis.eigenvalues(make_assembly())
        assert main(["simulate", str(default_config_path("small"))]) == 1
        assert capsys.readouterr() == ("", "internal error: TypeError: eigvals() got an "
                                       "unexpected keyword argument 'overwrite'\n")


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
        underdamped and it pollutes the late fit window.  Above the dense
        cap (dim 5544 here) the sweep never assembles A_h."""
        def unreachable(self):
            raise AssertionError("A_h assembled above the dense cap")

        monkeypatch.setattr(discretization.GeneratorAssembly, "_couple", unreachable)
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

    def test_failed_value_gets_a_nan_row(self, tmp_path, monkeypatch, capsys):
        # T = 0 leaves one sample, no decay to fit: its row is nan, its
        # error line the one of a single-value sweep, and T = 4 runs after it
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path, TINY_CFG.replace("sample_every = 2", "sample_every = 1"))
        assert main(["sweep", str(path), "--param", "T", "--values", "4,0,4",
                     "--csv", "sweep.csv"]) == 1
        assert capsys.readouterr() == ("", "error: only 1 samples in window [0.0, 0.0]\n")
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert rows[0] == "T,gamma_fit,K_fit,r2,abscissa,resolvent_cond"
        assert rows[2] == "0,nan,nan,nan,nan,nan"
        assert rows[1] == rows[3] and "nan" not in rows[1]

    def test_value_failing_a_check_gets_a_nan_row(self, tmp_path, monkeypatch, capsys):
        # small.cfg at amplitudes = 1e4 fits a decay at dt = 0.1, but its
        # energy rises between samples, which fails simulate: so does the
        # sweep value, with the failed check's line; dt = 0.025 passes and
        # gets the row it gets alone
        monkeypatch.chdir(tmp_path)
        path = str(_small_cfg(tmp_path, "amplitudes = 1.0", "amplitudes = 1e4"))
        assert main(["sweep", path, "--param", "dt", "--values", "0.025",
                     "--csv", "alone.csv"]) == 0
        capsys.readouterr()
        assert main(["sweep", path, "--param", "dt", "--values", "0.1,0.025",
                     "--csv", "sweep.csv"]) == 1
        assert capsys.readouterr() == ("", "error: check energy_monotone_decay: "
                                       "worst=5.519464e-02 tol=1.0e-10 FAIL\n")
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert rows[1] == "0.10000000000000001,nan,nan,nan,nan,nan"
        assert rows[2] == (tmp_path / "alone.csv").read_text().splitlines()[1]

    @pytest.mark.parametrize("drift", [float("nan"), 2e-9])
    def test_drifted_value_gets_a_nan_row(self, tmp_path, monkeypatch, capsys, drift):
        # the running-sum drift that fails simulate fails the sweep value
        monkeypatch.chdir(tmp_path)
        run = cli._run_simulation

        def drifted(setup):
            result = run(setup)
            if setup.params.beta == 1.0:
                result.running_sum_drift = drift
            return result

        monkeypatch.setattr(cli, "_run_simulation", drifted)
        path = write_cfg(tmp_path, TINY_CFG.replace("T = 2.0", "T = 4.0").replace(
            "sample_every = 2", "sample_every = 1"))
        assert main(["sweep", str(path), "--param", "beta", "--values", "0.5,1",
                     "--csv", "sweep.csv"]) == 1
        assert capsys.readouterr() == (
            "", f"error: check running_sum_drift: worst={drift:.6e} tol=1.0e-09 FAIL\n")
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert rows[2] == "1,nan,nan,nan,nan,nan" and "nan" not in rows[1]

    def test_bad_value_refused_before_any_run(self, tmp_path, monkeypatch, capsys):
        def unreachable(cfg):
            raise AssertionError("a value ran before every value was checked")

        monkeypatch.setattr(cli, "build_setup", unreachable)
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path, TINY_CFG)
        assert main(["sweep", str(path), "--param", "Nx", "--values", "6,6.5",
                     "--csv", "sweep.csv"]) == 2
        assert capsys.readouterr().err == \
            "config error: sweep value for Nx must be an integer, got 6.5\n"
        assert not (tmp_path / "sweep.csv").exists()


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

    def test_final_time_off_the_step_grid_exits_1(self, tmp_path, monkeypatch, capsys):
        # T = 2 is not a whole number of dt = 0.3 steps: refused before the
        # first step instead of run on to t = 2.1
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path, edit_cfg("dt = 0.1", "dt = 0.3"))
        assert main(["simulate", str(path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: T = 2 is not a whole number of steps dt = 0.3")
        assert not (tmp_path / "run.csv").exists()

    def test_non_integer_sweep_nx_is_config_error(self, tmp_path, capsys):
        path = write_cfg(tmp_path, TINY_CFG)
        assert main(["sweep", str(path), "--param", "Nx", "--values", "16.7",
                     "--serial"]) == 2
        assert "integer" in capsys.readouterr().err

    def test_unexpected_exception_exits_1_in_one_line(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("stage broke\nsecond line")

        monkeypatch.setattr(stepper, "simulate", broken)
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path, TINY_CFG)
        assert main(["simulate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["internal error: RuntimeError: stage broke second line"]
        assert "Traceback" not in err

    def test_caller_defined_exception_passes_through(self, tmp_path, monkeypatch):
        # a caller that wraps a stage may stop the command with its own exception
        class Stop(Exception):
            pass

        def stop(*args, **kwargs):
            raise Stop

        monkeypatch.setattr(membeam.cli, "build_setup", stop)
        with pytest.raises(Stop):
            main(["simulate", str(write_cfg(tmp_path, TINY_CFG))])

    def test_unknown_log_level_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        # MEMBEAM_LOG names the level of the membeam logger: an unknown one
        # is one stderr line and exit 2, before the command runs
        monkeypatch.setenv("MEMBEAM_LOG", "bogus")
        assert main(["validate", str(write_cfg(tmp_path, TINY_CFG))]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["config error: MEMBEAM_LOG=BOGUS is not a log level"]

    def test_non_finite_sweep_value_is_config_error(self, tmp_path, capsys):
        path = write_cfg(tmp_path, TINY_CFG)
        assert main(["sweep", str(path), "--param", "Nx", "--values", "nan",
                     "--serial"]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_non_numeric_sweep_value_is_config_error(self, tmp_path, capsys):
        path = write_cfg(tmp_path, TINY_CFG)
        assert main(["sweep", str(path), "--param", "beta", "--values", "1,abc",
                     "--serial"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["config error: sweep values must be numbers: "
                                    "could not convert string to float: 'abc'"]

    @pytest.mark.parametrize("argv", [
        ["validate", "--report", "nodir/r.txt"], ["simulate", "--csv", "nodir/r.txt"],
        ["simulate", "--report", "nodir/r.txt"], ["spectrum", "--csv", "nodir/r.txt"],
        ["oracle-check", "--csv", "nodir/r.txt"],
        ["sweep", "--param", "beta", "--values", "1", "--csv", "nodir/r.txt"]])
    def test_unwritable_output_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        # refused after setup, before any run, level or eigensolve, for a
        # path in no directory, a path that names one and an empty path
        # (never read as an absent flag); no file is left
        def unexpected(*args, **kwargs):
            raise AssertionError("work before the output paths were checked")

        monkeypatch.setattr(stepper, "simulate", unexpected)
        monkeypatch.setattr(stepper, "oracle_evolve", unexpected)
        monkeypatch.setattr(analysis, "eigenvalues", unexpected)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        cfg = str(write_cfg(tmp_path, FIT_CFG))
        for path, reason in (("nodir/r.txt", "No such file or directory"),
                             ("adir", "Is a directory"), ("", "No such file or directory")):
            assert main([argv[0], cfg, *(path if a == "nodir/r.txt" else a
                                         for a in argv[1:])]) == 2
            assert capsys.readouterr() == ("", f"config error: cannot write {path}: {reason}\n")
        assert sorted(os.listdir(tmp_path)) == ["adir", "run.cfg"]

    @staticmethod
    def _refuse_work(monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("work before the output paths were checked")

        monkeypatch.setattr(stepper, "simulate", unexpected)
        monkeypatch.setattr(stepper, "oracle_evolve", unexpected)
        monkeypatch.setattr(analysis, "eigenvalues", unexpected)

    @pytest.mark.parametrize("argv", [
        ["validate", "--report"], ["simulate", "--csv"], ["simulate", "--report"],
        ["spectrum", "--csv"], ["oracle-check", "--csv"],
        ["sweep", "--param", "beta", "--values", "1", "--csv"]])
    def test_output_on_the_run_file_is_a_usage_error(self, tmp_path, monkeypatch, capsys,
                                                     argv):
        # the run file, named as given or by another path to it, is never
        # overwritten
        self._refuse_work(monkeypatch)
        monkeypatch.chdir(tmp_path)
        write_cfg(tmp_path, FIT_CFG)
        for path in ("run.cfg", str(tmp_path / "run.cfg"), "./run.cfg"):
            assert main([argv[0], "run.cfg", *argv[1:], path]) == 2
            assert capsys.readouterr() == (
                "", f"config error: cannot write {path}: it names the same file as "
                "the run file run.cfg\n")
        assert os.listdir(tmp_path) == ["run.cfg"]
        assert (tmp_path / "run.cfg").read_text() == FIT_CFG

    @pytest.mark.parametrize("argv, keys, first, second", [
        (["--csv", "out.txt", "--report", "./out.txt"], None, "out.txt", "./out.txt"),
        (["--csv", "sub/../out.txt", "--report", "out.txt"], None, "sub/../out.txt", "out.txt"),
        ([], "csv_path = out.txt\nreport_path = out.txt", "out.txt", "out.txt"),
        (["--report", "run.csv"], None, "run.csv", "run.csv")],
        ids=["flags", "dotdot", "keys", "flag-and-key"])
    def test_two_outputs_on_one_file_are_a_usage_error(self, tmp_path, monkeypatch, capsys,
                                                       argv, keys, first, second):
        # the CSV and the report would overwrite each other: refused before
        # the run, and no file is written
        self._refuse_work(monkeypatch)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        output = "csv_path = run.csv\nreport_path = report.txt"
        write_cfg(tmp_path, FIT_CFG.replace(output, keys) if keys else FIT_CFG)
        assert main(["simulate", "run.cfg", *argv]) == 2
        assert capsys.readouterr() == (
            "", f"config error: cannot write {second}: it names the same file as "
            f"the output {first}\n")
        assert sorted(os.listdir(tmp_path)) == ["run.cfg", "sub"]

    @pytest.mark.parametrize("key", ["csv_path", "report_path"])
    def test_empty_output_key_is_a_usage_error(self, tmp_path, monkeypatch, capsys, key):
        # refused before the run, with the message of its write, which
        # would otherwise come only after the run
        def unexpected(setup):
            raise AssertionError("a run before the output paths were checked")

        monkeypatch.setattr(cli, "_run_simulation", unexpected)
        monkeypatch.chdir(tmp_path)
        write_cfg(tmp_path, re.sub(rf"^{key} = .*$", f"{key} =", FIT_CFG, flags=re.M))
        assert main(["simulate", "run.cfg"]) == 2
        assert capsys.readouterr() == (
            "", "config error: cannot write : No such file or directory\n")
        assert os.listdir(tmp_path) == ["run.cfg"]

    @pytest.mark.parametrize("argv", [
        ["validate", "--csv"], ["spectrum", "--report"], ["oracle-check", "--report"],
        ["sweep", "--param", "beta", "--values", "1", "--report"]])
    def test_flag_the_command_does_not_read_is_a_usage_error(self, tmp_path, monkeypatch,
                                                             capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main([argv[0], str(write_cfg(tmp_path, TINY_CFG)), *argv[1:], "out.txt"]) == 2
        assert f"unrecognized arguments: {argv[-1]} out.txt" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run.cfg"]

    @pytest.mark.parametrize("edits, levels, message", [
        ([("T = 2.0", "T = 0.0")], "3",
         "oracle-check needs T > 0: at T = 0 every error is 0 and the order 0/0"),
        ([("u0 = poly 0 0 1 -2 1", "u0 = constant 0.0"),
          ("theta0 = sine 1.0 1", "theta0 = constant 0.0")], "3",
         "oracle-check needs nonzero initial data: the error relative to a zero solution "
         "is 0/0"),
        ([], "60", "T / dt = 1.15e+19 steps exceeds the limit of 1000000")],
        ids=["T=0", "zero-data", "levels=60"])
    def test_oracle_check_refuses_what_it_cannot_measure(self, tmp_path, monkeypatch, capsys,
                                                         edits, levels, message):
        # refused before the first level, in one line, with no CSV
        def unexpected(*args, **kwargs):
            raise AssertionError("a level was run")

        monkeypatch.setattr(stepper, "simulate", unexpected)
        monkeypatch.setattr(stepper, "oracle_evolve", unexpected)
        monkeypatch.chdir(tmp_path)
        text = TINY_CFG
        for old, new in edits:
            text = edit_cfg(old, new, text)
        assert main(["oracle-check", str(write_cfg(tmp_path, text)), "--levels", levels]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert os.listdir(tmp_path) == ["run.cfg"]

    @pytest.mark.parametrize("levels", ["0", "1"])
    def test_oracle_check_needs_two_levels(self, tmp_path, monkeypatch, capsys, levels):
        # refused before the run file is read or any setup is built
        def unexpected(*args, **kwargs):
            raise AssertionError("setup work before the levels check")

        monkeypatch.setattr(cli, "parse_config", unexpected)
        monkeypatch.setattr(cli, "build_setup", unexpected)
        path = write_cfg(tmp_path, TINY_CFG)
        assert main(["oracle-check", str(path), "--levels", levels]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"config error: oracle-check needs --levels >= 2 to fit an order, got {levels}"]


class TestOutputRewrite:
    """Every output is rewritten in place, never truncated at open: it gets
    the bytes of a fresh write and keeps its inode, links and mode."""

    OLD = b"x" * 100_000   # longer than any output below

    @pytest.mark.parametrize("argv", [
        ["validate", "--report"], ["simulate", "--csv"], ["simulate", "--report"],
        ["spectrum", "--csv"], ["oracle-check", "--csv"],
        ["sweep", "--param", "beta", "--values", "0.5,1", "--csv"]])
    @pytest.mark.parametrize("old", [OLD, b"t\n"], ids=["longer", "shorter"])
    def test_rewrite_gives_the_bytes_of_a_fresh_write(self, tmp_path, monkeypatch, capsys,
                                                      argv, old):
        # and no output is opened with O_TRUNC
        monkeypatch.chdir(tmp_path)
        write_cfg(tmp_path, FIT_CFG)
        code = main([argv[0], "run.cfg", *argv[1:], "fresh.txt"])
        (tmp_path / "out.txt").write_bytes(old)
        opened, real_open = [], os.open

        def spy(path, flags, *args, **kwargs):
            opened.append((os.fspath(path), flags))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        assert main([argv[0], "run.cfg", *argv[1:], "out.txt"]) == code
        assert (tmp_path / "out.txt").read_bytes() == (tmp_path / "fresh.txt").read_bytes()
        assert "out.txt" in (path for path, _ in opened)
        assert not any(flags & os.O_TRUNC for _, flags in opened)

    def test_keeps_inode_hard_links_and_mode(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_cfg(tmp_path, FIT_CFG)
        assert main(["simulate", "run.cfg", "--csv", "fresh.csv"]) == 0
        out = tmp_path / "run.csv"
        out.write_bytes(self.OLD)
        out.chmod(0o604)
        os.link(out, tmp_path / "alias.csv")
        inode = out.stat().st_ino
        assert main(["simulate", "run.cfg"]) == 0
        after = out.stat()
        assert (after.st_ino, after.st_nlink, stat.S_IMODE(after.st_mode)) == (inode, 2, 0o604)
        assert (tmp_path / "alias.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()

    def test_symbolic_link_updates_its_target(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_cfg(tmp_path, FIT_CFG)
        assert main(["simulate", "run.cfg", "--csv", "fresh.csv"]) == 0
        (tmp_path / "target.csv").write_bytes(self.OLD)
        (tmp_path / "link.csv").symlink_to("target.csv")
        assert main(["simulate", "run.cfg", "--csv", "link.csv"]) == 0
        assert os.readlink(tmp_path / "link.csv") == "target.csv"
        assert (tmp_path / "target.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()

    def test_new_file_mode_follows_the_umask(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_cfg(tmp_path, FIT_CFG)
        previous = os.umask(0o027)
        try:
            assert main(["simulate", "run.cfg"]) == 0
        finally:
            os.umask(previous)
        for name in ("run.csv", "report.txt"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o640

    def test_device_output_is_not_cut(self, tmp_path, monkeypatch, capsys):
        # /dev/null cannot be truncated; only a regular file is cut to length
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", str(default_config_path("small")), "--csv", os.devnull]) == 0
        assert capsys.readouterr().out.endswith(
            f"wrote {os.devnull} and membeam_small_report.txt\n")

    def test_failed_write_leaves_the_file_empty(self, tmp_path, monkeypatch, capsys):
        # a write that fails partway leaves the new rows over the longer old
        # file's tail, which could read as a whole CSV: the file is cut to
        # nothing, and the error is the usual usage error
        monkeypatch.chdir(tmp_path)
        write_cfg(tmp_path, FIT_CFG)
        out = tmp_path / "run.csv"
        out.write_bytes(self.OLD)

        def open_failing_partway(fd, mode):
            fh = open(fd, mode)

            def write(text):
                # the whole text in one call; the first 1000 characters land
                assert text.startswith(f"{CSV_HEADER}\n") and text.endswith("\n")
                os.write(fd, text[:1000].encode())
                on_disk = out.read_bytes()
                assert on_disk.startswith(text[:1000].encode()) and len(on_disk) == len(self.OLD)
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            fh.write = write
            return fh

        monkeypatch.setattr(cli, "open", open_failing_partway, raising=False)
        assert main(["simulate", "run.cfg"]) == 2
        assert capsys.readouterr() == (
            "", "config error: cannot write run.csv: No space left on device\n")
        assert out.read_bytes() == b""


_TABLE_KERNEL = [("type = prony", "type = table\npath = kernel.txt"),
                 ("amplitudes = 1.0\n", ""), ("rates = 1.0\n", "")]
# e^-s on [0, 1], where it never falls to trunc_tol = 1e-4 of mu(ds/2)
_SHORT_TABLE = "".join(f"{k / 10} {float(np.exp(-k / 10))!r} {-float(np.exp(-k / 10))!r}\n"
                       for k in range(11))


def _run_file_failure(edits, argv, table=None):
    """The stderr of argv on TINY_CFG with edits (and kernel.txt holding
    table), which must exit 1 and print nothing on stdout."""
    def run(tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        text = TINY_CFG
        for old, new in edits:
            text = edit_cfg(old, new, text)
        write_cfg(tmp_path, text)
        if table is not None:
            (tmp_path / "kernel.txt").write_text(table)
        code = main([argv[0], "run.cfg", *argv[1:]])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        return err
    return run


def _library_failure(call):
    """str() of the MembeamError that call(monkeypatch) raises."""
    def run(tmp_path, monkeypatch, capsys):
        with pytest.raises(membeam.MembeamError) as info:
            call(monkeypatch)
        return str(info.value)
    return run


def _split_run_off_its_grid(monkeypatch):
    asm = make_assembly(Nx=5, ds=0.05, Ns=6)
    stepper.simulate(default_initial_state(asm), stepper.SchemeConfig(dt=0.01), 0.01)


def _eigensolve_not_converged(monkeypatch):
    def fail(matrix):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(analysis, "dense_eigvals", fail)
    analysis.eigenvalues(make_assembly())


def _resolvent_lu_singular(monkeypatch):
    monkeypatch.setattr(discretization, "dgbtrf", lambda band, kl, ku, overwrite_ab: (
        band, np.zeros(band.shape[1], np.int32), 3))
    analysis.resolvent_check(make_assembly())


# One input for each way a run fails that no caller tells apart from the
# rest: a run-file input and the one stderr line of its command, or a
# library call and its message.
FAILURE_MESSAGES = [
    ("H1", _run_file_failure(_TABLE_KERNEL, ["simulate"], "0 1\n1 0\n2 -1\n"),
     "error: H1 fails: mu(s) < 0 at a probe point\n"),
    ("H2", _run_file_failure(_TABLE_KERNEL, ["simulate"], "0 1\n1 2\n2 3\n"),
     "error: H2 fails: mu'(s) > 0 at a probe point\n"),
    ("H3", _run_file_failure(_TABLE_KERNEL, ["simulate"], "0 0\n1 0\n2 0\n"),
     "error: H3 fails: mu0 is not positive and finite\n"),
    ("H4", _run_file_failure(_TABLE_KERNEL, ["simulate"], "0 1\n1 0.25\n2 0.125\n3 0.0625\n"),
     "error: H4 fails: cannot certify delta1 > 0 with mu' + delta1*mu <= 0\n"),
    ("nan_table", _run_file_failure(_TABLE_KERNEL, ["simulate"],
                                    "0 1 -1\n0.5 nan -0.5\n1 0.5 -0.5\n"),
     "error: kernel table holds a non-finite value\n"),
    ("short_table", _run_file_failure(_TABLE_KERNEL, ["simulate"], _SHORT_TABLE),
     "error: mu > 9.524e-05 at s = 1, the last node before the table end or 1e9\n"),
    ("coarse_grid", _run_file_failure([("Nx = 6", "Nx = 3")], ["simulate"]),
     "error: Nx = 3 < 4 interior nodes\n"),
    ("tiny_beam", _run_file_failure([("L = 1.0", "L = 1e-80")], ["simulate"]),
     "error: beam length L = 1e-80 gives the node spacing h = 1.42857e-81, whose h^4 or "
     "1/h^4 leaves the float range\n"),
    ("negative_p", _run_file_failure([("p = constant 1.0", "p = constant -1")], ["simulate"]),
     "error: coefficient p is not strictly positive at node 0\n"),
    ("clamped_u0", _run_file_failure([("u0 = poly 0 0 1 -2 1", "u0 = constant 1.0")],
                                     ["simulate"]),
     "error: u0 must vanish at x = 0 and x = L\n"),
    ("tiny_mass", _run_file_failure([("amplitudes = 1.0", "amplitudes = 1e-16")], ["simulate"]),
     "error: kernel mass mu0 is degenerate\n"),
    ("empty_window", _run_file_failure([], ["sweep", "--param", "T", "--values", "0"]),
     "error: only 1 samples in window [0.0, 0.0]\n"),
    ("zero_energy", _run_file_failure(
        [("u0 = poly 0 0 1 -2 1", "u0 = constant 0.0"),
         ("theta0 = sine 1.0 1", "theta0 = constant 0.0"),
         ("sample_every = 2", "sample_every = 1")], ["sweep", "--param", "beta", "--values", "1"]),
     "error: energy underflowed inside the fit window\n"),
    ("prony_shapes", _library_failure(lambda mp: membeam.MemoryKernel.prony([1.0, 2.0], [1.0])),
     "prony amplitudes and rates must be nonempty and equal length"),
    ("split_grid", _library_failure(_split_run_off_its_grid),
     "split_semilagrangian needs ds == dt (ds = 0.05, dt = 0.01)"),
    ("eigensolve", _library_failure(_eigensolve_not_converged), "eigenvalues did not converge"),
    ("resolvent_lu", _library_failure(_resolvent_lu_singular),
     "mechanical block of the implicit step: Factor is exactly singular: U(3, 3) = 0"),
]


@pytest.mark.parametrize("run, message", [case[1:] for case in FAILURE_MESSAGES],
                         ids=[case[0] for case in FAILURE_MESSAGES])
def test_a_failure_keeps_its_message(tmp_path, monkeypatch, capsys, run, message):
    assert run(tmp_path, monkeypatch, capsys) == message


# Each scalar line of FIT_CFG, with a finite range small enough that a run
# stays well under a second (its modal A~, dimension 4 Nx, is at most 32).
# Every scalar also draws zero, negative, tiny, huge and non-finite values;
# the huge Nx are refused from the history size before any allocation.
_FLOAT_SPECIALS = ("nan", "inf", "-inf", "0.0", "-1.0", "-1e300", "1e-300", "5e-324", "1e300")
_INT_SPECIALS = ("nan", "inf", "0", "-1", "2.5", str(10**9), str(10**15))
# Scalars inside a profile, written where {} stands, which also draw 1e200:
# the values of p and g, the leading coefficient of u0 and the amplitude of
# theta0, whose squares leave the float range in the operators or the energy.
_PROFILE_SCALARS = {"p = constant 1.0": "p = constant {}", "g = constant 1.0": "g = constant {}",
                    "u0 = poly 0 0 1 -2 1": "u0 = poly 0 0 1 -2 {}",
                    "theta0 = sine 1.0 1": "theta0 = sine {} 1"}
_SCALARS = {
    "L = 1.0": st.floats(0.5, 2.0).map(repr),
    "dt = 0.1": st.floats(0.08, 1.0).map(repr),
    "T = 2.0": st.floats(0.0, 4.0).map(repr),
    "Nx = 6": st.integers(-2, 8).map(str),
    "kappa = 0.5": st.floats(0.05, 5.0).map(repr),
    "beta = 1.0": st.floats(0.0, 5.0).map(repr),
    "lambda1 = 0.5": st.floats(0.01, 0.99).map(repr),
    "lambda2 = 1.0": st.floats(0.1, 10.0).map(repr),
    "trunc_tol = 1e-4": st.floats(1e-5, 0.99).map(repr),
    "amplitudes = 1.0": st.floats(0.01, 100.0).map(repr),
    "rates = 1.0": st.floats(0.8, 50.0).map(repr),
    "sample_every = 1": st.integers(-2, 30).map(str),
    "p = constant 1.0": st.floats(0.1, 10.0).map(repr),
    "g = constant 1.0": st.floats(0.1, 10.0).map(repr),
    "u0 = poly 0 0 1 -2 1": st.floats(-2.0, 2.0).map(repr),
    "theta0 = sine 1.0 1": st.floats(-5.0, 5.0).map(repr),
}


def _specials(line):
    specials = _INT_SPECIALS if line.startswith(("Nx", "sample_every")) else _FLOAT_SPECIALS
    return specials + ("1e200",) if line in _PROFILE_SCALARS else specials


def _scalar_case(line):
    return st.tuples(st.just(line), st.one_of(st.sampled_from(_specials(line)), _SCALARS[line]))


def _simulate_with_scalar(line, value) -> int:
    """simulate on FIT_CFG with the scalar of line replaced by value (with
    line None, unchanged): it exits 0, 1 or 2 with nothing escaping main,
    and a non-finite value never exits 0.  Returns the exit code."""
    text = FIT_CFG
    if line is not None:
        place = _PROFILE_SCALARS.get(line, f"{line.split(' = ')[0]} = {{}}")
        text = edit_cfg(line, place.format(value), FIT_CFG)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", str(path), "--csv", str(Path(tmp) / "run.csv"),
                         "--report", str(Path(tmp) / "report.txt")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if str(value).lstrip("-") in ("nan", "inf"):
        assert code != 0
    return code


def test_run_file_scalar_fuzz_base_exits_0():
    # else "a non-finite value never exits 0" could not fail
    assert _simulate_with_scalar(None, None) == 0


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(_SCALARS)).flatmap(_scalar_case))
def test_run_file_scalar_fuzz(case):
    """simulate on FIT_CFG with one scalar replaced by a drawn value."""
    _simulate_with_scalar(*case)


@pytest.mark.parametrize("line, value", [(line, value) for line in sorted(_SCALARS)
                                         for value in _specials(line)])
def test_run_file_scalar_special(line, value):
    """simulate on FIT_CFG with one scalar replaced by each special value."""
    _simulate_with_scalar(line, value)


@pytest.mark.parametrize("name,value", [
    ("kappa", "1e300"), ("beta", "1e300"), ("kappa", "1e-300"), ("lambda2", "5e-324"),
    ("L", "1e-300"), ("L", "1e-80"), ("L", "1e300"), ("L", "1e80"), ("dt", "1e-300")])
def test_extreme_scalar_is_a_named_error(tmp_path, capsys, name, value):
    # squares and quotients of these leave the float range: kappa^2, beta^2,
    # l = (1 - lambda1)/lambda2, the h^4 and 1/h^4 of h = L/(Nx + 1) and the
    # node count s/dt of the memory grid's scan are range-checked and named
    line = next(line for line in _SCALARS if line.split(" = ")[0] == name)
    path = write_cfg(tmp_path, TINY_CFG.replace(line, f"{name} = {value}"))
    code = main(["simulate", str(path), "--csv", str(tmp_path / "run.csv"),
                 "--report", str(tmp_path / "report.txt")])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ") and "internal error" not in err


def test_overflowing_l_is_named_before_any_evaluation(tmp_path):
    # l = 5e299 is finite, but l LAP has entries whose squares overflow: the
    # run must stop at setup, before numpy warns about any overflow
    path = write_cfg(tmp_path, TINY_CFG.replace("lambda2 = 1.0", "lambda2 = 1e-300"))
    proc = _python(tmp_path, "-m", "membeam", "simulate", str(path), timeout=120)
    assert proc.returncode == 1
    assert len(proc.stderr.strip().splitlines()) == 1
    assert proc.stderr.startswith("error: ") and "l = 5e+299" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def _small_cfg(tmp_path, old=None, new=None):
    text = default_config_path("small").read_text()
    if old is not None:
        assert old in text
        text = text.replace(old, new)
    return write_cfg(tmp_path, text)


def _python(tmp_path, *argv, timeout):
    """Run the interpreter on argv in tmp_path, with this membeam importable."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(membeam.__file__).parents[1])] + sys.path))
    return subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=timeout)


def _run_then_check(*modules):
    """Python source: `membeam argv[1:]` must exit 0 (with no arguments,
    membeam.cli is only imported) without importing any of modules."""
    return ("import runpy, sys, membeam.cli\n"
            "if sys.argv[1:]:\n"
            "    sys.argv = ['membeam', *sys.argv[1:]]\n"
            "    try:\n        runpy.run_module('membeam', run_name='__main__')\n"
            "    except SystemExit as exc:\n        assert exc.code == 0, exc.code\n"
            + "".join(f"assert {module!r} not in sys.modules, '{module} imported'\n"
                      for module in modules))


class TestRunLength:
    def test_zero_final_time_does_not_certify(self, tmp_path, monkeypatch, capsys):
        # no step taken: the report must not pass
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path, TINY_CFG.replace("T = 2.0", "T = 0.0"))
        assert main(["simulate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "check trajectory_recorded: worst=1.000000e+00 tol=2.0e+00 FAIL" in out

    def test_step_count_bounded_before_first_step(self, tmp_path):
        # T = 1e300 is 1e301 steps; refused from the step count, in seconds
        path = _small_cfg(tmp_path, "T = 8.0", "T = 1e300")
        start = time.perf_counter()
        proc = _python(tmp_path, "-m", "membeam", "simulate", str(path), timeout=60)
        assert time.perf_counter() - start < 60
        assert proc.returncode in (1, 2)
        assert len(proc.stderr.strip().splitlines()) == 1
        assert str(stepper.MAX_STEPS) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "membeam_small.csv").exists()

    def test_record_count_bounded_before_first_step(self, tmp_path, monkeypatch, capsys):
        # 200,000 steps sampled every step would keep 200,001 records
        def no_step(run):
            raise AssertionError("stepped")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(stepper._SplitRun, "advance", no_step)
        text = default_config_path("small").read_text()
        path = write_cfg(tmp_path, text.replace("T = 8.0", "T = 20000.0")
                         .replace("sample_every = 2", "sample_every = 1"))
        assert main(["simulate", str(path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "200001 records" in err[0] and str(stepper.MAX_RECORDS) in err[0]
        assert not (tmp_path / "membeam_small.csv").exists()

    @staticmethod
    def _nx8_cfg(tmp_path, scheme):
        # small.cfg at Nx = 8: the same path, with a dense spectrum an
        # eighth the cost of Nx = 16's
        text = edit_cfg("Nx = 16", "Nx = 8", default_config_path("small").read_text())
        return str(write_cfg(tmp_path, edit_cfg("scheme = split_semilagrangian",
                                                f"scheme = {scheme}", text), f"{scheme}.cfg"))

    def test_cli_never_imports_scipy_signal(self, tmp_path):
        # the midpoint history step is a convolution taken with numpy.fft;
        # scipy.signal (with scipy.stats) would add about 1 s to a process,
        # scipy.fft about 57 ms.  Every factorization is the banded LAPACK LU
        # and the resolvent's norm estimate is membeam's own, so neither
        # SuperLU nor onenormest (scipy.sparse.linalg) is ever loaded
        path = self._nx8_cfg(tmp_path, "full_implicit_midpoint")
        check = _run_then_check("scipy.signal", "scipy.fft", "scipy.optimize",
                                "scipy.sparse.linalg")
        for argv in (["simulate", path],
                     ["sweep", path, "--param", "beta", "--values", "1.0"]):
            proc = _python(tmp_path, "-c", check, *argv, timeout=120)
            assert proc.returncode == 0, (argv, proc.stderr)

    def test_cli_never_imports_scipy_optimize(self, tmp_path):
        # a scan of the s-grid nodes finds the memory truncation point;
        # scipy.optimize would add about 0.3 s to every process
        check = _run_then_check("scipy.signal", "scipy.fft", "scipy.optimize",
                                "scipy.sparse.linalg")
        for argv in ([], ["simulate", self._nx8_cfg(tmp_path, "split_semilagrangian")]):
            proc = _python(tmp_path, "-c", check, *argv, timeout=120)
            assert proc.returncode == 0, (argv, proc.stderr)

    @pytest.mark.parametrize("name,ns", [("default", 18422), ("small", 93)])
    def test_shipped_memory_grids(self, name, ns):
        setup = config.build_setup(parse_config(default_config_path(name)))
        assert setup.assembly.Ns == ns
