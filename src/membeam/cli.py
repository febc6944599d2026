"""Command-line entry point.

Subcommands and the flags each takes:
    validate <cfg> [--report R]            simulate's setup: its certificates or first failure
    simulate <cfg> [--csv C] [--report R]  run the configured simulation; write CSV + report
    spectrum <cfg> [--csv C]               eigenvalues (re, im) sorted by real part + abscissa
    oracle-check <cfg> [--csv C] [--levels N]
                                           dt-halving error table against exp(t A_h)
    sweep <cfg> --param P --values V [--csv C] [--serial]
                                           one simulate per value, in turn, judged by
                                           its report checks; a value that fails gets
                                           a nan row

Exit codes: 0 pass, 1 validation/certification failure, aborted run, failed
sweep value or internal error (a built-in, numpy or scipy exception; an
exception class a caller defines passes through), 2 usage/parse error.
MEMBEAM_LOG sets the log level (an unknown level exits 2).  CSV and report
paths come from the config's [output] section; --csv/--report, when given,
override.  A path that is empty, names a directory, lies in no directory, or
names the run file or the same file as another output is refused after
setup, before the run.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import logging
import math
import os
import stat
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import analysis, model, stepper
from .config import ProblemSetup, build_setup, parse_config, with_parameter
from .discretization import DENSE_MAX_DIM, assemble_generator, check_dense, memory_grid_from_counts
from .errors import (
    ConfigError,
    DimensionTooLarge,
    KernelHypothesisError,
    MembeamError,
    SimulationAborted,
)

CSV_HEADER = "t,E,D,dE_numeric,identity_residual,F1,F2,I,L"

log = logging.getLogger(__name__)

# The exception classes Python, numpy and scipy raise: from a command they
# mean a fault of membeam.  An exception class that a caller defines (to
# stop a command it wraps early, say) is not among them and passes through.
_INTERNAL_ERRORS = (ArithmeticError, AssertionError, AttributeError, BufferError, EOFError,
                    ImportError, LookupError, MemoryError, NameError, OSError, ReferenceError,
                    RuntimeError, SystemError, TypeError, ValueError)


def default_config_path(name: str = "default") -> Path:
    """Path of a shipped run file ('default' or 'small')."""
    return Path(resources.files("membeam").joinpath(f"data/{name}.cfg"))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write(path, head: str, rows=(), first: str | None = None, last: str | None = None):
    """Write every file the CLI writes: an optional first line, head, one
    line of _fmt numbers per row and an optional last line.  Rewritten in
    place by one write (no wait for the last run's blocks to be flushed), a
    regular file is then cut to length.  An exception in this process leaves
    it empty; a kill between the write and the cut leaves the old tail.  A
    path that cannot be written is a usage error (ConfigError), not a fault."""
    lines = itertools.chain((first, head), (",".join(map(_fmt, row)) for row in rows), (last,))
    text = "".join(f"{line}\n" for line in lines if line is not None)
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            with open(fd, "w") as fh:
                fh.write(text)
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    fh.truncate()
        except BaseException:   # no new rows over the old tail
            with contextlib.suppress(OSError):
                os.truncate(path, 0)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_writable(config, *paths):
    """Refuse before a run, with _write's message, a path that is empty,
    names a directory, lies in no directory, or names the same file as the
    run file config or an earlier path (ConfigError).  Creates no file."""
    taken = {os.path.realpath(config): f"the run file {config}"}
    for path in paths:
        folder, key = os.path.dirname(path) or ".", os.path.realpath(path)
        if not path:
            reason = os.strerror(errno.ENOENT)
        elif os.path.isdir(path):
            reason = os.strerror(errno.EISDIR)
        elif not os.path.isdir(folder):
            reason = os.strerror(errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT)
        elif key in taken:
            reason = f"it names the same file as {taken[key]}"
        else:
            taken[key] = f"the output {path}"
            continue
        raise ConfigError(f"cannot write {path}: {reason}")


# ---------------------------------------------------------------------------
# validate


def _kernel_lines(report: model.KernelReport) -> list[str]:
    lines = [f"kernel {name}: {'PASS' if ok else 'FAIL'}" for name, ok in
             (("H1", report.h1), ("H2", report.h2), ("H3", report.h3), ("H4", report.h4))]
    lines.append(f"kernel certificate: mu0={report.mu0:.12g} delta1={report.delta1:.12g}")
    return lines


def cmd_validate(args) -> int:
    """Run simulate's setup and report its certificates, or the first
    stage that fails; run-file errors propagate (exit 2)."""
    cfg = parse_config(args.config)
    try:
        setup = build_setup(cfg)
    except ConfigError:
        raise
    except MembeamError as exc:
        lines = _kernel_lines(exc.report) if isinstance(exc, KernelHypothesisError) else []
        lines.append(f"validation FAILED: {exc}")
        code = 1
    else:
        par, coeffs, mcfg = setup.params, setup.assembly.coefficients, setup.mcfg
        lines = [f"params: kappa={par.kappa:g} beta={par.beta:g} lambda1={par.lambda1:g} "
                 f"lambda2={par.lambda2:g} l={par.l:.12g} PASS",
                 *_kernel_lines(setup.kernel_report),
                 f"coefficients: alpha1={coeffs.alpha1:.12g} alpha2={coeffs.alpha2:.12g} "
                 f"alpha3={coeffs.alpha3:.12g} alpha4={coeffs.alpha4:.12g} PASS",
                 f"multipliers: N={mcfg.N:.6g} N1={mcfg.N1:g} N2={mcfg.N2:.6g} "
                 f"gamma1={mcfg.gamma1:.6g} gamma2={mcfg.gamma2:.6g} PASS",
                 "validation PASSED"]
        code = 0
    text = "\n".join(lines)
    if args.report is not None:
        _check_writable(args.config, args.report)
        _write(args.report, text)
    print(text)
    return code


# ---------------------------------------------------------------------------
# simulate


def _csv_rows(traj: analysis.Trajectory):
    """The rows of the simulate CSV, in CSV_HEADER's column order."""
    return zip(*(getattr(traj, name).tolist() for name in
                 ("t", "E", "D", "dE_numeric", "identity_residual", "F1", "F2", "Ifun", "Ltotal")))


def _run_simulation(setup: ProblemSetup):
    cfg = setup.config
    scfg = stepper.SchemeConfig(dt=cfg.dt, scheme=cfg.scheme)
    return stepper.simulate(setup.initial_state, scfg, cfg.T,
                            sample_every=cfg.sample_every, mcfg=setup.mcfg)


def cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    setup = build_setup(cfg)
    csv_path = cfg.csv_path if args.csv is None else args.csv
    report_path = cfg.report_path if args.report is None else args.report
    _check_writable(args.config, csv_path, report_path)

    try:
        result = _run_simulation(setup)
    except SimulationAborted as exc:   # main prints it; no report is written
        _write(csv_path, CSV_HEADER, _csv_rows(exc.records),
               last=f"# TRUNCATED at step {exc.step_index}")
        raise
    _write(csv_path, CSV_HEADER, _csv_rows(result.records))

    checks, fit = analysis.certify_run(result.records, result.running_sum_drift, cfg.T)
    fit_line = (f"decay fit: unavailable ({fit})" if isinstance(fit, str) else
                f"decay fit: gamma={fit.gamma_fit:.6g} K={fit.K_fit:.6g} r2={fit.r2:.6g} "
                f"window=[{fit.window[0]:g},{fit.window[1]:g}] method=peak_envelope")
    lines = [c.format_line() for c in checks] + [fit_line]
    if setup.kernel.form == "prony":   # a tabulated kernel has no modal system
        modal = setup.assembly.modal_system
        try:
            absc = f"{analysis.spectral_abscissa(modal):.6g} (dim={modal.dim})"
        except DimensionTooLarge:
            absc = f"skipped (dim={modal.dim} > {DENSE_MAX_DIM})"
        lines.append(f"spectral abscissa (modal, exact in s): {absc}")
    lines.append(f"certified decay rate (Lyapunov): {setup.mcfg.gamma_certified:.6g}")

    text = "\n".join(lines)
    _write(report_path, text)
    print(text)
    print(f"wrote {csv_path} and {report_path}")
    return 0 if all(c.passed for c in checks) else 1


# ---------------------------------------------------------------------------
# spectrum / oracle-check


def cmd_spectrum(args) -> int:
    cfg = parse_config(args.config)
    setup = build_setup(cfg)
    csv_path = os.path.splitext(cfg.csv_path)[0] + "_spectrum.csv" if args.csv is None else args.csv
    _check_writable(args.config, csv_path)
    w = analysis.eigenvalues(setup.assembly)
    absc = float(w[0].real)
    _write(csv_path, "re,im", ((lam.real, lam.imag) for lam in w),
           first=f"# abscissa = {_fmt(absc)}")
    print(f"abscissa = {absc:.6g}; wrote {csv_path}")
    return 0 if absc <= 1e-10 else 1


def cmd_oracle_check(args) -> int:
    if args.levels < 2:
        raise ConfigError(f"oracle-check needs --levels >= 2 to fit an order, got {args.levels}")
    cfg = parse_config(args.config)
    setup = build_setup(cfg)
    csv_path = os.path.splitext(cfg.csv_path)[0] + "_oracle.csv" if args.csv is None else args.csv
    _check_writable(args.config, csv_path)
    # refused before the first level, the dense cap before anything of size dim
    # is built: what no level can measure, and a finest level past simulate's
    # step limit (counted without its dt, which may underflow)
    check_dense(setup.assembly, "oracle")
    if not cfg.T > 0:
        raise MembeamError("oracle-check needs T > 0: at T = 0 every error is 0 and the order 0/0")
    stepper.check_steps(cfg.T / cfg.dt * (2.0 ** (args.levels - 1) if args.levels <= 1024
                                          else math.inf))
    phi = setup.initial_state.flatten()
    if not phi @ (setup.assembly.metric_matrix @ phi) > 0:
        raise MembeamError("oracle-check needs nonzero initial data: "
                           "the error relative to a zero solution is 0/0")

    dts = [cfg.dt * (0.5 ** k) for k in range(args.levels)]
    errors = []
    asm, state, ref = setup.assembly, setup.initial_state, None
    for dt in dts:
        if cfg.scheme == "split_semilagrangian":   # its history grid is spaced ds = dt
            mg = memory_grid_from_counts(setup.kernel, ds=dt, Ns=setup.assembly.Ns)
            asm = assemble_generator(setup.assembly.ops, mg, setup.params)
            state = model.build_initial_state(
                model.InitialData(u0=setup.initial_state.u, v0=setup.initial_state.v,
                                  theta0=setup.initial_state.theta,
                                  history_mode=cfg.history_mode), asm)
            ref = None
        if ref is None:   # the dense reference, once per assembly
            ref = stepper.oracle_evolve(asm, state.flatten(), cfg.T)
        out = stepper.simulate(state, stepper.SchemeConfig(dt=dt, scheme=cfg.scheme),
                               cfg.T, sample_every=10**9).final_state.flatten()
        H = asm.metric_matrix
        errors.append(float(np.sqrt((out - ref) @ (H @ (out - ref)) / (ref @ (H @ ref)))))

    orders = [float(np.log2(errors[i] / errors[i + 1])) for i in range(len(errors) - 1)]
    fitted = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    _write(csv_path, "dt,rel_error", zip(dts, errors),
           first=f"# scheme = {cfg.scheme}, fitted order = {_fmt(fitted)}")
    print(f"scheme {cfg.scheme}: errors {['%.3e' % e for e in errors]}, "
          f"pairwise orders {['%.2f' % o for o in orders]}, fitted order {fitted:.3f}")
    print(f"wrote {csv_path}")
    expected = 1.9 if cfg.scheme == "full_implicit_midpoint" else 0.9
    return 0 if fitted >= expected else 1


# ---------------------------------------------------------------------------
# sweep


def _sweep_row(swept, value) -> tuple:
    """The sweep CSV row of swept, the run file with the swept parameter
    set to value, in column order."""
    setup = build_setup(swept)
    result = _run_simulation(setup)
    checks, fit = analysis.certify_run(result.records, result.running_sum_drift, swept.T)
    failed = [fit] if isinstance(fit, str) else [c.format_line() for c in checks if not c.passed]
    if failed:   # the fit's message, else the first failed check's line
        raise MembeamError(failed[0])
    try:
        absc = analysis.spectral_abscissa(setup.assembly)
    except DimensionTooLarge:
        absc = float("nan")
    cond = analysis.resolvent_check(setup.assembly)
    return value, fit.gamma_fit, fit.K_fit, fit.r2, absc, cond


def cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    try:
        values = [float(v) for v in args.values.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"sweep values must be numbers: {exc}") from exc
    if not values:
        raise ConfigError("sweep needs at least one value")
    csv_path = os.path.splitext(cfg.csv_path)[0] + "_sweep.csv" if args.csv is None else args.csv
    _check_writable(args.config, csv_path)
    runs = [with_parameter(cfg, args.param, v) for v in values]   # every value before any run
    rows, failed = [], False
    for value, swept in zip(values, runs):
        try:
            rows.append(_sweep_row(swept, value))
        except ConfigError:
            raise
        except MembeamError as exc:   # a nan row; the later values still run
            print(f"error: {exc}", file=sys.stderr)
            rows.append((value,) + (math.nan,) * 5)
            failed = True
    _write(csv_path, f"{args.param},gamma_fit,K_fit,r2,abscissa,resolvent_cond", rows)
    if failed:
        return 1
    print(f"wrote {csv_path} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="membeam", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        p.add_argument("config", help="run configuration file")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
        return p

    csv = {"--csv": dict(help="override CSV output path")}
    report = {"--report": dict(help="override report output path")}
    add("validate", cmd_validate, **report)
    add("simulate", cmd_simulate, **csv, **report)
    add("spectrum", cmd_spectrum, **csv)
    add("oracle-check", cmd_oracle_check,
        **csv, **{"--levels": dict(type=int, default=3, help="number of dt halvings")})
    add("sweep", cmd_sweep, **csv,
        **{"--param": dict(required=True, help="parameter to sweep, e.g. beta"),
           "--values": dict(required=True, help="comma/space separated values"),
           "--serial": dict(action="store_true", help="ignored: sweeps always run serially; "
                            "kept until bench/workloads.py, which passes it, next changes")})
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        level = os.environ.get("MEMBEAM_LOG", "WARNING").upper()
        if not isinstance(logging.getLevelName(level), int):
            raise ConfigError(f"MEMBEAM_LOG={level} is not a log level")
        logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MembeamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _INTERNAL_ERRORS as exc:  # one line, no traceback
        log.debug("internal error", exc_info=True)   # the traceback, at MEMBEAM_LOG=DEBUG
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
