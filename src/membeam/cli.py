"""Command-line entry point.

Subcommands:
    validate <cfg>                  simulate's setup: its certificates or first failure
    simulate <cfg>                  run the configured simulation; write CSV + report
    spectrum <cfg>                  eigenvalues (re, im) sorted by real part + abscissa
    oracle-check <cfg>              dt-halving error table against exp(t A_h)
    sweep <cfg> --param P --values  one simulate + fit per value, in turn

Exit codes: 0 pass, 1 validation/certification failure or internal error
(a built-in, numpy or scipy exception; an exception class a caller defines
passes through), 2 usage/parse error.
MEMBEAM_LOG sets the log level (an unknown level exits 2).  CSV and report
paths come from the config's [output] section; --csv/--report override.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import analysis, model, stepper
from .config import ProblemSetup, build_setup, parse_config, with_parameter
from .discretization import DENSE_MAX_DIM, assemble_generator, memory_grid_from_counts
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


# Largest relative drift accepted between a run's running history sums and
# the history they sum (stepper.SimulationResult.refresh_drift).  The drift
# is an error in the right-hand side of every step, so it gets the bound of
# a step's linear-solve residual (1e-9 in stepper); rounding that grows by
# one unit (1.1e-16) per step stays below it for the 1e6 steps of
# stepper.MAX_STEPS.
_DRIFT_TOL = 1e-9


def default_config_path(name: str = "default") -> Path:
    """Path of a shipped run file ('default' or 'small')."""
    return Path(resources.files("membeam").joinpath(f"data/{name}.cfg"))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path, records, truncated_at: int | None = None):
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(",".join(_fmt(v) for v in
                              (r.t, r.E, r.D, r.dE_numeric, r.identity_residual,
                               r.F1, r.F2, r.Ifun, r.Ltotal)) + "\n")
        if truncated_at is not None:
            fh.write(f"# TRUNCATED at step {truncated_at}\n")


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
    print(text)
    if args.report:
        Path(args.report).write_text(text + "\n")
    return code


# ---------------------------------------------------------------------------
# simulate


def _run_simulation(setup: ProblemSetup):
    cfg = setup.config
    scfg = stepper.SchemeConfig(dt=cfg.dt, scheme=cfg.scheme)
    return stepper.simulate(setup.initial_state, scfg, cfg.T,
                            sample_every=cfg.sample_every, mcfg=setup.mcfg)


def cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    setup = build_setup(cfg)
    csv_path = args.csv or cfg.csv_path
    report_path = args.report or cfg.report_path

    try:
        result = _run_simulation(setup)
    except SimulationAborted as exc:
        _write_csv(csv_path, exc.records, truncated_at=exc.step_index)
        print(f"simulation aborted at step {exc.step_index}: {exc.cause}")
        return 1
    _write_csv(csv_path, result.records)

    checks = analysis.certify_trajectory(result.records)
    drift = result.refresh_drift
    checks.append(analysis.CheckResult("running_sum_drift", drift, _DRIFT_TOL,
                                       bool(drift <= _DRIFT_TOL)))
    try:
        fit = analysis.fit_decay(result.records, (0.2 * cfg.T, cfg.T))
        fit_line = (f"decay fit: gamma={fit.gamma_fit:.6g} K={fit.K_fit:.6g} "
                    f"r2={fit.r2:.6g} window=[{fit.window[0]:g},{fit.window[1]:g}] "
                    "method=peak_envelope")
        if fit.gamma_fit <= 0:
            checks.append(analysis.CheckResult("decay_rate_positive", fit.gamma_fit, 0.0, False))
    except MembeamError as exc:
        fit_line = f"decay fit: unavailable ({exc})"
        # worst = fits made, tol = fits needed
        checks.append(analysis.CheckResult("decay_fit_available", 0.0, 1.0, False))
    lines = [c.format_line() for c in checks] + [fit_line]
    if setup.assembly.dim <= DENSE_MAX_DIM:
        absc = analysis.spectral_abscissa(setup.assembly)
        lines.append(f"spectral abscissa: {absc:.6g} (dim={setup.assembly.dim})")
    else:
        lines.append(f"spectral abscissa: skipped (dim={setup.assembly.dim} > {DENSE_MAX_DIM})")
    lines.append(f"certified decay rate (Lyapunov): {setup.mcfg.gamma_certified:.6g}")

    text = "\n".join(lines)
    Path(report_path).write_text(text + "\n")
    print(text)
    print(f"wrote {csv_path} and {report_path}")
    return 0 if all(c.passed for c in checks) else 1


# ---------------------------------------------------------------------------
# spectrum / oracle-check


def cmd_spectrum(args) -> int:
    cfg = parse_config(args.config)
    setup = build_setup(cfg)
    try:
        w = analysis.eigenvalues(setup.assembly)
    except DimensionTooLarge as exc:
        print(f"spectrum unavailable: {exc}")
        return 1
    csv_path = args.csv or os.path.splitext(cfg.csv_path)[0] + "_spectrum.csv"
    absc = float(w[0].real)
    with open(csv_path, "w") as fh:
        fh.write(f"# abscissa = {_fmt(absc)}\n")
        fh.write("re,im\n")
        for lam in w:
            fh.write(f"{_fmt(lam.real)},{_fmt(lam.imag)}\n")
    print(f"abscissa = {absc:.6g}; wrote {csv_path}")
    return 0 if absc <= 1e-10 else 1


def cmd_oracle_check(args) -> int:
    if args.levels < 2:
        raise ConfigError(f"oracle-check needs --levels >= 2 to fit an order, got {args.levels}")
    cfg = parse_config(args.config)
    setup = build_setup(cfg)
    if setup.assembly.dim > DENSE_MAX_DIM:
        print(f"oracle-check unavailable: dimension {setup.assembly.dim} > {DENSE_MAX_DIM}")
        return 1

    dts = [cfg.dt * (0.5 ** k) for k in range(args.levels)]
    errors = []
    H = setup.assembly.metric_matrix

    def hnorm(vec):
        return float(np.sqrt(vec @ (H @ vec)))

    if cfg.scheme == "full_implicit_midpoint":
        ref = stepper.oracle_evolve(setup.assembly, setup.initial_state.flatten(), cfg.T)
    for dt in dts:
        if cfg.scheme == "split_semilagrangian":
            mg = memory_grid_from_counts(setup.kernel, ds=dt, Ns=setup.assembly.Ns)
            asm = assemble_generator(setup.assembly.ops, mg, setup.params)
            state = model.build_initial_state(
                model.InitialData(u0=setup.initial_state.u, v0=setup.initial_state.v,
                                  theta0=setup.initial_state.theta,
                                  history_mode=cfg.history_mode), asm)
            ref = stepper.oracle_evolve(asm, state.flatten(), cfg.T)
            Hd = asm.metric_matrix
            out = stepper.simulate(state, stepper.SchemeConfig(dt=dt, scheme=cfg.scheme),
                                   cfg.T, sample_every=10**9).final_state.flatten()
            err = float(np.sqrt((out - ref) @ (Hd @ (out - ref)) / (ref @ (Hd @ ref))))
        else:
            out = stepper.simulate(setup.initial_state,
                                   stepper.SchemeConfig(dt=dt, scheme=cfg.scheme),
                                   cfg.T, sample_every=10**9).final_state.flatten()
            err = hnorm(out - ref) / hnorm(ref)
        errors.append(err)

    orders = [float(np.log2(errors[i] / errors[i + 1])) for i in range(len(errors) - 1)]
    fitted = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    csv_path = args.csv or os.path.splitext(cfg.csv_path)[0] + "_oracle.csv"
    with open(csv_path, "w") as fh:
        fh.write(f"# scheme = {cfg.scheme}, fitted order = {_fmt(fitted)}\n")
        fh.write("dt,rel_error\n")
        for dt, err in zip(dts, errors):
            fh.write(f"{_fmt(dt)},{_fmt(err)}\n")
    print(f"scheme {cfg.scheme}: errors {['%.3e' % e for e in errors]}, "
          f"pairwise orders {['%.2f' % o for o in orders]}, fitted order {fitted:.3f}")
    print(f"wrote {csv_path}")
    expected = 1.9 if cfg.scheme == "full_implicit_midpoint" else 0.9
    return 0 if fitted >= expected else 1


# ---------------------------------------------------------------------------
# sweep


def _sweep_row(cfg, name, value) -> dict:
    """The sweep CSV row of cfg with name set to value."""
    swept = with_parameter(cfg, name, value)
    setup = build_setup(swept)
    result = _run_simulation(setup)
    fit = analysis.fit_decay(result.records, (0.2 * swept.T, swept.T))
    absc = (analysis.spectral_abscissa(setup.assembly)
            if setup.assembly.dim <= DENSE_MAX_DIM else float("nan"))
    cond = analysis.resolvent_check(setup.assembly)
    return {"value": value, "gamma_fit": fit.gamma_fit, "K_fit": fit.K_fit,
            "r2": fit.r2, "abscissa": absc, "resolvent_cond": cond}


def cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    try:
        values = [float(v) for v in args.values.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"sweep values must be numbers: {exc}") from exc
    if not values:
        raise ConfigError("sweep needs at least one value")
    rows = [_sweep_row(cfg, args.param, v) for v in values]

    csv_path = args.csv or os.path.splitext(cfg.csv_path)[0] + "_sweep.csv"
    with open(csv_path, "w") as fh:
        fh.write(f"{args.param},gamma_fit,K_fit,r2,abscissa,resolvent_cond\n")
        for row in rows:
            fh.write(",".join(_fmt(row[k]) for k in
                              ("value", "gamma_fit", "K_fit", "r2",
                               "abscissa", "resolvent_cond")) + "\n")
    print(f"wrote {csv_path} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="membeam", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **extra):
        p = sub.add_parser(name)
        p.add_argument("config", help="run configuration file")
        p.add_argument("--csv", default=None, help="override CSV output path")
        p.add_argument("--report", default=None, help="override report output path")
        for argname, kwargs in extra.items():
            p.add_argument(argname, **kwargs)
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate)
    add("simulate", cmd_simulate)
    add("spectrum", cmd_spectrum)
    add("oracle-check", cmd_oracle_check,
        **{"--levels": dict(type=int, default=3, help="number of dt halvings")})
    add("sweep", cmd_sweep,
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
