"""Run-configuration parsing and problem assembly.

The run file is flat sectioned key-value text (no general-purpose markup):

    # comment
    [section]
    key = value

Each key is declared once, on its RunConfig field: its section, name,
type and default (a key with no default is required).  Unknown sections
and keys are rejected.  Value grammar:

    [domain]        L = <float>, Nx = <int>
    [params]        kappa, beta, lambda1, lambda2 = <float>
    [coefficients]  p, g = <profile>
    [kernel]        type = prony | table;
                    amplitudes = <floats>, rates = <floats>  (prony)
                    path = <file>                            (table)
    [memory]        trunc_tol = <float>
    [time]          dt, T = <float>; sample_every = <int>;
                    scheme = split_semilagrangian | full_implicit_midpoint
    [initial]       u0, v0, theta0 = <profile>;
                    history_mode = zero | constant_past
    [output]        csv_path, report_path = <path>

A <profile> is one of
    constant <c>
    poly <c0> <c1> ...        coefficients of powers of x, evaluated at nodes
    table <path>              two columns (x, value), x strictly increasing,
                              linearly interpolated
    sine <amplitude> [mode]   amplitude * sin(mode pi x / L)

Lists may be separated by spaces or commas.  Kernel tables are two or
three numeric columns (s, mu, optional mu'), whitespace-separated, with
strictly increasing s starting at 0.

Clamped profiles (u0, v0) must vanish together with their slope at both
endpoints; Dirichlet profiles (theta0) must vanish at both endpoints.  The
end slope of a table profile is not checked.  Violations raise
MembeamError at build time.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import analysis, model, stepper
from .discretization import (
    GeneratorAssembly,
    assemble_generator,
    build_memory_grid,
    build_operators,
    build_spatial_grid,
    norm_inf,
)
from .errors import ConfigError, MembeamError
from .model import InitialData, MemoryKernel, State

_BOUNDARY_TOL = 1e-12


def _key(section: str, key: str, cast=str, default=MISSING):
    """A RunConfig field read from key in [section] with cast; a field
    with no default is a required key."""
    return field(default=default, metadata={"run_file": (section, key, cast)})


@dataclass(kw_only=True)
class RunConfig:
    """Parsed, type-checked run file; raw profile/kernel specs kept as text.

    Each field but base_dir is one run-file key, declared by _key.  The
    kernel keys are required by kernel type, not by the declaration."""

    L: float = _key("domain", "L", float)
    Nx: int = _key("domain", "Nx", int)
    kappa: float = _key("params", "kappa", float)
    beta: float = _key("params", "beta", float)
    lambda1: float = _key("params", "lambda1", float)
    lambda2: float = _key("params", "lambda2", float)
    p_spec: str = _key("coefficients", "p")
    g_spec: str = _key("coefficients", "g")
    kernel_type: str = _key("kernel", "type")
    kernel_amplitudes: str = _key("kernel", "amplitudes", default="")
    kernel_rates: str = _key("kernel", "rates", default="")
    kernel_path: str = _key("kernel", "path", default="")
    trunc_tol: float = _key("memory", "trunc_tol", float, default=1e-8)
    dt: float = _key("time", "dt", float)
    T: float = _key("time", "T", float)
    sample_every: int = _key("time", "sample_every", int, default=10)
    scheme: str = _key("time", "scheme", default="split_semilagrangian")
    u0_spec: str = _key("initial", "u0")
    v0_spec: str = _key("initial", "v0")
    theta0_spec: str = _key("initial", "theta0")
    history_mode: str = _key("initial", "history_mode", default="constant_past")
    csv_path: str = _key("output", "csv_path", default="membeam_run.csv")
    report_path: str = _key("output", "report_path", default="membeam_report.txt")
    base_dir: Path = field(default_factory=Path)


# (section, key) -> its RunConfig field, in declaration order
_KEYS = {f.metadata["run_file"][:2]: f for f in fields(RunConfig) if f.metadata}
_KERNEL_KEYS = {"prony": ("amplitudes", "rates"), "table": ("path",)}


def parse_config(path) -> RunConfig:
    """Parse and type-check a run file; unknown sections or keys reject."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values: dict[str, object] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in {s for s, _ in _KEYS}:
                raise ConfigError(f"{path}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if section is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, _, val = (s.strip() for s in line.partition("="))
        decl = _KEYS.get((section, key))
        if decl is None:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}' in [{section}]")
        if decl.name in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        cast = decl.metadata["run_file"][2]
        try:
            values[decl.name] = cast(val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        if cast is float and not math.isfinite(values[decl.name]):
            raise ConfigError(f"{path}:{lineno}: {key} must be a finite number, got {val!r}")

    for (section, key), decl in _KEYS.items():
        if decl.default is MISSING and decl.name not in values:
            raise ConfigError(f"{path}: missing required key [{section}] {key}")
    cfg = RunConfig(**values, base_dir=path.parent)
    if cfg.kernel_type not in _KERNEL_KEYS:
        raise ConfigError(f"{path}: kernel type must be prony or table, got {cfg.kernel_type!r}")
    for key in _KERNEL_KEYS[cfg.kernel_type]:
        if _KEYS[("kernel", key)].name not in values:
            raise ConfigError(f"{path}: {cfg.kernel_type} kernel needs [kernel] {key}")
    if cfg.scheme not in stepper.SCHEMES:
        raise ConfigError(f"{path}: scheme must be one of {stepper.SCHEMES}, got {cfg.scheme!r}")
    if cfg.history_mode not in model.HISTORY_MODES:
        raise ConfigError(f"{path}: history_mode must be one of {model.HISTORY_MODES}, "
                          f"got {cfg.history_mode!r}")
    return cfg


def _floats(text: str) -> np.ndarray:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ConfigError("expected a numeric list")
    try:
        out = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}") from exc
    if not np.all(np.isfinite(out)):
        raise ConfigError(f"numeric list {text!r} holds a non-finite value")
    return out


def parse_profile(spec: str, L: float, base_dir: Path):
    """(profile, slope) of a profile spec: profile evaluates on node arrays,
    slope at scalar points.  slope is None for a table, whose end slopes
    are not checked."""
    parts = spec.split()
    if not parts:
        raise ConfigError("empty profile spec")
    kind = parts[0]
    if kind == "constant":
        values = _floats(parts[1]) if len(parts) == 2 else []
        if len(values) != 1:
            raise ConfigError(f"constant profile takes one value: {spec!r}")
        c = values[0]
        return (lambda x: np.full_like(x, c)), (lambda x: 0.0)
    if kind == "poly":
        if len(parts) < 2:
            raise ConfigError(f"poly profile needs coefficients: {spec!r}")
        coeffs = _floats(" ".join(parts[1:]))[::-1]
        # a value past the float range is inf or nan, with no numpy warning:
        # the checks of the samples then name the profile
        quiet = np.errstate(over="ignore", invalid="ignore")
        with quiet:
            der = np.polyder(np.poly1d(coeffs))
        return quiet(lambda x: np.polyval(coeffs, x)), quiet(lambda x: float(der(x)))
    if kind == "sine":
        if len(parts) not in (2, 3):
            raise ConfigError(f"sine profile takes amplitude [mode]: {spec!r}")
        try:
            amplitude = float(parts[1])
            mode = int(parts[2]) if len(parts) == 3 else 1
        except ValueError as exc:
            raise ConfigError(f"sine profile takes a number and an integer: {spec!r}") from exc
        if not math.isfinite(amplitude):
            raise ConfigError(f"sine amplitude must be finite: {spec!r}")
        k = mode * np.pi / L
        return ((lambda x: amplitude * np.sin(mode * np.pi * x / L)),
                (lambda x: float(amplitude * k * np.cos(k * x))))
    if kind == "table":
        if len(parts) != 2:
            raise ConfigError(f"table profile takes a path: {spec!r}")
        path = base_dir / parts[1]
        data = _load_table(path, 2)
        if not np.all(np.diff(data[:, 0]) > 0):   # as np.interp needs; a nan x fails too
            raise ConfigError(f"table {path} needs a strictly increasing x column")
        return (lambda x: np.interp(x, data[:, 0], data[:, 1])), None
    raise ConfigError(f"unknown profile kind {kind!r} (constant|poly|table|sine)")


def _load_table(path: Path, min_cols: int) -> np.ndarray:
    try:
        data = np.loadtxt(path, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read table {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed table {path}: {exc}") from exc
    if data.shape[1] < min_cols:
        raise ConfigError(f"table {path} needs at least {min_cols} columns")
    return data


def _check_boundary(profile, slope, name: str, L: float):
    """Reject a profile that does not vanish at both ends, or, given its
    slope, whose slope does not vanish there."""
    vals = profile(np.array([0.0, L]))
    scale = max(float(np.max(np.abs(profile(np.linspace(0.0, L, 33))))), 1.0)
    if np.max(np.abs(vals)) > _BOUNDARY_TOL * scale:
        raise MembeamError(f"{name} must vanish at x = 0 and x = L")
    if slope is not None and max(abs(slope(0.0)), abs(slope(L))) > _BOUNDARY_TOL * scale:
        raise MembeamError(f"{name} must have zero slope at x = 0 and x = L")


def build_kernel(cfg: RunConfig) -> MemoryKernel:
    if cfg.kernel_type == "prony":
        return MemoryKernel.prony(_floats(cfg.kernel_amplitudes), _floats(cfg.kernel_rates))
    data = _load_table(cfg.base_dir / cfg.kernel_path, 2)
    muprime = data[:, 2] if data.shape[1] >= 3 else None
    return MemoryKernel.tabulated(data[:, 0], data[:, 1], muprime)


@dataclass
class ProblemSetup:
    """Everything a run needs, produced from a validated RunConfig."""

    config: RunConfig
    params: model.PhysicalParams
    kernel: MemoryKernel
    kernel_report: model.KernelReport
    assembly: GeneratorAssembly
    initial_state: State
    mcfg: analysis.MultiplierConfig


def build_setup(cfg: RunConfig) -> ProblemSetup:
    """Validate every model object and assemble the discrete system,
    including the range checks of the mechanical block and the memory
    flux and of the initial energy; the first stage that fails raises.
    The (Nx, Ns) history size and the run length (stepper.run_length, as
    simulate checks it) are checked before anything of size Nx is
    allocated."""
    params = model.derive_params(cfg.lambda1, cfg.lambda2, cfg.kappa, cfg.beta)
    kernel = build_kernel(cfg)
    report = model.validate_kernel(kernel)
    memory_grid = build_memory_grid(kernel, cfg.dt, cfg.trunc_tol, cfg.Nx)
    stepper.run_length(cfg.T, cfg.dt, cfg.sample_every)

    grid = build_spatial_grid(cfg.L, cfg.Nx)
    p_prof, _ = parse_profile(cfg.p_spec, cfg.L, cfg.base_dir)
    g_prof, _ = parse_profile(cfg.g_spec, cfg.L, cfg.base_dir)
    coeffs = model.certify_coefficients(p_prof(grid.nodes), g_prof(grid.nodes))
    ops = build_operators(grid, coeffs)
    assembly = assemble_generator(ops, memory_grid, params)

    initial = {name: parse_profile(spec, cfg.L, cfg.base_dir) for name, spec in
               (("u0", cfg.u0_spec), ("v0", cfg.v0_spec), ("theta0", cfg.theta0_spec))}
    for name, (profile, slope) in initial.items():
        # u0 and v0 are clamped; theta0 (Dirichlet) may have any end slope
        _check_boundary(profile, None if name == "theta0" else slope, name, cfg.L)
    init = InitialData(**{name: profile(grid.nodes) for name, (profile, _) in initial.items()},
                       history_mode=cfg.history_mode)
    state = model.build_initial_state(init, assembly)
    mcfg = analysis.choose_multipliers_for(assembly, report=report)
    assembly.mechanical_block       # range-checked as it is built, before any evaluation
    # every step's residual norm squares the memory flux sum_k w_k mu_k LAP eta_k
    flux = float(np.max(np.abs(memory_grid.wmu))) * float(np.max(np.abs(ops.lap.data)))
    if not math.isfinite(flux * flux):
        raise MembeamError(f"the kernel's largest memory-flux entry |w_k mu_k| "
                           f"max|LAP| = {flux:.3g} has a square beyond the float range")
    # E(Phi0) <= (h/2)(||bih - kappa^2 lap|| |u|^2 + |v|^2 + |theta|^2 + ||lap|| sum_k
    # |w_k mu_k| |eta_k|^2), the row-sum norm bounding the 2-norm of a symmetric
    # block: one pass over eta, which refuses what the first sample would overflow.
    # The sums are numpy's own loops: OpenBLAS threads a dot product of length
    # Ns, which took 8 ms at the default size against 0.8 ms for the whole bound.
    u, v, th, eta = state.u, state.v, state.theta, state.eta
    with np.errstate(over="ignore", invalid="ignore"):
        hist = np.einsum("j,j->", np.einsum("ij,ij->j", eta, eta), np.abs(memory_grid.wmu))
        bound = 0.5 * grid.h * (norm_inf(ops.bih - params.kappa * params.kappa * ops.lap) * (u @ u)
                                + v @ v + th @ th + norm_inf(ops.lap) * hist)
    if not math.isfinite(bound):
        raise MembeamError("the initial data u0, v0, theta0 have an energy beyond the float range")
    return ProblemSetup(config=cfg, params=params, kernel=kernel, kernel_report=report,
                        assembly=assembly, initial_state=state, mcfg=mcfg)


_SWEEPABLE = ("beta", "kappa", "lambda1", "lambda2", "dt", "T", "trunc_tol", "L", "Nx")


def with_parameter(cfg: RunConfig, name: str, value: float) -> RunConfig:
    """Copy of cfg with one sweepable scalar replaced."""
    if name not in _SWEEPABLE:
        raise ConfigError(f"unknown sweep parameter {name!r}; "
                          f"choose from {sorted(_SWEEPABLE)}")
    if not math.isfinite(value):
        raise ConfigError(f"sweep value for {name} must be finite, got {value}")
    if name == "Nx" and value != int(value):
        raise ConfigError(f"sweep value for Nx must be an integer, got {value}")
    return replace(cfg, **{name: int(value) if name == "Nx" else float(value)})
