"""Run-configuration parsing and problem assembly.

The run file is flat sectioned key-value text (no general-purpose markup):

    # comment
    [section]
    key = value

Sections and keys are fixed; unknown ones are rejected.  Value grammar:

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
                    history_mode = zero | constant_past | explicit is not
                    supported from files (explicit histories are API-only)
    [output]        csv_path, report_path = <path>

A <profile> is one of
    constant <c>
    poly <c0> <c1> ...        coefficients of powers of x, evaluated at nodes
    table <path>              two columns (x, value), linearly interpolated
    sine <amplitude> [mode]   amplitude * sin(mode pi x / L)

Lists may be separated by spaces or commas.  Kernel tables are two or
three numeric columns (s, mu, optional mu'), whitespace-separated, with
strictly increasing s starting at 0.

Clamped profiles (u0, v0) must vanish together with their slope at both
endpoints; Dirichlet profiles (theta0) must vanish at both endpoints.
Violations raise IncompatibleBoundary at build time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import analysis, model, stepper
from .discretization import (
    GeneratorAssembly,
    MemoryGrid,
    assemble_generator,
    build_memory_grid,
    build_operators,
    build_spatial_grid,
    check_history_fits,
)
from .errors import ConfigError, IncompatibleBoundary
from .model import InitialData, MemoryKernel, State

_BOUNDARY_TOL = 1e-12

_SCHEMA = {
    "domain": {"L": float, "Nx": int},
    "params": {"kappa": float, "beta": float, "lambda1": float, "lambda2": float},
    "coefficients": {"p": str, "g": str},
    "kernel": {"type": str, "amplitudes": str, "rates": str, "path": str},
    "memory": {"trunc_tol": float},
    "time": {"dt": float, "T": float, "sample_every": int, "scheme": str},
    "initial": {"u0": str, "v0": str, "theta0": str, "history_mode": str},
    "output": {"csv_path": str, "report_path": str},
}

_REQUIRED = {
    "domain": ("L", "Nx"),
    "params": ("kappa", "beta", "lambda1", "lambda2"),
    "coefficients": ("p", "g"),
    "kernel": ("type",),
    "time": ("dt", "T"),
    "initial": ("u0", "v0", "theta0"),
}

_DEFAULTS = {
    ("memory", "trunc_tol"): 1e-8,
    ("time", "sample_every"): 10,
    ("time", "scheme"): "split_semilagrangian",
    ("initial", "history_mode"): "constant_past",
    ("output", "csv_path"): "membeam_run.csv",
    ("output", "report_path"): "membeam_report.txt",
}


@dataclass
class RunConfig:
    """Parsed, type-checked run file; raw profile/kernel specs kept as text."""

    L: float
    Nx: int
    kappa: float
    beta: float
    lambda1: float
    lambda2: float
    p_spec: str
    g_spec: str
    kernel_type: str
    kernel_amplitudes: str
    kernel_rates: str
    kernel_path: str
    trunc_tol: float
    dt: float
    T: float
    sample_every: int
    scheme: str
    u0_spec: str
    v0_spec: str
    theta0_spec: str
    history_mode: str
    csv_path: str
    report_path: str
    base_dir: Path = field(default_factory=Path)


def parse_config(path) -> RunConfig:
    """Parse and type-check a run file; unknown sections or keys reject."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values: dict[tuple[str, str], object] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if section is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, _, val = (s.strip() for s in line.partition("="))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}' in [{section}]")
        if (section, key) in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        caster = _SCHEMA[section][key]
        try:
            values[(section, key)] = caster(val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        if caster is float and not math.isfinite(values[(section, key)]):
            raise ConfigError(f"{path}:{lineno}: {key} must be a finite number, got {val!r}")

    for section, keys in _REQUIRED.items():
        for key in keys:
            if (section, key) not in values:
                raise ConfigError(f"{path}: missing required key [{section}] {key}")
    for sk, default in _DEFAULTS.items():
        values.setdefault(sk, default)

    ktype = values[("kernel", "type")]
    if ktype == "prony":
        for key in ("amplitudes", "rates"):
            if ("kernel", key) not in values:
                raise ConfigError(f"{path}: prony kernel needs [kernel] {key}")
        values.setdefault(("kernel", "path"), "")
    elif ktype == "table":
        if ("kernel", "path") not in values:
            raise ConfigError(f"{path}: table kernel needs [kernel] path")
        values.setdefault(("kernel", "amplitudes"), "")
        values.setdefault(("kernel", "rates"), "")
    else:
        raise ConfigError(f"{path}: kernel type must be prony or table, got {ktype!r}")
    scheme = values[("time", "scheme")]
    if scheme not in stepper.SCHEMES:
        raise ConfigError(f"{path}: scheme must be one of {stepper.SCHEMES}, got {scheme!r}")

    return RunConfig(
        L=values[("domain", "L")], Nx=values[("domain", "Nx")],
        kappa=values[("params", "kappa")], beta=values[("params", "beta")],
        lambda1=values[("params", "lambda1")], lambda2=values[("params", "lambda2")],
        p_spec=values[("coefficients", "p")], g_spec=values[("coefficients", "g")],
        kernel_type=ktype, kernel_amplitudes=values[("kernel", "amplitudes")],
        kernel_rates=values[("kernel", "rates")], kernel_path=values[("kernel", "path")],
        trunc_tol=values[("memory", "trunc_tol")],
        dt=values[("time", "dt")], T=values[("time", "T")],
        sample_every=values[("time", "sample_every")], scheme=scheme,
        u0_spec=values[("initial", "u0")], v0_spec=values[("initial", "v0")],
        theta0_spec=values[("initial", "theta0")],
        history_mode=values[("initial", "history_mode")],
        csv_path=values[("output", "csv_path")],
        report_path=values[("output", "report_path")],
        base_dir=path.parent,
    )


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


@dataclass(frozen=True)
class Profile:
    """Parsed profile spec; evaluates on node arrays and at scalar points."""

    kind: str
    L: float
    coeffs: np.ndarray | None = None
    table_x: np.ndarray | None = None
    table_y: np.ndarray | None = None
    amplitude: float = 0.0
    mode: int = 1

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full_like(x, self.coeffs[0])
        if self.kind == "poly":
            return np.polyval(self.coeffs[::-1], x)
        if self.kind == "sine":
            return self.amplitude * np.sin(self.mode * np.pi * x / self.L)
        return np.interp(x, self.table_x, self.table_y)

    def derivative_at(self, x: float) -> float:
        if self.kind == "constant":
            return 0.0
        if self.kind == "poly":
            der = np.polyder(np.poly1d(self.coeffs[::-1]))
            return float(der(x))
        if self.kind == "sine":
            k = self.mode * np.pi / self.L
            return float(self.amplitude * k * np.cos(k * x))
        i = np.searchsorted(self.table_x, x)
        i = min(max(i, 1), self.table_x.size - 1)
        dx = self.table_x[i] - self.table_x[i - 1]
        return float((self.table_y[i] - self.table_y[i - 1]) / dx)


def parse_profile(spec: str, L: float, base_dir: Path) -> Profile:
    parts = spec.split()
    if not parts:
        raise ConfigError("empty profile spec")
    kind = parts[0]
    if kind == "constant":
        if len(parts) != 2:
            raise ConfigError(f"constant profile takes one value: {spec!r}")
        return Profile(kind="constant", L=L, coeffs=_floats(parts[1]))
    if kind == "poly":
        if len(parts) < 2:
            raise ConfigError(f"poly profile needs coefficients: {spec!r}")
        return Profile(kind="poly", L=L, coeffs=_floats(" ".join(parts[1:])))
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
        return Profile(kind="sine", L=L, amplitude=amplitude, mode=mode)
    if kind == "table":
        if len(parts) != 2:
            raise ConfigError(f"table profile takes a path: {spec!r}")
        data = _load_table(base_dir / parts[1], 2)
        return Profile(kind="table", L=L, table_x=data[:, 0], table_y=data[:, 1])
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


def _check_boundary(profile: Profile, name: str, L: float, clamped: bool):
    vals = profile(np.array([0.0, L]))
    scale = max(float(np.max(np.abs(profile(np.linspace(0.0, L, 33))))), 1.0)
    if np.max(np.abs(vals)) > _BOUNDARY_TOL * scale:
        raise IncompatibleBoundary(f"{name} must vanish at x = 0 and x = L")
    if clamped and profile.kind != "table":
        der = max(abs(profile.derivative_at(0.0)), abs(profile.derivative_at(L)))
        if der > _BOUNDARY_TOL * scale:
            raise IncompatibleBoundary(f"{name} must have zero slope at x = 0 and x = L")


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
    coefficients: model.CoefficientField
    memory_grid: MemoryGrid
    assembly: GeneratorAssembly
    initial_state: State
    mcfg: analysis.MultiplierConfig


def build_setup(cfg: RunConfig) -> ProblemSetup:
    """Validate every model object and assemble the discrete system,
    including the range check of the mechanical block; the first stage
    that fails raises.  The (Nx, Ns) history size is checked
    before anything of size Nx is allocated."""
    params = model.derive_params(cfg.lambda1, cfg.lambda2, cfg.kappa, cfg.beta)
    kernel = build_kernel(cfg)
    report = model.validate_kernel(kernel)
    memory_grid = build_memory_grid(kernel, cfg.dt, cfg.trunc_tol)
    check_history_fits(cfg.Nx, memory_grid.Ns)

    grid = build_spatial_grid(cfg.L, cfg.Nx)
    p_prof = parse_profile(cfg.p_spec, cfg.L, cfg.base_dir)
    g_prof = parse_profile(cfg.g_spec, cfg.L, cfg.base_dir)
    coeffs = model.certify_coefficients(p_prof(grid.nodes), g_prof(grid.nodes))
    ops = build_operators(grid, coeffs, params)
    assembly = assemble_generator(ops, memory_grid, params)

    u0_prof = parse_profile(cfg.u0_spec, cfg.L, cfg.base_dir)
    v0_prof = parse_profile(cfg.v0_spec, cfg.L, cfg.base_dir)
    th_prof = parse_profile(cfg.theta0_spec, cfg.L, cfg.base_dir)
    _check_boundary(u0_prof, "u0", cfg.L, clamped=True)
    _check_boundary(v0_prof, "v0", cfg.L, clamped=True)
    _check_boundary(th_prof, "theta0", cfg.L, clamped=False)
    if cfg.history_mode not in ("zero", "constant_past"):
        raise ConfigError("history_mode must be zero or constant_past in run files")
    init = InitialData(u0=u0_prof(grid.nodes), v0=v0_prof(grid.nodes),
                       theta0=th_prof(grid.nodes), history_mode=cfg.history_mode)
    state = model.build_initial_state(init, assembly)
    mcfg = analysis.choose_multipliers(params, kernel, coeffs,
                                       analysis.poincare_constant(assembly))
    assembly.mechanical_block       # range-checked as it is built, before any evaluation
    return ProblemSetup(config=cfg, params=params, kernel=kernel, kernel_report=report,
                        coefficients=coeffs, memory_grid=memory_grid,
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
