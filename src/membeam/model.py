"""Physical parameters, coefficient fields, memory kernels, and initial data.

Everything the simulator consumes is validated here before any grid or
operator is built: the four kernel hypotheses (nonnegativity, monotone
decay, finite mass, exponential domination), strict coefficient bounds,
and boundary-compatible initial profiles.  All types are immutable after
construction and safe to share across concurrent simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import (
    DimensionMismatch,
    IncreasingKernel,
    InfiniteMass,
    NoExponentialDomination,
    NonPositiveCoefficient,
    NonPositiveKernel,
    ParamOutOfRange,
)

# Guard against 0/0 noise in the far kernel tail when estimating delta1.
_MU_GUARD = 1e-14
# A tabulated kernel certifies H4 only if -mu'/mu has stabilized: relative
# decline of the ratio across the last quarter of the table must stay below
# this bound.  Scale-free, so it rejects (1+s)^-2 for any table length while
# accepting resolved Prony tails.
_TAIL_DECLINE_TOL = 0.05
# Number of points at which H1 and H2 are probed.
_PROBE_COUNT = 200


def _readonly(a) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(a, dtype=float))
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensionless constants of the coupled beam/heat system.

    kappa   axial speed (> 0)
    beta    thermomechanical coupling (>= 0; 0 gives the decoupled limit)
    lambda1 memory fraction in (0, 1)
    lambda2 relaxation scale (> 0)
    l       instantaneous conductivity (1 - lambda1) / lambda2
    """

    kappa: float
    beta: float
    lambda1: float
    lambda2: float
    l: float

    def __post_init__(self):
        # every range excludes nan and inf
        if not 0 < self.lambda1 < 1:
            raise ParamOutOfRange("lambda1", f"lambda1 = {self.lambda1} not in (0, 1)")
        if not 0 < self.lambda2 < np.inf:
            raise ParamOutOfRange("lambda2", f"lambda2 = {self.lambda2} not > 0")
        if not 0 < self.kappa < np.inf:
            raise ParamOutOfRange("kappa", f"kappa = {self.kappa} not > 0")
        if not 0 <= self.beta < np.inf:
            raise ParamOutOfRange("beta", f"beta = {self.beta} negative")
        expected = (1.0 - self.lambda1) / self.lambda2
        if not 0 < self.l < np.inf or abs(self.l - expected) > 1e-12 * max(1.0, expected):
            raise ParamOutOfRange("l", f"l = {self.l} must equal (1 - lambda1)/lambda2, "
                                  "finite and > 0")


def derive_params(lambda1: float, lambda2: float, kappa: float, beta: float) -> PhysicalParams:
    """Derive l = (1 - lambda1)/lambda2; PhysicalParams validates the constants."""
    l = (1.0 - lambda1) / lambda2 if lambda2 > 0 else np.nan
    return PhysicalParams(kappa=kappa, beta=beta, lambda1=lambda1, lambda2=lambda2, l=l)


@dataclass(frozen=True)
class MemoryKernel:
    """Memory kernel mu(s), either a Prony series or a sample table.

    Prony form: mu(s) = sum_j a_j exp(-delta_j s) with a_j, delta_j > 0.
    Tabulated form: columns (s_k, mu_k, mu'_k) with strictly increasing s
    starting at 0; mu' is differenced from mu when not supplied.  The
    kernel copies the columns once into writeable arrays of its own
    (_columns), which mu and muprime interpolate on, and shows them as
    read-only views: np.interp copies a read-only array on every call,
    6.1 MiB for a 400,001-row table.
    """

    form: str
    amplitudes: np.ndarray | None = None
    rates: np.ndarray | None = None
    s_table: np.ndarray | None = None
    mu_table: np.ndarray | None = None
    muprime_table: np.ndarray | None = None
    _columns: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.form != "tabulated":
            return
        names = ("s_table", "mu_table", "muprime_table")
        columns = tuple(np.array(getattr(self, name), dtype=float) for name in names)
        object.__setattr__(self, "_columns", columns)
        for name, column in zip(names, columns):
            view = column.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @classmethod
    def prony(cls, amplitudes, rates) -> "MemoryKernel":
        a = _readonly(np.atleast_1d(amplitudes))
        d = _readonly(np.atleast_1d(rates))
        if a.size == 0 or a.size != d.size:
            raise DimensionMismatch("prony amplitudes and rates must be nonempty and equal length")
        if np.any(a <= 0):
            raise ParamOutOfRange("amplitudes", "prony amplitudes must be > 0")
        if np.any(d <= 0):
            raise ParamOutOfRange("rates", "prony rates must be > 0")
        return cls(form="prony", amplitudes=a, rates=d)

    @classmethod
    def tabulated(cls, s, mu, muprime=None) -> "MemoryKernel":
        s = np.asarray(s, dtype=float)
        mu = np.asarray(mu, dtype=float)
        if s.ndim != 1 or s.size < 2 or mu.shape != s.shape:
            raise DimensionMismatch("kernel table needs matching 1-d s and mu columns, >= 2 rows")
        if s[0] != 0.0 or np.any(np.diff(s) <= 0):
            raise ParamOutOfRange("s_table", "table s must be strictly increasing and start at 0")
        if muprime is None:
            mp = np.gradient(mu, s)
        else:
            mp = np.asarray(muprime, dtype=float)
            if mp.shape != s.shape:
                raise DimensionMismatch("mu' column must match the s column")
        return cls(form="tabulated", s_table=s, mu_table=mu, muprime_table=mp)

    @property
    def s_max_table(self) -> float:
        if self.form != "tabulated":
            return np.inf
        return float(self.s_table[-1])

    def mu(self, s):
        """Evaluate mu(s); linear interpolation for tabulated kernels."""
        s = np.asarray(s, dtype=float)
        if self.form == "prony":
            return np.exp(-np.multiply.outer(s, self.rates)) @ self.amplitudes
        return np.interp(s, self._columns[0], self._columns[1])

    def muprime(self, s):
        """Evaluate mu'(s); analytic for Prony kernels."""
        s = np.asarray(s, dtype=float)
        if self.form == "prony":
            return -np.exp(-np.multiply.outer(s, self.rates)) @ (self.amplitudes * self.rates)
        return np.interp(s, self._columns[0], self._columns[2])

    def mu0(self) -> float:
        """Total mass: closed form sum(a_j/delta_j) for Prony, trapezoid otherwise."""
        if self.form == "prony":
            # a mass past the float range is inf, which H3 rejects
            with np.errstate(over="ignore"):
                return float(np.sum(self.amplitudes / self.rates))
        return float(np.trapezoid(self.mu_table, self.s_table))


@dataclass(frozen=True)
class KernelReport:
    """Certificate produced by validate_kernel."""

    mu0: float
    delta1: float
    h1: bool
    h2: bool
    h3: bool
    h4: bool

    @property
    def passed(self) -> bool:
        return self.h1 and self.h2 and self.h3 and self.h4


def _probe_points(kernel: MemoryKernel) -> np.ndarray:
    if kernel.form == "prony":
        # cover several decades of the slowest mode; for a rate so small
        # that the span leaves the float range (its mass is infinite, which
        # H3 rejects) the probes stop at the largest float
        span = min(20.0 / float(np.min(kernel.rates)), np.finfo(float).max)
        return np.linspace(0.0, span, _PROBE_COUNT)
    s = kernel.s_table
    if _PROBE_COUNT <= s.size:
        return s
    extra = np.linspace(s[0], s[-1], _PROBE_COUNT - s.size)
    return np.unique(np.concatenate([s, extra]))


def validate_kernel(kernel: MemoryKernel) -> KernelReport:
    """Certify hypotheses H1-H4 and return (mu0, delta1).

    For Prony kernels mu0 = sum(a_j/delta_j) and delta1 = min_j delta_j are
    exact.  For tabulated kernels delta1 is the guarded minimum of -mu'/mu
    over the table, and H4 additionally requires that ratio to have
    stabilized near the table end (certification demands a resolved tail).

    The first violated hypothesis raises its KernelHypothesisError, which
    carries the full report.
    """
    probes = _probe_points(kernel)
    mu = kernel.mu(probes)
    mup = kernel.muprime(probes)

    scale = float(np.max(np.abs(mu))) or 1.0
    h1 = bool(np.all(mu >= -1e-12 * scale))
    h2 = bool(np.all(mup <= 1e-12 * scale))

    mu0 = kernel.mu0()
    h3 = np.isfinite(mu0) and mu0 > 0
    if kernel.form == "prony":
        delta1 = float(np.min(kernel.rates))
        h4 = h1 and h2 and delta1 > 0
    else:
        mask = mu > _MU_GUARD
        if not np.any(mask):
            delta1, h4 = 0.0, False
        else:
            ratios = -mup[mask] / mu[mask]
            delta1 = float(np.min(ratios))
            tail = ratios[-max(3, ratios.size // 4):]
            tail_hi = float(np.max(tail))
            decline = (tail_hi - float(np.min(tail))) / tail_hi if tail_hi > 0 else 1.0
            h4 = delta1 > 0 and decline <= _TAIL_DECLINE_TOL

    report = KernelReport(mu0=float(mu0), delta1=float(delta1), h1=h1, h2=h2, h3=h3, h4=h4)
    if not h1:
        raise NonPositiveKernel("H1 fails: mu(s) < 0 at a probe point", report)
    if not h2:
        raise IncreasingKernel("H2 fails: mu'(s) > 0 at a probe point", report)
    if not h3:
        raise InfiniteMass("H3 fails: mu0 is not positive and finite", report)
    if not h4:
        raise NoExponentialDomination(
            "H4 fails: cannot certify delta1 > 0 with mu' + delta1*mu <= 0", report)
    return report


@dataclass(frozen=True)
class CoefficientField:
    """Grid samples of stiffness p(x) and damping g(x) with certified bounds."""

    p_values: np.ndarray
    g_values: np.ndarray
    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float

    def __post_init__(self):
        object.__setattr__(self, "p_values", _readonly(self.p_values))
        object.__setattr__(self, "g_values", _readonly(self.g_values))


def certify_coefficients(p_values, g_values) -> CoefficientField:
    """Set alpha1..alpha4 to the exact sample extrema; reject nonpositive samples.

    Idempotent: re-certifying a certified field reproduces identical bounds.
    """
    p = np.asarray(p_values, dtype=float)
    g = np.asarray(g_values, dtype=float)
    if p.size == 0 or g.size == 0 or p.shape != g.shape:
        raise DimensionMismatch("p and g sample arrays must be nonempty and equal length")
    for name, arr in (("p", p), ("g", g)):
        bad = np.flatnonzero(~(arr > 0))
        if bad.size:
            raise NonPositiveCoefficient(name, int(bad[0]))
    return CoefficientField(
        p_values=p, g_values=g,
        alpha1=float(p.min()), alpha2=float(p.max()),
        alpha3=float(g.min()), alpha4=float(g.max()),
    )


@dataclass(frozen=True)
class InitialData:
    """Initial profiles on the interior grid plus the history prescription,
    one of the two a run file can name.

    history_mode:
      zero           eta^0 = 0
      constant_past  eta^0(x, s) = s * theta0(x)   (constant past temperature)
    """

    u0: np.ndarray
    v0: np.ndarray
    theta0: np.ndarray
    history_mode: str = "constant_past"

    def __post_init__(self):
        for name in ("u0", "v0", "theta0"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        if self.history_mode not in ("zero", "constant_past"):
            raise ParamOutOfRange("history_mode", f"unknown history mode {self.history_mode!r}")
        if self.u0.shape != self.v0.shape or self.u0.shape != self.theta0.shape:
            raise DimensionMismatch("u0, v0, theta0 must share the interior-grid shape")


@dataclass
class State:
    """Discrete state Phi = (u, v, theta, eta) at time t.

    eta has shape (Nx, Ns); column k holds the history at s = (k+1)*ds, the
    s = 0 inflow value being identically zero and not stored.  Boundary
    values of u, v, theta are identically zero and not stored either.
    """

    t: float
    u: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    eta: np.ndarray
    assembly: Any = None

    def flatten(self) -> np.ndarray:
        """Vector in block order (u, v, theta, eta_1, ..., eta_Ns)."""
        return np.concatenate([self.u, self.v, self.theta, self.eta.T.ravel()])

    @classmethod
    def unflatten(cls, vec: np.ndarray, assembly, t: float = 0.0) -> "State":
        nx, ns = assembly.grid.Nx, assembly.memory_grid.Ns
        if vec.size != nx * (3 + ns):
            raise DimensionMismatch(f"vector length {vec.size} != Nx*(3+Ns) = {nx * (3 + ns)}")
        u = vec[:nx].copy()
        v = vec[nx:2 * nx].copy()
        theta = vec[2 * nx:3 * nx].copy()
        eta = vec[3 * nx:].reshape(ns, nx).T.copy()
        return cls(t=t, u=u, v=v, theta=theta, eta=eta, assembly=assembly)


def build_initial_state(init: InitialData, assembly) -> State:
    """Populate a State from validated initial data on a built assembly;
    the history field follows init.history_mode."""
    nx, ns = assembly.grid.Nx, assembly.memory_grid.Ns
    for name, arr in (("u0", init.u0), ("v0", init.v0), ("theta0", init.theta0)):
        if arr.shape != (nx,):
            raise DimensionMismatch(f"{name} has shape {arr.shape}, expected ({nx},)")

    if init.history_mode == "zero":
        eta = np.zeros((nx, ns))
    else:
        eta = init.theta0[:, None] * assembly.memory_grid.s_nodes[None, :]

    return State(t=0.0, u=init.u0.copy(), v=init.v0.copy(),
                 theta=init.theta0.copy(), eta=eta, assembly=assembly)
