"""Time integration: implicit midpoint, semi-Lagrangian splitting, oracle.

Two schemes advance the discrete state:

full_implicit_midpoint
    Cayley step (I - dt/2 A_h) Phi^{n+1} = (I + dt/2 A_h) Phi^n on the
    monolithic generator.  An exact H-contraction for the dissipative
    assembly at any dt; intended for desk-scale verification since the
    sparse factorization couples the whole history block.

split_semilagrangian
    Requires ds == dt.  The history transport eta_t + eta_s = theta is
    integrated exactly along characteristics (shift by one s-node plus the
    trapezoid integral of theta over the step on every surviving column,
    which is also the new inflow column), while the (u, v, theta) block
    takes an implicit midpoint step with the memory flux evaluated at the
    average of the pre- and post-step histories.  The history is stored in
    a ring buffer with a running characteristic accumulator, so one step
    costs O(Nx) plus the banded block solve for Prony kernels.

Checkpoint format (version 1): an .npz archive with fields
    version, t, u, v, theta, eta, Nx, Ns, ds, h, config_hash
where eta is the (Nx, Ns) history ordered by ascending s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .discretization import DENSE_MAX_DIM, GeneratorAssembly
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    InconsistentGrid,
    LinearSolveFailure,
    ParamOutOfRange,
    SimulationAborted,
)
from .model import State

_EIGVEC_COND_LIMIT = 1e8

SCHEMES = ("full_implicit_midpoint", "split_semilagrangian")


@dataclass(frozen=True)
class SchemeConfig:
    """Time-stepping configuration.

    linear_solver_tol bounds the relative residual of every linear solve.
    """

    dt: float
    scheme: str = "split_semilagrangian"
    linear_solver_tol: float = 1e-9

    def __post_init__(self):
        if not (self.dt > 0):
            raise ParamOutOfRange("dt", "dt must be > 0")
        if self.scheme not in SCHEMES:
            raise ParamOutOfRange("scheme", f"scheme must be one of {SCHEMES}")


def _check_residual(M: sp.spmatrix, x: np.ndarray, rhs: np.ndarray, tol: float):
    num = np.linalg.norm(M @ x - rhs)
    den = np.linalg.norm(rhs)
    if den > 0 and num > tol * den:
        raise LinearSolveFailure(f"relative residual {num / den:.3e} exceeds {tol:.1e}")


class _MidpointRunner:
    """Monolithic Cayley stepper with a cached LU factorization."""

    def __init__(self, assembly: GeneratorAssembly, cfg: SchemeConfig):
        self.cfg = cfg
        A = assembly.generator_matrix
        n = A.shape[0]
        eye = sp.identity(n, format="csc")
        self.M = (eye - (cfg.dt / 2.0) * A).tocsc()
        self.P = (eye + (cfg.dt / 2.0) * A).tocsr()
        self.lu = splu(self.M)

    def step_vector(self, phi: np.ndarray) -> np.ndarray:
        rhs = self.P @ phi
        out = self.lu.solve(rhs)
        _check_residual(self.M, out, rhs, self.cfg.linear_solver_tol)
        return out

    def run(self, state: State) -> "_MidpointRun":
        return _MidpointRun(self, state)


class _MidpointRun:
    def __init__(self, runner: _MidpointRunner, state: State):
        self.runner = runner
        self.assembly = state.assembly
        self.t = state.t
        self.phi = state.flatten()

    def advance(self):
        self.phi = self.runner.step_vector(self.phi)
        self.t += self.runner.cfg.dt

    def to_state(self) -> State:
        return State.unflatten(self.phi, self.assembly, t=self.t)


class _SplitRunner:
    """Semi-Lagrangian history shift + implicit midpoint mechanical block."""

    def __init__(self, assembly: GeneratorAssembly, cfg: SchemeConfig):
        mg = assembly.memory_grid
        if abs(mg.ds - cfg.dt) > 1e-12 * max(mg.ds, cfg.dt):
            raise InconsistentGrid(
                f"split_semilagrangian needs ds == dt (ds = {mg.ds:g}, dt = {cfg.dt:g})")
        self.memory_grid = mg
        self.cfg = cfg
        nx = assembly.Nx
        dt = cfg.dt
        self.wmu = mg.weights * mg.mu
        self.mu0w = float(np.sum(self.wmu))

        B = assembly.mechanical_block
        self.lap = assembly.ops.lap
        self.nx = nx
        n3 = 3 * nx
        eye3 = sp.identity(n3, format="csc")
        M = (eye3 - (dt / 2.0) * B).tolil()
        # implicit part of the memory flux through the characteristic source:
        # flux uses the history average, whose new-time part carries
        # (mu0w dt / 4) theta^{n+1} into every column.
        corr = (dt * dt * self.mu0w / 4.0) * self.lap
        M[2 * nx:, 2 * nx:] = M[2 * nx:, 2 * nx:] - corr
        self.M = M.tocsc()
        self.P = (eye3 + (dt / 2.0) * B).tocsr()

    def run(self, state: State) -> "_SplitRun":
        return _SplitRun(self, state)


class _SplitRun:
    """Mutable trajectory state for the split scheme (ring-buffer history).

    The exact characteristic update is eta^{n+1}_k = eta^n_{k-1} + q with
    q = dt * (theta^n + theta^{n+1}) / 2.  Storing zeta_k = eta_k - C with
    the accumulator C^{n+1} = C^n + q turns it into a pure ring shift with
    new inflow column zeta_1 = -C^n.
    """

    def __init__(self, runner: _SplitRunner, state: State):
        asm = state.assembly
        if state.eta.shape != (asm.Nx, asm.Ns):
            raise DimensionMismatch(
                f"state eta has shape {state.eta.shape}, expected {(asm.Nx, asm.Ns)}")
        self.runner = runner
        self.assembly = asm
        self.lu = splu(runner.M)
        self.t = state.t
        self.u = state.u.copy()
        self.v = state.v.copy()
        self.theta = state.theta.copy()
        self.C = np.zeros(asm.Nx)
        self.zeta = state.eta.copy()          # ring storage, start head = 0
        self.head = 0                         # storage column of s-index 1
        mg = asm.memory_grid
        kern = mg.kernel
        self.prony = kern.form == "prony"
        if self.prony:
            self.mode_decay = np.exp(-kern.rates * mg.ds)
            # per-mode kernel samples on the s-grid
            self.mode_mu = kern.amplitudes[None, :] * np.exp(
                -np.multiply.outer(mg.s_nodes, kern.rates))   # (Ns, modes)
        self._refresh_sigma()

    # -- history bookkeeping ------------------------------------------------

    def _logical_eta(self) -> np.ndarray:
        zeta = np.roll(self.zeta, -self.head, axis=1) if self.head else self.zeta.copy()
        return zeta + self.C[:, None]

    def _col(self, k: int) -> np.ndarray:
        """Storage view of logical zeta column k (1-based s index)."""
        return self.zeta[:, (self.head + k - 1) % self.zeta.shape[1]]

    def _refresh_sigma(self):
        """Recompute the weighted history sums from the ring (kills drift)."""
        mg = self.runner.memory_grid
        ns = mg.Ns
        order = (self.head + np.arange(ns)) % ns
        if self.prony:
            wmode = mg.weights[:, None] * self.mode_mu        # (Ns, modes)
            self.sigma_modes = self.zeta[:, order] @ wmode    # (Nx, modes)
        else:
            self.sigma = self.zeta[:, order] @ self.runner.wmu

    def _sigma_total(self) -> np.ndarray:
        return self.sigma_modes.sum(axis=1) if self.prony else self.sigma

    def _shifted_sigma_modes(self) -> np.ndarray:
        """Per-mode sums of the shifted zeta: sum_{k>=2} w_k mu_k zeta_{k-1}."""
        mg = self.runner.memory_grid
        ns, ds = mg.Ns, mg.ds
        z_last = self._col(ns)
        z_prev = self._col(ns - 1) if ns > 1 else np.zeros_like(z_last)
        sig = self.sigma_modes - 0.5 * ds * (
            np.outer(z_last, self.mode_mu[ns - 1])
            + (np.outer(z_prev, self.mode_mu[ns - 2]) if ns > 1 else 0.0))
        return sig * self.mode_decay[None, :]

    def _shift_history(self, q: np.ndarray, sig_shift_modes=None):
        """Ring shift plus weighted-sum update."""
        mg = self.runner.memory_grid
        ns = mg.Ns
        if self.prony:
            if sig_shift_modes is None:
                sig_shift_modes = self._shifted_sigma_modes()
            self.sigma_modes = sig_shift_modes + mg.weights[0] * np.outer(
                -self.C, self.mode_mu[0])                     # zeta_1 = -C^n
        self.C = self.C + q
        self.head = (self.head - 1) % ns
        self.zeta[:, self.head] = -(self.C - q)               # zeta_1 = -C^n
        if not self.prony:
            self._refresh_sigma()

    # -- stepping -----------------------------------------------------------

    def advance(self):
        run = self.runner
        nx, dt = run.nx, run.cfg.dt
        mg = run.memory_grid
        ns = mg.Ns
        w1mu1 = mg.weights[0] * mg.mu[0]

        # m(eta) = sum_k w_k mu_k eta_k before and after the shift substep:
        #   m(eta^n)     = sigma^n + mu0w C^n
        #   m(eta^{n+1}) = sig_shift + (mu0w - w1 mu1) C^n + mu0w q
        # with q = dt (theta^n + theta^{n+1})/2 entering the implicit matrix.
        m_n = self._sigma_total() + run.mu0w * self.C
        if self.prony:
            sig_shift_modes = self._shifted_sigma_modes()
            sig_shift = sig_shift_modes.sum(axis=1)
        else:
            sig_shift_modes = None
            order = (self.head + np.arange(ns - 1)) % ns      # logical 1..Ns-1
            wshift = (mg.weights[1:] * mg.mu[1:])
            sig_shift = self.zeta[:, order] @ wshift
        m_shift = sig_shift + (run.mu0w - w1mu1) * self.C

        # flux at the averaged history; the theta^{n+1} share of q is in M
        m_mid_known = 0.5 * (m_n + m_shift) + (run.mu0w * dt / 4.0) * self.theta
        w_old = np.concatenate([self.u, self.v, self.theta])
        rhs = run.P @ w_old
        rhs[2 * nx:] += dt * (run.lap @ m_mid_known)
        w_new = self.lu.solve(rhs)
        _check_residual(run.M, w_new, rhs, run.cfg.linear_solver_tol)

        theta_new = w_new[2 * nx:]
        q = 0.5 * dt * (self.theta + theta_new)
        self.u = w_new[:nx]
        self.v = w_new[nx:2 * nx]
        self.theta = theta_new
        self._shift_history(q, sig_shift_modes)
        self.t += dt

    def to_state(self) -> State:
        return State(t=self.t, u=self.u.copy(), v=self.v.copy(), theta=self.theta.copy(),
                     eta=self._logical_eta(), assembly=self.assembly)


def _get_runner(assembly: GeneratorAssembly, cfg: SchemeConfig):
    """Runner cache: factorizations are rebuilt only when (scheme, dt) change.

    A runner keeps no reference to its assembly (runs take it from their
    state), so the cache makes no cycle and an assembly's matrices and
    factorizations are freed as soon as the last reference to it goes.
    """
    key = ("runner", cfg.scheme, cfg.dt, cfg.linear_solver_tol)
    if key not in assembly._cache:
        cls = _MidpointRunner if cfg.scheme == "full_implicit_midpoint" else _SplitRunner
        assembly._cache[key] = cls(assembly, cfg)
    return assembly._cache[key]


def step(state: State, cfg: SchemeConfig) -> State:
    """Advance one time step and return the new state."""
    run = _get_runner(state.assembly, cfg).run(state)
    run.advance()
    return run.to_state()


@dataclass
class SimulationResult:
    """Trajectory of diagnostics records plus the final state."""

    records: list
    final_state: State
    states: list = field(default_factory=list)


def simulate(init: State, cfg: SchemeConfig, T: float, sample_every: int = 1,
             mcfg=None, keep_states: bool = False,
             observer: Callable[[State], None] | None = None) -> SimulationResult:
    """Advance to t = T recording diagnostics every sample_every steps.

    Records are always taken at t = 0 and t = T.  dE_numeric (centered
    difference of E across samples) and the identity residual are filled
    in after the run.  Step failures abort with the partial trajectory
    attached (SimulationAborted).
    """
    from . import analysis  # deferred: analysis imports model types only

    if T < 0:
        raise ParamOutOfRange("T", "final time must be >= 0")
    if sample_every < 1:
        raise ParamOutOfRange("sample_every", "sample_every must be >= 1")
    n_steps = int(round(T / cfg.dt)) if T > 0 else 0
    if T > 0 and abs(n_steps * cfg.dt - T) > 1e-9 * max(T, 1.0):
        n_steps = int(np.ceil(T / cfg.dt))

    if mcfg is None:
        mcfg = analysis.choose_multipliers_for(init.assembly)

    records = []
    states = []

    def take_sample(st: State):
        records.append(analysis.diagnostics_record(st, mcfg))
        if keep_states:
            states.append(st)
        if observer is not None:
            observer(st)

    take_sample(init)
    if n_steps == 0:
        _fill_numeric_derivatives(records)
        return SimulationResult(records=records, final_state=init, states=states)

    run = _get_runner(init.assembly, cfg).run(init)
    for k in range(1, n_steps + 1):
        try:
            run.advance()
        except Exception as exc:  # propagate with the step index and partial data
            raise SimulationAborted(k, exc, records) from exc
        if k % sample_every == 0 or k == n_steps:
            take_sample(run.to_state())
    final = run.to_state()
    _fill_numeric_derivatives(records)
    return SimulationResult(records=records, final_state=final, states=states)


def _fill_numeric_derivatives(records):
    """Centered finite difference of E across samples -> dE_numeric,
    identity_residual = |dE_numeric - D|."""
    n = len(records)
    for j, rec in enumerate(records):
        lo = max(0, j - 1)
        hi = min(n - 1, j + 1)
        if hi == lo:
            rec.dE_numeric = 0.0
        else:
            rec.dE_numeric = (records[hi].E - records[lo].E) / (records[hi].t - records[lo].t)
        rec.identity_residual = abs(rec.dE_numeric - rec.D)


# ---------------------------------------------------------------------------
# matrix-exponential oracle


def expm_multiply_dense(A: np.ndarray, phi0: np.ndarray, t: float,
                        cond_limit: float = _EIGVEC_COND_LIMIT) -> np.ndarray:
    """exp(t A) phi0 by eigen-decomposition, falling back to
    scaling-and-squaring when the eigenvector matrix is too ill-conditioned."""
    w, V = sla.eig(A)
    if np.linalg.cond(V) > cond_limit:
        return sla.expm(t * A) @ phi0
    resid = np.linalg.norm(A @ V - V * w[None, :]) / max(np.linalg.norm(A), 1e-300)
    if resid > 1e-8:
        return sla.expm(t * A) @ phi0
    coef = sla.solve(V, phi0.astype(complex))
    out = V @ (np.exp(w * t) * coef)
    return out.real if np.isrealobj(phi0) else out


def oracle_evolve(assembly: GeneratorAssembly, phi0: np.ndarray, t: float) -> np.ndarray:
    """Reference solution exp(t A_h) phi0 for desk-scale assemblies.

    Dense eigen-decomposition with a residual check; systems whose
    eigenvector matrix exceeds the conditioning threshold use the
    scaling-and-squaring fallback.  Only intended for tests.
    """
    if assembly.dim > DENSE_MAX_DIM:
        raise DimensionTooLarge(
            f"oracle limited to dimension {DENSE_MAX_DIM}, got {assembly.dim}")
    if t < 0:
        raise ParamOutOfRange("t", "oracle time must be >= 0")
    phi0 = np.asarray(phi0, dtype=float)
    if phi0.shape != (assembly.dim,):
        raise DimensionMismatch(f"phi0 has shape {phi0.shape}, expected ({assembly.dim},)")
    if t == 0:
        return phi0.copy()
    key = ("oracle_eig",)
    if key not in assembly._cache:
        assembly._cache[key] = assembly.generator_matrix.toarray()
    return expm_multiply_dense(assembly._cache[key], phi0, t)


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_VERSION = 1


def write_checkpoint(path, state: State, config_hash: str = ""):
    asm = state.assembly
    np.savez(path, version=CHECKPOINT_VERSION, t=state.t, u=state.u, v=state.v,
             theta=state.theta, eta=state.eta, Nx=asm.Nx, Ns=asm.Ns,
             ds=asm.memory_grid.ds, h=asm.grid.h, config_hash=config_hash)


def read_checkpoint(path, assembly: GeneratorAssembly) -> State:
    data = np.load(path, allow_pickle=False)
    if int(data["version"]) != CHECKPOINT_VERSION:
        raise DimensionMismatch(f"unsupported checkpoint version {data['version']}")
    if int(data["Nx"]) != assembly.Nx or int(data["Ns"]) != assembly.Ns:
        raise DimensionMismatch("checkpoint grid does not match the assembly")
    return State(t=float(data["t"]), u=data["u"], v=data["v"], theta=data["theta"],
                 eta=data["eta"], assembly=assembly)
