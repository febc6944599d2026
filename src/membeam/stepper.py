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
    a ring buffer with a running characteristic accumulator.

Cost of one step and of one diagnostics sample (times measured at
Nx = 64, dt = 1e-3 on a 2-core x86 machine):

    scheme / kernel        step                         sample
    split, Prony (m modes) O(Nx m) + banded solve,      O(Nx m) from running
                           ~0.13-0.23 ms, Ns = 18422    sums, ~0.2 ms
    split, table           one O(Nx Ns) pass,           O(Nx Ns), materializes
                           ~0.45 ms, Ns = 15612         the history, ~16 ms
    midpoint               sparse LU solve of           O(Nx Ns)
                           dimension Nx (3 + Ns)

A Prony split run refreshes its running sums from the ring every
_REFRESH_STEPS steps (one O(Nx Ns) pass) and reports the drift.

Checkpoint format (version 1): an .npz archive with fields
    version, t, u, v, theta, eta, Nx, Ns, ds, h, config_hash
where eta is the (Nx, Ns) history ordered by ascending s.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import analysis
from .analysis import HistorySums, grad_cols, grad_sq_norms
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
# Largest relative residual accepted from any linear solve of a step.
_LINEAR_SOLVER_TOL = 1e-9

# Steps between two recomputations of a Prony split run's per-mode sums
# from the ring.  One recomputation costs about one O(Nx Ns) pass, so at
# this interval they take a few percent of the run.
_REFRESH_STEPS = 2000

log = logging.getLogger(__name__)

SCHEMES = ("full_implicit_midpoint", "split_semilagrangian")


@dataclass(frozen=True)
class SchemeConfig:
    """Time-stepping configuration."""

    dt: float
    scheme: str = "split_semilagrangian"

    def __post_init__(self):
        if not (self.dt > 0):
            raise ParamOutOfRange("dt", "dt must be > 0")
        if self.scheme not in SCHEMES:
            raise ParamOutOfRange("scheme", f"scheme must be one of {SCHEMES}")


def _check_residual(M: sp.spmatrix, x: np.ndarray, rhs: np.ndarray):
    num = np.linalg.norm(M @ x - rhs)
    den = np.linalg.norm(rhs)
    if den > 0 and num > _LINEAR_SOLVER_TOL * den:
        raise LinearSolveFailure(
            f"relative residual {num / den:.3e} exceeds {_LINEAR_SOLVER_TOL:.1e}")


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
        _check_residual(self.M, out, rhs)
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
    """Semi-Lagrangian history shift + implicit midpoint mechanical block,
    with a cached LU factorization of the block's implicit matrix."""

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
        self.lu = splu(self.M)

    def run(self, state: State) -> "_SplitRun":
        return _SplitRun(self, state)


class _SplitRun:
    """Mutable trajectory state for the split scheme (ring-buffer history).

    The exact characteristic update is eta^{n+1}_k = eta^n_{k-1} + q with
    q = dt * (theta^n + theta^{n+1}) / 2.  Storing zeta_k = eta_k - C with
    the accumulator C^{n+1} = C^n + q turns it into a pure ring shift with
    new inflow column zeta_1 = -C^n.

    The run keeps sigma_j = sum_k W_kj zeta_k per kernel mode j, with
    W_kj = w_k mu_j(s_k); a tabulated kernel is one mode.  For a Prony
    kernel, mu_j(s) = a_j exp(-r_j s), so W_{k+1,j} = exp(-r_j ds) W_kj
    except at the half-weight end node, and the run also keeps
    Q_j = sum_k W_kj ||D+ eta_k||^2.  Both follow the shift in O(Nx) per mode:

        Q_j^{n+1} = exp(-r_j ds) (Q_j - end-node terms)
                    + 2 <D+ S_j, D+ q> + (sum_k W_kj) ||D+ q||^2,

    with S_j = sum_{k>=2} W_kj eta_{k-1}.  They give every history sum of a
    diagnostics record in O(Nx * modes) (history_sums).  Every
    _REFRESH_STEPS steps both are recomputed from the ring; max_drift keeps
    the largest relative change a recomputation made.
    """

    def __init__(self, runner: _SplitRunner, state: State):
        asm = state.assembly
        if state.eta.shape != (asm.Nx, asm.Ns):
            raise DimensionMismatch(
                f"state eta has shape {state.eta.shape}, expected {(asm.Nx, asm.Ns)}")
        self.runner = runner
        self.assembly = asm
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
        else:
            self.mode_mu = mg.mu[:, None]
            # weight of logical zeta_k in the shifted sum: w_{k+1} mu_{k+1},
            # and 0 for k = Ns
            self.wshift = np.append(runner.wmu[1:], 0.0)[:, None]
        self.wmode = mg.weights[:, None] * self.mode_mu       # W, (Ns, modes)
        self.sigma_modes = self.zeta @ self.wmode
        if self.prony:
            self.wmode_sum = self.wmode.sum(axis=0)
            self.wshift_sum = self.wmode[1:].sum(axis=0)
            self.quad_modes = grad_sq_norms(self.zeta, asm.grid.h) @ self.wmode
            self._since_refresh = 0
            self.max_drift = 0.0

    # -- history bookkeeping ------------------------------------------------

    def _logical_eta(self) -> np.ndarray:
        zeta = np.roll(self.zeta, -self.head, axis=1) if self.head else self.zeta.copy()
        return zeta + self.C[:, None]

    def _col(self, k: int) -> np.ndarray:
        """Storage view of logical zeta column k (1-based s index)."""
        return self.zeta[:, (self.head + k - 1) % self.zeta.shape[1]]

    def _shift_mode_sums(self, sums, last, prev):
        """sum_{k>=2} W_kj x_{k-1} per Prony mode, from sums_j = sum_k W_kj x_k
        and the end-node values last = x_Ns, prev = x_{Ns-1}."""
        mg = self.runner.memory_grid
        ns = mg.Ns
        tail = np.multiply.outer(last, self.mode_mu[ns - 1])
        if ns > 1:
            tail = tail + np.multiply.outer(prev, self.mode_mu[ns - 2])
        return (sums - 0.5 * mg.ds * tail) * self.mode_decay

    def _shifted_sigma_modes(self) -> np.ndarray:
        """Per-mode sums of the shifted zeta: sum_{k>=2} W_kj zeta_{k-1}."""
        if self.prony:
            ns = self.runner.memory_grid.Ns
            return self._shift_mode_sums(self.sigma_modes, self._col(ns), self._col(ns - 1))
        # one pass over the ring against the weights rotated to storage order
        return self.zeta @ np.roll(self.wshift, self.head, axis=0)

    def _shift_history(self, q: np.ndarray, sig_shift_modes: np.ndarray):
        """Ring shift plus per-mode sum update."""
        mg = self.runner.memory_grid
        ns = mg.Ns
        if self.prony:
            # S_j = sum_{k>=2} W_kj eta_{k-1}, the two end columns of eta^n
            # and q, differenced in one pass
            cols = np.column_stack([sig_shift_modes + np.multiply.outer(self.C, self.wshift_sum),
                                    self._col(ns) + self.C, self._col(ns - 1) + self.C, q])
            g = grad_cols(cols, self.assembly.grid.h)
            n_last, n_prev, n_q = np.einsum("ij,ij->j", g[:, -3:], g[:, -3:])
            self.quad_modes = (self._shift_mode_sums(self.quad_modes, n_last, n_prev)
                               + 2.0 * (g[:, -1] @ g[:, :-3]) + self.wmode_sum * n_q)
        self.sigma_modes = sig_shift_modes + mg.weights[0] * np.outer(
            -self.C, self.mode_mu[0])                          # zeta_1 = -C^n
        self.C = self.C + q
        self.head = (self.head - 1) % ns
        self.zeta[:, self.head] = -(self.C - q)               # zeta_1 = -C^n

    def refresh_mode_sums(self):
        """Recompute the Prony per-mode sums from the ring and record how far
        the running ones had drifted; a no-op right after a recomputation."""
        if self._since_refresh == 0:
            return
        w = np.roll(self.wmode, self.head, axis=0)           # storage order
        sigma = self.zeta @ w
        quad = grad_sq_norms(self.zeta + self.C[:, None], self.assembly.grid.h) @ w
        self.max_drift = max(self.max_drift, _rel_change(self.sigma_modes, sigma),
                             _rel_change(self.quad_modes, quad))
        self.sigma_modes, self.quad_modes = sigma, quad
        self._since_refresh = 0

    def history_sums(self) -> HistorySums:
        """Every history sum of the current state from the per-mode sums,
        in O(Nx * modes).  Prony kernels only."""
        run = self.runner
        mg = run.memory_grid
        w1mu1 = mg.weights[0] * mg.mu[0]
        return HistorySums(
            hist_mu=float(np.sum(self.quad_modes)),
            hist_mup=-float(self.quad_modes @ mg.kernel.rates),
            moment=self.sigma_modes.sum(axis=1) + run.mu0w * self.C,
            shifted_moment=(self._shifted_sigma_modes().sum(axis=1)
                            + (run.mu0w - w1mu1) * self.C))

    # -- stepping -----------------------------------------------------------

    def advance(self):
        run = self.runner
        nx, dt = run.nx, run.cfg.dt
        mg = run.memory_grid
        w1mu1 = mg.weights[0] * mg.mu[0]

        # m(eta) = sum_k w_k mu_k eta_k before and after the shift substep:
        #   m(eta^n)     = sigma^n + mu0w C^n
        #   m(eta^{n+1}) = sig_shift + (mu0w - w1 mu1) C^n + mu0w q
        # with q = dt (theta^n + theta^{n+1})/2 entering the implicit matrix.
        m_n = self.sigma_modes.sum(axis=1) + run.mu0w * self.C
        sig_shift_modes = self._shifted_sigma_modes()
        m_shift = sig_shift_modes.sum(axis=1) + (run.mu0w - w1mu1) * self.C

        # flux at the averaged history; the theta^{n+1} share of q is in M
        m_mid_known = 0.5 * (m_n + m_shift) + (run.mu0w * dt / 4.0) * self.theta
        w_old = np.concatenate([self.u, self.v, self.theta])
        rhs = run.P @ w_old
        rhs[2 * nx:] += dt * (run.lap @ m_mid_known)
        w_new = run.lu.solve(rhs)
        _check_residual(run.M, w_new, rhs)

        theta_new = w_new[2 * nx:]
        q = 0.5 * dt * (self.theta + theta_new)
        self.u = w_new[:nx]
        self.v = w_new[nx:2 * nx]
        self.theta = theta_new
        self._shift_history(q, sig_shift_modes)
        self.t += dt
        if self.prony:
            self._since_refresh += 1
            if self._since_refresh == _REFRESH_STEPS:
                self.refresh_mode_sums()

    def to_state(self) -> State:
        return State(t=self.t, u=self.u.copy(), v=self.v.copy(), theta=self.theta.copy(),
                     eta=self._logical_eta(), assembly=self.assembly)


def _rel_change(old: np.ndarray, new: np.ndarray) -> float:
    """max |old - new| relative to max |new| (0 when both vanish)."""
    scale = float(np.max(np.abs(new)))
    diff = float(np.max(np.abs(old - new)))
    return diff / scale if scale > 0 else diff


def _get_runner(assembly: GeneratorAssembly, cfg: SchemeConfig):
    """Runner cache: factorizations are rebuilt only when (scheme, dt) change.

    A runner keeps no reference to its assembly (runs take it from their
    state), so the cache makes no cycle and an assembly's matrices and
    factorizations are freed as soon as the last reference to it goes.
    """
    key = ("runner", cfg.scheme, cfg.dt)
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
    """Trajectory of diagnostics records plus the final state.

    refresh_drift is the largest relative change that recomputing a Prony
    split run's running history sums from the ring made (0.0 for runs that
    keep no running sums).
    """

    records: list
    final_state: State
    refresh_drift: float = 0.0


def simulate(init: State, cfg: SchemeConfig, T: float, sample_every: int = 1,
             mcfg=None) -> SimulationResult:
    """Advance to t = T recording diagnostics every sample_every steps.

    Records are always taken at t = 0 and t = T.  A Prony split run is
    sampled from its running history sums, so sampling builds no State;
    other runs are sampled from their materialized state.  dE_numeric
    (centered difference of E across samples) and the identity residual
    are filled in after the run.  Step failures abort with the partial
    trajectory attached (SimulationAborted).  One INFO line on the
    membeam.stepper logger reports steps, records, the time spent stepping
    and sampling, and the refresh drift.
    """
    if not (np.isfinite(T) and T >= 0):
        raise ParamOutOfRange("T", f"final time must be finite and >= 0, got {T}")
    if sample_every < 1:
        raise ParamOutOfRange("sample_every", "sample_every must be >= 1")
    n_steps = int(round(T / cfg.dt)) if T > 0 else 0
    if T > 0 and abs(n_steps * cfg.dt - T) > 1e-9 * max(T, 1.0):
        n_steps = int(np.ceil(T / cfg.dt))

    if mcfg is None:
        mcfg = analysis.choose_multipliers_for(init.assembly)

    start = time.perf_counter()
    records = [analysis.diagnostics_record(init, mcfg)]
    sampling = time.perf_counter() - start
    final, drift = init, 0.0
    if n_steps > 0:
        run = _get_runner(init.assembly, cfg).run(init)
        running = isinstance(run, _SplitRun) and run.prony
        for k in range(1, n_steps + 1):
            try:
                run.advance()
            except Exception as exc:  # propagate with the step index and partial data
                raise SimulationAborted(k, exc, records) from exc
            if k % sample_every == 0 or k == n_steps:
                t0 = time.perf_counter()
                records.append(analysis.diagnostics_record(run if running else run.to_state(),
                                                           mcfg))
                sampling += time.perf_counter() - t0
        if running:
            run.refresh_mode_sums()
            drift = run.max_drift
        final = run.to_state()
    _fill_numeric_derivatives(records)
    log.info("simulate: %d steps, %d records, stepping %.3f s, sampling %.3f s, "
             "refresh drift %.3e", n_steps, len(records),
             time.perf_counter() - start - sampling, sampling, drift)
    return SimulationResult(records=records, final_state=final, refresh_drift=drift)


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


def expm_multiply_dense(A: np.ndarray, phi0: np.ndarray, t: float) -> np.ndarray:
    """exp(t A) phi0 by eigen-decomposition, falling back to
    scaling-and-squaring when the eigenvector matrix is too ill-conditioned."""
    w, V = sla.eig(A)
    if np.linalg.cond(V) > _EIGVEC_COND_LIMIT:
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
    for name, stored, own in (("ds", data["ds"], assembly.memory_grid.ds),
                              ("h", data["h"], assembly.grid.h)):
        if abs(float(stored) - own) > 1e-12 * own:
            raise DimensionMismatch(
                f"checkpoint {name} = {float(stored):.17g} does not match the assembly's {own:.17g}")
    return State(t=float(data["t"]), u=data["u"], v=data["v"], theta=data["theta"],
                 eta=data["eta"], assembly=assembly)
