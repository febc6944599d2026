"""Time integration: implicit midpoint, semi-Lagrangian splitting, oracle.

Two schemes advance the discrete state:

full_implicit_midpoint
    Cayley step (I - dt/2 A_h) Phi^{n+1} = (I + dt/2 A_h) Phi^n on the
    monolithic generator.  An exact H-contraction for the dissipative
    assembly at any dt.  The upwind history block of I - dt/2 A_h is a
    first-order recurrence in s, which SchurSolver eliminates exactly, so
    only a 3Nx matrix is factorized.

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
    split, Prony (m modes) O(Nx m) + 3Nx LU solve,      O(Nx m) from running
                           ~0.1 ms, Ns = 18422          sums, ~0.2 ms
    split, table           one O(Nx Ns B) GEMM every    one O(Nx Ns) product
                           B = 16 steps + 3Nx LU        and two O(Ns) dots from
                           solve, ~0.14 ms, Ns = 15612  the ring, ~0.55 ms
    midpoint               3Nx LU solve, one banded     O(Nx Ns)
                           history solve (LAPACK) and
                           the residual, in place,
                           ~25 ms, Ns = 18422

A Prony split run refreshes its running sums from the ring every
_REFRESH_STEPS steps (one O(Nx Ns) pass) and reports the drift.

oracle_evolve is the reference both schemes are tested against:
exp(t A_h) phi0 from one dense scipy.linalg.expm, up to DENSE_MAX_DIM.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dtbtrs
from scipy.sparse.linalg import splu

from . import analysis
from .analysis import HistorySums, grad_sq_norms
from .discretization import DENSE_MAX_DIM, SHIFT_BLOCK, GeneratorAssembly
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    InconsistentGrid,
    LinearSolveFailure,
    ParamOutOfRange,
    SimulationAborted,
)
from .model import State

# Largest relative residual accepted from any linear solve of a step.
_LINEAR_SOLVER_TOL = 1e-9

# Most steps one simulate call takes; a longer run is refused before the
# first step (100 times the 10,000 steps of the shipped default run).
MAX_STEPS = 1_000_000

# Steps between two recomputations of a Prony split run's per-mode sums
# from the ring.  One recomputation costs about one O(Nx Ns) pass, so at
# this interval they take a few percent of the run.
_REFRESH_STEPS = 2000

# A table-kernel split run stores its history as zeta = eta - C and takes
# sum_k w_k ||D+ eta_k||^2 from the ||D+ zeta_k||^2 and the C terms, which
# cancel as the history decays against C.  Once those terms exceed the sum
# by this factor the run stores eta itself (C = 0), so the sums keep about
# 13 digits.  The check is made when the sums are read.
_RECENTER_RATIO = 1e3

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


def _check_residual(residual_sq: float, rhs_sq: float):
    """Raise LinearSolveFailure unless ||residual|| <= tol ||rhs||, given
    the squared norms over all blocks; a non-finite value never passes."""
    num, den = math.sqrt(residual_sq), math.sqrt(rhs_sq)
    if not num <= _LINEAR_SOLVER_TOL * den:
        raise LinearSolveFailure(
            f"residual {num:.3e} exceeds {_LINEAR_SOLVER_TOL:.1e} x right-hand side {den:.3e}")


def _check_history_shape(state: State):
    asm = state.assembly
    if state.eta.shape != (asm.Nx, asm.Ns):
        raise DimensionMismatch(
            f"state eta has shape {state.eta.shape}, expected {(asm.Nx, asm.Ns)}")


def _mechanical_lu(B: sp.spmatrix, lap: sp.spmatrix, tau: float, gain: float):
    """M = I - tau B - tau^2 gain [theta theta] lap and its LU: the 3Nx
    block left of an implicit step once the history is eliminated.  A
    singular M raises LinearSolveFailure."""
    nx = lap.shape[0]
    M = (sp.identity(3 * nx, format="csc") - tau * B).tolil()
    M[2 * nx:, 2 * nx:] = M[2 * nx:, 2 * nx:] - (tau * tau * gain) * lap
    M = M.tocsc()
    try:
        return M, splu(M)
    except RuntimeError as exc:    # SuperLU: "Factor is exactly singular"
        raise LinearSolveFailure(f"mechanical block of the implicit step: {exc}") from exc


class SchurSolver:
    """Solves (I - tau A_h) x = r and its transpose by eliminating the
    history block exactly; only a 3Nx matrix is factorized.

    A vector is split as (w, eta): w = (u, v, theta) of length 3Nx and the
    history eta of shape (Nx, Ns).  With q = tau/ds and S the one-node
    shift in s (eta_0 = 0), the history rows of I - tau A_h read

        L eta_i = r_eta,i + tau theta_i 1,   L = (1 + q) I - q S,

    at every x node i: a first-order recurrence.  L / (1 + q) is unit lower
    bidiagonal, so one LAPACK banded triangular solve (dtbtrs) of the
    C-ordered (Nx, Ns) right-hand side z / (1 + q), read as Nx columns of
    length Ns, gives L^{-1} z in place: y_k = z_k / (1 + q) + q / (1 + q)
    y_{k-1}.  With g = L^{-T} wmu the theta row sees the history only
    through wmu . L^{-1} r_eta = g . r_eta and tau (g . 1) theta, which
    leaves the Schur complement

        I - tau B - tau^2 (g . 1) [theta theta] lap,

    nonsingular exactly when I - tau A_h is.  Once w is known, the history
    is eta = L^{-1} (r_eta + tau theta 1^T).  The transposed solve uses
    the same LU and L^T, a recurrence run from s_Ns down.  solve,
    solve_transposed and apply take inputs of any layout, leave them
    untouched and return new arrays; the midpoint run calls the blockwise
    methods on its own buffers.  The solver keeps no reference to its
    assembly.
    """

    def __init__(self, assembly: GeneratorAssembly, tau: float):
        mg = assembly.memory_grid
        self.nx, self.ns = assembly.Nx, assembly.Ns
        self.tau = tau
        self.q = tau / mg.ds
        self.c = 1.0 / (1.0 + self.q)
        self.wmu = mg.weights * mg.mu
        self.B = assembly.mechanical_block
        self.lap = assembly.ops.lap
        # L / (1 + q) in LAPACK's lower band storage: the unit diagonal
        # (not read with diag="U") over the subdiagonal
        self._band = np.asfortranarray([np.ones(self.ns),
                                        np.full(self.ns, -self.q / (1.0 + self.q))])
        self.g = self._recurrence(self.c * self.wmu[None, :], transposed=True)[0]
        _, self.lu = _mechanical_lu(self.B, self.lap, tau, float(np.sum(self.g)))

    def _recurrence(self, z: np.ndarray, transposed: bool = False) -> np.ndarray:
        """L^{-1} (1 + q) z along s, or L^{-T} (1 + q) z, written over the
        (Nx, Ns) array z when it is C-ordered (LAPACK copies any other
        layout, so callers use the returned array)."""
        y, info = dtbtrs(self._band, z.T, uplo="L", trans="T" if transposed else "N",
                         diag="U", overwrite_b=1)
        if info != 0:
            raise LinearSolveFailure(f"banded history solve: LAPACK dtbtrs info = {info}")
        return y.T

    def _apply_w(self, w: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """The (u, v, theta) rows of (I - tau A_h)(w, eta)."""
        out = w - self.tau * (self.B @ w)
        out[2 * self.nx:] -= self.tau * (self.lap @ (eta @ self.wmu))
        return out

    def _apply_eta(self, eta: np.ndarray, theta: np.ndarray, out: np.ndarray,
                   scratch: np.ndarray) -> np.ndarray:
        """The history rows (1 + q) eta - q S eta - tau theta 1^T, formed in
        out; scratch is overwritten."""
        q = self.q
        np.multiply(eta, 1.0 + q, out=out)
        out[:, 1:] -= np.multiply(eta[:, :-1], q, out=scratch[:, 1:])
        out -= self.tau * theta[:, None]
        return out

    def _solve_w(self, r_w: np.ndarray, r_eta: np.ndarray) -> np.ndarray:
        """The (u, v, theta) block of the solution: one 3Nx LU solve."""
        rhs = r_w.copy()
        rhs[2 * self.nx:] += self.tau * (self.lap @ (r_eta @ self.g))
        return self.lu.solve(rhs)

    def _solve_eta(self, r_eta: np.ndarray, theta: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The history block L^{-1} (r_eta + tau theta 1^T), from the scaled
        source formed in the C-ordered (Nx, Ns) buffer out."""
        np.add(r_eta, self.tau * theta[:, None], out=out)
        out *= self.c
        return self._recurrence(out)

    def _history_buffer(self) -> np.ndarray:
        return np.empty((self.nx, self.ns))

    def apply(self, w: np.ndarray, eta: np.ndarray):
        """(I - tau A_h)(w, eta), blockwise."""
        out, scratch = self._history_buffer(), self._history_buffer()
        return self._apply_w(w, eta), self._apply_eta(eta, w[2 * self.nx:], out, scratch)

    def solve(self, r_w: np.ndarray, r_eta: np.ndarray):
        w = self._solve_w(r_w, r_eta)
        return w, self._solve_eta(r_eta, w[2 * self.nx:], self._history_buffer())

    def solve_transposed(self, r_w: np.ndarray, r_eta: np.ndarray):
        th = slice(2 * self.nx, None)
        eta = self._recurrence(np.multiply(r_eta, self.c, out=self._history_buffer()),
                               transposed=True)
        rhs = r_w.copy()
        rhs[th] += self.tau * eta.sum(axis=1)
        w = self.lu.solve(rhs, trans="T")
        eta += self.tau * np.outer(self.lap.T @ w[th], self.g)
        return w, eta


class _MidpointRunner:
    """Cayley stepper: the history-eliminating solver with tau = dt/2."""

    def __init__(self, assembly: GeneratorAssembly, cfg: SchemeConfig):
        self.cfg = cfg
        self.solver = SchurSolver(assembly, cfg.dt / 2.0)

    def run(self, state: State) -> "_MidpointRun":
        return _MidpointRun(self, state)


class _MidpointRun:
    """(u, v, theta) as one 3Nx vector w, the history as an (Nx, Ns) array.

    A step solves M Phi^{n+1} = P Phi^n with M = I - tau A_h and
    P = I + tau A_h = 2I - M: one 3Nx LU solve and one banded solve of the
    history recurrence.  The full-system residual M Phi^{n+1} - P Phi^n is
    checked blockwise; M Phi^{n+1} is kept to give the next step's P Phi^{n+1}.

    The history blocks live in five (Nx, Ns) buffers allocated once: eta,
    _m_eta (its image under M) and three work arrays.  A step forms the
    right-hand side 2 eta - _m_eta in the first (and later the residual),
    the new history in the second (the recurrence overwrites its scaled
    source) and its image under M in the third, with the spent _m_eta as
    scratch; then the buffers trade places.  A step that fails its check
    leaves t, w and eta as they were, but not _m_eta: the run is spent.
    """

    def __init__(self, runner: _MidpointRunner, state: State):
        _check_history_shape(state)
        self.runner = runner
        self.assembly = state.assembly
        self.t = state.t
        self.w = np.concatenate([state.u, state.v, state.theta])
        self.eta = state.eta.copy()
        self._m_w, self._m_eta = runner.solver.apply(self.w, self.eta)
        self._work = [np.empty_like(self.eta) for _ in range(3)]

    def advance(self):
        solver, th = self.runner.solver, slice(2 * self.assembly.Nx, None)
        rhs_eta, new_eta, new_m_eta = self._work
        rhs_w = 2.0 * self.w - self._m_w
        np.multiply(self.eta, 2.0, out=rhs_eta)
        rhs_eta -= self._m_eta
        w = solver._solve_w(rhs_w, rhs_eta)
        eta = solver._solve_eta(rhs_eta, w[th], new_eta)
        m_w = solver._apply_w(w, eta)
        m_eta = solver._apply_eta(eta, w[th], new_m_eta, scratch=self._m_eta)
        rhs_sq = np.vdot(rhs_w, rhs_w) + np.vdot(rhs_eta, rhs_eta)
        res_w = m_w - rhs_w
        res_eta = np.subtract(m_eta, rhs_eta, out=rhs_eta)
        _check_residual(np.vdot(res_w, res_w) + np.vdot(res_eta, res_eta), rhs_sq)
        self._work = [rhs_eta, self.eta, self._m_eta]
        self.w, self.eta, self._m_w, self._m_eta = w, eta, m_w, m_eta
        self.t += self.runner.cfg.dt

    def to_state(self) -> State:
        nx = self.assembly.Nx
        return State(t=self.t, u=self.w[:nx].copy(), v=self.w[nx:2 * nx].copy(),
                     theta=self.w[2 * nx:].copy(), eta=self.eta.copy(), assembly=self.assembly)


class _SplitRunner:
    """Semi-Lagrangian history shift + implicit midpoint mechanical block:
    the cached LU factorization of the block's implicit matrix and every
    fixed coefficient of a step.

    The memory flux is evaluated at the average of the pre- and post-shift
    histories, m_mid = y + (mu0w dt / 4) (theta^n + theta^{n+1}), with
    y = (m(eta^n) + m_shift) / 2 known before the solve (see _SplitRun).
    The theta^{n+1} share sits in M; the rest of the right-hand side
    P w + dt [theta] lap m_mid is one operator R applied to [w; y],

        R = [P + (mu0w dt^2 / 4) [theta theta] lap | dt [theta] lap],

    with P = I + (dt/2) B.

    A run's per-mode sums are linear in the rows of
    x = [sigma_1 .. sigma_m, e_1, e_2, C] (see _SplitRun), so each is one
    fixed row of coefficients: mode_map gives, in this order, y, a zero
    row (q, filled after the solve), S_1 .. S_m, eta_Ns, eta_Ns-1 and
    sigma_1 .. sigma_m after the step; moment and shifted_moment give
    m(eta^n) and m_shift.
    """

    def __init__(self, assembly: GeneratorAssembly, cfg: SchemeConfig):
        mg = assembly.memory_grid
        if abs(mg.ds - cfg.dt) > 1e-12 * max(mg.ds, cfg.dt):
            raise InconsistentGrid(
                f"split_semilagrangian needs ds == dt (ds = {mg.ds:g}, dt = {cfg.dt:g})")
        self.memory_grid = mg
        self.cfg = cfg
        self.nx = nx = assembly.Nx
        dt, B, lap = cfg.dt, assembly.mechanical_block, assembly.ops.lap
        wmu = mg.weights * mg.mu
        mu0w = float(np.sum(wmu))
        self.M, self.lu = _mechanical_lu(B, lap, dt / 2.0, mu0w)
        P = (sp.identity(3 * nx, format="csr") + (dt / 2.0) * B).tolil()
        P[2 * nx:, 2 * nx:] = P[2 * nx:, 2 * nx:] + (mu0w * dt * dt / 4.0) * lap
        flux = sp.vstack([sp.csr_matrix((2 * nx, nx)), dt * lap])
        # R reads [w; y] from rows that hold a zero (the Dirichlet value)
        # at both ends, and skips those entries
        inner = sp.hstack([sp.csr_matrix((nx, 1)), sp.identity(nx), sp.csr_matrix((nx, 1))])
        self.R = (sp.hstack([P.tocsr(), flux]) @ sp.kron(sp.identity(4), inner)).tocsr()

        kern, ns = mg.kernel, mg.Ns
        self.prony = kern.form == "prony"
        if self.prony:
            mode_mu = kern.amplitudes[None, :] * np.exp(
                -np.multiply.outer(mg.s_nodes, kern.rates))      # (Ns, modes)
        else:
            mode_mu = mg.mu[:, None]
            # weight of logical zeta_k in the shifted sum: w_{k+1} mu_{k+1},
            # and 0 for k = Ns
            self.wshift = np.append(wmu[1:], 0.0)
            # hankel[j, t] = wshift[j + t], 0 past Ns: the weight of the
            # block-start column zeta_{j+1} in the shifted sum t steps later
            block = min(SHIFT_BLOCK, ns)
            self.hankel = np.lib.stride_tricks.sliding_window_view(
                np.append(self.wshift, np.zeros(block - 1)), block).copy()
            self.wmup = mg.weights * mg.muprime
            self.mu0w, self.mup0w = mu0w, float(np.sum(self.wmup))
        self.wmode = mg.weights[:, None] * mode_mu                # W, (Ns, modes)
        self.modes = m = mode_mu.shape[1]

        shift = np.zeros((m, m + 3))                              # shift @ x = sig'
        if self.prony:
            self.mode_decay = np.exp(-kern.rates * mg.ds)
            shift[:, :m] = np.diag(self.mode_decay)
            shift[:, m] = -0.5 * mg.ds * self.mode_decay * mode_mu[ns - 1]
            if ns > 1:
                shift[:, m + 1] = -0.5 * mg.ds * self.mode_decay * mode_mu[ns - 2]
        else:
            shift[0, m] = 1.0
        e_c = np.zeros(m + 3)
        e_c[m + 2] = 1.0
        ends = np.zeros((2, m + 3))
        ends[0, m] = ends[1, m + 1] = 1.0
        self.moment = np.concatenate([np.ones(m), [0.0, 0.0, mu0w]])
        self.shifted_moment = shift.sum(axis=0) + (mu0w - wmu[0]) * e_c
        self.mode_map = np.vstack([0.5 * (self.moment + self.shifted_moment), np.zeros(m + 3),
                                   shift + np.outer(self.wmode[1:].sum(axis=0), e_c),
                                   ends + e_c,
                                   shift - np.outer(mg.weights[0] * mode_mu[0], e_c)])
        if self.prony:
            # Q^{n+1} = exp(-r ds) Q^n + gram.ravel() @ gram_map, with gram
            # the Gram matrix of the undivided D+ of the rows q, S_j, eta_Ns,
            # eta_Ns-1: the ||D+ q||^2, <D+ S_j, D+ q> and end-node terms
            gram_map = np.zeros((m + 3, m + 3, m))
            gram_map[0, 0] = self.wmode.sum(axis=0)
            gram_map[0, 1:m + 1] = 2.0 * np.eye(m)
            gram_map[m + 1, m + 1] = shift[:, m]
            gram_map[m + 2, m + 2] = shift[:, m + 1]
            self.gram_map = gram_map.reshape(-1, m) / assembly.grid.h ** 2

    def run(self, state: State) -> "_SplitRun":
        return _SplitRun(self, state)


class _SplitRun:
    """Mutable trajectory state for the split scheme (ring-buffer history).

    The exact characteristic update is eta^{n+1}_k = eta^n_{k-1} + q with
    q = dt * (theta^n + theta^{n+1}) / 2.  Storing zeta_k = eta_k - C with
    the accumulator C^{n+1} = C^n + q turns it into a pure ring shift with
    new inflow column zeta_1 = -C^n.

    The run keeps sigma_j = sum_k W_kj zeta_k per kernel mode j, with
    W_kj = w_k mu_j(s_k); a tabulated kernel is one mode.  With the
    shifted sums sig'_j = sum_{k>=2} W_kj zeta_{k-1},

        m(eta^n)      = sum_j sigma_j + mu0w C,
        m_shift       = sum_j sig'_j + (mu0w - w_1 mu_1) C,
        sigma_j^{n+1} = sig'_j - w_1 mu_j(s_1) C.

    For a Prony kernel, mu_j(s) = a_j exp(-r_j s), so W_{k+1,j} =
    exp(-r_j ds) W_kj except at the half-weight end node, and
    sig'_j = exp(-r_j ds) (sigma_j - ds/2 (mu_j(s_Ns) zeta_Ns
    + mu_j(s_Ns-1) zeta_Ns-1)).  A table kernel takes sig' = sum_k wshift_k
    zeta_k (wshift_k = w_{k+1} mu_{k+1}) in blocks of B = min(SHIFT_BLOCK,
    Ns) steps: t shifts into a block, zeta_k for k > t is the block-start
    zeta_{k-t}, so the block start's share of all B sums is one product of
    the ring with the runner's (Ns, B) Hankel weights, and each step adds
    the t < B newest columns.  For a Prony kernel the run also keeps
    Q_j = sum_k W_kj ||D+ eta_k||^2:

        Q_j^{n+1} = exp(-r_j ds) (Q_j - end-node terms)
                    + 2 <D+ S_j, D+ q> + (sum_k W_kj) ||D+ q||^2,

    with S_j = sig'_j + (sum_{k>=2} W_kj) C = sum_{k>=2} W_kj eta^n_{k-1}.

    All of these are linear in the rows of x = [sigma_1 .. sigma_m, e_1,
    e_2, C], where e_1, e_2 are zeta_Ns, zeta_Ns-1 (Prony) or e_1 = sig'
    (table), so one product with the runner's mode_map gives them.  A step
    is that product, R [w; y], the LU solve, the residual M w and O(Nx m)
    updates in preallocated rows.  Every _REFRESH_STEPS steps sigma and Q
    are recomputed from the ring; max_drift keeps the largest relative
    change a recomputation made.  history_sums gives every history sum of
    a diagnostics record in O(Nx m).

    A table-kernel run keeps instead the ring of column norms
    n_k = ||D+ zeta_k||^2, set once and then one O(Nx) entry per step.
    Each entry is computed from its stored column, so nothing drifts.  Its
    history_sums take sum_k W_k ||D+ eta_k||^2 from n, sigma and C, and
    the wmu' sums from one product of the ring with the weights.  These
    terms cancel as the history decays against C; when they exceed the sum
    by _RECENTER_RATIO the run stores eta itself (zeta += C, C = 0) and
    recomputes n.
    """

    def __init__(self, runner: _SplitRunner, state: State):
        _check_history_shape(state)
        asm = state.assembly
        self.runner = runner
        self.assembly = asm
        self.t = state.t
        self.prony = runner.prony
        m = runner.modes
        # Each row holds an x-profile with a zero at both ends, so D+ of a
        # row is one difference of neighbours.  _rows: u, v, theta, then
        # what mode_map makes; _x: the x of the class docstring.
        self._rows = np.zeros((2 * m + 7, asm.Nx + 2))
        self._rows[:3, 1:-1] = state.u, state.v, state.theta
        self._wy = self._rows[:4].reshape(-1)          # [w; y], a view
        self._x = np.zeros((m + 3, asm.Nx + 2))
        self.zeta = state.eta.copy()          # ring storage, start head = 0
        self.head = 0                         # storage column of s-index 1
        self._x[:m, 1:-1] = (self.zeta @ runner.wmode).T
        norms = grad_sq_norms(self.zeta, asm.grid.h)
        if self.prony:
            self._diff = np.empty((m + 3, asm.Nx + 1))
            self.quad_modes = norms @ runner.wmode
            self._since_refresh = 0
            self.max_drift = 0.0
        else:
            self._norms = norms               # ||D+ zeta_k||^2, in ring storage
            self._block_shifts = runner.hankel.shape[1]     # start a block now
        self._load_ends()

    # the state: views of the step buffers
    u = property(lambda self: self._rows[0, 1:-1])
    v = property(lambda self: self._rows[1, 1:-1])
    theta = property(lambda self: self._rows[2, 1:-1])
    C = property(lambda self: self._x[-1, 1:-1])

    # -- history bookkeeping ------------------------------------------------

    def _logical_eta(self) -> np.ndarray:
        zeta = np.roll(self.zeta, -self.head, axis=1) if self.head else self.zeta.copy()
        return zeta + self.C[:, None]

    def _ring_product(self, a: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """sum_k weights_k a_k over the first len(weights) logical columns of
        a, an array kept in ring storage order along its last axis: at most
        two products over contiguous storage pieces."""
        n = len(weights)
        n1 = min(n, a.shape[-1] - self.head)
        out = a[..., self.head:self.head + n1] @ weights[:n1]
        if n1 < n:
            out += a[..., :n - n1] @ weights[n1:]
        return out

    def _load_ends(self):
        """e_1, e_2 of x for the current ring head."""
        ns, m = self.zeta.shape[1], self.runner.modes
        if self.prony:
            self._x[m, 1:-1] = self.zeta[:, (self.head - 1) % ns]
            self._x[m + 1, 1:-1] = self.zeta[:, (self.head - 2) % ns]
            return
        # e_1 = sig' in blocks (class docstring): the block-start columns'
        # share, taken for the whole block at its start, plus the t newest
        hankel = self.runner.hankel
        if self._block_shifts == hankel.shape[1]:
            self._block = self._ring_product(self.zeta, hankel)
            self._block_shifts = 0
        t = self._block_shifts
        e_1 = self._x[m, 1:-1]
        e_1[...] = self._block[:, t]
        if t:
            e_1 += self._ring_product(self.zeta, self.runner.wshift[:t])

    def refresh_mode_sums(self):
        """Recompute the Prony per-mode sums from the ring and record how far
        the running ones had drifted; a no-op right after a recomputation."""
        if self._since_refresh == 0:
            return
        sigma = self._x[:self.runner.modes, 1:-1]
        w = np.roll(self.runner.wmode, self.head, axis=0)    # storage order
        fresh = self.zeta @ w
        quad = grad_sq_norms(self.zeta + self.C[:, None], self.assembly.grid.h) @ w
        self.max_drift = max(self.max_drift, _rel_change(sigma.T, fresh),
                             _rel_change(self.quad_modes, quad))
        sigma[...], self.quad_modes = fresh.T, quad
        self._since_refresh = 0

    def _table_sum(self, weights: np.ndarray, total: float, sigma: np.ndarray):
        """sum_k weights_k ||D+ eta_k||^2 for a table kernel, from the ring of
        column norms: eta_k = zeta_k + C, so ||D+ eta_k||^2 = n_k
        + 2 <D+ zeta_k, D+ C> + ||D+ C||^2.  sigma is the row
        sum_k weights_k zeta_k with a zero at both ends and total is
        sum_k weights_k.  Returns the sum and the size of the norm terms it
        was taken from."""
        h2 = self.assembly.grid.h ** 2
        d_c = np.diff(self._x[-1])
        norm_part = float(self._ring_product(self._norms, weights))
        c_part = total * float(d_c @ d_c) / h2
        value = norm_part + 2.0 * float(d_c @ np.diff(sigma)) / h2 + c_part
        return value, abs(norm_part) + abs(c_part)

    def _recenter(self):
        """Store eta itself in the ring (C = 0) and start a new shift block:
        one O(Nx Ns) pass that leaves the history unchanged."""
        self.zeta += self.C[:, None]
        self._x[-1] = 0.0
        self._x[0, 1:-1] = self._ring_product(self.zeta, self.runner.wmode[:, 0])
        self._norms = grad_sq_norms(self.zeta, self.assembly.grid.h)
        self._block_shifts = self.runner.hankel.shape[1]
        self._load_ends()

    def history_sums(self) -> HistorySums:
        """Every history sum of the current state without a gradient pass
        over the history: O(Nx * modes) from the per-mode sums of a Prony
        kernel; for a table kernel, from the ring of column norms and one
        product of the ring with the wmu' weights."""
        run, x = self.runner, self._x
        if self.prony:
            hist_mu = float(np.sum(self.quad_modes))
            hist_mup = -float(self.quad_modes @ run.memory_grid.kernel.rates)
        else:
            # sum_k w_k mu_k zeta_k is the sigma row of x
            hist_mu, terms = self._table_sum(run.wmode[:, 0], run.mu0w, x[0])
            if terms > _RECENTER_RATIO * abs(hist_mu):
                self._recenter()
                hist_mu = self._table_sum(run.wmode[:, 0], run.mu0w, x[0])[0]
            sigma_p = np.zeros(run.nx + 2)
            sigma_p[1:-1] = self._ring_product(self.zeta, run.wmup)
            hist_mup = self._table_sum(run.wmup, run.mup0w, sigma_p)[0]
        return HistorySums(hist_mu=hist_mu, hist_mup=hist_mup,
                           moment=(run.moment @ x)[1:-1],
                           shifted_moment=(run.shifted_moment @ x)[1:-1])

    # -- stepping -----------------------------------------------------------

    def advance(self):
        run, rows, x, m = self.runner, self._rows, self._x, self.runner.modes
        nx, dt = run.nx, run.cfg.dt
        np.matmul(run.mode_map, x, out=rows[3:])
        rhs = run.R @ self._wy
        w_new = run.lu.solve(rhs)
        res = run.M @ w_new
        res -= rhs
        _check_residual(res @ res, rhs @ rhs)

        q = rows[4, 1:-1]
        np.add(rows[2, 1:-1], w_new[2 * nx:], out=q)
        q *= 0.5 * dt
        rows[:3, 1:-1] = w_new.reshape(3, nx)
        if self.prony:
            d = np.subtract(rows[4:m + 7, 1:], rows[4:m + 7, :-1], out=self._diff)
            self.quad_modes = self.quad_modes * run.mode_decay + (d @ d.T).ravel() @ run.gram_map
        self.head = (self.head - 1) % self.zeta.shape[1]
        self.zeta[:, self.head] = -x[m + 2, 1:-1]            # zeta_1 = -C^n
        if not self.prony:
            d_c = np.diff(x[m + 2])
            self._norms[self.head] = float(d_c @ d_c) / self.assembly.grid.h ** 2
            self._block_shifts += 1
        x[m + 2] += rows[4]
        x[:m] = rows[m + 7:]
        self._load_ends()
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

    Records are always taken at t = 0 and t = T.  More than MAX_STEPS
    steps raise ParamOutOfRange before the first one.  A split run is
    sampled from its own history sums, so sampling builds no State;
    midpoint runs are sampled from their materialized state.  dE_numeric
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
    if not T / cfg.dt <= MAX_STEPS:
        raise ParamOutOfRange(
            "T", f"T / dt = {T / cfg.dt:.3g} steps exceeds the limit of {MAX_STEPS}")
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
        running = isinstance(run, _SplitRun)
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
        if running and run.prony:
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


def oracle_evolve(assembly: GeneratorAssembly, phi0: np.ndarray, t: float) -> np.ndarray:
    """Reference solution exp(t A_h) phi0 for desk-scale assemblies.

    One dense scipy.linalg.expm (scaling and squaring with a Pade
    approximant).  It needs no eigenbasis, which for A_h is badly
    conditioned: the upwind history block is one Jordan block at -1/ds
    per x node.  Only intended for tests and oracle-check.
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
    return sla.expm(t * assembly.generator_matrix.toarray()) @ phi0
