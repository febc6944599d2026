"""Time integration: implicit midpoint, semi-Lagrangian splitting, oracle.

Two schemes advance the discrete state:

full_implicit_midpoint
    Cayley step (I - dt/2 A_h) Phi^{n+1} = (I + dt/2 A_h) Phi^n on the
    monolithic generator.  An exact H-contraction for the dissipative
    assembly at any dt.  The upwind history block of I - dt/2 A_h is a
    first-order recurrence in s, which SchurSolver eliminates exactly, so
    only a 3Nx matrix is factorized.  The history update of a step is one
    fixed causal convolution along s, so the run advances the history a
    block of up to 32 steps at a time on the rfft of a zero-padded s-grid:
    a step reads the one history sum it needs from O(Nx k) numbers, and
    the spectrum is formed once a block.

split_semilagrangian
    Requires ds == dt.  The history transport eta_t + eta_s = theta is
    integrated exactly along characteristics (shift by one s-node plus the
    trapezoid integral of theta over the step on every surviving column,
    which is also the new inflow column), while the (u, v, theta) block
    takes an implicit midpoint step with the memory flux evaluated at the
    average of the pre- and post-step histories.  The history is stored in
    a ring buffer with a running characteristic accumulator.

Cost of one step and of one diagnostics sample (medians of repeated
calls at Nx = 64, dt = 1e-3 on a 2-core x86 machine; a sample is taken
in the stepping loop and evaluated with 63 others in one pass):

    scheme / kernel        step                         sample
    split, Prony (m modes) O(Nx m) + the banded 3Nx     one O(Ns) pass over the
                           solve and its residual,      ring and O(Nx m),
                           ~0.05 ms, Ns = 18422         ~0.08 ms
    split, table           one O(Nx Ns B) GEMM every    one O(Nx Ns) product
                           B = 16 steps + the banded    and one O(Ns) pass over
                           3Nx solve and its residual,  the ring, ~0.35 ms
                           ~0.13 ms, Ns = 15612
    midpoint               an O(Nx k) history sum and   the spectrum formed
                           the banded 3Nx solve; once   from the block, one
                           a block of k = 32 steps, one irfft of it and
                           elementwise product and two  O(Nx Ns), ~23 ms
                           products with (k, P + 2)     (1.2 ms at Nx = 32,
                           tables on the (Nx, P/2 + 1)  Ns = 1843)
                           spectrum; an irfft/rfft
                           pair every K steps;
                           ~0.4 ms, Ns = 18422
                           (P = 20000, K = 1184;
                           0.11 ms at Nx = 32,
                           Ns = 1843)

What a simulate call holds at its peak on top of the caller's state, in
(Nx, Ns) float64 histories (tracemalloc, same sizes):

    split, Prony           its ring, which the final state takes over, and
                           blocks of columns: 1.2
    split, table           the ring and the (Ns, 16) Hankel weights: 1.6
    midpoint               two spectra, the block tables and a
                           re-projection's histories and residual: 8.0

Each scheme's run is one class, _MidpointRun or _SplitRun, built from a
State and a SchemeConfig by _start: it builds and checks the scheme's
fixed coefficients (the LU, the Fourier tables) and then holds the
trajectory.  simulate starts one run a call and keeps none of it.

Every implicit step solves with the one banded LU of its 3Nx mechanical
block (splu, _BandedLU), taken node by node so that its bandwidth is 7
below and 5 above the diagonal at any Nx.

A split run takes its samples from a ring of history column norms and
re-reads the whole ring (one O(Nx Ns) pass) only when it re-centres and
once after its last step, where it reports the drift of its running sums.
Its final state takes over the ring (_SplitRun.final_state).  A midpoint
run, sampled from its history in place, materializes it every K steps (a
whole number of blocks) and once after its last step, where it checks the
history rows of the step and reports the drift of its carried wmu . eta.

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
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgbtrf, dgbtrs, dtbtrs

from . import analysis
from .analysis import HistorySums, grad_sq_norms
from .discretization import DENSE_MAX_DIM, SHIFT_BLOCK, GeneratorAssembly, check_history_fits
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

# Most diagnostics records one simulate call keeps (about 0.6 KB each); a
# run that would keep more is refused before the first step.
MAX_RECORDS = MAX_STEPS // 10 + 1

# Samples simulate evaluates in one vectorized pass of the functionals
# (analysis.diagnostics_records), so the pending samples stay a few
# (Nx, 64) arrays at any run length.
_SAMPLE_CHUNK = 64

# A split run stores its history as zeta = eta - C and takes
# sum_k w_k ||D+ eta_k||^2 from the ||D+ zeta_k||^2 and the C terms, which
# cancel as the history decays against C.  Once those terms exceed the
# wmu or the wmu' sum by this factor the run stores eta itself (C = 0), so
# the sums keep about 15 digits.  The check is made when the sums are read.
_RECENTER_RATIO = 10

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


def _sq_norm(x: np.ndarray) -> float:
    """The squared 2-norm of a 2-d array by numpy's own loop: OpenBLAS
    threads a dot product of a padded history's length, and on a 2-core
    x86 one in ten np.linalg.norm calls on a (32, 2250) history took 8 ms
    against 30 us for this loop."""
    return float(np.einsum("ij,ij->", x, x))


def _worst_drift(worst: float, running: np.ndarray, fresh: np.ndarray) -> float:
    """The larger of worst and the drift of running sums from fresh ones:
    the largest difference over the largest fresh sum (the difference
    itself when every fresh sum is 0).  A NaN is kept, so it fails the
    drift check."""
    scale = float(np.max(np.abs(fresh)))
    diff = float(np.max(np.abs(running - fresh)))
    return float(np.maximum(worst, diff / scale if scale > 0 else diff))


def _check_history_shape(state: State):
    asm = state.assembly
    if state.eta.shape != (asm.Nx, asm.Ns):
        raise DimensionMismatch(
            f"state eta has shape {state.eta.shape}, expected {(asm.Nx, asm.Ns)}")


class _BandedLU:
    """One LAPACK banded LU (dgbtrf) of a 3Nx (u, v, theta) block matrix,
    with SuperLU's solve(b, trans) in the block order of the matrix.

    Taken node by node, (u_i, v_i, theta_i), the mechanical block is
    banded: the biharmonic reaches two nodes, so kl = 7 rows below and
    ku = 5 above the diagonal (read off the sparsity pattern).  A zero
    pivot raises LinearSolveFailure.  order maps node order to block
    order.  Both solves run dgbtrs in node order.
    solve permutes b into node order and x back, and checks nothing (a
    resolvent solve at tau = 1 is too ill-conditioned for a fixed residual
    bound).  solve_checked, for a time step, stays in node order and
    raises LinearSolveFailure unless the residual M x - b, formed with
    dgbmv from a copy of the band taken before the factorization, is
    within _LINEAR_SOLVER_TOL of b (a NaN fails).  scipy's dgbmv wrapper
    asks for at least kl + ku + 1 rows, so the product runs over
    max(3Nx, kl + ku + 1) rows: those past 3Nx read the zero corner of the
    band and the zero tail of the work vector b is copied into.
    """

    def __init__(self, matrix: sp.spmatrix):
        self.n = n = matrix.shape[0]
        self.order = np.arange(n).reshape(3, -1).T.ravel()
        nodes = matrix.tocsr()[self.order][:, self.order].tocoo()
        offsets = nodes.col - nodes.row
        self.kl = kl = int(max(0, -offsets.min(initial=0)))
        self.ku = ku = int(max(0, offsets.max(initial=0)))
        # dgbtrf's layout: M[i, j] at row kl + ku + i - j, with kl rows of
        # fill above; dgbmv reads the last kl + ku + 1 rows
        band = np.zeros((2 * kl + ku + 1, n), order="F")
        band[kl + ku + nodes.row - nodes.col, nodes.col] = nodes.data
        self._band = band[kl:].copy(order="F")
        self._lu, self._piv, info = dgbtrf(band, kl, ku, overwrite_ab=1)
        if info > 0:
            raise LinearSolveFailure("mechanical block of the implicit step: "
                                     f"Factor is exactly singular: U({info}, {info}) = 0")
        self._rows = max(n, kl + ku + 1)
        self._work = np.zeros(self._rows)

    def _solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """dgbtrs on b in node order, copied into the work vector; x has
        the work vector's length, with its zero tail."""
        self._work[:self.n] = b
        x, info = dgbtrs(self._lu, self.kl, self.ku, self._work, self._piv,
                         trans=int(trans == "T"))
        if info != 0:
            raise LinearSolveFailure(f"banded mechanical solve: LAPACK dgbtrs info = {info}")
        return x

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        out = np.empty(self.n)
        out[self.order] = self._solve(b[self.order], trans)[:self.n]
        return out

    def solve_checked(self, b: np.ndarray) -> np.ndarray:
        x, rhs = self._solve(b), self._work
        res = dgbmv(self._rows, self.n, self.kl, self.ku, 1.0, self._band, x, beta=-1.0, y=rhs)
        _check_residual(res @ res, rhs @ rhs)
        return x[:self.n]


def splu(matrix: sp.spmatrix) -> _BandedLU:
    """The LU of a 3Nx mechanical block M (_BandedLU): the one place that
    block is factorized.  It keeps the name of scipy's splu, which it
    replaced, and its solve(b, trans); a singular M raises
    LinearSolveFailure."""
    return _BandedLU(matrix)


def _mechanical_lu(B: sp.spmatrix, lap: sp.spmatrix, tau: float, gain: float):
    """M = I - tau B - tau^2 gain [theta theta] lap and its LU: the 3Nx
    block left of an implicit step once the history is eliminated.  A
    singular M raises LinearSolveFailure."""
    nx = lap.shape[0]
    M = (sp.identity(3 * nx, format="csc") - tau * B).tolil()
    M[2 * nx:, 2 * nx:] = M[2 * nx:, 2 * nx:] - (tau * tau * gain) * lap
    M = M.tocsc()
    return M, splu(M)


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
    through wmu . L^{-1} r_eta = g . r_eta and tau kappa theta with
    kappa = g . 1, which leaves the Schur complement

        I - tau B - tau^2 kappa [theta theta] lap,

    nonsingular exactly when I - tau A_h is.  Once w is known, the history
    is eta = L^{-1} (r_eta + tau theta 1^T).  The transposed solve uses
    the same LU and L^T, a recurrence run from s_Ns down.  solve and
    solve_transposed take inputs of any layout, leave them untouched and
    return new arrays.  resolvent_check solves through this class; the
    midpoint run takes its LU, kappa, apply_w and apply_eta, and checks its
    history step against the banded solve.
    """

    def __init__(self, assembly: GeneratorAssembly, tau: float):
        mg = assembly.memory_grid
        self.nx, self.ns = assembly.Nx, assembly.Ns
        self.tau = tau
        self.q = tau / mg.ds
        self.c = 1.0 / (1.0 + self.q)
        self.wmu = mg.wmu
        self.B = assembly.mechanical_block
        self.lap = assembly.ops.lap
        # L / (1 + q) in LAPACK's lower band storage: the unit diagonal
        # (not read with diag="U") over the subdiagonal
        self._band = np.asfortranarray([np.ones(self.ns),
                                        np.full(self.ns, -self.q / (1.0 + self.q))])
        self.g = self._recurrence(self.c * self.wmu[None, :], transposed=True)[0]
        self.kappa = float(np.sum(self.g))
        _, self.lu = _mechanical_lu(self.B, self.lap, tau, self.kappa)

    def _recurrence(self, z: np.ndarray, transposed: bool = False) -> np.ndarray:
        """L^{-1} (1 + q) z along s, or L^{-T} (1 + q) z, written over the
        (Nx, Ns) array z when it is C-ordered (LAPACK copies any other
        layout, so callers use the returned array)."""
        y, info = dtbtrs(self._band, z.T, uplo="L", trans="T" if transposed else "N",
                         diag="U", overwrite_b=1)
        if info != 0:
            raise LinearSolveFailure(f"banded history solve: LAPACK dtbtrs info = {info}")
        return y.T

    def apply_eta(self, theta: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """The history rows L eta - tau theta 1 of (I - tau A_h)(w, eta)."""
        out = (1.0 + self.q) * eta - self.tau * theta[:, None]
        out[:, 1:] -= self.q * eta[:, :-1]
        return out

    def apply_w(self, w: np.ndarray, m: np.ndarray) -> np.ndarray:
        """The (u, v, theta) rows of (I - tau A_h)(w, eta), given the one
        history sum they read, m = wmu . eta."""
        out = w - self.tau * (self.B @ w)
        out[2 * self.nx:] -= self.tau * (self.lap @ m)
        return out

    def solve(self, r_w: np.ndarray, r_eta: np.ndarray):
        th = slice(2 * self.nx, None)
        rhs = r_w.copy()
        rhs[th] += self.tau * (self.lap @ (r_eta @ self.g))
        w = self.lu.solve(rhs)
        return w, self._recurrence(self.c * (r_eta + self.tau * w[th, None]))

    def solve_transposed(self, r_w: np.ndarray, r_eta: np.ndarray):
        th = slice(2 * self.nx, None)
        eta = self._recurrence(self.c * r_eta, transposed=True)
        rhs = r_w.copy()
        rhs[th] += self.tau * eta.sum(axis=1)
        w = self.lu.solve(rhs, trans="T")
        eta += self.tau * np.outer(self.lap.T @ w[th], self.g)
        return w, eta


# Relative size below which the history a midpoint run moves into the pad
# of its s-grid, and what the periodic grid carries round from the pad's
# end to s_1, are held between re-projections: far below rounding.
_PAD_TOL = 2.0 ** -60

# A re-projection (two spectra of the block, an irfft/rfft pair and two
# checks over the padded grid) costs about this many times log2 of the
# grid length the work a step does on the grid, counting a step's share of
# its block and of a sample every 10 steps (the rate of the shipped run
# files; the samples are most of it).  Measured with numpy's pocketfft on
# a 2-core x86: 2.4 at Nx = 32, P = 2250 and 2.9 at Nx = 64, P = 20000.
_REPROJECT_COST = 2.5

# Most steps in a midpoint run's history block (_MidpointRun): a step
# reads wmu . G eta from O(Nx k) sums and the spectrum is formed once a
# block.  Measured on a 2-core x86, a step took 0.30, 0.21 and 0.19 ms at
# Nx = 64, P = 19200 for k = 16, 32 and 64 (0.077, 0.070 and 0.069 ms at
# Nx = 32, P = 2160), and with a sample every 10 steps 32 was the fastest;
# the three (k, P + 2) tables grow as k.
_HISTORY_BLOCK = 32

# Most multiply-adds (M N K) of one matrix product over a midpoint run's
# padded grid.  OpenBLAS's default build keeps a product this small on one
# thread (65536 x GEMM_MULTITHREAD_THRESHOLD = 4); a threaded product of a
# few times this size took 0.2-7 ms on a 2-core x86 against 40-70 us on one
# thread.
_SERIAL_PRODUCT = 2 ** 18


def _fourier_grid(q: float, ns: int) -> tuple[int, int, int]:
    """(P, K, R): the length of the zero-padded s-grid of a midpoint run,
    the steps between its re-projections and the last nodes of the pad
    that a re-projection checks, for q = tau/ds and Ns nodes.

    A history step multiplies by G(z) = (1 - q + q z) / (1 + q - q z) (and
    adds a source through 1 / (1 + q - q z)): causal, a shift of 2q nodes
    that spreads.  By Cauchy's estimate on |z| = rho, 1 < rho < (1 + q)/q,
    what K steps move from a node to d or more nodes beyond it is at most

        M(rho)^K / ((1 + q - q rho) (1 - 1/rho)) rho^{-d},
        M(rho) = (|1 - q| + q rho) / (1 + q - q rho),

    which also bounds what the periodic grid carries round from its end.
    The pad P - Ns is the least d that holds this below _PAD_TOL over the
    rho tried, and R nodes more: the nodes from which one step carries
    more than _LINEAR_SOLVER_TOL round to s_1 (G decays as r^n,
    r = q/(1 + q)), whose content is then held below _PAD_TOL.  K, below
    _HISTORY_BLOCK or a whole number of such blocks, minimizes the cost per
    step, P (1 + _REPROJECT_COST log2 P / K); P is then rounded up to an
    even 5-smooth length, and K raised to the most steps that length holds.
    """
    reach = max(1, math.ceil(math.log(_LINEAR_SOLVER_TOL) / math.log(q / (1.0 + q))))
    rho = ((1.0 + q) / q) ** np.linspace(0.01, 0.99, 99)
    den = 1.0 + q - q * rho
    steps = np.concatenate([np.arange(1, _HISTORY_BLOCK),
                            _HISTORY_BLOCK * np.arange(1, 4096 // _HISTORY_BLOCK + 1)])
    sizes = ns + reach + np.ceil(
        np.min((steps[:, None] * np.log((abs(1.0 - q) + q * rho) / den)
                - np.log(_PAD_TOL * den * (1.0 - 1.0 / rho))) / np.log(rho), axis=1))
    best = np.argmin(sizes * (1.0 + _REPROJECT_COST * np.log2(sizes) / steps))
    size = _fft_size(int(sizes[best]))
    return size, int(steps[sizes <= size][-1]), reach


def _fft_size(n: int) -> int:
    """The least even 2^a 3^b 5^c >= n: a length pocketfft handles fast."""
    size = n + n % 2
    while True:
        m = size
        for f in (2, 3, 5):
            while m % f == 0:
                m //= f
        if m == 1:
            return size
        size += 2


class _MidpointRun:
    """Cayley stepper: the history-eliminating solver with tau = dt/2, and
    the history step as one convolution along s, taken a block of steps at
    a time.

    Every x node's history rows of M = I - tau A_h and P = 2I - M are the
    same lower-bidiagonal Toeplitz operators L and 2I - L (SchurSolver),
    so the history update of a step is

        eta' = G eta + beta l,  G = L^{-1} (2I - L),  l = L^{-1} 1,

    with beta = tau (theta + theta') per x node: causal in s, and on a
    zero-padded grid of P nodes (_fourier_grid) a product with the rfft
    symbol G^.  After i steps of a block that starts from the spectrum
    eta_0^ with sources beta_0, beta_1, ...,

        eta_i^ = G^i eta_0^ + sum_{j<i} beta_j G^{i-1-j} l^,

    and wmu . G eta_i, the only history sum the (u, v, theta) rows read, is

        a_i + sum_{j<i} beta_j c_{i-j},  c_d = wmu . G^d l,

    where a_i = wmu . G^{i+1} eta_0 is one Parseval product of eta_0^: with
    the (Re, Im) pairs of conj(G^(i+1)) rfft(wmu) times 2/P (1/P at the
    two real ends).  For blocks of k = min(_HISTORY_BLOCK, K) steps (so K
    is a whole number of blocks) the run tabulates the powers G^1 .. G^k
    (powers), the l-powers G^d l^ and c_d for d = k-1 down to 0
    (ell_powers and c, in the order a block's sources are summed in) and
    those Parseval weights as one real (P + 2, k) matrix (proj).
    c_0 = wmu . l is the solver's kappa.  Products over the padded grid
    are cut into column slices of at most _SERIAL_PRODUCT multiply-adds,
    so OpenBLAS keeps each on one thread.  The tables are checked when
    the run is built (_check_block).

    The run holds (u, v, theta) as one 3Nx vector w and the history as a
    block: the spectrum eta_0 at the block start on the padded s-grid,
    (Nx, P/2 + 1), its projections a, (Nx, k), and the block's sources
    beta, (k, Nx).  A step solves M Phi^{n+1} = P Phi^n.  It reads
    wmu . G eta from the block (O(Nx k)), solves the 3Nx Schur complement
    of SchurSolver for w' and keeps beta = tau (theta + theta') as the
    block's next source.  m = wmu . eta' is carried as
    wmu . G eta + kappa beta inside M w', the rows
    (I - tau B) w' - tau [theta] lap m, which give the next step's
    P w' = 2w' - M w'.  The (u, v, theta) rows of M Phi^{n+1} - P Phi^n are
    checked every step.  The spectrum is formed (_block_spectrum: one
    elementwise product and one product with the l-powers) only where it
    is needed: by the step after a full block, which starts the next block
    from it, by eta (a sample or to_state), and at a re-projection.

    G is causal, so what moves into the pad never reaches the first Ns
    nodes, and zeroing the pad gives the truncated scheme again.  Every
    K = period steps (a whole number of blocks), and once more after the
    last step, the run re-projects (finish): it forms the spectra after
    the last two steps, materializes them and checks, each against
    _LINEAR_SOLVER_TOL, the history rows of the last step's residual in
    s-space and that the pad's last reach nodes hold nothing of the
    history (else it would wrap round); it records in max_drift how far
    the next step's P w from the carried m is from P w with m = wmu . eta
    of the materialized history, relative to its largest entry as a
    residual is, zeroes the pad and starts a new block.  (The Parseval
    products round relative to the whole padded history, which outlasts
    wmu . eta: at Nx = 32, Ns = 1843, dt = 1e-2 m is off by 1e-8 of itself
    at t = 9, by 1e-16 of the history and by 1e-12 of P w.)  finish does
    nothing when no step was taken since the last re-projection.  A step
    that fails its residual check leaves t, w and the history as they
    were; after a failed step or re-projection the run is spent.
    """

    def __init__(self, state: State, cfg: SchemeConfig):
        self.cfg = cfg
        self.solver = s = SchurSolver(state.assembly, cfg.dt / 2.0)
        self.size, self.period, self.reach = _fourier_grid(s.q, s.ns)
        self.block = k = min(_HISTORY_BLOCK, self.period)
        # a run's (Nx, P + 2) history copies; here the three (k, P + 2)
        # tables, the symbols and _check_block's two-row histories
        check_history_fits(s.nx, self.size + 2, 3 * k + 16)
        z = np.exp(-2j * np.pi * np.arange(self.size // 2 + 1) / self.size)
        l_hat = (1.0 + s.q) - s.q * z
        self.powers = np.cumprod(np.broadcast_to((2.0 - l_hat) / l_hat, (k, len(z))), axis=0)
        self.ell_powers = np.empty_like(self.powers)
        self.ell_powers[-1] = np.fft.rfft(np.ones(s.ns), n=self.size) / l_hat
        np.multiply(self.powers[:k - 1][::-1], self.ell_powers[-1], out=self.ell_powers[:-1])
        w_hat = np.fft.rfft(s.wmu, n=self.size) * (2.0 / self.size)
        w_hat[[0, -1]] *= 0.5
        self.c = self.ell_powers.view(float) @ w_hat.view(float)
        self.proj = np.empty((self.size + 2, k))
        for i, power in enumerate(self.powers):
            self.proj[:, i] = (np.conj(power) * w_hat).view(float)
        self._check_block()

        _check_history_shape(state)
        self.assembly = state.assembly
        self.t = state.t
        self.w = np.concatenate([state.u, state.v, state.theta])
        self._m_w = s.apply_w(self.w, state.eta @ s.wmu)
        self._beta = np.empty((k, state.assembly.Nx))
        self._begin_block(np.fft.rfft(state.eta, n=self.size))
        self._work = np.empty_like(self._eta_0)        # a spectrum formed mid-block
        self._theta_prev = None           # theta before the last step
        self._steps = 0
        self.reprojections = 0
        self.max_drift = 0.0

    # -- the block tables ---------------------------------------------------

    def _slices(self, rows: int, depth: int) -> list:
        """Column slices of a (rows, P + 2) real spectrum over which a
        product with depth rows or columns of a table stays on one thread."""
        n = self.size + 2
        width = max(1, _SERIAL_PRODUCT // (rows * depth))
        return [slice(lo, min(lo + width, n)) for lo in range(0, n, width)]

    def _project(self, eta_hat: np.ndarray) -> np.ndarray:
        """a of a block that starts from the spectrum eta_hat: column i is
        wmu . G^{i+1} eta."""
        real = eta_hat.view(float)
        a = np.zeros((len(eta_hat), self.block))
        for cols in self._slices(len(eta_hat), self.block):
            a += real[:, cols] @ self.proj[cols]
        return a

    def _block_spectrum(self, eta_0: np.ndarray, beta: np.ndarray, i: int,
                        out: np.ndarray) -> np.ndarray:
        """eta_i^ of a block that starts from eta_0 with sources beta, for
        i >= 1, written into out (eta_0 itself is allowed)."""
        k, real = self.block, out.view(float)
        ells = self.ell_powers.view(float)
        np.multiply(eta_0, self.powers[i - 1], out=out)
        for cols in self._slices(len(eta_0), i):
            real[:, cols] += beta[:i].T @ ells[k - i:, cols]
        return out

    def _history_sum(self, a: np.ndarray, beta: np.ndarray, i: int) -> np.ndarray:
        """wmu . G eta_i of a block with projections a and sources beta."""
        k = self.block
        return a[:, i] + beta[:i].T @ self.c[k - 1 - i:k - 1]

    def _check_block(self):
        """k steps of a random history and random sources, through the
        tables and through the banded solve; LinearSolveFailure unless
        every step's wmu . G eta and history agree.  The first step checks
        the symbols of G and l."""
        s, size, k = self.solver, self.size, self.block
        rng = np.random.default_rng(0)
        eta, beta = rng.standard_normal((2, s.ns)), rng.standard_normal((k, 2))
        ell = s._recurrence(s.c * np.ones((1, s.ns)))[0]
        eta_0 = np.fft.rfft(eta, n=size)
        a = self._project(eta_0)
        sq = np.zeros(4)          # squared differences and references: sums, histories
        for i in range(k):
            g_eta = s._recurrence(s.c * (2.0 * eta - s.apply_eta(np.zeros(len(eta)), eta)))
            ref = g_eta @ s.wmu
            diff = self._history_sum(a, beta, i) - ref
            eta = g_eta + np.multiply.outer(beta[i], ell)
            got = np.fft.irfft(self._block_spectrum(eta_0, beta, i + 1, np.empty_like(eta_0)),
                               n=size)
            hist = got[:, :s.ns] - eta
            sq += [diff @ diff, ref @ ref, np.vdot(hist, hist), np.vdot(eta, eta)]
        _check_residual(sq[0], sq[1])
        _check_residual(sq[2], sq[3])

    # -- the trajectory -----------------------------------------------------

    def _begin_block(self, eta_hat: np.ndarray):
        """Start a block from the spectrum eta_hat, which the run then owns."""
        self._eta_0, self._a, self._i = eta_hat, self._project(eta_hat), 0

    def _spectrum(self, i: int) -> np.ndarray:
        """The spectrum after i steps of the block, in the run's work
        buffer (the block start itself for i = 0)."""
        if not i:
            return self._eta_0
        return self._block_spectrum(self._eta_0, self._beta, i, self._work)

    def advance(self):
        s = self.solver
        if self._i == self.block:
            self._begin_block(self._block_spectrum(self._eta_0, self._beta, self._i,
                                                   out=self._eta_0))
        th = slice(2 * s.nx, None)
        m_g = self._history_sum(self._a, self._beta, self._i)      # wmu . G eta
        rhs_w = 2.0 * self.w - self._m_w
        rhs = rhs_w.copy()
        rhs[th] += s.tau * (s.lap @ (m_g + s.tau * s.kappa * self.w[th]))
        w = s.lu.solve(rhs)
        beta = s.tau * (self.w[th] + w[th])
        m_w = s.apply_w(w, m_g + s.kappa * beta)            # wmu . eta' carried
        res = m_w - rhs_w
        _check_residual(res @ res, rhs_w @ rhs_w)
        self._beta[self._i] = beta
        self._i += 1
        self._theta_prev = self.w[th]
        self.w, self._m_w = w, m_w
        self._steps += 1
        self.t += self.cfg.dt
        if self._steps % self.period == 0:
            self.finish()

    def finish(self):
        """Re-project: check the last step taken in s-space, measure the
        drift of the carried wmu . eta, zero the pad and start a block.

        The history rows of the residual are M Phi' - P Phi = M Phi' +
        (M Phi - 2 Phi), one (Nx, Ns) buffer that takes the old history's
        share before the new history is formed; the new block's spectrum
        is written over the old one's."""
        if not self._i:
            return
        s, ns = self.solver, self.solver.ns
        old = np.fft.irfft(self._spectrum(self._i - 1), n=self.size)[:, :ns].copy()
        res = s.apply_eta(self._theta_prev, old)
        old *= 2.0
        res -= old               # M Phi - P Phi = -(P Phi), history rows
        del old                  # freed before the new history is formed
        rhs_sq = _sq_norm(res)
        new = np.fft.irfft(self._spectrum(self._i), n=self.size)
        tail, whole = math.sqrt(_sq_norm(new[:, -self.reach:])), math.sqrt(_sq_norm(new))
        if not tail <= _LINEAR_SOLVER_TOL * whole:
            raise LinearSolveFailure(
                f"history at the end of the padded s-grid: {tail:.3e} exceeds "
                f"{_LINEAR_SOLVER_TOL:.1e} x history {whole:.3e}")
        res += s.apply_eta(self.w[2 * s.nx:], new[:, :ns])
        _check_residual(_sq_norm(res), rhs_sq)
        p_w = 2.0 * self.w           # the next step's P w, carried and fresh
        self.max_drift = _worst_drift(self.max_drift, p_w - self._m_w,
                                      p_w - s.apply_w(self.w, new[:, :ns] @ s.wmu))
        new[:, ns:] = 0.0
        self._begin_block(np.fft.rfft(new, out=self._eta_0))
        self.reprojections += 1

    # the state: views of w and of the current history (one irfft an access)
    u = property(lambda self: self.w.reshape(3, -1)[0])
    v = property(lambda self: self.w.reshape(3, -1)[1])
    theta = property(lambda self: self.w.reshape(3, -1)[2])
    eta = property(lambda self: np.fft.irfft(self._spectrum(self._i), n=self.size)[
        :, :self.assembly.Ns])

    def to_state(self) -> State:
        return _snapshot(self, self.eta.copy())

    final_state = to_state          # the history is a new array either way


class _SplitRun:
    """Semi-Lagrangian history shift + implicit midpoint mechanical block,
    on a ring-buffer history.

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
    the ring with the (Ns, B) Hankel weights (hankel), and each step adds
    the t < B newest columns.

    All of these are linear in the rows of x = [sigma_1 .. sigma_m, e_1,
    e_2, C], where e_1, e_2 are zeta_Ns, zeta_Ns-1 (Prony) or e_1 = sig'
    (table), so each is one fixed row of coefficients: mode_map gives y
    and sigma_1 .. sigma_m after the step; moment and upwind give m(eta^n)
    and (m(eta^n) - m_shift)/ds.

    The memory flux is evaluated at the average of the pre- and post-shift
    histories, m_mid = y + (mu0w dt / 4) (theta^n + theta^{n+1}), with
    y = (m(eta^n) + m_shift) / 2 known before the solve.  The theta^{n+1}
    share sits in the block M, factorized once (lu); the rest of the
    right-hand side P w + dt [theta] lap m_mid, with P = I + (dt/2) B, is
    one operator R applied to [w; y],

        R = [P + (mu0w dt^2 / 4) [theta theta] lap | dt [theta] lap]
          = [2I - M | dt [theta] lap].

    R's rows are in the node order of the banded LU (lu.order), so a
    step's right-hand side, solve and residual check (lu.solve_checked)
    make no permutation; M stays the sparse block in block order.  A step
    is one product with mode_map, R [w; y], the banded solve with its
    residual check and O(Nx m) updates in preallocated rows.

    The run also keeps the ring of column norms n_k = ||D+ zeta_k||^2, set
    once and then one O(Nx) entry per step.  Each entry is computed from
    its stored column, so nothing drifts.  history_sums read m(eta) and the
    upwind moment off x, and take sum_k w_k mu_k ||D+ eta_k||^2 from n,
    sum_j sigma_j and C, and the wmu' sum likewise from sum_k w_k mu'_k zeta_k:
    -sum_j r_j sigma_j for a Prony kernel (w_k mu'_k = -sum_j r_j W_kj), one
    product of the ring with wmu' for a table kernel.  The rows of wmus,
    the wmu and wmu' weights each written twice over (so the weights of
    any rotation of the ring are one slice), and their totals weigh these
    sums.  These terms cancel as the history decays against C; when they
    exceed either sum by _RECENTER_RATIO the run stores eta itself
    (_recenter).  Each re-centring, and simulate once after the last step,
    compares sigma with the ring and keeps in max_drift the largest
    relative difference.

    Every pass over the ring reads it in place or in blocks of columns,
    so the run holds no other history.  to_state is a snapshot that copies
    the ring; final_state, which simulate takes, turns the ring itself
    into the final history and spends the run.
    """

    def __init__(self, state: State, cfg: SchemeConfig):
        asm = state.assembly
        mg = asm.memory_grid
        if abs(mg.ds - cfg.dt) > 1e-12 * max(mg.ds, cfg.dt):
            raise InconsistentGrid(
                f"split_semilagrangian needs ds == dt (ds = {mg.ds:g}, dt = {cfg.dt:g})")
        self.cfg = cfg
        self.nx = nx = asm.Nx
        self.h2 = asm.grid.h ** 2
        dt, B, lap = cfg.dt, asm.mechanical_block, asm.ops.lap
        wmu = mg.wmu
        mu0w = float(np.sum(wmu))
        self.totals = np.array([mu0w, float(np.sum(mg.wmup))])
        self.wmus = np.tile([wmu, mg.wmup], 2)
        self.M, self.lu = _mechanical_lu(B, lap, dt / 2.0, mu0w)
        flux = sp.vstack([sp.csr_matrix((2 * nx, nx)), dt * lap])
        # R reads [w; y] from rows that hold a zero (the Dirichlet value)
        # at both ends, and skips those entries; its rows are in the node
        # order of the banded solve
        inner = sp.hstack([sp.csr_matrix((nx, 1)), sp.identity(nx), sp.csr_matrix((nx, 1))])
        self.R = (sp.hstack([2.0 * sp.identity(3 * nx) - self.M, flux])
                  @ sp.kron(sp.identity(4), inner)).tocsr()[self.lu.order]

        kern, ns = mg.kernel, mg.Ns
        self.prony = kern.form == "prony"
        if self.prony:
            self.rates = kern.rates
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
        self.wmode = mg.weights[:, None] * mode_mu                # W, (Ns, modes)
        self.modes = m = mode_mu.shape[1]

        shift = np.zeros((m, m + 3))                              # shift @ x = sig'
        if self.prony:
            decay = np.exp(-kern.rates * mg.ds)
            shift[:, :m] = np.diag(decay)
            shift[:, m] = -0.5 * mg.ds * decay * mode_mu[ns - 1]
            if ns > 1:
                shift[:, m + 1] = -0.5 * mg.ds * decay * mode_mu[ns - 2]
        else:
            shift[0, m] = 1.0
        e_c = np.zeros(m + 3)
        e_c[m + 2] = 1.0
        self.moment = np.concatenate([np.ones(m), [0.0, 0.0, mu0w]])
        shifted = shift.sum(axis=0) + (mu0w - wmu[0]) * e_c
        self.upwind = (self.moment - shifted) / mg.ds
        self.mode_map = np.vstack([0.5 * (self.moment + shifted),
                                   shift - np.outer(mg.weights[0] * mode_mu[0], e_c)])

        _check_history_shape(state)
        self.assembly = asm
        self.t = state.t
        # Each row holds an x-profile with a zero at both ends, so D+ of a
        # row is one difference of neighbours.  _rows: u, v, theta, then
        # what mode_map makes; _x: the x of the class docstring.
        self._rows = np.zeros((m + 4, nx + 2))
        self._rows[:3, 1:-1] = state.u, state.v, state.theta
        self._wy = self._rows[:4].reshape(-1)          # [w; y], a view
        self._x = np.zeros((m + 3, nx + 2))
        self.zeta = state.eta.copy()          # ring storage, start head = 0
        self.head = 0                         # storage column of s-index 1
        self.max_drift = 0.0
        self._from_ring()

    # the state: views of the step buffers
    u = property(lambda self: self._rows[0, 1:-1])
    v = property(lambda self: self._rows[1, 1:-1])
    theta = property(lambda self: self._rows[2, 1:-1])
    C = property(lambda self: self._x[-1, 1:-1])

    # -- history bookkeeping ------------------------------------------------

    def _logical_eta(self) -> np.ndarray:
        """A new array of the history in s-order: the ring's two storage
        pieces copied into place, then C added in place."""
        zeta, tail = self.zeta, self.zeta.shape[1] - self.head
        eta = np.empty_like(zeta)
        eta[:, :tail] = zeta[:, self.head:]
        eta[:, tail:] = zeta[:, :self.head]
        eta += self.C[:, None]
        return eta

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
        ns, m = self.zeta.shape[1], self.modes
        if self.prony:
            self._x[m, 1:-1] = self.zeta[:, (self.head - 1) % ns]
            self._x[m + 1, 1:-1] = self.zeta[:, (self.head - 2) % ns]
            return
        # e_1 = sig' in blocks (class docstring): the block-start columns'
        # share, taken for the whole block at its start, plus the t newest
        hankel = self.hankel
        if self._block_shifts >= hankel.shape[1]:
            self._block = self._ring_product(self.zeta, hankel)
            self._block_shifts = 0
        t = self._block_shifts
        e_1 = self._x[m, 1:-1]
        e_1[...] = self._block[:, t]
        if t:
            e_1 += self._ring_product(self.zeta, self.wshift[:t])

    def _from_ring(self):
        """sigma and the column norms from the stored history, a new shift
        block and the end terms: one O(Nx Ns) pass."""
        self._x[:self.modes, 1:-1] = self._ring_product(self.zeta, self.wmode).T
        self._norms = grad_sq_norms(self.zeta, self.assembly.grid.h)
        self._block_shifts = SHIFT_BLOCK
        self._load_ends()

    def _measure_drift(self):
        """Record in max_drift how far the running sigma rows have drifted
        from the ring: one O(Nx Ns) product, in the zeta frame."""
        fresh = self._ring_product(self.zeta, self.wmode)
        self.max_drift = _worst_drift(self.max_drift, self._x[:self.modes, 1:-1].T, fresh)

    def finish(self):
        """Measure the drift once more after the last step."""
        self._measure_drift()

    def _recenter(self):
        """Store eta itself in the ring (C = 0) and recompute from it; the
        history is unchanged.  The drift of the running sums is measured
        first."""
        self._measure_drift()
        self.zeta += self.C[:, None]
        self._x[-1] = 0.0
        self._from_ring()

    def _mu_sums(self):
        """sum_k w_k ||D+ eta_k||^2 for the wmu and the wmu' weights w, from
        the ring of column norms: eta_k = zeta_k + C, so ||D+ eta_k||^2 =
        n_k + 2 <D+ zeta_k, D+ C> + ||D+ C||^2.  Returns the two sums and
        the size of the norm terms each was taken from."""
        x, m = self._x, self.modes
        ns, head = self.zeta.shape[1], self.head
        sigma = np.zeros((2, self.nx + 2))          # rows sum_k w_k zeta_k
        sigma[0] = x[:m].sum(axis=0)
        if self.prony:
            sigma[1] = -(self.rates @ x[:m])         # w_k mu'_k = -sum_j r_j W_kj
        else:
            sigma[1, 1:-1] = self._ring_product(self.zeta, self.wmus[1, :ns])
        c = x[-1]
        d_c = c[1:] - c[:-1]
        # numpy's own loop over the ring in storage order, not a BLAS
        # product: OpenBLAS threads one of this length, which then takes
        # ms on a loaded machine
        norm_part = np.einsum("ji,i->j", self.wmus[:, ns - head:2 * ns - head], self._norms)
        c_part = self.totals * float(d_c @ d_c) / self.h2
        sums = norm_part + 2.0 * ((sigma[:, 1:] - sigma[:, :-1]) @ d_c) / self.h2 + c_part
        return sums, np.abs(norm_part) + np.abs(c_part)

    def history_sums(self) -> HistorySums:
        """Every history sum of the current state without a gradient pass
        over the history: one O(Ns) pass of both weights over the ring of
        column norms and O(Nx m) row work; a table kernel adds one product
        of the ring with the wmu' weights."""
        x = self._x
        sums, terms = self._mu_sums()
        if np.any(terms > _RECENTER_RATIO * np.abs(sums)):
            self._recenter()
            sums = self._mu_sums()[0]
        return HistorySums(hist_mu=float(sums[0]), hist_mup=float(sums[1]),
                           moment=(self.moment @ x)[1:-1], mass=float(self.totals[0]),
                           upwind_moment=(self.upwind @ x)[1:-1])

    # -- stepping -----------------------------------------------------------

    def advance(self):
        rows, x, m = self._rows, self._x, self.modes
        nx, dt = self.nx, self.cfg.dt
        np.matmul(self.mode_map, x, out=rows[3:])
        w_new = self.lu.solve_checked(self.R @ self._wy)  # checks M w_new - R [w; y]

        c = x[m + 2]
        self.head = (self.head - 1) % self.zeta.shape[1]
        np.negative(c[1:-1], out=self.zeta[:, self.head])   # zeta_1 = -C^n
        d_c = c[1:] - c[:-1]
        self._norms[self.head] = float(d_c @ d_c) / self.h2
        self._block_shifts += 1
        c[1:-1] += 0.5 * dt * (rows[2, 1:-1] + w_new[2::3])       # C^n + q
        rows[:3, 1:-1] = w_new.reshape(nx, 3).T
        x[:m] = rows[4:]
        self._load_ends()
        self.t += dt

    def to_state(self) -> State:
        """A snapshot: the history is a new array and the run goes on."""
        return _snapshot(self, self._logical_eta())

    def final_state(self) -> State:
        """The state after the last step, which takes over the ring: each
        row is rotated to s-order in place through a one-row buffer and
        C is added in place.  The run is spent (its ring is gone)."""
        zeta, head = self.zeta, self.head
        tail = zeta.shape[1] - head
        if head:
            row = np.empty(zeta.shape[1])
            for r in zeta:
                row[:tail] = r[head:]
                row[tail:] = r[:head]
                r[:] = row
        zeta += self.C[:, None]
        self.zeta = None
        return _snapshot(self, zeta)


def _snapshot(run, eta: np.ndarray) -> State:
    """The State of a run of either scheme: copies of u, v, theta; eta as given."""
    return State(t=run.t, u=run.u.copy(), v=run.v.copy(), theta=run.theta.copy(),
                 eta=eta, assembly=run.assembly)


def _start(state: State, cfg: SchemeConfig):
    """A run of cfg's scheme from state, its coefficients built and checked."""
    cls = _MidpointRun if cfg.scheme == "full_implicit_midpoint" else _SplitRun
    return cls(state, cfg)


@dataclass
class SimulationResult:
    """Trajectory of diagnostics records plus the final state.

    For a split run final_state holds the run's ring itself, rotated to
    s-order in place, not a copy of it.

    refresh_drift is the largest relative difference between a run's
    running history sums and the history they sum, measured once after
    the last step and, for a split run, at every re-centring (its per-mode
    sums against its ring), for a midpoint run at every re-projection (its
    carried wmu . eta against the materialized history).
    """

    records: list
    final_state: State
    refresh_drift: float


def simulate(init: State, cfg: SchemeConfig, T: float, sample_every: int = 1,
             mcfg=None) -> SimulationResult:
    """Advance init by the span T, round(T / dt) steps from init.t,
    recording diagnostics every sample_every steps.

    Records are always taken at init.t and after the last step.  A T that
    is not a whole number of steps, more than MAX_STEPS steps or more than
    MAX_RECORDS records raise ParamOutOfRange before the first step.  A
    sample is taken from the run as it passes (analysis.take_sample(run)),
    so no State is built but the final one: a split run supplies its own
    history sums, and a midpoint run's are summed from its history in
    place.  The records are evaluated _SAMPLE_CHUNK samples at a time in
    one pass (analysis.diagnostics_records).  dE_numeric (centered
    difference of E across samples) and the identity residual are filled
    in after the run.
    Step failures abort with the partial trajectory attached
    (SimulationAborted): every sample taken before the failure evaluated,
    its dE_numeric and identity residual filled in.  One INFO line on the
    membeam.stepper logger reports steps, records, the time spent stepping
    and sampling, and the refresh drift; for a midpoint run also its
    padded grid P, the steps K between re-projections, its history block k
    and the re-projections made.  One step from a state is
    simulate(state, cfg, cfg.dt).final_state.
    """
    if not (np.isfinite(T) and T >= 0):
        raise ParamOutOfRange("T", f"final time must be finite and >= 0, got {T}")
    if sample_every < 1:
        raise ParamOutOfRange("sample_every", "sample_every must be >= 1")
    if not T / cfg.dt <= MAX_STEPS:
        raise ParamOutOfRange(
            "T", f"T / dt = {T / cfg.dt:.3g} steps exceeds the limit of {MAX_STEPS}")
    n_steps = int(round(T / cfg.dt))
    if abs(n_steps * cfg.dt - T) > 1e-9 * max(T, 1.0):
        raise ParamOutOfRange(
            "T", f"T = {T:g} is not a whole number of steps dt = {cfg.dt:g} "
            f"(T / dt = {T / cfg.dt:.6g})")
    n_records = n_steps // sample_every + 1 + (1 if n_steps % sample_every else 0)
    if n_records > MAX_RECORDS:
        raise ParamOutOfRange(
            "sample_every", f"{n_steps} steps sampled every {sample_every} keep {n_records} "
            f"records, above the limit of {MAX_RECORDS}")

    if mcfg is None:
        mcfg = analysis.choose_multipliers_for(init.assembly)

    start = time.perf_counter()
    records, pending = [], [analysis.take_sample(init)]

    def flush():
        """Evaluate the pending samples into records, in one pass."""
        if pending:
            records.extend(analysis.diagnostics_records(
                analysis.Samples.stack(init.assembly, pending), mcfg))
            pending.clear()

    def complete() -> list:
        """The records of every sample taken, finished: the pending ones
        evaluated, dE_numeric and the identity residual filled in."""
        flush()
        _fill_numeric_derivatives(records)
        return records

    sampling = time.perf_counter() - start
    final, drift, grid = init, 0.0, ""
    if n_steps > 0:
        run = _start(init, cfg)
        for k in range(1, n_steps + 1):
            try:
                run.advance()
            except Exception as exc:  # propagate with the step index and partial data
                raise SimulationAborted(k, exc, complete()) from exc
            if k % sample_every == 0 or k == n_steps:
                t0 = time.perf_counter()
                pending.append(analysis.take_sample(run))
                if len(pending) == _SAMPLE_CHUNK:
                    flush()
                sampling += time.perf_counter() - t0
        try:
            run.finish()
        except Exception as exc:
            raise SimulationAborted(n_steps, exc, complete()) from exc
        drift = run.max_drift
        final = run.final_state()
        if cfg.scheme == "full_implicit_midpoint":
            grid = (f", padded s-grid P = {run.size}, K = {run.period}, k = {run.block}, "
                    f"{run.reprojections} re-projections")
    t0 = time.perf_counter()
    complete()
    sampling += time.perf_counter() - t0
    log.info("simulate: %d steps, %d records, stepping %.3f s, sampling %.3f s, "
             "refresh drift %.3e%s", n_steps, len(records),
             time.perf_counter() - start - sampling, sampling, drift, grid)
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
