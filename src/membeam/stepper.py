"""Time integration: implicit midpoint, semi-Lagrangian splitting, oracle.

Two schemes advance the discrete state:

full_implicit_midpoint
    Cayley step (I - dt/2 A_h) Phi^{n+1} = (I + dt/2 A_h) Phi^n on the
    monolithic generator.  An exact H-contraction for the dissipative
    assembly at any dt.  The upwind history block of I - dt/2 A_h is a
    first-order recurrence in s, which discretization.SchurSolver
    eliminates exactly, so only a 3Nx matrix is factorized.  The history
    update of a step is one fixed causal convolution along s, so the run
    advances the history a block of up to 32 steps at a time on the rfft
    of a zero-padded s-grid: a step reads the one history sum it needs
    from O(Nx k) numbers, and the spectrum is formed once a block.

split_semilagrangian
    Requires ds == dt.  The history transport eta_t + eta_s = theta is
    integrated exactly along characteristics (shift by one s-node plus the
    trapezoid integral of theta over the step on every surviving column,
    which is also the new inflow column), while the (u, v, theta) block
    takes an implicit midpoint step with the memory flux evaluated at the
    average of the pre- and post-step histories.  The history is stored in
    a ring buffer with a running characteristic accumulator.

Every step of either scheme is one product with the Cayley operator R
and one banded 3Nx solve with its residual check.  The cost of a step
and of a sample for each scheme and kernel form, and what a run holds at
its peak, are tabulated once, in the README's "Cost of a step and of a
sample".

A run is a _CayleyRun, the Cayley step of the (u, v, theta) block, plus
a history: _MidpointRun or _SplitRun, built from a State and a
SchemeConfig by _start, which builds and checks the scheme's fixed
coefficients and then holds the trajectory.  simulate starts one run a
call and keeps none of it.  From the history's gain the _CayleyRun
builds M, R and the one banded LU of M (splu), whose bandwidth is 7
below and 5 above at any Nx; discretization owns M and its LU.

A split run takes its samples from a ring of history column norms and
re-reads the whole ring (one O(Nx Ns) pass) only when it re-centres and
once after its last step, where it reports the drift of its running sums.
Its final state takes over the ring (_SplitRun.final_state).  A midpoint
run forms its history for a sample or a state by one routine (its eta),
and materializes its padded grid every K steps (a whole number of blocks)
and once after its last step, where it checks the history rows of the
step and reports the drift of its carried wmu . eta.

oracle_evolve is the reference both schemes are tested against:
exp(t A_h) phi0 from one dense scipy.linalg.expm, up to DENSE_MAX_DIM
(discretization.check_dense).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.blas import dnrm2

from . import analysis
from .analysis import HistorySums, grad_sq_norms
from .discretization import (LINEAR_SOLVER_TOL, SHIFT_BLOCK, BandedLU, GeneratorAssembly,
                             SchurSolver, cayley_block, check_dense, check_history_fits,
                             check_residual)
from .errors import LinearSolveFailure, MembeamError, SimulationAborted
from .model import State

# Most steps one simulate call takes; a longer run is refused before the
# first step (100 times the 10,000 steps of the shipped default run).
MAX_STEPS = 1_000_000

# Most diagnostics records one simulate call keeps (the 12 float64 columns
# of analysis.Trajectory: 117 bytes a record under tracemalloc in a
# 2,001-record run at Nx = 8, Ns = 50); a run that would keep more is
# refused before the first step.
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

# every run factorizes through this name, which bench/tracing.py wraps
splu = BandedLU

log = logging.getLogger(__name__)

SCHEMES = ("full_implicit_midpoint", "split_semilagrangian")


@dataclass(frozen=True)
class SchemeConfig:
    """Time-stepping configuration."""

    dt: float
    scheme: str = "split_semilagrangian"

    def __post_init__(self):
        if not (self.dt > 0):
            raise MembeamError("dt must be > 0")
        if not math.isfinite(self.dt):
            raise MembeamError(f"dt = {self.dt} is not finite")
        if self.scheme not in SCHEMES:
            raise MembeamError(f"scheme must be one of {SCHEMES}")


def _worst_drift(worst: float, running: np.ndarray, fresh: np.ndarray) -> float:
    """The larger of worst and the drift of running sums from fresh ones:
    the largest difference over the largest fresh sum (the difference
    itself when every fresh sum is 0).  A NaN is kept, so it fails the
    drift check."""
    scale = float(np.max(np.abs(fresh)))
    diff = float(np.max(np.abs(running - fresh)))
    return float(np.maximum(worst, diff / scale if scale > 0 else diff))


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
    more than LINEAR_SOLVER_TOL round to s_1 (G decays as r^n,
    r = q/(1 + q)), whose content is then held below _PAD_TOL.  K, below
    _HISTORY_BLOCK or a whole number of such blocks, minimizes the cost per
    step, P (1 + _REPROJECT_COST log2 P / K); P is then rounded up to an
    even 5-smooth length, and K raised to the most steps that length holds.
    """
    reach = max(1, math.ceil(math.log(LINEAR_SOLVER_TOL) / math.log(q / (1.0 + q))))
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


class _CayleyRun:
    """The Cayley step of the (u, v, theta) block with tau = dt/2, which a
    run of either scheme extends with its history.

    From the gain of its scheme's history (the midpoint run's kappa, the
    split run's sum of wmu) the run builds M = I - tau B - tau^2 gain
    [theta theta] lap (cayley_block), its one LU (splu) and R = [2I - M |
    tau [theta] lap] in the LU's node order, which reads the (4, Nx) rows
    (u, v, theta, a) as one vector; a is the step's history sum, known
    before the solve.  _rhs(a) writes a and returns R (w, a); u, v, theta
    and w = (u, v, theta) are views of the rows.  _step(a) takes w' from
    one checked banded solve of _rhs(a), writes it, advances t and returns
    beta = tau (theta + theta'): the split run's increment of C and the
    midpoint run's block source.  A failed check leaves t and w as before.
    """

    def __init__(self, state: State, cfg: SchemeConfig, gain: float):
        asm = state.assembly
        if state.eta.shape != (asm.Nx, asm.Ns):
            raise MembeamError(
                f"state eta has shape {state.eta.shape}, expected {(asm.Nx, asm.Ns)}")
        self.cfg, self.assembly, self.t = cfg, asm, state.t
        self.tau = tau = cfg.dt / 2.0
        nx, lap = asm.Nx, asm.ops.lap
        M = cayley_block(asm.mechanical_block, lap, tau, gain)
        self.lu = splu(M)
        flux = sp.vstack([sp.csr_matrix((2 * nx, nx)), tau * lap])
        self.R = sp.hstack([2.0 * sp.identity(3 * nx) - M, flux]).tocsr()[self.lu.order]
        self._rows = np.empty((4, nx))
        self._rows[:3] = state.u, state.v, state.theta
        self._wa = self._rows.reshape(-1)          # what R reads, a view
        self.w = self._rows[:3]

    u = property(lambda self: self.w[0])
    v = property(lambda self: self.w[1])
    theta = property(lambda self: self.w[2])

    def _rhs(self, a: np.ndarray) -> np.ndarray:
        """R (w, a) in node order, for the history sum a."""
        self._rows[3] = a
        return self.R @ self._wa

    def _step(self, a: np.ndarray) -> np.ndarray:
        w = self.lu.solve_checked(self._rhs(a))          # node order
        beta = self.tau * (self.theta + w[2::3])
        self.w[...] = w.reshape(-1, 3).T
        self.t += self.cfg.dt
        return beta

    def _snapshot(self, eta: np.ndarray) -> State:
        """The run's State: copies of u, v, theta; eta as given."""
        return State(t=self.t, u=self.u.copy(), v=self.v.copy(), theta=self.theta.copy(),
                     eta=eta, assembly=self.assembly)

    def info(self) -> str:
        """What the run adds to simulate's INFO line."""
        return ""


class _MidpointRun(_CayleyRun):
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
    so OpenBLAS keeps each on one thread.  Nothing checks the tables
    when the run is built: their formulas hold for any input, and whether
    the pad holds K steps depends on q and Ns alone (_fourier_grid), which
    the test suite proves at q = 1/2, the q of every run file.  A table or
    pad that is off aborts the run at its next re-projection (the residual
    or the pad's tail) or shows in max_drift.

    The run holds the history as a block: the spectrum eta_0 at the block
    start on the padded s-grid, (Nx, P/2 + 1), its projections a, (Nx, k),
    and the block's sources beta, (k, Nx).  Eliminating the history from
    M Phi^{n+1} = P Phi^n leaves the Cayley step (_CayleyRun) with
    a = m + wmu . G eta, m = wmu . eta carried as m' = wmu . G eta +
    kappa beta: a step reads wmu . G eta from the block (O(Nx k)) and keeps
    the step's beta as the block's next source.  The spectrum is formed
    (_block_spectrum: one elementwise product and one product with the
    l-powers) only where it is needed: by the step after a full block,
    which starts the next block from it, for a sample or a state, and at a
    re-projection.

    G is causal, so what moves into the pad never reaches the first Ns
    nodes, and zeroing the pad gives the truncated scheme again.  Every
    K = period steps (a whole number of blocks), and once more after the
    last step, the run re-projects (finish): it forms the spectra after
    the last two steps, materializes them and checks, each against
    LINEAR_SOLVER_TOL, the history rows of the last step's residual in
    s-space and that the pad's last reach nodes hold nothing of the
    history (else it would wrap round); it zeroes the pad, starts a new
    block and records in max_drift how far the next step's right-hand side
    from the carried m is from the one from m = wmu . eta of the
    materialized history, relative to its largest entry.  (The Parseval
    products round relative to the whole padded history, which outlasts
    wmu . eta: at Nx = 32, Ns = 1843, dt = 1e-2 m is off by 5e-9 of itself
    at t = 9, by 1e-16 of the history and by 4e-14 of the right-hand
    side.)  finish does nothing when no step was taken since the last
    re-projection.  A step that fails its residual check leaves t, w and
    the history as they were; after a failed step or re-projection the run
    is spent.
    """

    def __init__(self, state: State, cfg: SchemeConfig):
        self.solver = s = SchurSolver(state.assembly, cfg.dt / 2.0)
        self.size, self.period, self.reach = _fourier_grid(s.q, s.ns)
        self.block = k = min(_HISTORY_BLOCK, self.period)
        # a run's (Nx, P + 2) history copies; here the three (k, P + 2)
        # tables and up to 16 rows of symbols and their temporaries
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

        super().__init__(state, cfg, s.kappa)
        self._m = state.eta @ s.wmu                 # wmu . eta, carried
        self._beta = np.empty((k, state.assembly.Nx))
        self._begin_block(np.fft.rfft(state.eta, n=self.size))
        self._work = np.empty_like(self._eta_0)        # a spectrum formed mid-block
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

    def _block_spectrum(self, i: int, out: np.ndarray) -> np.ndarray:
        """eta_i^, the spectrum after i >= 1 steps of the run's block,
        written into out (the block start itself is allowed)."""
        k, real = self.block, out.view(float)
        ells = self.ell_powers.view(float)
        np.multiply(self._eta_0, self.powers[i - 1], out=out)
        for cols in self._slices(len(out), i):
            real[:, cols] += self._beta[:i].T @ ells[k - i:, cols]
        return out

    def _history_sum(self, i: int) -> np.ndarray:
        """wmu . G eta_i after i steps of the run's block."""
        k = self.block
        return self._a[:, i] + self._beta[:i].T @ self.c[k - 1 - i:k - 1]

    # -- the trajectory -----------------------------------------------------

    def _begin_block(self, eta_hat: np.ndarray):
        """Start a block from the spectrum eta_hat, which the run then owns."""
        self._eta_0, self._a, self._i = eta_hat, self._project(eta_hat), 0

    def _spectrum(self, i: int) -> np.ndarray:
        """The spectrum after i steps of the block, in the run's work
        buffer (the block start itself for i = 0)."""
        if not i:
            return self._eta_0
        return self._block_spectrum(i, self._work)

    def advance(self):
        if self._i == self.block:
            self._begin_block(self._block_spectrum(self._i, out=self._eta_0))
        m_g = self._history_sum(self._i)      # wmu . G eta
        self._beta[self._i] = beta = self._step(self._m + m_g)
        self._i += 1
        self._m = m_g + self.solver.kappa * beta                # wmu . eta' carried
        self._steps += 1
        if self._steps % self.period == 0:
            self.finish()

    def finish(self):
        """Re-project: check the last step taken in s-space, zero the pad,
        start a block and measure the drift of the carried wmu . eta.

        The history rows of the residual are M Phi' - P Phi = M Phi' +
        (M Phi - 2 Phi), one (Nx, Ns) buffer that takes the old history's
        share before the new history is formed; the new block's spectrum
        is written over the old one's.  Norms are plain (dnrm2), as the
        squared sum of a large history overflows."""
        if not self._i:
            return
        s, ns = self.solver, self.solver.ns
        old = np.fft.irfft(self._spectrum(self._i - 1), n=self.size)[:, :ns].copy()
        # theta before the last step, from its source beta = tau (theta + theta')
        res = s.apply_eta(self._beta[self._i - 1] / s.tau - self.theta, old)
        old *= 2.0
        res -= old               # M Phi - P Phi = -(P Phi), history rows
        del old                  # freed before the new history is formed
        rhs = dnrm2(res.ravel())
        new = np.fft.irfft(self._spectrum(self._i), n=self.size)
        tail, whole = dnrm2(new[:, -self.reach:].ravel()), dnrm2(new.ravel())
        if not tail <= LINEAR_SOLVER_TOL * whole:
            raise LinearSolveFailure(
                f"history at the end of the padded s-grid: {tail:.3e} exceeds "
                f"{LINEAR_SOLVER_TOL:.1e} x history {whole:.3e}")
        res += s.apply_eta(self.w[2], new[:, :ns])
        check_residual(dnrm2(res.ravel()), rhs)
        fresh = new[:, :ns] @ s.wmu
        new[:, ns:] = 0.0
        self._begin_block(np.fft.rfft(new, out=self._eta_0))
        self.reprojections += 1
        # the next step's right-hand side from the carried and the fresh m
        m_g = self._history_sum(0)
        self.max_drift = _worst_drift(self.max_drift, self._rhs(self._m + m_g),
                                      self._rhs(fresh + m_g))

    @property
    def eta(self) -> np.ndarray:
        """The current history, a new array: the inverse FFT of its
        spectrum taken an eighth of the rows at a time, so that it holds
        one history and a block."""
        spectrum, ns = self._spectrum(self._i), self.assembly.Ns
        eta = np.empty((len(spectrum), ns))
        rows = max(1, len(spectrum) // 8)
        for lo in range(0, len(spectrum), rows):
            eta[lo:lo + rows] = np.fft.irfft(spectrum[lo:lo + rows], n=self.size)[:, :ns]
        return eta

    def to_state(self) -> State:
        """A snapshot of the run, which goes on."""
        return self._snapshot(self.eta)

    final_state = to_state          # the history is a new array either way

    def info(self) -> str:
        return (f", padded s-grid P = {self.size}, K = {self.period}, k = {self.block}, "
                f"{self.reprojections} re-projections")


class _SplitRun(_CayleyRun):
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
    (table), so each is one fixed row of coefficients: mode_map gives a
    and sigma_1 .. sigma_m after the step; moment and upwind give m(eta^n)
    and (m(eta^n) - m_shift)/ds.

    The memory flux is evaluated at the average of the pre- and post-shift
    histories, m_mid = a/2 + (mu0w dt / 4) (theta^n + theta^{n+1}), with
    a = m(eta^n) + m_shift known before the solve: the Cayley step
    (_CayleyRun) with gain mu0w, whose beta is q.  A step is one product
    with mode_map, which writes a and the sigma rows after it, the Cayley
    step and O(Nx m) updates in preallocated rows.

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
            raise MembeamError(
                f"split_semilagrangian needs ds == dt (ds = {mg.ds:g}, dt = {cfg.dt:g})")
        self.nx = nx = asm.Nx
        self.h2 = asm.grid.h ** 2
        wmu = mg.wmu
        mu0w = float(np.sum(wmu))
        self.totals = np.array([mu0w, float(np.sum(mg.wmup))])
        self.wmus = np.tile([wmu, mg.wmup], 2)

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
        self.mode_map = np.vstack([self.moment + shifted,
                                   shift - np.outer(mg.weights[0] * mode_mu[0], e_c)])

        super().__init__(state, cfg, mu0w)
        # Each row holds an x-profile with a zero at both ends, so D+ of a
        # row is one difference of neighbours.  _x: the x of the class
        # docstring; _mapped: mode_map @ x, a and the sigma rows after it.
        self._x = np.zeros((m + 3, nx + 2))
        self._mapped = np.zeros((m + 1, nx + 2))
        self.zeta = state.eta.copy()          # ring storage, start head = 0
        self.head = 0                         # storage column of s-index 1
        self.max_drift = 0.0
        self._from_ring()

    C = property(lambda self: self._x[-1, 1:-1])

    # -- history bookkeeping ------------------------------------------------

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
        mapped, x, m = self._mapped, self._x, self.modes
        np.matmul(self.mode_map, x, out=mapped)
        q = self._step(mapped[0, 1:-1])

        c = x[m + 2]
        self.head = (self.head - 1) % self.zeta.shape[1]
        np.negative(c[1:-1], out=self.zeta[:, self.head])   # zeta_1 = -C^n
        d_c = c[1:] - c[:-1]
        self._norms[self.head] = float(d_c @ d_c) / self.h2
        self._block_shifts += 1
        c[1:-1] += q                                              # C^n + q
        x[:m] = mapped[1:]
        self._load_ends()

    def _as_state(self, zeta: np.ndarray) -> State:
        """The run's State with the history zeta, a ring laid out as the
        run's: each row is rotated to s-order in place through a one-row
        buffer and C is added in place."""
        head, tail = self.head, zeta.shape[1] - self.head
        if head:
            row = np.empty(zeta.shape[1])
            for r in zeta:
                row[:tail] = r[head:]
                row[tail:] = r[:head]
                r[:] = row
        zeta += self.C[:, None]
        return self._snapshot(zeta)

    def to_state(self) -> State:
        """A snapshot from a copy of the ring; the run goes on."""
        return self._as_state(self.zeta.copy())

    def final_state(self) -> State:
        """The state after the last step, which takes over the ring.  The
        run is spent (its ring is gone)."""
        state, self.zeta = self._as_state(self.zeta), None
        return state


def _start(state: State, cfg: SchemeConfig):
    """A run of cfg's scheme from state, its coefficients built and checked."""
    cls = _MidpointRun if cfg.scheme == "full_implicit_midpoint" else _SplitRun
    return cls(state, cfg)


@dataclass
class SimulationResult:
    """The diagnostics table of a run (analysis.Trajectory) plus the final state.

    final_state shares no array with the initial state; a split run's holds
    the run's ring itself, rotated to s-order in place, not a copy of it.

    running_sum_drift is the largest relative difference between a run's
    running history sums and the history they sum, measured once after
    the last step and, for a split run, at every re-centring (its per-mode
    sums against its ring), for a midpoint run at every re-projection (its
    carried wmu . eta against the materialized history).
    """

    records: analysis.Trajectory
    final_state: State
    running_sum_drift: float


def check_steps(steps: float) -> None:
    """Refuse (MembeamError) a run of steps = T / dt above MAX_STEPS."""
    if not steps <= MAX_STEPS:
        raise MembeamError(f"T / dt = {steps:.3g} steps exceeds the limit of {MAX_STEPS}")


def run_length(T: float, dt: float, sample_every: int) -> tuple[int, int]:
    """(steps, records) of a run over the span T in steps of dt > 0 with a
    record every sample_every steps, at the start and after the last step.
    A T that is negative, not finite or not a whole number of steps, a
    sample_every below 1, more than MAX_STEPS steps or more than
    MAX_RECORDS records raise MembeamError."""
    if not (np.isfinite(T) and T >= 0):
        raise MembeamError(f"final time must be finite and >= 0, got {T}")
    if sample_every < 1:
        raise MembeamError("sample_every must be >= 1")
    check_steps(T / dt)
    n_steps = int(round(T / dt))
    if not abs(n_steps * dt - T) <= 1e-9 * max(T, 1.0):   # a nan fails
        raise MembeamError(f"T = {T:g} is not a whole number of steps dt = {dt:g} "
                           f"(T / dt = {T / dt:.6g})")
    n_records = n_steps // sample_every + 1 + (1 if n_steps % sample_every else 0)
    if n_records > MAX_RECORDS:
        raise MembeamError(f"{n_steps} steps sampled every {sample_every} keep {n_records} "
                           f"records, above the limit of {MAX_RECORDS}")
    return n_steps, n_records


def simulate(init: State, cfg: SchemeConfig, T: float, sample_every: int = 1,
             mcfg=None) -> SimulationResult:
    """Advance init by the span T, round(T / dt) steps from init.t,
    recording diagnostics every sample_every steps.

    Records are always taken at init.t and after the last step.  A run
    length that run_length refuses raises MembeamError before the
    first step.  A sample is taken from the run as it passes (analysis.take_sample(run)),
    so no State is built but the final one: a split run supplies its own
    history sums, and a midpoint run's are summed from its history in
    place.  The samples are evaluated _SAMPLE_CHUNK at a time in one pass
    (analysis.diagnostics_records) and joined into one analysis.Trajectory
    after the run.  Step failures abort with the partial trajectory
    attached (SimulationAborted): every sample taken before the failure,
    evaluated.  One INFO line on the membeam.stepper logger reports steps,
    records, the time spent stepping and sampling, and the
    running_sum_drift; for a midpoint run also its padded grid P, the
    steps K between re-projections, its history block k and the
    re-projections made.  One step from a state is
    simulate(state, cfg, cfg.dt).final_state.
    """
    n_steps = run_length(T, cfg.dt, sample_every)[0]
    if mcfg is None:
        mcfg = analysis.choose_multipliers_for(init.assembly)

    start = time.perf_counter()
    chunks, pending = [], [analysis.take_sample(init)]

    def flush():
        """Evaluate the pending samples into a table, in one pass."""
        if pending:
            chunks.append(analysis.diagnostics_records(
                analysis.Samples.stack(init.assembly, pending), mcfg))
            pending.clear()

    def complete() -> analysis.Trajectory:
        """The table of every sample taken."""
        flush()
        return analysis.Trajectory.concatenate(chunks)

    sampling = time.perf_counter() - start
    drift, info = 0.0, ""
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
        drift, final, info = run.max_drift, run.final_state(), run.info()
    else:   # a snapshot: the result shares no array with init
        final = State.unflatten(init.flatten(), init.assembly, init.t)
    t0 = time.perf_counter()
    records = complete()
    sampling += time.perf_counter() - t0
    log.info("simulate: %d steps, %d records, stepping %.3f s, sampling %.3f s, "
             "running_sum_drift %.3e%s", n_steps, len(records),
             time.perf_counter() - start - sampling, sampling, drift, info)
    return SimulationResult(records=records, final_state=final, running_sum_drift=drift)


# ---------------------------------------------------------------------------
# matrix-exponential oracle


def oracle_evolve(assembly: GeneratorAssembly, phi0: np.ndarray, t: float) -> np.ndarray:
    """Reference solution exp(t A_h) phi0 for desk-scale assemblies.

    One dense scipy.linalg.expm (scaling and squaring with a Pade
    approximant).  It needs no eigenbasis, which for A_h is badly
    conditioned: the upwind history block is one Jordan block at -1/ds
    per x node.  Only intended for tests and oracle-check.
    """
    check_dense(assembly, "oracle")
    if t < 0:
        raise MembeamError("oracle time must be >= 0")
    phi0 = np.asarray(phi0, dtype=float)
    if phi0.shape != (assembly.dim,):
        raise MembeamError(f"phi0 has shape {phi0.shape}, expected ({assembly.dim},)")
    if t == 0:
        return phi0.copy()
    return sla.expm(t * assembly.generator_matrix.toarray()) @ phi0
