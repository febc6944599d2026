"""Grids, structure-preserving difference operators, energy metric, generator.

The spatial operators are built so that the discrete energy identity holds
exactly in space: the clamped fourth-order operator is assembled in factored
form D2^T diag(w p) D2 (self-adjoint positive definite by construction), the
first-derivative map is exactly skew-adjoint, and every Laplacian appearing
in the generator has the stencil of -D+^T D+ for the forward-difference
gradient D+ of the energy metric.  The history variable lives on a uniform
s-grid with trapezoid weights and first-order upwind transport, whose
numerical dissipation is sign-safe for any admissible kernel.  Beside A_h
the module owns I - tau A_h: SchurSolver solves with it and gives its
1-norm, through BandedLU, the banded LU of the Cayley block cayley_block.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky_banded
from scipy.linalg.blas import dgbmv, dnrm2
from scipy.linalg.lapack import dgbtrf, dgbtrs, dtbtrs

from .errors import DimensionTooLarge, LinearSolveFailure, MembeamError
from .model import CoefficientField, MemoryKernel, PhysicalParams

# Largest system dimension for which dense computations (spectrum,
# matrix-exponential oracle) are attempted; check_dense enforces it.
DENSE_MAX_DIM = 2000

# (Nx, Ns) arrays a run may allocate at once on top of its caller's state.
# Traced at Nx = 64, dt = 1e-3 (tests pin the peaks): a split run holds 1.2
# histories (Prony, Ns = 18422: its ring) or 1.6 (table, Ns = 15612: the
# ring and the Hankel weights); a midpoint run 8.0 histories of Ns, 7.4 of
# its padded P + 2 = 20002 nodes, within the 8 + (3k + 16)/Nx = 9.75 that
# its check_history_fits(Nx, P + 2, 3k + 16) allows.
_HISTORY_COPIES = 8

# Columns of the (Ns, SHIFT_BLOCK) Hankel weight block with which a
# table-kernel split run takes its shifted history sum for that many steps
# at once (stepper._SplitRun); the memory guard counts it.
SHIFT_BLOCK = 16

# Largest relative residual accepted from any linear solve of a step.
LINEAR_SOLVER_TOL = 1e-9

# Largest entry magnitude whose square is still a finite float: past it the
# energy, the residual norms and the dense spectrum of a run overflow.
_ENTRY_MAX = float(np.sqrt(np.finfo(float).max))

# Largest node spacing h whose h^4 is a finite float; 1/h^4, the scale of
# the biharmonic, is one for h above its reciprocal.
_H_MAX = float(np.finfo(float).max) ** 0.25


def check_history_fits(nx: float, ns: float, columns: float = SHIFT_BLOCK):
    """Raise DimensionTooLarge, before anything is allocated, when
    _HISTORY_COPIES float64 arrays of shape (nx, ns) and columns more
    float64 columns of length ns (by default the (ns, SHIFT_BLOCK) shift
    weights) exceed physical memory."""
    need = 8.0 * float(ns) * (_HISTORY_COPIES * float(nx) + float(columns))
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if not need <= have:
        raise DimensionTooLarge(
            f"a history of {float(nx):.6g} x {float(ns):.6g} nodes needs about "
            f"{need / 2**30:.3g} GiB, more than the {have / 2**30:.3g} GiB of physical memory")


def check_dense(assembly: GeneratorAssembly | CoupledSystem, what: str):
    """Raise DimensionTooLarge when the system is too large for what, a
    dense computation: the one place DENSE_MAX_DIM is decided."""
    if assembly.dim > DENSE_MAX_DIM:
        raise DimensionTooLarge(
            f"{what} limited to dimension {DENSE_MAX_DIM}, got {assembly.dim}")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform interior grid on (0, L); clamped/Dirichlet endpoints not stored."""

    L: float
    Nx: int
    h: float
    nodes: np.ndarray


def build_spatial_grid(L: float, Nx: int) -> SpatialGrid:
    if not (L > 0):
        raise MembeamError("beam length must be > 0")
    if Nx < 4:
        raise MembeamError(f"Nx = {Nx} < 4 interior nodes")
    check_history_fits(Nx, 1)
    h = L / (Nx + 1)
    if not 1.0 / _H_MAX < h < _H_MAX:
        raise MembeamError(f"beam length L = {L:g} gives the node spacing h = {h:g}, "
                           "whose h^4 or 1/h^4 leaves the float range")
    return SpatialGrid(L=float(L), Nx=int(Nx), h=h, nodes=_read_only(h * np.arange(1, Nx + 1)))


@dataclass(frozen=True)
class MemoryGrid:
    """Uniform s-grid for the history field.

    Stored nodes are s_k = k*ds, k = 1..Ns (s = 0 carries the zero inflow
    value and is not stored).  Trapezoid weights on {0, ds, ..., Ns*ds}:
    w_k = ds for k < Ns and w_Ns = ds/2; the half cell at s = 0 contributes
    nothing to history quadratures since eta(0) = 0.  They weigh the nodes
    by wmu = (w_k mu_k) or wmup = (w_k mu'_k); sum wmu underestimates mu0
    by about ds*mu(0)/2 plus the truncated tail.
    """

    Ns: int
    ds: float
    s_nodes: np.ndarray
    weights: np.ndarray
    mu: np.ndarray
    muprime: np.ndarray
    kernel: MemoryKernel

    @cached_property
    def wmu(self) -> np.ndarray:
        """w_k mu_k, computed once per grid and read-only."""
        return _read_only(self.weights * self.mu)

    @cached_property
    def wmup(self) -> np.ndarray:
        """w_k mu'_k, computed once per grid and read-only."""
        return _read_only(self.weights * self.muprime)


def build_memory_grid(kernel: MemoryKernel, dt: float, trunc_tol: float = 1e-8,
                      nx: int = 1) -> MemoryGrid:
    """The grid with ds = dt (the split stepper shifts the history one node
    a step) up to the first node Ns*ds with mu(Ns*ds) <= trunc_tol *
    mu(ds/2), for either kernel form, by a scan of the nodes in blocks that
    double in length.  Before each block the scan checks that a history of
    nx x ns nodes fits in memory up to the block's end (DimensionTooLarge),
    so with the run's Nx it stops where the run could not be held.
    MembeamError when mu is above the bound at the last node before s = 1e9
    or the table end."""
    if not (dt > 0):
        raise MembeamError("dt must be > 0")
    if not (0 < trunc_tol < 1):
        raise MembeamError("trunc_tol must lie in (0, 1)")
    ds = float(dt)
    bound = trunc_tol * float(kernel.mu(0.5 * ds))
    if bound <= 0:
        raise MembeamError("kernel vanishes at ds/2; no truncation point exists")

    end = min(1e9, kernel.s_max_table)
    if not np.isfinite(end / ds):
        raise MembeamError(f"dt = {dt:g} makes the node count {end:g}/dt of the "
                           "memory grid's scan overflow")
    last = max(1, int(end / ds))
    lo, hi = 0, 1
    if float(kernel.mu(last * ds)) <= bound:   # mu decreases, so a node within the cap is found
        while lo < last:
            check_history_fits(nx, hi)
            below = np.flatnonzero(kernel.mu(ds * np.arange(lo + 1, hi + 1)) <= bound)
            if below.size:
                return memory_grid_from_counts(kernel, ds, lo + 1 + int(below[0]))
            lo, hi = hi, min(2 * hi, last)
    raise MembeamError(
        f"mu > {bound:.3e} at s = {last * ds:g}, the last node before the table end or 1e9")


def memory_grid_from_counts(kernel: MemoryKernel, ds: float, Ns: int) -> MemoryGrid:
    """The grid of Ns nodes spaced ds, the one place a MemoryGrid is built."""
    if not (ds > 0) or Ns < 1:
        raise MembeamError("need ds > 0 and Ns >= 1")
    check_history_fits(1, Ns)
    if Ns * ds > kernel.s_max_table:
        raise MembeamError(
            f"s_max = {Ns * ds:g} beyond the table end {kernel.s_max_table:g}")
    ds, Ns = float(ds), int(Ns)
    s_nodes = ds * np.arange(1, Ns + 1)
    weights = np.full(Ns, ds)
    weights[-1] = 0.5 * ds
    mu = np.asarray(kernel.mu(s_nodes), dtype=float)
    muprime = np.asarray(kernel.muprime(s_nodes), dtype=float)
    return MemoryGrid(Ns=Ns, ds=ds, s_nodes=_read_only(s_nodes), weights=_read_only(weights),
                      mu=_read_only(mu), muprime=_read_only(muprime), kernel=kernel)


# ---------------------------------------------------------------------------
# difference operators


def _first_derivative(Nx: int, h: float) -> sp.csr_matrix:
    """Centered first difference with homogeneous Dirichlet ghosts.

    Built as U - U^T so skew-adjointness holds exactly in floating point.
    """
    upper = sp.diags([np.full(Nx - 1, 1.0 / (2.0 * h))], [1], shape=(Nx, Nx))
    return (upper - upper.T).tocsr()


def _dirichlet_laplacian(Nx: int, h: float) -> sp.csr_matrix:
    main = np.full(Nx, -2.0 / h**2)
    off = np.full(Nx - 1, 1.0 / h**2)
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr()


def _clamped_second_difference(Nx: int, h: float) -> sp.csr_matrix:
    """Second-derivative samples at all Nx+2 nodes from interior values.

    Interior rows are the standard three-point stencil with zero Dirichlet
    ghosts.  The endpoint rows eliminate the ghost node by reflection
    consistent with u = u_x = 0 (centered u_x(0) = 0 gives u_{-1} = u_1),
    so u_xx(0) = 2 u_1 / h^2.  Combined with the trapezoid end-weights this
    yields second-order eigenvalue convergence for the clamped operator.
    """
    end = (2.0 / h**2) * sp.identity(Nx, format="csr")
    return sp.vstack([end[0], _dirichlet_laplacian(Nx, h), end[-1]], format="csr")


def norm_inf(matrix: sp.spmatrix) -> float:
    """The largest absolute row sum (scipy.sparse.linalg.norm(matrix,
    inf), without importing that package)."""
    return float(abs(matrix).sum(axis=1).max())


def _banded_upper(matrix: sp.spmatrix, bandwidth: int) -> np.ndarray:
    """Upper-banded storage (scipy 'ab' layout) of a symmetric sparse matrix."""
    return np.vstack([np.concatenate([np.zeros(k), matrix.diagonal(k)])
                      for k in range(bandwidth, -1, -1)])


@dataclass(frozen=True)
class DiscreteOperators:
    """Interior-node difference operators and coefficient diagonals.

    d1     centered first derivative, U - U^T: d1 + d1^T is exactly 0
    lap    three-point Dirichlet Laplacian, the stencil of -D+^T D+ for the
           forward-difference gradient D+ (equal to a few ulps); -lap is
           positive definite, its least eigenvalue 1/poincare_constant
    bih    D2^T diag(c * p) D2: variable-coefficient clamped biharmonic,
           D2 the clamped second-difference map onto all Nx+2 nodes, p
           extended to the two end nodes by its nearest interior value, c
           the trapezoid end-weights making the quadratic form the
           trapezoid rule of p u_xx^2 (up to the uniform factor h)
    """

    grid: SpatialGrid
    coefficients: CoefficientField
    d1: sp.csr_matrix
    lap: sp.csr_matrix
    bih: sp.csr_matrix


def build_operators(grid: SpatialGrid, coefficients: CoefficientField) -> DiscreteOperators:
    """Assemble the difference operators and check what p can break.

    By construction, at every Nx and h, and not checked: d1 is exactly
    skew-adjoint, lap has the stencil of -D+^T D+, and -lap is positive
    definite (its Cholesky pivots are (k+1)/(k h^2)).  Checked, each
    failure a MembeamError: p has length Nx; every entry of bih is finite
    (naming p); bih is positive definite by its banded Cholesky factor.
    """
    Nx, h = grid.Nx, grid.h
    p = np.asarray(coefficients.p_values, dtype=float)
    if p.shape != (Nx,):
        raise MembeamError(f"coefficient arrays have length {p.size}, expected Nx = {Nx}")

    d1 = _first_derivative(Nx, h)
    lap = _dirichlet_laplacian(Nx, h)
    d2 = _clamped_second_difference(Nx, h)

    # nearest-interior extension of p to the two boundary sample points
    p_ext = np.concatenate([[p[0]], p, [p[-1]]])
    cw = np.ones(Nx + 2)
    cw[0] = cw[-1] = 0.5
    bih = (d2.T @ sp.diags(cw * p_ext) @ d2).tocsr()
    bih = ((bih + bih.T) * 0.5).tocsr()
    if not np.all(np.isfinite(bih.data)):
        raise MembeamError(f"p up to {p.max():.3g} at h = {h:.3g} gives a biharmonic "
                           "p/h^4 with an entry beyond the float range")
    try:
        cholesky_banded(_banded_upper(bih, 2), lower=False)
    except np.linalg.LinAlgError as exc:
        raise MembeamError("structure check failed: bih not positive definite "
                           "(measured nan)") from exc

    return DiscreteOperators(grid=grid, coefficients=coefficients, d1=d1, lap=lap, bih=bih)


# ---------------------------------------------------------------------------
# generator assembly


@dataclass(frozen=True)
class CoupledSystem:
    """A generator and its energy metric (GeneratorAssembly._couple)."""

    generator_matrix: sp.csr_matrix
    metric_matrix: sp.csr_matrix
    dim = property(lambda self: self.generator_matrix.shape[0])


@dataclass
class GeneratorAssembly:
    """Discrete generator A_h and energy metric H for Phi = (u, v, theta, eta),
    and the modal system of a Prony kernel: one coupling (_couple) each.

    Flattened block order: u, v, theta, then eta_1..eta_Ns by ascending s.
    With I the Nx identity, the (u, v, theta) block is

        B = [[0,                    I,                        0       ],
             [-bih + kappa^2 lap,   -2 diag(g) - 2 kappa d1,  -beta d1],
             [0,                    -beta d1,                 l lap   ]]

    A_h and H couple it to the Ns history columns with the weights wmu =
    (w_k mu_k) and the upwind T (-1/ds on the diagonal, 1/ds below it): the
    flux wmu^T kron lap is LAP m(eta) in the theta row, and 1 kron [0, 0, I]
    feeds theta into every eta_k row.  So ||Phi||_H^2 = 2 E(Phi), and the
    symmetric part of H A_h is damping + thermal gradient + upwind history
    dissipation, exactly.

    B, (A_h, H) and the modal system are built at their first read and kept
    (cached_property); SchurSolver and a run build their own Cayley block.
    """

    params: PhysicalParams
    memory_grid: MemoryGrid
    ops: DiscreteOperators

    grid = property(lambda self: self.ops.grid)
    coefficients = property(lambda self: self.ops.coefficients)
    Nx = property(lambda self: self.grid.Nx)
    Ns = property(lambda self: self.memory_grid.Ns)
    dim = property(lambda self: self.Nx * (3 + self.Ns))

    @cached_property
    def mechanical_block(self) -> sp.csr_matrix:
        """Sparse B, the 3Nx x 3Nx (u, v, theta) block of A_h.

        MembeamError when an entry's square overflows (kappa^2 is a
        product, so it gives inf there, not an exception): no norm of a
        run on such a block is finite.  The theta rows carry l LAP, so the
        message gives l."""
        ops, par, nx, g = self.ops, self.params, self.Nx, self.coefficients.g_values
        # beta = 0 keeps the (u, v) rows structurally free of theta
        coupling = -par.beta * ops.d1 if par.beta != 0.0 else None
        B = sp.bmat(
            [[None, sp.identity(nx), None],
             [-ops.bih + (par.kappa * par.kappa) * ops.lap,
              -2.0 * sp.diags(g) - 2.0 * par.kappa * ops.d1, coupling],
             [None, coupling, par.l * ops.lap]], format="csr")
        for name, rows in (("theta", B[2 * nx:]), ("(u, v)", B[:2 * nx])):
            big = float(np.max(np.abs(rows.data), initial=0.0))
            if not big <= _ENTRY_MAX:
                raise MembeamError(f"an entry of size {big:.3g} in the {name} rows of the "
                                   f"mechanical block (l = {par.l:.3g}) has a square beyond "
                                   "the float range")
        return B

    generator_matrix = property(lambda self: self._grid_system.generator_matrix, doc="A_h")
    metric_matrix = property(lambda self: self._grid_system.metric_matrix, doc="H")

    @cached_property
    def _grid_system(self) -> CoupledSystem:
        ns, ds = self.Ns, self.memory_grid.ds
        upwind = sp.diags([np.full(ns, -1.0 / ds), np.full(ns - 1, 1.0 / ds)], [0, -1])
        return self._couple(self.memory_grid.wmu, upwind)

    @cached_property
    def modal_system(self) -> CoupledSystem:
        """(A~, H~) of a Prony kernel mu = sum_j a_j exp(-r_j s), exact in s
        and of dimension (3 + m) Nx: B coupled to the modes zeta_j = r_j
        int exp(-r_j s) eta ds, whose zeta_j' = theta - r_j zeta_j and
        m(eta) = sum_j (a_j/r_j) zeta_j give w = a/r and T = -diag(r).  A
        tabulated kernel has none (MembeamError)."""
        kernel = self.memory_grid.kernel
        if kernel.form != "prony":
            raise MembeamError("a tabulated kernel has no modal system A~")
        return self._couple(kernel.amplitudes / kernel.rates, sp.diags(-kernel.rates))

    def _couple(self, w: np.ndarray, transport: sp.spmatrix) -> CoupledSystem:
        """B coupled to n = w.size history columns of Nx nodes, with history
        weights w and the n x n transport matrix T:

            A = [[B, [0; 0; w^T kron lap]], [1 kron [0, 0, I], T kron I]]
            H = blockdiag(h (bih - kappa^2 lap), h I, h I, diag(h w) kron (-lap))
        """
        nx, n, ops, h = self.Nx, w.size, self.ops, self.grid.h
        eye = sp.identity(nx, format="csr")
        # a csr kron stores neither a zero weight nor the zeros of a nearly dense lap
        flux = sp.vstack([sp.csr_matrix((2 * nx, nx * n)),
                          sp.kron(sp.csr_matrix(w[None, :]), ops.lap, format="csr")])
        source = sp.kron(np.ones((n, 1)), sp.hstack([sp.csr_matrix((nx, 2 * nx)), eye]),
                         format="csr")
        A = sp.bmat([[self.mechanical_block, flux],
                     [source, sp.kron(transport, eye, format="csr")]], format="csr")
        H = sp.block_diag([h * (ops.bih - self.params.kappa**2 * ops.lap), h * sp.identity(2 * nx),
                           sp.kron(sp.diags(w * h), -ops.lap, format="csr")], format="csr")
        return CoupledSystem(A, H)


def assemble_generator(operators: DiscreteOperators, memory_grid: MemoryGrid,
                       params: PhysicalParams) -> GeneratorAssembly:
    """Bundle operators, memory grid, and parameters into the assembled system."""
    check_history_fits(operators.grid.Nx, memory_grid.Ns)
    return GeneratorAssembly(params=params, memory_grid=memory_grid, ops=operators)


# ---------------------------------------------------------------------------
# I - tau A_h: the Cayley block, its banded LU and the history-eliminating solve


def check_residual(num: float, den: float):
    """Raise LinearSolveFailure unless the residual norm num <= tol times
    the right-hand side's norm den; a non-finite norm never passes."""
    if not (num <= LINEAR_SOLVER_TOL * den and math.isfinite(den)):
        raise LinearSolveFailure(
            f"residual {num:.3e} exceeds {LINEAR_SOLVER_TOL:.1e} x right-hand side {den:.3e}")


class BandedLU:
    """One LAPACK banded LU (dgbtrf) of a 3Nx (u, v, theta) block matrix,
    with solve(b, trans) in the block order of the matrix: the one place a
    mechanical block M is factorized.  stepper calls it by the name splu,
    which the traced benchmark wraps.

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
    within LINEAR_SOLVER_TOL of b (a NaN fails); both norms come from
    BLAS dnrm2, which scales and does not overflow.  scipy's dgbmv wrapper
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
        # a norm whose square overflows reads inf: a right-hand side that
        # large fails, as its state's energy is not a float
        num, den = (math.inf if n * n == math.inf else n for n in (dnrm2(res), dnrm2(rhs)))
        check_residual(num, den)
        return x[:self.n]


def cayley_block(B: sp.spmatrix, lap: sp.spmatrix, tau: float, gain: float) -> sp.csc_matrix:
    """M = I - tau B - tau^2 gain [theta theta] lap: the 3Nx block left of an
    implicit step once the history is eliminated, for the history's gain
    (the one expression for it: stepper's runs and SchurSolver factorize it)."""
    nx = lap.shape[0]
    return (sp.identity(3 * nx, format="csc") - tau * B
            - sp.block_diag([sp.csc_matrix((2 * nx, 2 * nx)), (tau * tau * gain) * lap],
                            format="csc"))


class SchurSolver:
    """The one owner of I - tau A_h, which it reads off the assembly's
    blocks and never assembles: norm1 gives ||I - tau A_h||_1, and solve
    and solve_transposed solve (I - tau A_h) x = r and its transpose by
    eliminating the history block exactly; only a 3Nx matrix is factorized.

    Vectors are flat, in A_h's block order, split as (w, eta): w = (u, v,
    theta) of length 3Nx and the history eta of shape (Nx, Ns).  With
    q = tau/ds and S the one-node shift in s (eta_0 = 0), the history rows
    of I - tau A_h read

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
    the same LU and L^T, a recurrence run from s_Ns down.  Both solves
    take vectors of any layout, leave them untouched and return new ones.
    The Schur complement (cayley_block) is factorized at the first solve
    (lu).  analysis.resolvent_check solves through this class; stepper's
    midpoint run takes only its sizes, q, wmu, kappa (the gain of its own
    Cayley block) and apply_eta, and solves nothing through it.
    """

    def __init__(self, assembly: GeneratorAssembly, tau: float):
        mg = assembly.memory_grid
        self.nx, self.ns = assembly.Nx, assembly.Ns
        self.tau = tau
        self.q = tau / mg.ds
        self.c = 1.0 / (1.0 + self.q)
        self.wmu = mg.wmu
        self.lap = assembly.ops.lap
        # L / (1 + q) in LAPACK's lower band storage: the unit diagonal
        # (not read with diag="U") over the subdiagonal
        self._band = np.asfortranarray([np.ones(self.ns),
                                        np.full(self.ns, -self.q / (1.0 + self.q))])
        self.g = self._recurrence(self.c * self.wmu[None, :], transposed=True)[0]
        self.kappa = float(np.sum(self.g))
        self._mechanical = assembly.mechanical_block

    @cached_property
    def lu(self) -> BandedLU:
        return BandedLU(cayley_block(self._mechanical, self.lap, self.tau, self.kappa))

    def norm1(self) -> float:
        """||I - tau A_h||_1, the largest column sum of |I - tau A_h|.

        A (u, v, theta) column sums the column of |I - tau B|, plus tau Ns
        on a theta column (the source -tau in every eta_k row).  The eta_k
        column at node i sums tau |wmu_k| ||lap[:, i]||_1 from the flux,
        1 + q on the diagonal and q below it when k < Ns.
        """
        nx, tau = self.nx, self.tau
        mech = np.asarray(abs(sp.identity(3 * nx) - tau * self._mechanical).sum(axis=0)).ravel()
        mech[2 * nx:] += tau * self.ns
        hist = tau * np.abs(self.wmu) * float(np.max(abs(self.lap).sum(axis=0))) + (1.0 + self.q)
        hist[:-1] += self.q
        return float(max(mech.max(), hist.max()))

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

    def solve(self, r: np.ndarray) -> np.ndarray:
        r_w, r_eta = r[:3 * self.nx], r[3 * self.nx:].reshape(self.ns, -1).T
        th = slice(2 * self.nx, None)
        rhs = r_w.copy()
        rhs[th] += self.tau * (self.lap @ (r_eta @ self.g))
        w = self.lu.solve(rhs)
        eta = self._recurrence(self.c * (r_eta + self.tau * w[th, None]))
        return np.concatenate([w, eta.T.ravel()])

    def solve_transposed(self, r: np.ndarray) -> np.ndarray:
        r_w, r_eta = r[:3 * self.nx], r[3 * self.nx:].reshape(self.ns, -1).T
        th = slice(2 * self.nx, None)
        eta = self._recurrence(self.c * r_eta, transposed=True)
        rhs = r_w.copy()
        rhs[th] += self.tau * eta.sum(axis=1)
        w = self.lu.solve(rhs, trans="T")
        eta += self.tau * np.outer(self.lap.T @ w[th], self.g)
        return np.concatenate([w, eta.T.ravel()])
