"""Grids, structure-preserving difference operators, energy metric, generator.

The spatial operators are built so that the discrete energy identity holds
exactly in space: the clamped fourth-order operator is assembled in factored
form D2^T diag(w p) D2 (self-adjoint positive definite by construction), the
first-derivative map is exactly skew-adjoint, and every Laplacian appearing
in the generator has the stencil of -D+^T D+ for the forward-difference
gradient D+ of the energy metric.  The history variable lives on a uniform
s-grid with trapezoid weights and first-order upwind transport, whose
numerical dissipation is sign-safe for any admissible kernel.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky_banded

from .errors import DimensionTooLarge, MembeamError
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
    (cached_property); a run builds its own Cayley block (stepper._CayleyRun).
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
