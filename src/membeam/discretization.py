"""Grids, structure-preserving difference operators, energy metric, generator.

The spatial operators are built so that the discrete energy identity holds
exactly in space: the clamped fourth-order operator is assembled in factored
form D2^T diag(w p) D2 (self-adjoint positive definite by construction), the
first-derivative map is exactly skew-adjoint, and every Laplacian appearing
in the generator is the exact negative Gram matrix of the forward-difference
gradient used by the energy metric.  The history variable lives on a uniform
s-grid with trapezoid weights and first-order upwind transport, whose
numerical dissipation is sign-safe for any admissible kernel.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky_banded

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    GridTooCoarse,
    ParamOutOfRange,
    StructureViolation,
    TruncationUnreachable,
)
from .model import CoefficientField, MemoryKernel, PhysicalParams

# Largest system dimension for which dense computations (spectrum,
# matrix-exponential oracle) are attempted.
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
        raise ParamOutOfRange("L", "beam length must be > 0")
    if Nx < 4:
        raise GridTooCoarse(f"Nx = {Nx} < 4 interior nodes")
    check_history_fits(Nx, 1)
    h = L / (Nx + 1)
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
    TruncationUnreachable when mu is above the bound at the last node before
    s = 1e9 or the table end."""
    if not (dt > 0):
        raise ParamOutOfRange("dt", "dt must be > 0")
    if not (0 < trunc_tol < 1):
        raise ParamOutOfRange("trunc_tol", "trunc_tol must lie in (0, 1)")
    ds = float(dt)
    bound = trunc_tol * float(kernel.mu(0.5 * ds))
    if bound <= 0:
        raise TruncationUnreachable("kernel vanishes at ds/2; no truncation point exists")

    last = max(1, int(min(1e9, kernel.s_max_table) / ds))
    lo, hi = 0, 1
    if float(kernel.mu(last * ds)) <= bound:   # mu decreases, so a node within the cap is found
        while lo < last:
            check_history_fits(nx, hi)
            below = np.flatnonzero(kernel.mu(ds * np.arange(lo + 1, hi + 1)) <= bound)
            if below.size:
                return memory_grid_from_counts(kernel, ds, lo + 1 + int(below[0]))
            lo, hi = hi, min(2 * hi, last)
    raise TruncationUnreachable(
        f"mu > {bound:.3e} at s = {last * ds:g}, the last node before the table end or 1e9")


def memory_grid_from_counts(kernel: MemoryKernel, ds: float, Ns: int) -> MemoryGrid:
    """The grid of Ns nodes spaced ds, the one place a MemoryGrid is built."""
    if not (ds > 0) or Ns < 1:
        raise ParamOutOfRange("ds/Ns", "need ds > 0 and Ns >= 1")
    check_history_fits(1, Ns)
    if Ns * ds > kernel.s_max_table:
        raise TruncationUnreachable(
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


def _forward_gradient(Nx: int, h: float) -> sp.csr_matrix:
    """Forward difference onto the Nx+1 cell interfaces, Dirichlet ends.

    Its Gram matrix D+^T D+ equals -LAP exactly, which is what makes the
    discrete energy identity exact.
    """
    rows = np.concatenate([np.arange(Nx), np.arange(1, Nx + 1)])
    cols = np.concatenate([np.arange(Nx), np.arange(Nx)])
    data = np.concatenate([np.full(Nx, 1.0 / h), np.full(Nx, -1.0 / h)])
    return sp.csr_matrix((data, (rows, cols)), shape=(Nx + 1, Nx))


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


def _norm_inf(matrix: sp.spmatrix) -> float:
    """The largest absolute row sum (scipy.sparse.linalg.norm(matrix,
    inf), without importing that package)."""
    return float(abs(matrix).sum(axis=1).max())


def _banded_upper(matrix: sp.spmatrix, bandwidth: int) -> np.ndarray:
    """Upper-banded storage (scipy 'ab' layout) of a symmetric sparse matrix."""
    return np.vstack([np.concatenate([np.zeros(k), matrix.diagonal(k)])
                      for k in range(bandwidth, -1, -1)])


def _assert_positive_definite(matrix: sp.spmatrix, bandwidth: int, name: str):
    try:
        cholesky_banded(_banded_upper(matrix, bandwidth), lower=False)
    except np.linalg.LinAlgError as exc:
        raise StructureViolation(f"{name} not positive definite", np.nan) from exc


@dataclass(frozen=True)
class DiscreteOperators:
    """Interior-node difference operators and coefficient diagonals.

    d1     centered first derivative, exactly skew-adjoint
    dplus  forward-difference gradient; dplus^T dplus = -lap exactly
    lap    three-point Dirichlet Laplacian (symmetric negative definite)
    bih    D2^T diag(c * p) D2: variable-coefficient clamped biharmonic,
           D2 the clamped second-difference map onto all Nx+2 nodes, p
           extended to the two end nodes by its nearest interior value, c
           the trapezoid end-weights making the quadratic form the
           trapezoid rule of p u_xx^2 (up to the uniform factor h)
    """

    grid: SpatialGrid
    coefficients: CoefficientField
    d1: sp.csr_matrix
    dplus: sp.csr_matrix
    lap: sp.csr_matrix
    bih: sp.csr_matrix
    g: np.ndarray


def build_operators(grid: SpatialGrid, coefficients: CoefficientField,
                    params: PhysicalParams) -> DiscreteOperators:
    """Assemble the difference operators and verify their structure.

    Verified at build time (StructureViolation beyond 1e-12 relative):
    d1 skew-adjoint, bih symmetric positive definite, lap symmetric and
    -lap positive definite, and dplus^T dplus = -lap.
    """
    Nx, h = grid.Nx, grid.h
    p = np.asarray(coefficients.p_values, dtype=float)
    g = np.asarray(coefficients.g_values, dtype=float)
    if p.shape != (Nx,):
        raise DimensionMismatch(f"coefficient arrays have length {p.size}, expected Nx = {Nx}")

    d1 = _first_derivative(Nx, h)
    dplus = _forward_gradient(Nx, h)
    lap = _dirichlet_laplacian(Nx, h)
    d2 = _clamped_second_difference(Nx, h)

    # nearest-interior extension of p to the two boundary sample points
    p_ext = np.concatenate([[p[0]], p, [p[-1]]])
    cw = np.ones(Nx + 2)
    cw[0] = cw[-1] = 0.5
    bih = (d2.T @ sp.diags(cw * p_ext) @ d2).tocsr()
    bih = ((bih + bih.T) * 0.5).tocsr()

    skew = _norm_inf(d1 + d1.T)
    if skew != 0.0:
        raise StructureViolation("d1 skew-adjointness", skew)
    scale = _norm_inf(bih)
    gram_err = _norm_inf(dplus.T @ dplus + lap) / _norm_inf(lap)
    if gram_err > 1e-12:
        raise StructureViolation("dplus^T dplus == -lap", gram_err)
    _assert_positive_definite(bih, 2, "bih")
    _assert_positive_definite(-lap, 1, "-lap")
    if scale <= 0:
        raise StructureViolation("bih scale", scale)

    return DiscreteOperators(grid=grid, coefficients=coefficients, d1=d1, dplus=dplus,
                             lap=lap, bih=bih, g=g)


# ---------------------------------------------------------------------------
# generator assembly


@dataclass
class GeneratorAssembly:
    """Discrete generator A_h and energy metric H for Phi = (u, v, theta, eta).

    Flattened block order: u, v, theta, then eta_1..eta_Ns by ascending s.
    With I the Nx identity, wmu = (w_k mu_k) the history weights, 1 the
    Ns-vector of ones and T the Ns x Ns upwind matrix (-1/ds on the
    diagonal, 1/ds below it), the blocks are

        B   = [[0,                    I,                        0       ],
               [-bih + kappa^2 lap,   -2 diag(g) - 2 kappa d1,  -beta d1],
               [0,                    -beta d1,                 l lap   ]]

        A_h = [[B,                  F       ],
               [1 kron [0, 0, I],   T kron I]],   F = [0; 0; wmu^T kron lap]

        H   = blockdiag(h (bih - kappa^2 lap), h I, h I, diag(wmu h) kron (-lap))

    F is the memory flux LAP m(eta) in the theta row, and 1 kron [0, 0, I]
    feeds the source theta into every eta_k row.  Hence ||Phi||_H^2 =
    2 E(Phi) and the symmetric part of H A_h reduces exactly
    to damping + thermal gradient + upwind history dissipation.
    """

    params: PhysicalParams
    grid: SpatialGrid
    memory_grid: MemoryGrid
    ops: DiscreteOperators
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def coefficients(self) -> CoefficientField:
        return self.ops.coefficients

    @property
    def Nx(self) -> int:
        return self.grid.Nx

    @property
    def Ns(self) -> int:
        return self.memory_grid.Ns

    @property
    def dim(self) -> int:
        return self.Nx * (3 + self.Ns)

    @property
    def mechanical_block(self) -> sp.csr_matrix:
        """Sparse B, the 3Nx x 3Nx (u, v, theta) block of A_h (built lazily and cached).

        ParamOutOfRange when an entry's square overflows (kappa^2 is a
        product, so it gives inf there, not an exception): no norm of a
        run on such a block is finite.  The theta rows carry l LAP, so an
        entry there names l."""
        if "B" not in self._cache:
            ops, par, nx = self.ops, self.params, self.Nx
            # beta = 0 keeps the (u, v) rows structurally free of theta
            coupling = -par.beta * ops.d1 if par.beta != 0.0 else None
            B = sp.bmat(
                [[None, sp.identity(nx), None],
                 [-ops.bih + (par.kappa * par.kappa) * ops.lap,
                  -2.0 * sp.diags(ops.g) - 2.0 * par.kappa * ops.d1, coupling],
                 [None, coupling, par.l * ops.lap]], format="csr")
            for field, rows in (("l", B[2 * nx:]), ("mechanical_block", B[:2 * nx])):
                big = float(np.max(np.abs(rows.data), initial=0.0))
                if not big <= _ENTRY_MAX:
                    raise ParamOutOfRange(
                        field, f"an entry of size {big:.3g} in the "
                        f"{'theta' if field == 'l' else '(u, v)'} rows of the mechanical block "
                        f"(l = {par.l:.3g}) has a square beyond the float range")
            self._cache["B"] = B
        return self._cache["B"]

    @property
    def generator_matrix(self) -> sp.csr_matrix:
        """Sparse A_h (built lazily and cached)."""
        if "A" not in self._cache:
            self._cache["A"] = self._build_generator()
        return self._cache["A"]

    @property
    def metric_matrix(self) -> sp.csr_matrix:
        """Sparse H (built lazily and cached)."""
        if "H" not in self._cache:
            self._cache["H"] = self._build_metric()
        return self._cache["H"]

    def _build_generator(self) -> sp.csr_matrix:
        nx, ns, mg = self.Nx, self.Ns, self.memory_grid
        eye = sp.identity(nx, format="csr")
        wmu = sp.csr_matrix(mg.wmu[None, :])      # stores no zero weight
        upwind = sp.diags([np.full(ns, -1.0 / mg.ds), np.full(ns - 1, 1.0 / mg.ds)], [0, -1])
        # format="csr" keeps kron from storing the zeros of a nearly dense lap
        flux = sp.vstack([sp.csr_matrix((2 * nx, nx * ns)),
                          sp.kron(wmu, self.ops.lap, format="csr")])
        source = sp.kron(np.ones((ns, 1)), sp.hstack([sp.csr_matrix((nx, 2 * nx)), eye]),
                         format="csr")
        return sp.bmat([[self.mechanical_block, flux],
                        [source, sp.kron(upwind, eye, format="csr")]], format="csr")

    def _build_metric(self) -> sp.csr_matrix:
        h, ops, mg = self.grid.h, self.ops, self.memory_grid
        return sp.block_diag(
            [h * (ops.bih - self.params.kappa**2 * ops.lap),
             h * sp.identity(2 * self.Nx),
             sp.kron(sp.diags(mg.wmu * h), -ops.lap, format="csr")], format="csr")


def assemble_generator(operators: DiscreteOperators, memory_grid: MemoryGrid,
                       params: PhysicalParams) -> GeneratorAssembly:
    """Bundle operators, memory grid, and parameters into the assembled system."""
    if operators.grid.Nx != operators.coefficients.p_values.size:
        raise DimensionMismatch("operators and coefficient field disagree on Nx")
    if memory_grid.Ns < 1:
        raise DimensionMismatch("memory grid has no nodes")
    check_history_fits(operators.grid.Nx, memory_grid.Ns)
    return GeneratorAssembly(params=params, grid=operators.grid,
                             memory_grid=memory_grid, ops=operators)
