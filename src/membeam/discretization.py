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

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky_banded
from scipy.optimize import brentq

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

# A run holds a few (Nx, Ns) arrays at once: the state's history, the
# stepper's ring, gradient and sample temporaries.
_HISTORY_COPIES = 8


def check_history_fits(nx: float, ns: float):
    """Raise DimensionTooLarge, before anything is allocated, when
    _HISTORY_COPIES float64 arrays of shape (nx, ns) exceed physical memory."""
    need = _HISTORY_COPIES * 8.0 * float(nx) * float(ns)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if not need <= have:
        raise DimensionTooLarge(
            f"a history of {float(nx):.6g} x {float(ns):.6g} nodes needs about "
            f"{need / 2**30:.3g} GiB, more than the {have / 2**30:.3g} GiB of physical memory")


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
    nodes = h * np.arange(1, Nx + 1)
    nodes.flags.writeable = False
    return SpatialGrid(L=float(L), Nx=int(Nx), h=h, nodes=nodes)


@dataclass(frozen=True)
class MemoryGrid:
    """Uniform s-grid for the history field.

    Stored nodes are s_k = k*ds, k = 1..Ns (s = 0 carries the zero inflow
    value and is not stored).  Trapezoid weights on {0, ds, ..., Ns*ds}:
    w_k = ds for k < Ns and w_Ns = ds/2; the half cell at s = 0 contributes
    nothing to history quadratures since eta(0) = 0.  mu0_quadrature = sum
    w_k mu_k therefore underestimates mu0 by about ds*mu(0)/2 plus the
    truncated tail.
    """

    Ns: int
    ds: float
    s_max: float
    s_nodes: np.ndarray
    weights: np.ndarray
    mu: np.ndarray
    muprime: np.ndarray
    mu0_quadrature: float
    kernel: MemoryKernel


def _memory_grid_from_counts(kernel: MemoryKernel, ds: float, Ns: int) -> MemoryGrid:
    s_nodes = ds * np.arange(1, Ns + 1)
    weights = np.full(Ns, ds)
    weights[-1] = 0.5 * ds
    mu = np.asarray(kernel.mu(s_nodes), dtype=float)
    muprime = np.asarray(kernel.muprime(s_nodes), dtype=float)
    for arr in (s_nodes, weights, mu, muprime):
        arr.flags.writeable = False
    return MemoryGrid(Ns=Ns, ds=ds, s_max=Ns * ds, s_nodes=s_nodes, weights=weights,
                      mu=mu, muprime=muprime,
                      mu0_quadrature=float(weights @ mu), kernel=kernel)


def build_memory_grid(kernel: MemoryKernel, dt: float, trunc_tol: float = 1e-8) -> MemoryGrid:
    """Choose s_max so mu(s_max) <= trunc_tol * mu(ds/2), with ds = dt.

    ds is locked to the time step so the semi-Lagrangian stepper can shift
    the history by exactly one node per step.
    """
    if not (dt > 0):
        raise ParamOutOfRange("dt", "dt must be > 0")
    if not (0 < trunc_tol < 1):
        raise ParamOutOfRange("trunc_tol", "trunc_tol must lie in (0, 1)")
    ds = float(dt)
    bound = trunc_tol * float(kernel.mu(0.5 * ds))
    if bound <= 0:
        raise TruncationUnreachable("kernel vanishes at ds/2; no truncation point exists")

    if kernel.form == "prony":
        f = lambda s: float(kernel.mu(s)) - bound
        hi = 1.0
        while f(hi) > 0:
            hi *= 2.0
            if hi > 1e9:
                raise TruncationUnreachable("kernel decays too slowly for this tolerance")
        s_req = brentq(f, 0.0, hi) if f(0.0) > 0 else ds
    else:
        idx = np.flatnonzero(kernel.mu_table <= bound)
        if idx.size == 0:
            raise TruncationUnreachable(
                f"table ends at s = {kernel.s_max_table:g} with mu > {bound:.3e}")
        s_req = float(kernel.s_table[idx[0]])

    check_history_fits(1, s_req / ds)
    Ns = max(1, int(np.ceil(s_req / ds)))
    if Ns * ds > kernel.s_max_table:
        raise TruncationUnreachable(
            f"need s_max = {Ns * ds:g} beyond the table end {kernel.s_max_table:g}")
    return _memory_grid_from_counts(kernel, ds, Ns)


def memory_grid_from_counts(kernel: MemoryKernel, ds: float, Ns: int) -> MemoryGrid:
    """Direct construction with prescribed (ds, Ns), for reduced assemblies."""
    if not (ds > 0) or Ns < 1:
        raise ParamOutOfRange("ds/Ns", "need ds > 0 and Ns >= 1")
    check_history_fits(1, Ns)
    if Ns * ds > kernel.s_max_table:
        raise TruncationUnreachable(
            f"s_max = {Ns * ds:g} beyond the table end {kernel.s_max_table:g}")
    return _memory_grid_from_counts(kernel, float(ds), int(Ns))


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
    rows, cols, data = [], [], []
    rows += [0]
    cols += [0]
    data += [2.0 / h**2]
    for i in range(1, Nx + 1):
        j = i - 1
        if j - 1 >= 0:
            rows.append(i); cols.append(j - 1); data.append(1.0 / h**2)
        rows.append(i); cols.append(j); data.append(-2.0 / h**2)
        if j + 1 < Nx:
            rows.append(i); cols.append(j + 1); data.append(1.0 / h**2)
    rows += [Nx + 1]
    cols += [Nx - 1]
    data += [2.0 / h**2]
    return sp.csr_matrix((data, (rows, cols)), shape=(Nx + 2, Nx))


def _banded_upper(matrix: sp.spmatrix, bandwidth: int) -> np.ndarray:
    """Upper-banded storage (scipy 'ab' layout) of a symmetric sparse matrix."""
    n = matrix.shape[0]
    dense_diags = np.zeros((bandwidth + 1, n))
    coo = matrix.tocoo()
    for i, j, v in zip(coo.row, coo.col, coo.data):
        if 0 <= j - i <= bandwidth:
            dense_diags[bandwidth - (j - i), j] += v
    return dense_diags


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

    skew = sp.linalg.norm(d1 + d1.T, np.inf)
    if skew != 0.0:
        raise StructureViolation("d1 skew-adjointness", skew)
    scale = sp.linalg.norm(bih, np.inf)
    gram_err = sp.linalg.norm(dplus.T @ dplus + lap, np.inf) / sp.linalg.norm(lap, np.inf)
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

    def block_slice(self, block: str, k: int = 0) -> slice:
        """Index range of a block: 'u', 'v', 'theta', or ('eta', k) with k >= 1."""
        nx = self.Nx
        base = {"u": 0, "v": 1, "theta": 2}
        if block == "eta":
            if not 1 <= k <= self.Ns:
                raise DimensionMismatch(f"eta block index {k} outside 1..{self.Ns}")
            start = (3 + (k - 1)) * nx
        else:
            start = base[block] * nx
        return slice(start, start + nx)

    @property
    def mechanical_block(self) -> sp.csr_matrix:
        """Sparse B, the 3Nx x 3Nx (u, v, theta) block of A_h (built lazily and cached)."""
        if "B" not in self._cache:
            ops, par = self.ops, self.params
            # beta = 0 keeps the (u, v) rows structurally free of theta
            coupling = -par.beta * ops.d1 if par.beta != 0.0 else None
            self._cache["B"] = sp.bmat(
                [[None, sp.identity(self.Nx), None],
                 [-ops.bih + par.kappa**2 * ops.lap,
                  -2.0 * sp.diags(ops.g) - 2.0 * par.kappa * ops.d1, coupling],
                 [None, coupling, par.l * ops.lap]], format="csr")
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
        wmu = sp.csr_matrix((mg.weights * mg.mu)[None, :])      # stores no zero weight
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
             sp.kron(sp.diags(mg.weights * mg.mu * h), -ops.lap, format="csr")], format="csr")

    def export_coo(self, path, matrix: str = "generator"):
        """Write the generator or metric as 'row col value' text, one entry
        per line, preceded by a header comment with the block ordering."""
        mat = {"generator": self.generator_matrix, "metric": self.metric_matrix}[matrix].tocoo()
        with open(path, "w") as fh:
            fh.write(f"# membeam {matrix} matrix, coordinate format\n")
            fh.write(f"# dim {mat.shape[0]} nnz {mat.nnz}\n")
            fh.write("# block order: u, v, theta, eta_k by ascending s; "
                     f"Nx = {self.Nx}, Ns = {self.Ns}\n")
            for i, j, v in zip(mat.row, mat.col, mat.data):
                fh.write(f"{i} {j} {v:.17g}\n")


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
