"""Energy, dissipation, Lyapunov functionals, certification, decay fitting.

Every functional is the discrete quadrature analog of its continuous
counterpart, with the uniform weight h on interior x-nodes and w_k mu_k
on the history grid.  Time derivatives needed by the inequality checks
(dF1/dt, dF2/dt, theta_t inside I) are evaluated analytically from the
generator rows, never by finite-differencing samples, so the checks are
free of time-discretization noise.  The functionals are evaluated on a
stack of samples (Samples) in one vectorized pass; a single state is the
one-sample stack.

The spectrum and the spectral abscissa are dense and stop at
DENSE_MAX_DIM.  resolvent_check works at any size without assembling
A_h: it solves through stepper.SchurSolver and reads ||I - A_h||_1 off
the blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigvals as dense_eigvals
from scipy.linalg import eigvalsh_tridiagonal

from .discretization import DENSE_MAX_DIM, GeneratorAssembly
from .errors import (
    DimensionTooLarge,
    EigensolveFailed,
    EnergyUnderflow,
    InfeasibleMultipliers,
    LinearSolveFailure,
    ParamOutOfRange,
    SingularResolvent,
    WindowTooSmall,
)
from .model import (
    CoefficientField,
    KernelReport,
    MemoryKernel,
    PhysicalParams,
    State,
    validate_kernel,
)

_ENERGY_FLOOR = 1e-300
_MIN_FIT_SAMPLES = 10
_MIN_PEAKS = 5

# Tolerances of certify_trajectory: every check, and the relative energy
# increase between samples.
_CHECK_TOL = 1e-8
_MONOTONE_TOL = 1e-10

# Seeded random states of check_dissipativity.
_DISSIPATIVITY_SAMPLES = 1000

# Most iterations of norm1_inverse_estimate (ITMAX of LAPACK's dlacn2).
_NORMEST_ITERATIONS = 5

# Columns of one block of grad_sq_norms: its (Nx+1, 512) gradient is
# 0.25 MiB at Nx = 64, against the 9 MiB of the default run's history.  On
# a 2-core x86 the (64, 18422) pass took 3.1 ms in such blocks, 3.4 ms in one.
_GRAD_BLOCK = 512


# ---------------------------------------------------------------------------
# gradient helpers (forward difference with Dirichlet ends; the exact
# square root of -LAP, so these norms are the H-metric norms)


def grad_cols(arr: np.ndarray, h: float) -> np.ndarray:
    """Forward-difference gradient of every column of an (Nx, m) array."""
    nx, m = arr.shape
    out = np.empty((nx + 1, m))
    out[:-1] = arr
    out[-1] = 0.0
    out[1:] -= arr
    out /= h
    return out


def grad_sq_norms(arr: np.ndarray, h: float) -> np.ndarray:
    """||D+ a_k||^2 for every column a_k of an (Nx, m) array, a block of
    at most _GRAD_BLOCK + 1 columns at a time, so a history pass holds no
    (Nx+1, m) gradient.  einsum sums a lone column in another order than
    it sums a column of a wider block, so a last block of one column joins
    the block before it, and every norm is bitwise that of one pass."""
    m = arr.shape[1]
    out = np.empty(m)
    bounds = list(range(0, m, _GRAD_BLOCK)) + [m]
    if len(bounds) > 2 and m - bounds[-2] == 1:
        del bounds[-2]
    for lo, hi in zip(bounds, bounds[1:]):
        g = grad_cols(arr[:, lo:hi], h)
        np.einsum("ij,ij->j", g, g, out=out[lo:hi])
    return out


def poincare_constant(assembly: GeneratorAssembly) -> float:
    """Sharp discrete Poincare constant 1/lambda_min(-LAP)."""
    nx, h = assembly.Nx, assembly.grid.h
    lam_min = eigvalsh_tridiagonal(
        np.full(nx, 2.0 / h**2), np.full(nx - 1, -1.0 / h**2),
        select="i", select_range=(0, 0))[0]
    return 1.0 / float(lam_min)


# ---------------------------------------------------------------------------
# core functionals


@dataclass(frozen=True)
class HistorySums:
    """The history sums every functional is built from: the only way a
    sample reads its history.

    hist_mu        sum_k w_k mu_k ||D+ eta_k||^2
    hist_mup       sum_k w_k mu'_k ||D+ eta_k||^2
    moment         m(eta) = sum_k w_k mu_k eta_k
    mass           sum_k w_k mu_k
    upwind_moment  sum_k w_k mu_k (eta_k - eta_{k-1}) / ds with eta_0 = 0, so
                   that dm/dt = mass theta - upwind_moment (dF2/dt reads it)

    history_sums evaluates them by full quadrature for any eta; a split
    run supplies its own (stepper._SplitRun).  In a Samples stack the
    scalars have shape (n,) and the vectors (Nx, n).
    """

    hist_mu: float
    hist_mup: float
    moment: np.ndarray
    mass: float
    upwind_moment: np.ndarray


def history_sums(eta: np.ndarray, assembly: GeneratorAssembly) -> HistorySums:
    """Full quadrature of the history sums: one gradient pass over the
    columns of eta and three weighted column sums, O(Nx Ns)."""
    mg, colnorms = assembly.memory_grid, grad_sq_norms(eta, assembly.grid.h)
    moment = eta @ mg.wmu
    return HistorySums(hist_mu=float(colnorms @ mg.wmu), hist_mup=float(colnorms @ mg.wmup),
                       moment=moment, mass=float(np.sum(mg.wmu)),
                       upwind_moment=(moment - eta[:, :-1] @ mg.wmu[1:]) / mg.ds)


def take_sample(src) -> tuple:
    """(t, u, v, theta, history sums) of a source with t, u, v, theta and
    either its own history_sums() or a history eta and its assembly, which
    full quadrature sums; u, v and theta are copied, as a run moves on."""
    own = getattr(src, "history_sums", None)
    sums = own() if own is not None else history_sums(src.eta, src.assembly)
    return src.t, src.u.copy(), src.v.copy(), src.theta.copy(), sums


@dataclass(frozen=True)
class Samples:
    """n samples of one assembly stacked for one vectorized pass of the
    functionals: t of shape (n,), the profiles u, v, theta as the columns
    of (Nx, n) arrays, and their stacked HistorySums."""

    assembly: GeneratorAssembly
    t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    sums: HistorySums

    @classmethod
    def stack(cls, assembly: GeneratorAssembly, samples) -> "Samples":
        """The stack of take_sample tuples, in order."""
        t, u, v, theta, sums = zip(*samples)
        return cls(assembly=assembly, t=np.array(t), u=np.array(u).T, v=np.array(v).T,
                   theta=np.array(theta).T, sums=HistorySums(**{
                       f.name: np.array([getattr(x, f.name) for x in sums]).T
                       for f in fields(HistorySums)}))

    @classmethod
    def of(cls, src) -> "Samples":
        """The one-sample stack of a State or a run."""
        return cls.stack(src.assembly, [take_sample(src)])


def _col_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_j . b_j for every column j of two (Nx, n) arrays."""
    return np.einsum("ij,ij->j", a, b)


def _functionals(s: Samples) -> SimpleNamespace:
    """E, D, F1, F2, I and the inner products the lemma sides reuse, one
    array entry per sample of the stack.

    The one implementation of every functional; it reads the history only
    through the stacked sums.  theta_t inside I comes from the generator
    row l LAP theta + LAP m(eta) - beta D1 v.
    """
    asm, sums = s.assembly, s.sums
    h, ops = asm.grid.h, asm.ops
    kap, beta, l = asm.params.kappa, asm.params.beta, asm.params.l
    u, v, th, moment = s.u, s.v, s.theta, sums.moment

    uu = _col_dots(u, ops.bih @ u)
    vv = _col_dots(v, v)
    tt = _col_dots(th, th)
    gugu = grad_sq_norms(u, h)
    gthgth = grad_sq_norms(th, h)
    thdot = l * (ops.lap @ th) + ops.lap @ moment
    if beta != 0.0:
        thdot = thdot - beta * (ops.d1 @ v)
    g = ops.g[:, None]

    return SimpleNamespace(
        E=0.5 * h * (uu + kap**2 * gugu + vv + tt + sums.hist_mu),
        D=-2.0 * h * _col_dots(g * v, v) - l * h * gthgth + 0.5 * h * sums.hist_mup,
        F1=h * (_col_dots(u, v) + _col_dots(u, g * u)),
        F2=-h * _col_dots(th, moment),
        Ifun=-h * _col_dots(thdot, moment),
        uu=uu, vv=vv, tt=tt, gugu=gugu, gthgth=gthgth, hist_mup=sums.hist_mup,
        th_upwind=_col_dots(th, sums.upwind_moment))


def energy(state: State) -> float:
    """E = 1/2 Phi^T H Phi = (h/2)[u^T BIH u + kappa^2 ||D+ u||^2 + ||v||^2
    + ||theta||^2 + sum_k w_k mu_k ||D+ eta_k||^2]."""
    return float(_functionals(Samples.of(state)).E[0])


def dissipation(state: State) -> float:
    """D = -2 h sum g_i v_i^2 - l h ||D+ theta||^2
    + (h/2) sum_k w_k mu'_k ||D+ eta_k||^2; nonpositive under H2 and g > 0."""
    return float(_functionals(Samples.of(state)).D[0])


def lyap_F1(state: State) -> float:
    """F1 = h (u . v + u . (g u))."""
    return float(_functionals(Samples.of(state)).F1[0])


def lyap_F2(state: State) -> float:
    """F2 = -h sum_k w_k mu_k (theta . eta_k)."""
    return float(_functionals(Samples.of(state)).F2[0])


def lyap_I(state: State) -> float:
    """I = -h sum_k w_k mu_k (theta_t . eta_k), theta_t from the generator row."""
    return float(_functionals(Samples.of(state)).Ifun[0])


@dataclass(frozen=True)
class MultiplierConfig:
    """Lyapunov weights and derived constants for L = N E + N1 F1 + N2 F2."""

    N: float
    N1: float
    N2: float
    Ckappa: float
    C1: float
    C2: float
    C3: float
    Cp: float
    mu0: float
    delta1: float
    gamma1: float
    gamma2: float
    lam: float
    gamma_certified: float


def choose_multipliers(params: PhysicalParams, kernel: MemoryKernel,
                       coefficients: CoefficientField, Cp: float,
                       report: KernelReport | None = None) -> MultiplierConfig:
    """Pick weights satisfying every strict inequality with a 10% margin.

    The free constants are fixed: sigma1 = sigma2 = 1, sigma3 = mu0,
    N1 = 1, Ckappa = 5, and N2 and N are 1.1 times their floors.  With
    sigma3 = mu0 the F2 coefficient mu0 - sigma3/2 = mu0/2 is positive
    whenever the kernel mass is.  Coercivity uses the damping lower bound
    alpha3; upper bounds use alpha4.  The equivalence constants use the
    bound-valid forms zeta1 = max{(sigma + 2 alpha4) Cp / kappa^2,
    1/sigma} and zeta2 = max{mu0, Cp}.  mu0 and delta1 come from report,
    the kernel's validate_kernel certificate, which is taken here when not
    given.
    """
    if not (Cp > 0):
        raise ParamOutOfRange("Cp", "Poincare constant must be > 0")
    if report is None:
        report = validate_kernel(kernel)
    mu0, delta1 = report.mu0, report.delta1
    if mu0 <= 1e-14:
        raise InfeasibleMultipliers("kernel mass mu0 is degenerate")
    sigma1 = sigma2 = 1.0
    sigma = 1.0
    sigma3 = mu0
    slack = 1.1
    Ckappa = 5.0
    beta, kappa, l = params.beta, params.kappa, params.l
    a3, a4 = coefficients.alpha3, coefficients.alpha4

    # squares as products: past the float range they give inf or 0, not an
    # exception, and the range checks below name them
    kappa2, beta2 = kappa * kappa, beta * beta
    if not kappa2 > 0:
        raise ParamOutOfRange("kappa", f"kappa^2 = {kappa:g}^2 underflows to 0")

    C1 = beta * mu0 * sigma2 / 2.0
    C2 = l * mu0 * sigma1 / 2.0
    C3 = l / (2.0 * sigma1 * delta1) + mu0 * beta / (2.0 * sigma2 * delta1) + l * mu0 / delta1

    N1 = 1.0
    n2_floor = N1 * beta2 / (2.0 * kappa2 * (mu0 - sigma3 / 2.0))
    N2 = slack * n2_floor if n2_floor > 0 else 1.0
    n_floor = max((Ckappa * N1 + C1 * N2) / (2.0 * a3),
                  N2 * C2 / l,
                  2.0 * N2 * (C3 + Cp / (2.0 * sigma3)))
    zeta1 = max((sigma + 2.0 * a4) * Cp / kappa2, 1.0 / sigma)
    zeta2 = max(mu0, Cp)
    gamma0 = N1 * zeta1 + N2 * zeta2
    N = slack * max(n_floor, gamma0)

    gamma1 = N - gamma0
    gamma2 = N + gamma0
    ct1 = 2.0 * a3 * N - Ckappa * N1 - C1 * N2
    ct3 = N / 2.0 - N2 * (C3 + Cp / (2.0 * sigma3))
    ct4 = N2 * (mu0 - sigma3 / 2.0) - N1 * beta2 / (2.0 * kappa2)
    derived = {"kappa^2": kappa2, "beta^2": beta2, "C1": C1, "C3": C3, "N2": N2,
               "zeta1": zeta1, "N": N, "gamma2": gamma2, "ct1": ct1, "ct3": ct3, "ct4": ct4}
    overflowed = [name for name, value in derived.items() if not math.isfinite(value)]
    if overflowed:
        raise InfeasibleMultipliers(
            f"derived constants out of floating-point range: {', '.join(overflowed)}")
    if min(ct1, ct3, ct4, gamma1) <= 0:
        raise InfeasibleMultipliers("derived Lyapunov coefficients are not all positive")
    lam = 2.0 * min(N1, N1 / 4.0, ct1, ct4, ct3 * delta1)
    return MultiplierConfig(
        N=N, N1=N1, N2=N2, Ckappa=Ckappa, C1=C1, C2=C2, C3=C3, Cp=Cp,
        mu0=mu0, delta1=delta1, gamma1=gamma1, gamma2=gamma2, lam=lam,
        gamma_certified=lam / gamma2)


def choose_multipliers_for(assembly: GeneratorAssembly,
                           report: KernelReport | None = None) -> MultiplierConfig:
    """choose_multipliers with the sharp discrete Poincare constant of the grid."""
    return choose_multipliers(assembly.params, assembly.memory_grid.kernel,
                              assembly.coefficients, poincare_constant(assembly), report)


# ---------------------------------------------------------------------------
# diagnostics records


@dataclass
class DiagnosticsRecord:
    """Per-sample functional values; dE_numeric and identity_residual are
    filled by the simulation driver once neighboring samples exist.  The
    left side of lemma 4.3 is Ifun itself."""

    t: float
    E: float
    D: float
    F1: float
    F2: float
    Ifun: float
    Ltotal: float
    lemma42_lhs: float
    lemma42_rhs: float
    lemma43_rhs: float
    lemma44_lhs: float
    lemma44_rhs: float
    sandwich_low: float
    sandwich_high: float
    dE_numeric: float = math.nan
    identity_residual: float = math.nan


def diagnostics_record(src, mcfg: MultiplierConfig) -> DiagnosticsRecord:
    """Every tracked functional and inequality side at one state: the
    one-sample case of diagnostics_records.

    src is anything take_sample reads: a State or a run of either scheme.
    A split run supplies its own history sums, so that the sample needs no
    materialized history: one O(Ns) pass over its ring of column norms and
    O(Nx * modes) row work, and for a table kernel one O(Nx Ns) product
    more.
    """
    return diagnostics_records(Samples.of(src), mcfg)[0]


def diagnostics_records(samples: Samples, mcfg: MultiplierConfig) -> list[DiagnosticsRecord]:
    """Every tracked functional and inequality side at each sample of a
    stack, in one vectorized pass.

    Lemma sides (lhs <= rhs expected): 4.2 is dF1/dt from the generator rows
    against -<p u_xx, u_xx> - kappa^2/4 ||u_x||^2 + Ck ||v||^2
    + beta^2/(2 kappa^2) ||theta||^2; 4.3 is I (Ifun) against C1 ||v||^2
    + C2 ||theta_x||^2 - C3 sum w_k mu'_k ||eta_x,k||^2; 4.4 is dF2/dt
    against the same bound with the sigma3 = mu0 split.
    """
    asm = samples.assembly
    h, ops = asm.grid.h, asm.ops
    kap, beta = asm.params.kappa, asm.params.beta
    u, v, th = samples.u, samples.v, samples.theta
    f = _functionals(samples)
    L = mcfg.N * f.E + mcfg.N1 * f.F1 + mcfg.N2 * f.F2

    l42_lhs = h * (f.vv - f.uu - kap**2 * f.gugu - 2.0 * kap * _col_dots(u, ops.d1 @ v)
                   - beta * _col_dots(u, ops.d1 @ th))
    l42_rhs = h * (-f.uu - 0.25 * kap**2 * f.gugu + mcfg.Ckappa * f.vv
                   + beta**2 / (2.0 * kap**2) * f.tt)
    l43_rhs = h * (mcfg.C1 * f.vv + mcfg.C2 * f.gthgth - mcfg.C3 * f.hist_mup)
    # dF2/dt = I - h <theta, dm/dt>, dm/dt = mass theta - upwind_moment
    l44_lhs = f.Ifun - h * (samples.sums.mass * f.tt - f.th_upwind)
    l44_rhs = h * (mcfg.C1 * f.vv + mcfg.C2 * f.gthgth
                   - 0.5 * mcfg.mu0 * f.tt
                   - (mcfg.C3 + mcfg.Cp / (2.0 * mcfg.mu0)) * f.hist_mup)

    # in the field order of DiagnosticsRecord
    columns = (samples.t, f.E, f.D, f.F1, f.F2, f.Ifun, L, l42_lhs, l42_rhs, l43_rhs,
               l44_lhs, l44_rhs, mcfg.gamma1 * f.E - L, L - mcfg.gamma2 * f.E)
    return [DiagnosticsRecord(*row) for row in zip(*(np.asarray(c).tolist() for c in columns))]


# ---------------------------------------------------------------------------
# spectral certification


def check_dissipativity(assembly: GeneratorAssembly) -> float:
    """Worst Rayleigh ratio Phi^T H (A Phi) / (Phi^T H Phi) over 1000
    random states drawn with seed 0; must be <= 1e-10 for a certified
    assembly."""
    A = assembly.generator_matrix
    H = assembly.metric_matrix
    rng = np.random.default_rng(0)
    worst = -np.inf
    remaining = _DISSIPATIVITY_SAMPLES
    batch = max(1, min(64, int(2e7 // max(assembly.dim, 1))))
    while remaining > 0:
        b = min(batch, remaining)
        phi = rng.standard_normal((assembly.dim, b))
        num = np.einsum("ij,ij->j", phi, H @ (A @ phi))
        den = np.einsum("ij,ij->j", phi, H @ phi)
        worst = max(worst, float(np.max(num / den)))
        remaining -= b
    return worst


def eigenvalues(assembly: GeneratorAssembly) -> np.ndarray:
    """Dense spectrum, sorted by descending real part (dim <= 2000)."""
    if assembly.dim > DENSE_MAX_DIM:
        raise DimensionTooLarge(
            f"dense spectrum limited to dimension {DENSE_MAX_DIM}, got {assembly.dim}")
    try:
        w = dense_eigvals(assembly.generator_matrix.toarray())
    except Exception as exc:
        raise EigensolveFailed(str(exc)) from exc
    order = np.lexsort((w.imag, -w.real))
    return w[order]


def spectral_abscissa(assembly: GeneratorAssembly) -> float:
    """max Re(lambda) from the dense spectrum; DimensionTooLarge above
    DENSE_MAX_DIM."""
    return float(eigenvalues(assembly)[0].real)


def _resolvent_norm1(assembly: GeneratorAssembly) -> float:
    """||I - A_h||_1, the largest column sum of |I - A_h|, from the blocks.

    A (u, v, theta) column sums the column of |I - B|, plus Ns on a theta
    column (the source -1 in every eta_k row).  The eta_k column at node i
    sums |wmu_k| ||lap[:, i]||_1 from the flux, 1 + 1/ds on the diagonal
    and 1/ds below it when k < Ns.
    """
    nx, mg = assembly.Nx, assembly.memory_grid
    mech = np.asarray(abs(sp.identity(3 * nx) - assembly.mechanical_block).sum(axis=0)).ravel()
    mech[2 * nx:] += assembly.Ns
    lap_norm = float(np.max(abs(assembly.ops.lap).sum(axis=0)))
    hist = np.abs(mg.wmu) * lap_norm + (1.0 + 1.0 / mg.ds)
    hist[:-1] += 1.0 / mg.ds
    return float(max(mech.max(), hist.max()))


def norm1_inverse_estimate(solve, solve_transposed, n: int) -> float:
    """The Hager-Higham estimate of ||A^-1||_1 from solves with A and A^T
    on vectors of length n: the algorithm of LAPACK's dlacn2 (Higham, ACM
    TOMS 14, 1988).  From x = e/n it takes at most _NORMEST_ITERATIONS
    sign/argmax steps, then tries the alternating-sign vector
    x_i = (-1)^i (1 + i/(n - 1)).  It draws no random vector, so it repeats
    exactly, and is a lower bound on ||A^-1||_1 up to rounding.  Its sums
    and argmaxes are ufunc reductions: OpenBLAS threads a product of a
    history's length, which then takes ms on a loaded machine.
    """
    y = solve(np.full(n, 1.0 / n))
    if n == 1:
        return float(abs(y[0]))
    est = float(np.abs(y).sum())
    signs = y >= 0
    j = int(np.argmax(np.abs(solve_transposed(np.where(signs, 1.0, -1.0)))))
    for it in range(2, _NORMEST_ITERATIONS + 1):
        unit = np.zeros(n)
        unit[j] = 1.0
        y = solve(unit)
        est_old, est = est, float(np.abs(y).sum())
        if it == _NORMEST_ITERATIONS or np.array_equal(y >= 0, signs) or est <= est_old:
            break
        signs = y >= 0
        z = solve_transposed(np.where(signs, 1.0, -1.0))
        j_last, j = j, int(np.argmax(np.abs(z)))
        if z[j_last] == abs(z[j]):
            break
    alt = 1.0 + np.arange(n) / (n - 1)
    alt[1::2] *= -1.0
    return max(est, 2.0 * float(np.abs(solve(alt)).sum()) / (3 * n))


def resolvent_check(assembly: GeneratorAssembly) -> float:
    """1-norm condition estimate of (I - A_h); finite iff nonsingular.

    The inverse is applied through stepper.SchurSolver with tau = 1, which
    factorizes only the 3Nx Schur complement, ||(I - A_h)^-1||_1 is
    estimated by norm1_inverse_estimate, and ||I - A_h||_1 is read off the
    blocks, so A_h is never assembled.
    """
    from .stepper import SchurSolver   # stepper imports this module

    try:
        solver = SchurSolver(assembly, 1.0)
    except LinearSolveFailure as exc:
        raise SingularResolvent(str(exc)) from exc
    n3, ns, dim = 3 * assembly.Nx, assembly.Ns, assembly.dim

    def blockwise(solve):
        def apply(x):
            x = np.ravel(x)
            w, eta = solve(x[:n3], x[n3:].reshape(ns, -1).T)
            return np.concatenate([w, eta.T.ravel()])
        return apply

    try:
        inv_norm = norm1_inverse_estimate(blockwise(solver.solve),
                                          blockwise(solver.solve_transposed), dim)
    except LinearSolveFailure as exc:
        raise SingularResolvent(f"condition estimate failed: {exc}") from exc
    cond = float(_resolvent_norm1(assembly) * inv_norm)
    if not np.isfinite(cond):
        raise SingularResolvent("condition estimate is not finite")
    return cond


# ---------------------------------------------------------------------------
# decay fitting


@dataclass(frozen=True)
class DecayFit:
    """Fitted exponential envelope E(t) ~ K_fit E(0) exp(-gamma_fit t)."""

    gamma_fit: float
    K_fit: float
    r2: float
    window: tuple
    n_points: int


def fit_decay(records, window: tuple) -> DecayFit:
    """Fit gamma and K to the peak envelope of the records' energy inside
    the window.

    The line through (t, ln E) is fitted through the local maxima of E,
    which is robust when the dominant eigenvalue pair is oscillatory.  A
    window with fewer than five interior maxima (a monotone one has none)
    is fitted through all its samples.  records are read for their t and
    E; K_fit is exp(intercept)/E(0) with E(0) the first record's.
    """
    t = np.array([r.t for r in records], dtype=float)
    E = np.array([r.E for r in records], dtype=float)
    if t.size == 0:
        raise WindowTooSmall("empty trajectory")
    E0 = E[0]
    t1, t2 = float(window[0]), float(window[1])
    m = (t >= t1) & (t <= t2)
    tw, Ew = t[m], E[m]
    if tw.size < _MIN_FIT_SAMPLES:
        raise WindowTooSmall(f"only {tw.size} samples in window [{t1}, {t2}]")
    alive = Ew > _ENERGY_FLOOR
    if np.count_nonzero(alive) < _MIN_FIT_SAMPLES:
        raise EnergyUnderflow("energy underflowed inside the fit window")
    tw, Ew = tw[alive], Ew[alive]

    interior = np.flatnonzero((Ew[1:-1] > Ew[:-2]) & (Ew[1:-1] >= Ew[2:])) + 1
    if interior.size >= _MIN_PEAKS:
        tw, Ew = tw[interior], Ew[interior]

    lE = np.log(Ew)
    slope, intercept = np.polyfit(tw, lE, 1)
    pred = slope * tw + intercept
    ss_res = float(np.sum((lE - pred) ** 2))
    ss_tot = float(np.sum((lE - lE.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(gamma_fit=float(-slope), K_fit=float(np.exp(intercept) / E0),
                    r2=float(r2), window=(t1, t2), n_points=int(tw.size))


# ---------------------------------------------------------------------------
# certification report


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst: float
    tol: float
    passed: bool

    def format_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"check {self.name}: worst={self.worst:.6e} tol={self.tol:.1e} {status}"


def certify_trajectory(records) -> list[CheckResult]:
    """Evaluate every trajectory invariant over the recorded samples.

    Each line of the certification report maps to one invariant: energy
    nonnegativity, dissipation sign, monotone energy decay between
    samples, the three lemma inequalities, and the Lyapunov sandwich.
    Every check has the tolerance 1e-8 but the monotone decay, which
    bounds the relative energy increase between samples by 1e-10.
    Fewer than two records certify nothing: a failing
    trajectory_recorded check (worst = the record count) is added.
    """
    E = np.array([r.E for r in records])
    D = np.array([r.D for r in records])
    results = [
        CheckResult("energy_nonnegative", float(-E.min()), _CHECK_TOL,
                    bool(E.min() >= -_CHECK_TOL)),
        CheckResult("dissipation_nonpositive", float(D.max()), _CHECK_TOL,
                    bool(D.max() <= _CHECK_TOL)),
    ]
    if E.size < 2:
        results.append(CheckResult("trajectory_recorded", float(E.size), 2.0, False))
    else:
        rel_inc = np.diff(E) / np.maximum(E[:-1], _ENERGY_FLOOR)
        worst = float(rel_inc.max())
        results.append(CheckResult("energy_monotone_decay", worst, _MONOTONE_TOL,
                                   bool(worst <= _MONOTONE_TOL)))
    for name, lo, hi in (("lemma_F1_derivative", "lemma42_lhs", "lemma42_rhs"),
                         ("lemma_I_bound", "Ifun", "lemma43_rhs"),
                         ("lemma_F2_derivative", "lemma44_lhs", "lemma44_rhs")):
        margin = np.array([getattr(r, lo) - getattr(r, hi) for r in records])
        worst = float(np.max(margin))
        results.append(CheckResult(name, worst, _CHECK_TOL, bool(worst <= _CHECK_TOL)))
    for name, attr in (("sandwich_lower", "sandwich_low"), ("sandwich_upper", "sandwich_high")):
        worst = float(np.max([getattr(r, attr) for r in records]))
        results.append(CheckResult(name, worst, _CHECK_TOL, bool(worst <= _CHECK_TOL)))
    return results
