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
DENSE_MAX_DIM (discretization.check_dense).  resolvent_check works at
any size without assembling A_h: discretization.SchurSolver, the owner
of I - tau A_h, solves with it and gives ||I - A_h||_1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np
from scipy.linalg import eigvals as dense_eigvals

from .discretization import (LINEAR_SOLVER_TOL, CoupledSystem, GeneratorAssembly, SchurSolver,
                             check_dense)
from .errors import LinearSolveFailure, MembeamError
from .model import (
    CoefficientField,
    KernelReport,
    MemoryKernel,
    PhysicalParams,
    validate_kernel,
)

_ENERGY_FLOOR = 1e-300
_MIN_FIT_SAMPLES = 10
_MIN_PEAKS = 5

# Tolerances of the checks that judge a run (certify_run): every check of
# certify_trajectory, the relative energy increase between samples, the
# relative drift of the running history sums, and the least decay
# gamma_fit (t2 - t1) across the fit window.  The drift is an error in every
# step's right-hand side, so it gets a step residual's bound: one unit of
# rounding (1.1e-16) a step stays below it over stepper.MAX_STEPS steps.  A
# constant energy fits a rate of rounding size, which may come out positive.
_CHECK_TOL = 1e-8
_MONOTONE_TOL = 1e-10
DRIFT_TOL = LINEAR_SOLVER_TOL
_MIN_FIT_DECAY = _CHECK_TOL

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
    """Sharp discrete Poincare constant 1/lambda_min(-LAP), with the least
    eigenvalue of the Dirichlet Laplacian in closed form,
    lambda_min = (4/h^2) sin^2(pi / (2 (Nx + 1)))."""
    nx, h = assembly.Nx, assembly.grid.h
    return 1.0 / (4.0 / h**2 * math.sin(math.pi / (2 * (nx + 1))) ** 2)


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
    """E, D, F1, F2, I, dF1/dt and the inner products the lemma sides
    reuse, one array entry per sample of the stack.

    The one implementation of every functional; it reads the history only
    through the stacked sums.  The time derivatives come from one product
    of the generator's mechanical block B with the stacked (u, v, theta):
    theta_t inside I is its theta rows plus the flux LAP m(eta), and
    dF1/dt = h (v . v + u . v_t + 2 u . (g v)), lemma 4.2's left side,
    reads v_t off its v rows.
    """
    asm, sums = s.assembly, s.sums
    h, ops, nx = asm.grid.h, asm.ops, asm.grid.Nx
    kap, l = asm.params.kappa, asm.params.l
    u, v, th, moment = s.u, s.v, s.theta, sums.moment

    uu = _col_dots(u, ops.bih @ u)
    vv = _col_dots(v, v)
    tt = _col_dots(th, th)
    gugu = grad_sq_norms(u, h)
    gthgth = grad_sq_norms(th, h)
    rows = asm.mechanical_block @ np.vstack([u, v, th])
    thdot = rows[2 * nx:] + ops.lap @ moment
    g = ops.coefficients.g_values[:, None]
    gv = g * v

    return SimpleNamespace(
        E=0.5 * h * (uu + kap**2 * gugu + vv + tt + sums.hist_mu),
        D=-2.0 * h * _col_dots(gv, v) - l * h * gthgth + 0.5 * h * sums.hist_mup,
        F1=h * (_col_dots(u, v) + _col_dots(u, g * u)),
        F2=-h * _col_dots(th, moment),
        Ifun=-h * _col_dots(thdot, moment),
        dF1=h * (vv + _col_dots(u, rows[nx:2 * nx]) + 2.0 * _col_dots(u, gv)),
        uu=uu, vv=vv, tt=tt, gugu=gugu, gthgth=gthgth, hist_mup=sums.hist_mup,
        th_upwind=_col_dots(th, sums.upwind_moment))


def functionals(src) -> SimpleNamespace:
    """E, D, F1, F2 and Ifun of one state as floats, from one pass of the
    functionals; src is anything take_sample reads, a State or a run.

    E  = (h/2)[u^T BIH u + kappa^2 ||D+ u||^2 + ||v||^2 + ||theta||^2
         + sum_k w_k mu_k ||D+ eta_k||^2] = 1/2 Phi^T H Phi
    D  = -2 h sum g_i v_i^2 - l h ||D+ theta||^2
         + (h/2) sum_k w_k mu'_k ||D+ eta_k||^2, nonpositive under H2 and g > 0
    F1 = h (u . v + u . (g u))
    F2 = -h sum_k w_k mu_k (theta . eta_k)
    I  = -h sum_k w_k mu_k (theta_t . eta_k), theta_t from the generator row
    """
    f = _functionals(Samples.of(src))
    return SimpleNamespace(**{name: float(getattr(f, name)[0])
                              for name in ("E", "D", "F1", "F2", "Ifun")})


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
    gamma1: float
    gamma2: float
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
        raise MembeamError("Poincare constant must be > 0")
    if report is None:
        report = validate_kernel(kernel)
    mu0, delta1 = report.mu0, report.delta1
    if mu0 <= 1e-14:
        raise MembeamError("kernel mass mu0 is degenerate")
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
        raise MembeamError(f"kappa^2 = {kappa:g}^2 underflows to 0")

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
        raise MembeamError(
            f"derived constants out of floating-point range: {', '.join(overflowed)}")
    if min(ct1, ct3, ct4, gamma1) <= 0:
        raise MembeamError("derived Lyapunov coefficients are not all positive")
    lam = 2.0 * min(N1, N1 / 4.0, ct1, ct4, ct3 * delta1)
    return MultiplierConfig(
        N=N, N1=N1, N2=N2, Ckappa=Ckappa, C1=C1, C2=C2, C3=C3, Cp=Cp,
        mu0=mu0, gamma1=gamma1, gamma2=gamma2, gamma_certified=lam / gamma2)


def choose_multipliers_for(assembly: GeneratorAssembly,
                           report: KernelReport | None = None) -> MultiplierConfig:
    """choose_multipliers with the sharp discrete Poincare constant of the grid."""
    return choose_multipliers(assembly.params, assembly.memory_grid.kernel,
                              assembly.coefficients, poincare_constant(assembly), report)


# ---------------------------------------------------------------------------
# diagnostics records


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Every tracked functional and lemma margin of n samples, one (n,)
    float64 column each.  A margin is lhs - rhs of its inequality (<= 0
    expected); the sandwich margins are gamma1 E - L and L - gamma2 E.
    dE_numeric and identity_residual are read off t, E and D."""

    t: np.ndarray
    E: np.ndarray
    D: np.ndarray
    F1: np.ndarray
    F2: np.ndarray
    Ifun: np.ndarray
    Ltotal: np.ndarray
    lemma42_margin: np.ndarray
    lemma43_margin: np.ndarray
    lemma44_margin: np.ndarray
    sandwich_low: np.ndarray
    sandwich_high: np.ndarray

    def __len__(self) -> int:
        return self.t.size

    @property
    def dE_numeric(self) -> np.ndarray:
        """dE/dt from neighbouring samples: centred, one-sided at either
        end, 0 for a lone sample."""
        E, t, j = self.E, self.t, np.arange(len(self))
        lo, hi = np.maximum(j - 1, 0), np.minimum(j + 1, j.size - 1)
        return np.divide(E[hi] - E[lo], t[hi] - t[lo], out=np.zeros(j.size), where=hi > lo)

    @property
    def identity_residual(self) -> np.ndarray:
        """|dE_numeric - D|: the residual of the energy identity dE/dt = D."""
        return np.abs(self.dE_numeric - self.D)

    @classmethod
    def concatenate(cls, parts) -> "Trajectory":
        """The tables of parts, one after the other."""
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)))


def diagnostics_record(src, mcfg: MultiplierConfig) -> Trajectory:
    """Every tracked functional and lemma margin at one state: the
    one-sample table of diagnostics_records.

    src is anything take_sample reads: a State or a run of either scheme.
    A split run supplies its own history sums, so that the sample needs no
    materialized history: one O(Ns) pass over its ring of column norms and
    O(Nx * modes) row work, and for a table kernel one O(Nx Ns) product
    more.
    """
    return diagnostics_records(Samples.of(src), mcfg)


def diagnostics_records(samples: Samples, mcfg: MultiplierConfig) -> Trajectory:
    """Every tracked functional and lemma margin at each sample of a
    stack, in one vectorized pass.

    Lemma margins, lhs - rhs (<= 0 expected): 4.2 is dF1/dt from the
    generator rows against -<p u_xx, u_xx> - kappa^2/4 ||u_x||^2
    + Ck ||v||^2 + beta^2/(2 kappa^2) ||theta||^2; 4.3 is I (Ifun) against
    C1 ||v||^2 + C2 ||theta_x||^2 - C3 sum w_k mu'_k ||eta_x,k||^2; 4.4 is
    dF2/dt against the same bound with the sigma3 = mu0 split.
    """
    asm = samples.assembly
    h, kap, beta = asm.grid.h, asm.params.kappa, asm.params.beta
    f = _functionals(samples)
    # a side that overflows reads inf, and inf - inf reads nan, which fails
    # its check; neither warns
    with np.errstate(over="ignore", invalid="ignore"):
        L = mcfg.N * f.E + mcfg.N1 * f.F1 + mcfg.N2 * f.F2
        l42_rhs = h * (-f.uu - 0.25 * kap**2 * f.gugu + mcfg.Ckappa * f.vv
                       + beta**2 / (2.0 * kap**2) * f.tt)
        l43_rhs = h * (mcfg.C1 * f.vv + mcfg.C2 * f.gthgth - mcfg.C3 * f.hist_mup)
        # dF2/dt = I - h <theta, dm/dt>, dm/dt = mass theta - upwind_moment
        l44_lhs = f.Ifun - h * (samples.sums.mass * f.tt - f.th_upwind)
        l44_rhs = h * (mcfg.C1 * f.vv + mcfg.C2 * f.gthgth
                       - 0.5 * mcfg.mu0 * f.tt
                       - (mcfg.C3 + mcfg.Cp / (2.0 * mcfg.mu0)) * f.hist_mup)
        return Trajectory(samples.t, f.E, f.D, f.F1, f.F2, f.Ifun, L, f.dF1 - l42_rhs,
                          f.Ifun - l43_rhs, l44_lhs - l44_rhs, mcfg.gamma1 * f.E - L,
                          L - mcfg.gamma2 * f.E)


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


def eigenvalues(assembly: GeneratorAssembly | CoupledSystem) -> np.ndarray:
    """Dense spectrum of A_h or of a CoupledSystem (the modal A~), sorted by
    descending real part; DimensionTooLarge above DENSE_MAX_DIM (check_dense).
    An eigensolve that does not converge (LinAlgError) is a MembeamError
    with its message; any other exception passes through."""
    check_dense(assembly, "dense spectrum")
    try:
        w = dense_eigvals(assembly.generator_matrix.toarray())
    except np.linalg.LinAlgError as exc:
        raise MembeamError(str(exc)) from exc
    order = np.lexsort((w.imag, -w.real))
    return w[order]


def spectral_abscissa(assembly: GeneratorAssembly | CoupledSystem) -> float:
    """max Re(lambda) of the dense spectrum (eigenvalues)."""
    return float(eigenvalues(assembly)[0].real)


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

    discretization.SchurSolver with tau = 1 gives ||I - A_h||_1 from the
    blocks and applies the inverse, factorizing only the 3Nx Schur
    complement, for norm1_inverse_estimate: A_h is never assembled.
    """
    solver = SchurSolver(assembly, 1.0)
    solver.lu          # factorized here: a singular block keeps its own message
    try:
        inv_norm = norm1_inverse_estimate(solver.solve, solver.solve_transposed, assembly.dim)
    except LinearSolveFailure as exc:
        raise MembeamError(f"condition estimate failed: {exc}") from exc
    cond = float(solver.norm1() * inv_norm)
    if not np.isfinite(cond):
        raise MembeamError("condition estimate is not finite")
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


def fit_decay(traj, window: tuple) -> DecayFit:
    """Fit gamma and K to the peak envelope of a trajectory's energy inside
    the window.

    The line through (t, ln E) is fitted through the local maxima of E,
    which is robust when the dominant eigenvalue pair is oscillatory.  A
    window with fewer than five interior maxima (a monotone one has none)
    is fitted through all its samples.  traj is read for its t and E
    columns; K_fit is exp(intercept)/E(0) with E(0) the first sample's.
    """
    t = np.asarray(traj.t, dtype=float)
    E = np.asarray(traj.E, dtype=float)
    if t.size == 0:
        raise MembeamError("empty trajectory")
    E0 = E[0]
    t1, t2 = float(window[0]), float(window[1])
    m = (t >= t1) & (t <= t2)
    tw, Ew = t[m], E[m]
    if tw.size < _MIN_FIT_SAMPLES:
        raise MembeamError(f"only {tw.size} samples in window [{t1}, {t2}]")
    alive = Ew > _ENERGY_FLOOR
    if np.count_nonzero(alive) < _MIN_FIT_SAMPLES:
        raise MembeamError("energy underflowed inside the fit window")
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
                    r2=float(r2), window=(t1, t2))


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


def certify_trajectory(traj: Trajectory) -> list[CheckResult]:
    """The checks of the recorded samples, one report line each: energy
    nonnegativity, dissipation sign, monotone energy decay between
    samples, the three lemma inequalities and the Lyapunov sandwich.
    Fewer than two samples certify nothing: a failing trajectory_recorded
    check (worst = the sample count) replaces the monotone decay."""
    E, D = traj.E, traj.D
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
    for name, margin in (("lemma_F1_derivative", traj.lemma42_margin),
                         ("lemma_I_bound", traj.lemma43_margin),
                         ("lemma_F2_derivative", traj.lemma44_margin),
                         ("sandwich_lower", traj.sandwich_low),
                         ("sandwich_upper", traj.sandwich_high)):
        worst = float(np.max(margin))
        results.append(CheckResult(name, worst, _CHECK_TOL, bool(worst <= _CHECK_TOL)))
    return results


def certify_run(traj: Trajectory, drift: float, T: float) -> tuple[list, DecayFit | str]:
    """The checks of a run of length T, in report order, and its decay fit
    over [0.2 T, T] or the fit's failure message: certify_trajectory's, the
    running-sum drift, then decay_fit_available (worst = fits made, tol =
    fits needed) or, if the fit shows no decay, decay_rate_positive."""
    checks = certify_trajectory(traj)
    checks.append(CheckResult("running_sum_drift", drift, DRIFT_TOL, bool(drift <= DRIFT_TOL)))
    try:
        fit = fit_decay(traj, (0.2 * T, T))
    except MembeamError as exc:
        return checks + [CheckResult("decay_fit_available", 0.0, 1.0, False)], str(exc)
    decay = fit.gamma_fit * (fit.window[1] - fit.window[0])   # worst = decay across the window
    if not decay > _MIN_FIT_DECAY:
        checks.append(CheckResult("decay_rate_positive", decay, _MIN_FIT_DECAY, False))
    return checks, fit
