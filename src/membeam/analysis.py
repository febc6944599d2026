"""Energy, dissipation, Lyapunov functionals, certification, decay fitting.

Every functional is the discrete quadrature analog of its continuous
counterpart, with the uniform weight h on interior x-nodes and w_k mu_k
on the history grid.  Time derivatives needed by the inequality checks
(dF1/dt, dF2/dt, theta_t inside I) are evaluated analytically from the
generator rows, never by finite-differencing samples, so the checks are
free of time-discretization noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigvals as dense_eigvals
from scipy.linalg import eigvalsh_tridiagonal

from .discretization import DENSE_MAX_DIM, GeneratorAssembly
from .errors import (
    DimensionTooLarge,
    EigensolveFailed,
    EnergyUnderflow,
    InfeasibleMultipliers,
    ParamOutOfRange,
    SingularResolvent,
    WindowTooSmall,
)
from .model import CoefficientField, MemoryKernel, PhysicalParams, State, validate_kernel

_ENERGY_FLOOR = 1e-300
_MIN_FIT_SAMPLES = 10
_MIN_PEAKS = 5


# ---------------------------------------------------------------------------
# gradient helpers (forward difference with Dirichlet ends; the exact
# square root of -LAP, so these norms are the H-metric norms)


def _grad_vec(w: np.ndarray, h: float) -> np.ndarray:
    out = np.empty(w.size + 1)
    out[0] = w[0] / h
    out[1:-1] = np.diff(w) / h
    out[-1] = -w[-1] / h
    return out


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
    """||D+ a_k||^2 for every column a_k of an (Nx, m) array."""
    g = grad_cols(arr, h)
    return np.einsum("ij,ij->j", g, g)


def poincare_constant(assembly_or_ops) -> float:
    """Sharp discrete Poincare constant 1/lambda_min(-LAP)."""
    ops = getattr(assembly_or_ops, "ops", assembly_or_ops)
    nx = ops.grid.Nx
    h = ops.grid.h
    lam_min = eigvalsh_tridiagonal(
        np.full(nx, 2.0 / h**2), np.full(nx - 1, -1.0 / h**2),
        select="i", select_range=(0, 0))[0]
    return 1.0 / float(lam_min)


# ---------------------------------------------------------------------------
# core functionals


@dataclass(frozen=True)
class HistorySums:
    """The history quadratures every functional is built from.

    hist_mu         sum_k w_k mu_k ||D+ eta_k||^2
    hist_mup        sum_k w_k mu'_k ||D+ eta_k||^2
    moment          m(eta) = sum_k w_k mu_k eta_k
    shifted_moment  sum_{k>=2} w_k mu_k eta_{k-1}, the upwind part of dF2/dt

    history_sums evaluates them by full quadrature for any eta; a Prony
    split run keeps them per kernel mode as it steps.
    """

    hist_mu: float
    hist_mup: float
    moment: np.ndarray
    shifted_moment: np.ndarray


def history_sums(eta: np.ndarray, assembly: GeneratorAssembly) -> HistorySums:
    """Full quadrature of the history sums: one gradient pass over the
    columns of eta and two weighted column sums, O(Nx Ns)."""
    mg = assembly.memory_grid
    wmu = mg.weights * mg.mu
    colnorms = grad_sq_norms(eta, assembly.grid.h)
    return HistorySums(hist_mu=float(colnorms @ wmu),
                       hist_mup=float(colnorms @ (mg.weights * mg.muprime)),
                       moment=eta @ wmu, shifted_moment=eta[:, :-1] @ wmu[1:])


def _functionals(src) -> SimpleNamespace:
    """E, D, F1, F2, I and the inner products the lemma sides reuse.

    The one implementation of every functional.  src is a State, whose
    history sums come from full quadrature, or a running trajectory that
    keeps its own (stepper._SplitRun with a Prony kernel); either way the
    formulas below read the history only through those sums.  theta_t
    inside I comes from the generator row l LAP theta + LAP m(eta) - beta D1 v.
    """
    sums = history_sums(src.eta, src.assembly) if isinstance(src, State) else src.history_sums()
    asm = src.assembly
    h = asm.grid.h
    kap, beta, l = asm.params.kappa, asm.params.beta, asm.params.l
    u, v, th = src.u, src.v, src.theta

    gu = _grad_vec(u, h)
    gth = _grad_vec(th, h)
    uu = float(u @ (asm.ops.bih @ u))
    vv = float(v @ v)
    tt = float(th @ th)
    gugu = float(gu @ gu)
    gthgth = float(gth @ gth)
    moment = sums.moment
    th_moment = float(th @ moment)
    thdot = l * (asm.ops.lap @ th) + asm.ops.lap @ moment
    if beta != 0.0:
        thdot = thdot - beta * (asm.ops.d1 @ v)

    return SimpleNamespace(
        E=0.5 * h * (uu + kap**2 * gugu + vv + tt + sums.hist_mu),
        D=-2.0 * h * float((asm.ops.g * v) @ v) - l * h * gthgth + 0.5 * h * sums.hist_mup,
        F1=h * (float(u @ v) + float(u @ (asm.ops.g * u))),
        F2=-h * th_moment,
        Ifun=-h * float(thdot @ moment),
        uu=uu, vv=vv, tt=tt, gugu=gugu, gthgth=gthgth, hist_mup=sums.hist_mup,
        th_moment=th_moment, th_shifted=float(th @ sums.shifted_moment))


def energy(state: State) -> float:
    """E = 1/2 Phi^T H Phi = (h/2)[u^T BIH u + kappa^2 ||D+ u||^2 + ||v||^2
    + ||theta||^2 + sum_k w_k mu_k ||D+ eta_k||^2]."""
    return _functionals(state).E


def dissipation(state: State) -> float:
    """D = -2 h sum g_i v_i^2 - l h ||D+ theta||^2
    + (h/2) sum_k w_k mu'_k ||D+ eta_k||^2; nonpositive under H2 and g > 0."""
    return _functionals(state).D


def lyap_F1(state: State) -> float:
    """F1 = h (u . v + u . (g u))."""
    return _functionals(state).F1


def lyap_F2(state: State) -> float:
    """F2 = -h sum_k w_k mu_k (theta . eta_k)."""
    return _functionals(state).F2


def lyap_I(state: State) -> float:
    """I = -h sum_k w_k mu_k (theta_t . eta_k), theta_t from the generator row."""
    return _functionals(state).Ifun


@dataclass(frozen=True)
class MultiplierConfig:
    """Lyapunov weights and derived constants for L = N E + N1 F1 + N2 F2."""

    N: float
    N1: float
    N2: float
    sigma1: float
    sigma2: float
    sigma3: float
    sigma: float
    Ckappa: float
    C1: float
    C2: float
    C3: float
    Cp: float
    mu0: float
    delta1: float
    zeta1: float
    zeta2: float
    gamma0: float
    gamma1: float
    gamma2: float
    lam: float
    gamma_certified: float


def choose_multipliers(params: PhysicalParams, kernel: MemoryKernel,
                       coefficients: CoefficientField, Cp: float,
                       sigma3: float | None = None, slack: float = 1.1) -> MultiplierConfig:
    """Pick weights satisfying every strict inequality with >= 10% margin.

    Defaults: sigma1 = sigma2 = 1, sigma3 = mu0, N1 = 1, Ckappa = 5.
    Coercivity uses the damping lower bound alpha3; upper bounds use
    alpha4.  The equivalence constants use the bound-valid forms
    zeta1 = max{(sigma + 2 alpha4) Cp / kappa^2, 1/sigma} and
    zeta2 = max{mu0, Cp}.
    """
    if not (Cp > 0):
        raise ParamOutOfRange("Cp", "Poincare constant must be > 0")
    report = validate_kernel(kernel)
    mu0, delta1 = report.mu0, report.delta1
    if mu0 <= 1e-14:
        raise InfeasibleMultipliers("kernel mass mu0 is degenerate")
    sigma1 = sigma2 = 1.0
    sigma = 1.0
    if sigma3 is None:
        sigma3 = mu0
    if not (mu0 > sigma3 / 2.0):
        raise InfeasibleMultipliers(f"need mu0 > sigma3/2, got mu0 = {mu0}, sigma3 = {sigma3}")
    Ckappa = 5.0
    beta, kappa, l = params.beta, params.kappa, params.l
    a3, a4 = coefficients.alpha3, coefficients.alpha4

    C1 = beta * mu0 * sigma2 / 2.0
    C2 = l * mu0 * sigma1 / 2.0
    C3 = l / (2.0 * sigma1 * delta1) + mu0 * beta / (2.0 * sigma2 * delta1) + l * mu0 / delta1

    N1 = 1.0
    n2_floor = N1 * beta**2 / (2.0 * kappa**2 * (mu0 - sigma3 / 2.0))
    N2 = slack * n2_floor if n2_floor > 0 else 1.0
    n_floor = max((Ckappa * N1 + C1 * N2) / (2.0 * a3),
                  N2 * C2 / l,
                  2.0 * N2 * (C3 + Cp / (2.0 * sigma3)))
    zeta1 = max((sigma + 2.0 * a4) * Cp / kappa**2, 1.0 / sigma)
    zeta2 = max(mu0, Cp)
    gamma0 = N1 * zeta1 + N2 * zeta2
    N = slack * max(n_floor, gamma0)

    gamma1 = N - gamma0
    gamma2 = N + gamma0
    ct1 = 2.0 * a3 * N - Ckappa * N1 - C1 * N2
    ct3 = N / 2.0 - N2 * (C3 + Cp / (2.0 * sigma3))
    ct4 = N2 * (mu0 - sigma3 / 2.0) - N1 * beta**2 / (2.0 * kappa**2)
    if min(ct1, ct3, ct4, gamma1) <= 0:
        raise InfeasibleMultipliers("derived Lyapunov coefficients are not all positive")
    lam = 2.0 * min(N1, N1 / 4.0, ct1, ct4, ct3 * delta1)
    return MultiplierConfig(
        N=N, N1=N1, N2=N2, sigma1=sigma1, sigma2=sigma2, sigma3=sigma3, sigma=sigma,
        Ckappa=Ckappa, C1=C1, C2=C2, C3=C3, Cp=Cp, mu0=mu0, delta1=delta1,
        zeta1=zeta1, zeta2=zeta2, gamma0=gamma0, gamma1=gamma1, gamma2=gamma2,
        lam=lam, gamma_certified=lam / gamma2)


def choose_multipliers_for(assembly: GeneratorAssembly, **kw) -> MultiplierConfig:
    """choose_multipliers with the sharp discrete Poincare constant of the grid."""
    return choose_multipliers(assembly.params, assembly.memory_grid.kernel,
                              assembly.coefficients, poincare_constant(assembly), **kw)


def lyapunov_total(state: State, mcfg: MultiplierConfig) -> float:
    """L = N E + N1 F1 + N2 F2."""
    return diagnostics_record(state, mcfg).Ltotal


# ---------------------------------------------------------------------------
# diagnostics records


@dataclass
class DiagnosticsRecord:
    """Per-sample functional values; dE_numeric and identity_residual are
    filled by the simulation driver once neighboring samples exist."""

    t: float
    E: float
    D: float
    F1: float
    F2: float
    Ifun: float
    Ltotal: float
    dE_numeric: float = math.nan
    identity_residual: float = math.nan
    lemma42_lhs: float = math.nan
    lemma42_rhs: float = math.nan
    lemma43_lhs: float = math.nan
    lemma43_rhs: float = math.nan
    lemma44_lhs: float = math.nan
    lemma44_rhs: float = math.nan
    sandwich_low: float = math.nan
    sandwich_high: float = math.nan


def diagnostics_record(src, mcfg: MultiplierConfig) -> DiagnosticsRecord:
    """Evaluate every tracked functional and inequality side at one state.

    src is a State or a Prony split run (stepper._SplitRun), which supplies
    its running history sums so that a sample costs O(Nx * modes), not
    O(Nx * Ns), and needs no materialized history.

    Lemma sides (lhs <= rhs expected): 4.2 is dF1/dt from the generator rows
    against -<p u_xx, u_xx> - kappa^2/4 ||u_x||^2 + Ck ||v||^2
    + beta^2/(2 kappa^2) ||theta||^2; 4.3 is I against C1 ||v||^2
    + C2 ||theta_x||^2 - C3 sum w_k mu'_k ||eta_x,k||^2; 4.4 is dF2/dt
    against the same bound with the sigma3 split.
    """
    asm = src.assembly
    h = asm.grid.h
    mg = asm.memory_grid
    kap, beta = asm.params.kappa, asm.params.beta
    u, v, th = src.u, src.v, src.theta
    f = _functionals(src)
    L = mcfg.N * f.E + mcfg.N1 * f.F1 + mcfg.N2 * f.F2

    l42_lhs = h * (f.vv - f.uu - kap**2 * f.gugu - 2.0 * kap * float(u @ (asm.ops.d1 @ v))
                   - beta * float(u @ (asm.ops.d1 @ th)))
    l42_rhs = h * (-f.uu - 0.25 * kap**2 * f.gugu + mcfg.Ckappa * f.vv
                   + beta**2 / (2.0 * kap**2) * f.tt)
    l43_rhs = h * (mcfg.C1 * f.vv + mcfg.C2 * f.gthgth - mcfg.C3 * f.hist_mup)
    # dF2/dt = I - sum w mu <theta, theta> + sum_k w_k mu_k <theta, (eta_k - eta_{k-1})/ds>
    upwind_term = (f.th_moment - f.th_shifted) / mg.ds
    l44_lhs = f.Ifun - float(np.sum(mg.weights * mg.mu)) * h * f.tt + h * upwind_term
    l44_rhs = h * (mcfg.C1 * f.vv + mcfg.C2 * f.gthgth
                   + (mcfg.sigma3 / 2.0 - mcfg.mu0) * f.tt
                   - (mcfg.C3 + mcfg.Cp / (2.0 * mcfg.sigma3)) * f.hist_mup)

    return DiagnosticsRecord(
        t=src.t, E=f.E, D=f.D, F1=f.F1, F2=f.F2, Ifun=f.Ifun, Ltotal=L,
        lemma42_lhs=l42_lhs, lemma42_rhs=l42_rhs,
        lemma43_lhs=f.Ifun, lemma43_rhs=l43_rhs,
        lemma44_lhs=l44_lhs, lemma44_rhs=l44_rhs,
        sandwich_low=mcfg.gamma1 * f.E - L, sandwich_high=L - mcfg.gamma2 * f.E)


# ---------------------------------------------------------------------------
# spectral certification


def check_dissipativity(assembly: GeneratorAssembly, n_samples: int = 1000,
                        rng_seed: int = 0) -> float:
    """Worst Rayleigh ratio Phi^T H (A Phi) / (Phi^T H Phi) over seeded
    random states; must be <= 1e-10 for a certified assembly."""
    if n_samples < 1:
        raise ParamOutOfRange("n_samples", "need at least one sample")
    A = assembly.generator_matrix
    H = assembly.metric_matrix
    rng = np.random.default_rng(rng_seed)
    worst = -np.inf
    remaining = n_samples
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
    """max Re(lambda); dense below the dimension cap, ARPACK estimate above."""
    if assembly.dim <= DENSE_MAX_DIM:
        return float(eigenvalues(assembly)[0].real)
    try:
        w = spla.eigs(assembly.generator_matrix, k=24, which="LR",
                      return_eigenvectors=False, maxiter=5000, tol=1e-8)
    except Exception as exc:
        raise EigensolveFailed(f"sparse abscissa estimation failed: {exc}") from exc
    return float(np.max(w.real))


def resolvent_check(assembly: GeneratorAssembly) -> float:
    """1-norm condition estimate of (I - A_h); finite iff nonsingular."""
    A = assembly.generator_matrix
    M = (sp.identity(assembly.dim, format="csc") - A).tocsc()
    try:
        lu = spla.splu(M)
    except RuntimeError as exc:
        raise SingularResolvent(str(exc)) from exc
    inv_op = spla.LinearOperator(M.shape, matvec=lu.solve,
                                 rmatvec=lambda x: lu.solve(x, trans="T"))
    try:
        inv_norm = spla.onenormest(inv_op)
    except Exception as exc:
        raise SingularResolvent(f"condition estimate failed: {exc}") from exc
    norm1 = spla.norm(M, 1)
    cond = float(norm1 * inv_norm)
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
    method: str
    n_points: int


def _extract_series(trajectory):
    if isinstance(trajectory, tuple) and len(trajectory) == 2:
        t, E = (np.asarray(a, dtype=float) for a in trajectory)
    else:
        t = np.array([r.t for r in trajectory], dtype=float)
        E = np.array([r.E for r in trajectory], dtype=float)
    return t, E


def fit_decay(trajectory, window: tuple, method: str = "plain_lsq") -> DecayFit:
    """Fit gamma and K from (t, E) samples inside the window.

    plain_lsq fits the line through (t, ln E).  peak_envelope fits through
    the local maxima of E, which is robust when the dominant eigenvalue
    pair is oscillatory; a monotone window has no interior maxima, in
    which case the envelope degenerates to the curve itself and all
    window samples are used.  K_fit is exp(intercept)/E(0) with E(0) the
    first sample of the supplied trajectory.
    """
    if method not in ("plain_lsq", "peak_envelope"):
        raise ParamOutOfRange("method", f"unknown decay-fit method {method!r}")
    t, E = _extract_series(trajectory)
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

    if method == "peak_envelope":
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
                    r2=float(r2), window=(t1, t2), method=method, n_points=int(tw.size))


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


def certify_trajectory(records, tol: float = 1e-8,
                       monotone_tol: float = 1e-10) -> list[CheckResult]:
    """Evaluate every trajectory invariant over the recorded samples.

    Each line of the certification report maps to one invariant: energy
    nonnegativity, dissipation sign, monotone energy decay between
    samples, the three lemma inequalities, and the Lyapunov sandwich.
    """
    E = np.array([r.E for r in records])
    D = np.array([r.D for r in records])
    results = [
        CheckResult("energy_nonnegative", float(-E.min()), tol, bool(E.min() >= -tol)),
        CheckResult("dissipation_nonpositive", float(D.max()), tol, bool(D.max() <= tol)),
    ]
    if E.size >= 2:
        rel_inc = np.diff(E) / np.maximum(E[:-1], _ENERGY_FLOOR)
        worst = float(rel_inc.max())
        results.append(CheckResult("energy_monotone_decay", worst, monotone_tol,
                                   bool(worst <= monotone_tol)))
    for name, lo, hi in (("lemma_F1_derivative", "lemma42_lhs", "lemma42_rhs"),
                         ("lemma_I_bound", "lemma43_lhs", "lemma43_rhs"),
                         ("lemma_F2_derivative", "lemma44_lhs", "lemma44_rhs")):
        margin = np.array([getattr(r, lo) - getattr(r, hi) for r in records])
        worst = float(np.nanmax(margin))
        results.append(CheckResult(name, worst, tol, bool(worst <= tol)))
    for name, attr in (("sandwich_lower", "sandwich_low"), ("sandwich_upper", "sandwich_high")):
        worst = float(np.nanmax([getattr(r, attr) for r in records]))
        results.append(CheckResult(name, worst, tol, bool(worst <= tol)))
    return results
