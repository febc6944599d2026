"""Acceptance suite: one test per certification criterion.

Each criterion prints a single PASS/FAIL line (bypassing pytest capture)
and asserts its stated tolerance.  The default-configuration trajectory
(split semi-Lagrangian, dt = 1e-3, T = 10) is computed once and shared.
"""

import time

import numpy as np
import pytest
import scipy.linalg as sla

import membeam as mb
from membeam.model import State

from conftest import default_initial_state, make_assembly, step


@pytest.fixture
def report(capsys):
    """Print one pass/fail line per criterion, bypassing pytest capture."""

    def _report(n, name, passed, detail):
        with capsys.disabled():
            print(f"ACCEPTANCE {n} {name}: {'PASS' if passed else 'FAIL'} ({detail})")

    return _report


def build_default_assembly(dt=1e-3, trunc_tol=1e-8):
    """Assembled system of the shipped default configuration."""
    params = mb.derive_params(0.5, 1.0, 0.5, 1.0)
    kernel = mb.MemoryKernel.prony([1.0], [1.0])
    grid = mb.build_spatial_grid(1.0, 64)
    coeff = mb.certify_coefficients(np.ones(64), np.ones(64))
    ops = mb.build_operators(grid, coeff, params)
    mg = mb.build_memory_grid(kernel, dt=dt, trunc_tol=trunc_tol)
    return mb.assemble_generator(ops, mg, params)


@pytest.fixture(scope="module")
def default_run():
    """Default trajectory plus its wall-clock cost (attributed to criterion 4)."""
    t0 = time.time()
    asm = build_default_assembly()
    state = default_initial_state(asm)
    mcfg = mb.choose_multipliers_for(asm)
    result = mb.simulate(state, mb.SchemeConfig(dt=1e-3), 10.0,
                         sample_every=10, mcfg=mcfg)
    return {"assembly": asm, "mcfg": mcfg, "result": result,
            "elapsed": time.time() - t0}


def test_criterion_1_dissipativity(report):
    """1000 seeded random states on the default config (dt = 1e-2 history
    grid): Rayleigh ratio <= 1e-10, runtime <= 30 s."""
    t0 = time.time()
    asm = build_default_assembly(dt=1e-2)
    assert asm.memory_grid.Ns == 1843
    worst = mb.check_dissipativity(asm)
    elapsed = time.time() - t0
    passed = worst <= 1e-10 and elapsed <= 30.0
    report(1, "dissipativity", passed,
           f"worst ratio {worst:.3e} <= 1e-10, {elapsed:.1f} s <= 30 s")
    assert worst <= 1e-10
    assert elapsed <= 30.0


def test_criterion_2_energy_identity(report):
    """|dE/dt - D(midpoint)| on Nx = 16, Ns = 128 under dt halving:
    time-averaged residual converges with slope >= 1.9, runtime <= 60 s."""
    t0 = time.time()
    params = mb.derive_params(0.5, 1.0, 0.5, 1.0)
    kernel = mb.MemoryKernel.prony([1.0], [1.0])
    grid = mb.build_spatial_grid(1.0, 16)
    coeff = mb.certify_coefficients(np.ones(16), np.ones(16))
    ops = mb.build_operators(grid, coeff, params)
    x = grid.nodes
    dts = (4e-3, 2e-3, 1e-3)
    residuals = []
    for dt in dts:
        mg = mb.memory_grid_from_counts(kernel, ds=dt, Ns=128)
        asm = mb.assemble_generator(ops, mg, params)
        init = mb.InitialData(u0=x**2 * (1 - x) ** 2, v0=np.zeros(16),
                              theta0=np.sin(np.pi * x))
        prev = mb.build_initial_state(init, asm)
        cfg = mb.SchemeConfig(dt=dt, scheme="full_implicit_midpoint")
        e_prev = mb.energy(prev)
        acc = 0.0
        n = int(round(0.5 / dt))
        for _ in range(n):
            nxt = step(prev, cfg)
            e_next = mb.energy(nxt)
            mid = State(t=0.0, u=0.5 * (prev.u + nxt.u), v=0.5 * (prev.v + nxt.v),
                        theta=0.5 * (prev.theta + nxt.theta),
                        eta=0.5 * (prev.eta + nxt.eta), assembly=asm)
            acc += abs((e_next - e_prev) / dt - mb.dissipation(mid))
            prev, e_prev = nxt, e_next
        residuals.append(acc / n)
    slope = float(np.polyfit(np.log(dts), np.log(residuals), 1)[0])
    elapsed = time.time() - t0
    passed = slope >= 1.9 and elapsed <= 60.0
    report(2, "energy identity", passed,
           f"residuals {['%.3e' % r for r in residuals]}, slope {slope:.2f} >= 1.9, "
           f"{elapsed:.1f} s <= 60 s")
    assert slope >= 1.9
    assert elapsed <= 60.0


def test_criterion_3_oracle_equivalence(report):
    """Nx = 4, Ns = 8, T = 0.5: midpoint vs exp(T A_h) relative H-error
    <= 1e-6 at dt = 1e-4; split scheme order >= 0.9 on dt halving.
    Runtime <= 60 s."""
    t0 = time.time()
    params = mb.derive_params(0.5, 1.0, 0.5, 1.0)
    kernel = mb.MemoryKernel.prony([1.0], [1.0])
    grid = mb.build_spatial_grid(1.0, 4)
    coeff = mb.certify_coefficients(np.full(4, 0.01), np.ones(4))
    ops = mb.build_operators(grid, coeff, params)
    x = grid.nodes
    init = mb.InitialData(u0=x**2 * (1 - x) ** 2, v0=np.zeros(4),
                          theta0=np.sin(np.pi * x))
    T = 0.5

    def hnorm(assembly, vec):
        return float(np.sqrt(vec @ (assembly.metric_matrix @ vec)))

    asm = mb.assemble_generator(ops, mb.memory_grid_from_counts(kernel, 0.125, 8), params)
    state = mb.build_initial_state(init, asm)
    ref = mb.oracle_evolve(asm, state.flatten(), T)
    out = mb.simulate(state, mb.SchemeConfig(dt=1e-4, scheme="full_implicit_midpoint"),
                      T, sample_every=10**9).final_state.flatten()
    mid_err = hnorm(asm, out - ref) / hnorm(asm, ref)

    split_errs = []
    split_dts = (0.05, 0.025, 0.0125)
    for dt in split_dts:
        mg = mb.memory_grid_from_counts(kernel, ds=dt, Ns=8)
        asm_d = mb.assemble_generator(ops, mg, params)
        st = mb.build_initial_state(init, asm_d)
        ref_d = mb.oracle_evolve(asm_d, st.flatten(), T)
        out_d = mb.simulate(st, mb.SchemeConfig(dt=dt, scheme="split_semilagrangian"),
                            T, sample_every=10**9).final_state.flatten()
        split_errs.append(hnorm(asm_d, out_d - ref_d) / hnorm(asm_d, ref_d))
    split_order = float(np.polyfit(np.log(split_dts), np.log(split_errs), 1)[0])
    elapsed = time.time() - t0
    passed = mid_err <= 1e-6 and split_order >= 0.9 and elapsed <= 60.0
    report(3, "oracle equivalence", passed,
           f"midpoint err {mid_err:.3e} <= 1e-6, split order {split_order:.2f} >= 0.9, "
           f"{elapsed:.1f} s <= 60 s")
    assert mid_err <= 1e-6
    assert split_order >= 0.9
    assert elapsed <= 60.0


def test_criterion_4_exponential_decay(default_run, report):
    """Default trajectory fit on [2, 10] (peak envelope): gamma > 0 and
    r2 >= 0.999; on the reduced assembly (Nx = 24, coarse Ns) the fitted
    rate matches 2 |s(A_h)| within 5%.  Runtime <= 120 s including the
    shared default run."""
    t0 = time.time()
    fit = mb.fit_decay(default_run["result"].records, (2.0, 10.0))

    reduced = make_assembly(Nx=24, ds=0.1, Ns=64)
    st = default_initial_state(reduced)
    res = mb.simulate(st, mb.SchemeConfig(dt=1e-3, scheme="full_implicit_midpoint"),
                      10.0, sample_every=10)
    red_fit = mb.fit_decay(res.records, (2.0, 10.0))
    absc = mb.spectral_abscissa(reduced)
    target = 2.0 * abs(absc)
    mismatch = abs(red_fit.gamma_fit - target)
    elapsed = time.time() - t0 + default_run["elapsed"]
    passed = (fit.gamma_fit > 0 and fit.r2 >= 0.999
              and mismatch <= 0.05 * target and elapsed <= 120.0)
    report(4, "exponential decay", passed,
           f"gamma {fit.gamma_fit:.4f} > 0, r2 {fit.r2:.6f} >= 0.999; reduced: "
           f"gamma {red_fit.gamma_fit:.4f} vs 2|s(A)| {target:.4f} "
           f"(diff {mismatch / target:.1%} <= 5%), {elapsed:.1f} s <= 120 s")
    assert fit.gamma_fit > 0
    assert fit.r2 >= 0.999
    assert mismatch <= 0.05 * target
    assert elapsed <= 120.0


def test_criterion_5_monotone_decay(default_run, report):
    """Energy never increases between consecutive default-run samples by
    more than 1e-10 relative."""
    E = np.array([r.E for r in default_run["result"].records])
    worst = float((np.diff(E) / E[:-1]).max())
    passed = worst <= 1e-10
    report(5, "monotone decay", passed, f"worst relative increase {worst:.3e} <= 1e-10")
    assert worst <= 1e-10


def test_criterion_6_lemma_inequalities(default_run, report):
    """Multiplier inequalities and the Lyapunov sandwich hold at every
    default-run sample with 1e-8 absolute slack and C_kappa = 5."""
    mcfg = default_run["mcfg"]
    assert mcfg.Ckappa == 5.0
    records = default_run["result"].records
    worst = {
        "lemma_F1_derivative": max(r.lemma42_lhs - r.lemma42_rhs for r in records),
        "lemma_I_bound": max(r.Ifun - r.lemma43_rhs for r in records),
        "lemma_F2_derivative": max(r.lemma44_lhs - r.lemma44_rhs for r in records),
        "sandwich_lower": max(r.sandwich_low for r in records),
        "sandwich_upper": max(r.sandwich_high for r in records),
    }
    passed = all(v <= 1e-8 for v in worst.values())
    report(6, "lemma inequalities", passed,
           "worst margins " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))
    for name, value in worst.items():
        assert value <= 1e-8, name


def test_criterion_7_kernel_gate(report):
    """H1-H4 gate: exact certificates for the exponential kernels, power-law
    kernel rejected with NoExponentialDomination."""
    from membeam.errors import NoExponentialDomination

    r1 = mb.validate_kernel(mb.MemoryKernel.prony([1.0], [1.0]))
    r2 = mb.validate_kernel(mb.MemoryKernel.prony([2.0], [3.0]))
    s = np.linspace(0.0, 50.0, 4001)
    rejected = False
    try:
        mb.validate_kernel(mb.MemoryKernel.tabulated(s, (1 + s) ** -2.0,
                                                     -2.0 * (1 + s) ** -3.0))
    except NoExponentialDomination:
        rejected = True
    exact = (r1.mu0 == 1.0 and r1.delta1 == 1.0
             and r2.mu0 == pytest.approx(2.0 / 3.0, rel=1e-15) and r2.delta1 == 3.0)
    passed = exact and rejected
    report(7, "kernel gate", passed,
           f"mu0/delta1 = ({r1.mu0:g}, {r1.delta1:g}), ({r2.mu0:.6g}, {r2.delta1:g}); "
           f"power law rejected = {rejected}")
    assert exact
    assert rejected


def test_criterion_8_resolvent_solvability(report):
    """(I - A_h) factorizes with a finite condition estimate on every swept
    (beta, kappa) configuration."""
    kernel = mb.MemoryKernel.prony([1.0], [1.0])
    conds = {}
    for beta in (0.0, 0.5, 1.0):
        for kappa in (0.1, 0.5, 1.0):
            params = mb.derive_params(0.5, 1.0, kappa, beta)
            asm = make_assembly(Nx=24, ds=0.1, Ns=64, params=params, kernel=kernel)
            conds[(beta, kappa)] = mb.resolvent_check(asm)
    passed = all(np.isfinite(v) for v in conds.values())
    worst = max(conds.values())
    report(8, "resolvent solvability", passed,
           f"{len(conds)} configs, all condition estimates finite (max {worst:.3e})")
    assert passed


def test_criterion_9_clamped_beam_eigenvalue(report):
    """Smallest eigenvalue of the clamped fourth-order operator converges
    to (4.7300407)^4 within 0.5% after Richardson extrapolation at Nx=128."""
    target = 4.7300407**4
    params = mb.derive_params(0.5, 1.0, 0.5, 1.0)
    lam = {}
    for nx in (64, 128):
        grid = mb.build_spatial_grid(1.0, nx)
        coeff = mb.certify_coefficients(np.ones(nx), np.ones(nx))
        ops = mb.build_operators(grid, coeff, params)
        lam[nx] = float(sla.eigvalsh(ops.bih.toarray())[0])
    richardson = lam[128] + (lam[128] - lam[64]) / 3.0
    rel = abs(richardson - target) / target
    passed = rel <= 5e-3
    report(9, "clamped beam eigenvalue", passed,
           f"Richardson {richardson:.4f} vs {target:.4f} (rel {rel:.2e} <= 5e-3)")
    assert rel <= 5e-3
