import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import membeam as mb
import membeam.analysis as an
from membeam import stepper
from membeam.discretization import DENSE_MAX_DIM
from membeam.errors import (
    DimensionTooLarge,
    EnergyUnderflow,
    LinearSolveFailure,
    SingularResolvent,
    WindowTooSmall,
)

from conftest import default_initial_state, make_assembly


def zero_state(asm):
    return mb.State(t=0.0, u=np.zeros(asm.Nx), v=np.zeros(asm.Nx),
                    theta=np.zeros(asm.Nx), eta=np.zeros((asm.Nx, asm.Ns)), assembly=asm)


B = an._GRAD_BLOCK


@pytest.mark.parametrize("m", [1, B - 1, B, B + 1, 3 * B + 5])
@pytest.mark.parametrize("nx", [4, 64])
def test_blocked_grad_norms_match_one_pass(nx, m):
    # a pass over column blocks rounds every norm as one pass does
    a = np.random.default_rng(m).standard_normal((nx, m))
    g = an.grad_cols(a, 0.1)
    ref = np.einsum("ij,ij->j", g, g)
    assert an.grad_sq_norms(a, 0.1).tobytes() == ref.tobytes()


@pytest.mark.parametrize("nx", [4, 5, 16, 64])
def test_grad_cols_is_the_forward_gradient_operator(nx, default_params):
    # every energy norm takes D+ from grad_cols, while the structure check
    # dplus^T dplus = -lap vouches for ops.dplus: the two must agree
    grid = mb.build_spatial_grid(1.0, nx)
    ops = mb.build_operators(grid, mb.certify_coefficients(np.ones(nx), np.ones(nx)),
                             default_params)
    a = np.random.default_rng(nx).standard_normal((nx, 7))
    ref = ops.dplus @ a
    got = an.grad_cols(a, grid.h)
    assert got.shape == ref.shape == (nx + 1, 7)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


class TestEnergy:
    def test_zero_state(self, small_assembly):
        assert mb.energy(zero_state(small_assembly)) == 0.0

    def test_pure_sine_temperature(self):
        # h * sum sin^2(pi x_i / L) = L/2 exactly on a uniform grid
        asm = make_assembly(Nx=31)
        const = 1.7
        st = zero_state(asm)
        st.theta = const * np.sin(np.pi * asm.grid.nodes / asm.grid.L)
        assert mb.energy(st) == pytest.approx(0.25 * const**2 * asm.grid.L, rel=1e-12)

    def test_matches_exported_metric(self):
        asm = make_assembly(Nx=7, Ns=9)
        rng = np.random.default_rng(2)
        phi = rng.standard_normal(asm.dim)
        st = mb.State.unflatten(phi, asm)
        assert mb.energy(st) == pytest.approx(0.5 * phi @ (asm.metric_matrix @ phi),
                                              rel=1e-12)

    def test_positive_definite(self):
        asm = make_assembly(Nx=7, Ns=9)
        rng = np.random.default_rng(3)
        for _ in range(10):
            st = mb.State.unflatten(rng.standard_normal(asm.dim), asm)
            assert mb.energy(st) > 0.0


class TestDissipation:
    def test_zero_state(self, small_assembly):
        assert mb.dissipation(zero_state(small_assembly)) == 0.0

    def test_velocity_only_unit_damping(self):
        asm = make_assembly(Nx=9)
        st = zero_state(asm)
        st.v = np.random.default_rng(4).standard_normal(asm.Nx)
        expected = -2.0 * asm.grid.h * float(st.v @ st.v)
        assert mb.dissipation(st) == pytest.approx(expected, rel=1e-14)

    def test_nonpositive_on_random_states(self):
        asm = make_assembly(Nx=8, Ns=12, g=0.5 + np.linspace(0, 1, 8))
        rng = np.random.default_rng(5)
        for _ in range(20):
            st = mb.State.unflatten(rng.standard_normal(asm.dim), asm)
            assert mb.dissipation(st) <= 0.0


class TestLyapunovFunctionals:
    def test_zero_state_all_zero(self, small_assembly):
        st = zero_state(small_assembly)
        assert mb.lyap_F1(st) == 0.0
        assert mb.lyap_F2(st) == 0.0
        assert mb.lyap_I(st) == 0.0

    def test_f1_with_u_equal_v(self):
        asm = make_assembly(Nx=9)
        st = zero_state(asm)
        w = np.sin(2 * np.pi * asm.grid.nodes)
        st.u = w.copy()
        st.v = w.copy()
        assert mb.lyap_F1(st) == pytest.approx(2.0 * asm.grid.h * float(w @ w), rel=1e-14)

    def test_f2_constant_past_closed_form(self):
        asm = make_assembly(Nx=9, Ns=14, ds=0.2)
        st = default_initial_state(asm)
        mg = asm.memory_grid
        theta = st.theta
        expected = -float(np.sum(mg.weights * mg.mu * mg.s_nodes)) \
            * asm.grid.h * float(theta @ theta)
        assert mb.lyap_F2(st) == pytest.approx(expected, rel=1e-12)

    def test_lyapunov_total_degenerate_weights_is_energy(self):
        import dataclasses
        asm = make_assembly()
        st = default_initial_state(asm)
        mcfg = mb.choose_multipliers_for(asm)
        degenerate = dataclasses.replace(mcfg, N=1.0, N1=0.0, N2=0.0)
        assert an.diagnostics_record(st, degenerate).Ltotal == pytest.approx(mb.energy(st),
                                                                             rel=1e-14)


class TestChooseMultipliers:
    def test_reference_point(self):
        # mu0 = 1, beta = 1, kappa = 1, sigma3 = 1 -> N2 floor 1, picked 1.1
        params = mb.derive_params(0.5, 1.0, 1.0, 1.0)
        coeff = mb.certify_coefficients(np.ones(8), np.ones(8))
        kern = mb.MemoryKernel.prony([1.0], [1.0])
        mcfg = mb.choose_multipliers(params, kern, coeff, Cp=0.1)
        assert mcfg.N2 == pytest.approx(1.1, rel=1e-12)
        assert mcfg.Ckappa == 5.0
        assert mcfg.C1 == pytest.approx(0.5)
        assert mcfg.C2 == pytest.approx(0.25)

    def test_margins_and_equivalence(self, small_assembly):
        mcfg = mb.choose_multipliers_for(small_assembly)
        assert mcfg.gamma1 > 0
        assert mcfg.gamma2 > mcfg.gamma1
        assert mcfg.lam > 0
        assert mcfg.gamma_certified > 0
        # sigma3 = mu0, so mu0 - sigma3/2 = mu0/2
        floor = mcfg.N1 * small_assembly.params.beta**2 / (
            2 * small_assembly.params.kappa**2 * (mcfg.mu0 / 2))
        assert mcfg.N2 >= 1.0999 * floor

    def test_poincare_constant_matches_laplacian(self, small_assembly):
        import scipy.linalg as sla
        lam_min = sla.eigvalsh(-small_assembly.ops.lap.toarray())[0]
        assert an.poincare_constant(small_assembly) == pytest.approx(1.0 / lam_min, rel=1e-12)


class TestLemmaChecksAlongTrajectory:
    def test_inequalities_hold(self):
        asm = make_assembly(Nx=12, ds=0.02, Ns=64)
        st = default_initial_state(asm)
        mcfg = mb.choose_multipliers_for(asm)
        res = mb.simulate(st, mb.SchemeConfig(dt=0.02), 1.0, sample_every=5, mcfg=mcfg)
        for rec in res.records:
            assert rec.lemma42_lhs <= rec.lemma42_rhs + 1e-8
            assert rec.Ifun <= rec.lemma43_rhs + 1e-8
            assert rec.lemma44_lhs <= rec.lemma44_rhs + 1e-8
            assert rec.sandwich_low <= 1e-8
            assert rec.sandwich_high <= 1e-8


class TestSplitRunRecords:
    """A split run of either kernel form supplies its own history sums; its
    record must be the record of its materialized state."""

    KERNELS = {
        "prony": mb.MemoryKernel.prony([1.0, 0.5], [1.0, 4.0]),
        "table": mb.MemoryKernel.tabulated(
            np.linspace(0.0, 5.0, 501), np.exp(-np.linspace(0.0, 5.0, 501))),
    }

    @pytest.mark.parametrize("form", sorted(KERNELS))
    def test_record_of_run_equals_record_of_state(self, form):
        dt = 0.02
        asm = make_assembly(Nx=8, ds=dt, Ns=50, kernel=self.KERNELS[form])
        mcfg = mb.choose_multipliers_for(asm)
        run = stepper._start(default_initial_state(asm), mb.SchemeConfig(dt=dt))
        for step in range(1, 121):
            run.advance()
            if step % 7:
                continue
            full = an.diagnostics_record(run.to_state(), mcfg)
            rec = an.diagnostics_record(run, mcfg)
            for f in dataclasses.fields(full):
                ref = getattr(full, f.name)
                if math.isnan(ref):
                    continue
                assert abs(getattr(rec, f.name) - ref) <= 1e-11 * max(abs(ref), full.E), f.name


@pytest.mark.parametrize("scheme", ["split_semilagrangian", "full_implicit_midpoint"])
def test_records_read_no_memory_grid(scheme):
    # the functionals read the history only through the stacked sums: a
    # stand-in for the assembly without a memory grid gives the same
    # records, bitwise, from samples of either scheme's run
    dt = 0.02
    asm = make_assembly(Nx=8, ds=dt, Ns=50)
    mcfg = mb.choose_multipliers_for(asm)
    state = default_initial_state(asm)
    run = stepper._start(state, mb.SchemeConfig(dt=dt, scheme=scheme))
    samples = [an.take_sample(state)]
    for _ in range(12):
        run.advance()
        samples.append(an.take_sample(run))
    stand_in = SimpleNamespace(grid=asm.grid, ops=asm.ops, params=asm.params)
    records = [an.diagnostics_records(an.Samples.stack(a, samples), mcfg) for a in (asm, stand_in)]
    assert not hasattr(stand_in, "memory_grid")
    real, bare = (np.array([dataclasses.astuple(r) for r in recs]) for recs in records)
    assert real.shape == (13, len(dataclasses.fields(an.DiagnosticsRecord)))
    assert real.tobytes() == bare.tobytes()


class TestSpectral:
    def test_damped_oscillator_modal_formula(self, exp_kernel):
        # g = g0, beta = 0, kappa ~ 0, mu ~ 0: eigenvalues of the (u, v)
        # block are -g0 +- sqrt(g0^2 - omega^2) per beam eigenfrequency
        import scipy.linalg as sla
        g0 = 1.0
        params = mb.derive_params(0.5, 1.0, 1e-9, 0.0)
        tiny = mb.MemoryKernel.prony([1e-12], [1.0])
        asm = make_assembly(Nx=6, ds=0.25, Ns=8, params=params, kernel=tiny,
                            g=np.full(6, g0))
        omega2 = sla.eigvalsh(asm.ops.bih.toarray())
        eigs = mb.eigenvalues(asm)
        # underdamped mechanical pairs (omega > g0); |Im| > 5 excludes the
        # heavily damped thermal/history sector and its defective cluster
        osc = np.array([z for z in eigs if abs(z.imag) > 5.0])
        assert np.max(np.abs(osc.real + g0)) < 1e-6
        freqs = np.sort(np.abs(osc.imag))
        pred_freqs = np.repeat(np.sort(np.sqrt(omega2 - g0**2)), 2)
        np.testing.assert_allclose(freqs, pred_freqs, rtol=1e-6)
        # abscissa = -g0 since every beam frequency exceeds g0
        assert mb.spectral_abscissa(asm) == pytest.approx(-g0, abs=1e-6)

    def test_abscissa_nonpositive_on_assemblies(self):
        for nx, ds, ns in ((8, 0.1, 16), (6, 0.2, 24)):
            asm = make_assembly(Nx=nx, ds=ds, Ns=ns)
            assert mb.spectral_abscissa(asm) <= 1e-10

    def test_abscissa_above_the_cap_refused(self):
        asm = make_assembly(Nx=32, ds=0.05, Ns=80)
        assert asm.dim > DENSE_MAX_DIM
        with pytest.raises(DimensionTooLarge):
            mb.spectral_abscissa(asm)

    def test_resolvent_condition_finite(self, small_assembly):
        cond = mb.resolvent_check(small_assembly)
        assert np.isfinite(cond) and cond > 1.0

    def test_resolvent_matches_assembled_estimate(self, monkeypatch):
        # the estimate draws nothing at random: the same estimator on the
        # assembled sparse LU gives the reference estimate
        asm = make_assembly(Nx=6, ds=0.1, Ns=20, p=np.linspace(0.5, 2.0, 6))
        M = (sp.identity(asm.dim, format="csc") - asm.generator_matrix).tocsc()
        lu = spla.splu(M)
        ref = spla.norm(M, 1) * an.norm1_inverse_estimate(
            lu.solve, lambda x: lu.solve(x, trans="T"), asm.dim)
        shapes = []
        real = stepper.splu

        def counting(matrix):
            shapes.append(matrix.shape)
            return real(matrix)

        monkeypatch.setattr(stepper, "splu", counting)
        cond = mb.resolvent_check(asm)
        exact = np.abs(M.toarray()).sum(axis=0).max() * np.abs(
            np.linalg.inv(M.toarray())).sum(axis=0).max()
        assert shapes == [(18, 18)]
        assert cond == pytest.approx(ref, rel=1e-10)
        assert exact / 3.0 <= cond <= exact * (1.0 + 1e-10)
        assert mb.resolvent_check(asm) == cond

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_norm1_estimate_exact_on_a_diagonal(self, n):
        # every step reads one column; the largest is found from e/n
        d = np.linspace(3.0, 0.5, n) * (-1.0) ** np.arange(n)
        est = an.norm1_inverse_estimate(lambda x: x / d, lambda x: x / d, n)
        assert est == np.max(np.abs(1.0 / d))

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("ns", [1, 2, 20])
    @pytest.mark.parametrize("form", ["prony", "tabulated"])
    def test_block_norm_matches_assembled(self, form, ns, beta):
        # the table ends in a zero at s = Ns ds, so the last history weight is 0
        if form == "prony":
            kernel, ds = mb.MemoryKernel.prony([0.7, 1.3], [0.5, 2.0]), 0.1
        else:
            s = np.linspace(0.0, 4.0, 81)
            kernel, ds = mb.MemoryKernel.tabulated(s, np.where(s < 4.0, np.exp(-s), 0.0)), 4.0 / ns
        rng = np.random.default_rng(ns)
        asm = make_assembly(Nx=7, ds=ds, Ns=ns, kernel=kernel,
                            params=mb.derive_params(0.5, 1.0, 0.5, beta),
                            p=rng.uniform(0.5, 2.0, 7), g=rng.uniform(0.5, 2.0, 7))
        assert np.isfinite(mb.resolvent_check(asm))
        assert "A" not in asm._cache
        assembled = spla.norm(sp.identity(asm.dim, format="csc") - asm.generator_matrix, 1)
        assert an._resolvent_norm1(asm) == assembled

    def test_singular_schur_complement_is_singular_resolvent(self, small_assembly,
                                                             monkeypatch):
        def singular(matrix):
            raise LinearSolveFailure("Factor is exactly singular")

        monkeypatch.setattr(stepper, "splu", singular)
        with pytest.raises(SingularResolvent):
            mb.resolvent_check(small_assembly)


def _records(t, E):
    """What fit_decay reads of a record: its t and E."""
    return [SimpleNamespace(t=ti, E=Ei) for ti, Ei in zip(t, E)]


class TestFitDecay:
    def test_exact_exponential(self):
        t = np.linspace(0, 10, 400)
        E = 3.0 * np.exp(-2.0 * t)
        fit = mb.fit_decay(_records(t, E), (1.0, 9.0))
        assert fit.gamma_fit == pytest.approx(2.0, rel=1e-12)
        assert fit.K_fit == pytest.approx(1.0, rel=1e-10)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_oscillatory_envelope(self):
        t = np.linspace(0, 12, 2401)
        E = np.exp(-t) * (1.0 + 0.3 * np.cos(10.0 * t))
        peaks = mb.fit_decay(_records(t, E), (1.0, 11.0))
        # the envelope fits better than a line through every window sample
        m = (t >= 1.0) & (t <= 11.0)
        lE = np.log(E[m])
        res = lE - np.polyval(np.polyfit(t[m], lE, 1), t[m])
        assert peaks.r2 > 1.0 - (res @ res) / np.sum((lE - lE.mean()) ** 2)
        assert peaks.n_points < 20
        assert peaks.gamma_fit == pytest.approx(1.0, abs=0.02)

    def test_monotone_window_falls_back_to_all_samples(self):
        t = np.linspace(0, 5, 200)
        E = np.exp(-1.5 * t)
        fit = mb.fit_decay(_records(t, E), (0.5, 4.5))
        assert fit.gamma_fit == pytest.approx(1.5, rel=1e-10)
        assert fit.n_points > 100

    def test_window_too_small(self):
        t = np.linspace(0, 1, 50)
        E = np.exp(-t)
        with pytest.raises(WindowTooSmall):
            mb.fit_decay(_records(t, E), (0.99, 1.0))

    def test_energy_underflow(self):
        t = np.linspace(0, 1, 50)
        E = np.full(50, 1e-310)
        with pytest.raises(EnergyUnderflow):
            mb.fit_decay(_records(t, E), (0.0, 1.0))

    def test_fit_matches_spectral_rate_on_reduced_assembly(self):
        """Post-transient fitted rate tracks 2 |s(A_h)| once the history
        span is shorter than the fit window (midpoint stepping, whose
        one-step map is the Cayley transform of A_h; dt must resolve the
        fastest beam mode or its damping is artificially suppressed)."""
        asm = make_assembly(Nx=8, ds=0.1, Ns=40)  # s_max = 4
        st = default_initial_state(asm)
        res = mb.simulate(st, mb.SchemeConfig(dt=2e-3, scheme="full_implicit_midpoint"),
                          10.0, sample_every=50)
        fit = mb.fit_decay(res.records, (2.0, 10.0))
        target = 2.0 * abs(mb.spectral_abscissa(asm))
        # this coarse grid has ~20% coupling corrections on the excited
        # modes; the 5% match at Nx = 24 lives in the acceptance suite
        assert abs(fit.gamma_fit - target) <= 0.25 * target


class TestCertifyTrajectory:
    def test_all_checks_pass_on_dissipative_run(self):
        asm = make_assembly(Nx=8, ds=0.05, Ns=24)
        st = default_initial_state(asm)
        mcfg = mb.choose_multipliers_for(asm)
        res = mb.simulate(st, mb.SchemeConfig(dt=0.05), 1.0, sample_every=2, mcfg=mcfg)
        results = an.certify_trajectory(res.records)
        assert all(c.passed for c in results)
        names = {c.name for c in results}
        assert {"energy_monotone_decay", "lemma_F1_derivative",
                "sandwich_lower", "sandwich_upper"} <= names

    @pytest.mark.parametrize("attr", ["lemma42_lhs", "sandwich_high"])
    def test_nan_side_fails(self, attr):
        asm = make_assembly(Nx=8, ds=0.05, Ns=24)
        res = mb.simulate(default_initial_state(asm), mb.SchemeConfig(dt=0.05), 0.5,
                          sample_every=2)
        setattr(res.records[2], attr, np.nan)
        failed = {c.name for c in an.certify_trajectory(res.records) if not c.passed}
        assert failed == {"lemma_F1_derivative" if attr == "lemma42_lhs" else "sandwich_upper"}

    def test_identity_residual_definition(self):
        asm = make_assembly(Nx=8, ds=0.05, Ns=24)
        st = default_initial_state(asm)
        res = mb.simulate(st, mb.SchemeConfig(dt=0.05), 0.5, sample_every=1)
        recs = res.records
        j = len(recs) // 2
        expected = (recs[j + 1].E - recs[j - 1].E) / (recs[j + 1].t - recs[j - 1].t)
        assert recs[j].dE_numeric == pytest.approx(expected, rel=1e-12)
        assert recs[j].identity_residual == pytest.approx(
            abs(recs[j].dE_numeric - recs[j].D), rel=1e-12)
