import numpy as np
import pytest

import membeam as mb
import membeam.analysis as an
from membeam.errors import (
    EnergyUnderflow,
    InfeasibleMultipliers,
    WindowTooSmall,
)

from conftest import default_initial_state, make_assembly


def zero_state(asm):
    return mb.State(t=0.0, u=np.zeros(asm.Nx), v=np.zeros(asm.Nx),
                    theta=np.zeros(asm.Nx), eta=np.zeros((asm.Nx, asm.Ns)), assembly=asm)


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
        assert mb.lyapunov_total(st, degenerate) == pytest.approx(mb.energy(st), rel=1e-14)


class TestChooseMultipliers:
    def test_reference_point(self):
        # mu0 = 1, beta = 1, kappa = 1, sigma3 = 1 -> N2 floor 1, picked 1.1
        params = mb.derive_params(0.5, 1.0, 1.0, 1.0)
        coeff = mb.certify_coefficients(np.ones(8), np.ones(8))
        kern = mb.MemoryKernel.prony([1.0], [1.0])
        mcfg = mb.choose_multipliers(params, kern, coeff, Cp=0.1, sigma3=1.0)
        assert mcfg.N2 == pytest.approx(1.1, rel=1e-12)
        assert mcfg.Ckappa == 5.0
        assert mcfg.C1 == pytest.approx(0.5)
        assert mcfg.C2 == pytest.approx(0.25)

    def test_sigma3_too_large_rejected(self):
        params = mb.derive_params(0.5, 1.0, 1.0, 1.0)
        coeff = mb.certify_coefficients(np.ones(8), np.ones(8))
        kern = mb.MemoryKernel.prony([1.0], [1.0])
        with pytest.raises(InfeasibleMultipliers):
            mb.choose_multipliers(params, kern, coeff, Cp=0.1, sigma3=2.0)

    def test_margins_and_equivalence(self, small_assembly):
        mcfg = mb.choose_multipliers_for(small_assembly)
        assert mcfg.gamma1 > 0
        assert mcfg.gamma2 > mcfg.gamma1
        assert mcfg.lam > 0
        assert mcfg.gamma_certified > 0
        floor = mcfg.N1 * small_assembly.params.beta**2 / (
            2 * small_assembly.params.kappa**2 * (mcfg.mu0 - mcfg.sigma3 / 2))
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
            assert rec.lemma43_lhs <= rec.lemma43_rhs + 1e-8
            assert rec.lemma44_lhs <= rec.lemma44_rhs + 1e-8
            assert rec.sandwich_low <= 1e-8
            assert rec.sandwich_high <= 1e-8


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

    def test_resolvent_condition_finite(self, small_assembly):
        cond = mb.resolvent_check(small_assembly)
        assert np.isfinite(cond) and cond > 1.0


class TestFitDecay:
    def test_exact_exponential(self):
        t = np.linspace(0, 10, 400)
        E = 3.0 * np.exp(-2.0 * t)
        fit = mb.fit_decay((t, E), (1.0, 9.0), "plain_lsq")
        assert fit.gamma_fit == pytest.approx(2.0, rel=1e-12)
        assert fit.K_fit == pytest.approx(1.0, rel=1e-10)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_oscillatory_envelope(self):
        t = np.linspace(0, 12, 2401)
        E = np.exp(-t) * (1.0 + 0.3 * np.cos(10.0 * t))
        plain = mb.fit_decay((t, E), (1.0, 11.0), "plain_lsq")
        peaks = mb.fit_decay((t, E), (1.0, 11.0), "peak_envelope")
        assert peaks.r2 > plain.r2
        assert peaks.gamma_fit == pytest.approx(1.0, abs=0.02)

    def test_monotone_window_falls_back_to_all_samples(self):
        t = np.linspace(0, 5, 200)
        E = np.exp(-1.5 * t)
        fit = mb.fit_decay((t, E), (0.5, 4.5), "peak_envelope")
        assert fit.gamma_fit == pytest.approx(1.5, rel=1e-10)
        assert fit.n_points > 100

    def test_window_too_small(self):
        t = np.linspace(0, 1, 50)
        E = np.exp(-t)
        with pytest.raises(WindowTooSmall):
            mb.fit_decay((t, E), (0.99, 1.0))

    def test_energy_underflow(self):
        t = np.linspace(0, 1, 50)
        E = np.full(50, 1e-310)
        with pytest.raises(EnergyUnderflow):
            mb.fit_decay((t, E), (0.0, 1.0))

    def test_fit_matches_spectral_rate_on_reduced_assembly(self):
        """Post-transient fitted rate tracks 2 |s(A_h)| once the history
        span is shorter than the fit window (midpoint stepping, whose
        one-step map is the Cayley transform of A_h; dt must resolve the
        fastest beam mode or its damping is artificially suppressed)."""
        asm = make_assembly(Nx=8, ds=0.1, Ns=40)  # s_max = 4
        st = default_initial_state(asm)
        res = mb.simulate(st, mb.SchemeConfig(dt=2e-3, scheme="full_implicit_midpoint"),
                          10.0, sample_every=50)
        fit = mb.fit_decay(res.records, (2.0, 10.0), "plain_lsq")
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
