import dataclasses
import gc
import logging
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from hypothesis import given, settings
from hypothesis import strategies as st

import membeam as mb
import membeam.analysis as an
from membeam import stepper
from membeam.errors import (
    DimensionMismatch,
    DimensionTooLarge,
    InconsistentGrid,
    ParamOutOfRange,
)
from membeam.model import State
from membeam.stepper import expm_multiply_dense

from conftest import default_initial_state, make_assembly
from test_acceptance import build_default_assembly


def hnorm(assembly, vec):
    return float(np.sqrt(vec @ (assembly.metric_matrix @ vec)))


class TestSchemeConfig:
    def test_dt_positive(self):
        with pytest.raises(ParamOutOfRange):
            mb.SchemeConfig(dt=0.0)

    def test_scheme_names(self):
        with pytest.raises(ParamOutOfRange):
            mb.SchemeConfig(dt=0.1, scheme="leapfrog")


class TestStep:
    @pytest.mark.parametrize("scheme", ["full_implicit_midpoint", "split_semilagrangian"])
    def test_zero_state_fixed_point(self, scheme):
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        zero = mb.State(t=0.0, u=np.zeros(5), v=np.zeros(5), theta=np.zeros(5),
                        eta=np.zeros((5, 6)), assembly=asm)
        out = mb.step(zero, mb.SchemeConfig(dt=0.05, scheme=scheme))
        assert np.all(out.flatten() == 0.0)

    def test_scalar_cayley_transform(self):
        # x^1 = x^0 (1 + a dt/2) / (1 - a dt/2) for a scalar generator
        a, dt, x0 = -2.0, 0.3, 1.7
        A = np.array([[a]])
        out = expm_multiply_dense(A, np.array([x0]), dt)
        exact = x0 * math.exp(a * dt)
        assert out[0] == pytest.approx(exact, rel=1e-12)
        # midpoint on the same scalar system
        M = sp.identity(1, format="csc") - (dt / 2) * sp.csc_matrix(A)
        P = sp.identity(1, format="csr") + (dt / 2) * sp.csr_matrix(A)
        from scipy.sparse.linalg import splu
        x1 = splu(M).solve(P @ np.array([x0]))
        assert x1[0] == pytest.approx(x0 * (1 + a * dt / 2) / (1 - a * dt / 2), rel=1e-14)

    def test_split_requires_matching_ds(self):
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        state = default_initial_state(asm)
        with pytest.raises(InconsistentGrid):
            mb.step(state, mb.SchemeConfig(dt=0.01, scheme="split_semilagrangian"))

    def test_split_inflow_is_trapezoid_of_theta(self):
        dt = 0.05
        asm = make_assembly(Nx=6, ds=dt, Ns=8)
        state = default_initial_state(asm)
        out = mb.step(state, mb.SchemeConfig(dt=dt, scheme="split_semilagrangian"))
        np.testing.assert_allclose(out.eta[:, 0], dt * 0.5 * (state.theta + out.theta),
                                   rtol=0, atol=1e-15)

    def test_split_transport_is_exact_shift_plus_source(self):
        dt = 0.05
        asm = make_assembly(Nx=6, ds=dt, Ns=8)
        state = default_initial_state(asm)
        out = mb.step(state, mb.SchemeConfig(dt=dt, scheme="split_semilagrangian"))
        q = dt * 0.5 * (state.theta + out.theta)
        np.testing.assert_allclose(out.eta[:, 1:], state.eta[:, :-1] + q[:, None],
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("scheme,dts", [
        ("full_implicit_midpoint", (1e-3, 1e-1, 1.0, 10.0)),
        ("split_semilagrangian", (1e-3, 1e-2, 1e-1)),
    ])
    def test_one_step_contraction(self, scheme, dts):
        for dt in dts:
            asm = make_assembly(Nx=6, ds=dt if scheme == "split_semilagrangian" else 0.1,
                                Ns=8)
            state = default_initial_state(asm)
            prev = hnorm(asm, state.flatten())
            for _ in range(5):
                state = mb.step(state, mb.SchemeConfig(dt=dt, scheme=scheme))
                cur = hnorm(asm, state.flatten())
                assert cur <= prev * (1.0 + 1e-10)
                prev = cur

    def test_linearity(self):
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        cfg = mb.SchemeConfig(dt=0.05, scheme="full_implicit_midpoint")
        rng = np.random.default_rng(5)
        s1 = mb.State.unflatten(rng.standard_normal(asm.dim), asm)
        s2 = mb.State.unflatten(rng.standard_normal(asm.dim), asm)
        a, b = 2.5, -1.25
        combo = mb.State.unflatten(a * s1.flatten() + b * s2.flatten(), asm)
        lhs = mb.step(combo, cfg).flatten()
        rhs = a * mb.step(s1, cfg).flatten() + b * mb.step(s2, cfg).flatten()
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_beta_zero_mechanical_decoupling(self):
        params = mb.derive_params(0.5, 1.0, 0.5, 0.0)
        asm = make_assembly(Nx=6, ds=0.05, Ns=8, params=params)
        cfg = mb.SchemeConfig(dt=0.05, scheme="split_semilagrangian")
        x = asm.grid.nodes
        base = mb.InitialData(u0=x**2 * (1 - x) ** 2, v0=np.zeros(6),
                              theta0=np.zeros(6), history_mode="zero")
        hot = mb.InitialData(u0=x**2 * (1 - x) ** 2, v0=np.zeros(6),
                             theta0=np.sin(np.pi * x))
        sa = mb.build_initial_state(base, asm)
        sb = mb.build_initial_state(hot, asm)
        for _ in range(10):
            sa = mb.step(sa, cfg)
            sb = mb.step(sb, cfg)
        np.testing.assert_allclose(sa.u, sb.u, rtol=0, atol=1e-13)
        np.testing.assert_allclose(sa.v, sb.v, rtol=0, atol=1e-13)


class TestSimulate:
    def test_zero_final_time_single_record(self):
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        state = default_initial_state(asm)
        res = mb.simulate(state, mb.SchemeConfig(dt=0.05), 0.0)
        assert len(res.records) == 1
        assert res.records[0].t == 0.0

    def test_zero_initial_data_all_zero_records(self):
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        zero = mb.State(t=0.0, u=np.zeros(5), v=np.zeros(5), theta=np.zeros(5),
                        eta=np.zeros((5, 6)), assembly=asm)
        res = mb.simulate(zero, mb.SchemeConfig(dt=0.05), 0.5, sample_every=2)
        for rec in res.records:
            assert rec.E == 0.0 and rec.D == 0.0 and rec.Ltotal == 0.0

    def test_sparse_sampling_keeps_endpoints(self):
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        state = default_initial_state(asm)
        res = mb.simulate(state, mb.SchemeConfig(dt=0.05), 0.5, sample_every=1000)
        assert len(res.records) == 2
        assert res.records[0].t == 0.0
        assert res.records[-1].t == pytest.approx(0.5)

    @pytest.mark.parametrize("T", [math.nan, math.inf, -1.0])
    def test_final_time_must_be_finite(self, T):
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        with pytest.raises(ParamOutOfRange):
            mb.simulate(default_initial_state(asm), mb.SchemeConfig(dt=0.05), T)

    def test_prony_split_materializes_history_once(self, monkeypatch):
        # sampling reads the running sums; only final_state rolls the ring
        calls = []
        real = stepper._SplitRun._logical_eta

        def counting(run):
            calls.append(run.t)
            return real(run)

        monkeypatch.setattr(stepper._SplitRun, "_logical_eta", counting)
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        res = mb.simulate(default_initial_state(asm), mb.SchemeConfig(dt=0.05), 1.0)
        assert len(res.records) == 21
        assert len(calls) == 1

    def test_logs_one_info_line(self, caplog):
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        with caplog.at_level(logging.INFO, logger="membeam.stepper"):
            mb.simulate(default_initial_state(asm), mb.SchemeConfig(dt=0.05), 0.5,
                        sample_every=2)
        lines = [r.getMessage() for r in caplog.records if r.name == "membeam.stepper"]
        assert len(lines) == 1
        assert "10 steps, 6 records" in lines[0]
        assert "stepping" in lines[0] and "sampling" in lines[0]
        assert "refresh drift" in lines[0]

    def test_split_factorizes_once_across_steps(self, monkeypatch):
        # the LU of the mechanical block lives in the cached runner
        calls = []
        real = stepper.splu

        def counting(matrix):
            calls.append(matrix.shape)
            return real(matrix)

        monkeypatch.setattr(stepper, "splu", counting)
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        state = default_initial_state(asm)
        for _ in range(20):
            state = mb.step(state, mb.SchemeConfig(dt=0.05))
        assert calls == [(15, 15)]

    def test_split_never_assembles_generator(self):
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        mb.simulate(default_initial_state(asm), mb.SchemeConfig(dt=0.05), 0.5)
        assert "B" in asm._cache
        assert "A" not in asm._cache

    @pytest.mark.parametrize("scheme", ["full_implicit_midpoint", "split_semilagrangian"])
    def test_assembly_freed_without_cycle_collector(self, scheme):
        # The cached runner must not point back at its assembly: a cycle
        # would keep A_h and its LU alive until the collector happens to run.
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        res = mb.simulate(default_initial_state(asm), mb.SchemeConfig(dt=0.05, scheme=scheme),
                          0.2)
        ref = weakref.ref(asm)
        gc.disable()
        try:
            del asm, res
            assert ref() is None
        finally:
            gc.enable()

    def test_energy_strictly_decreasing_between_samples(self):
        asm = make_assembly(Nx=8, ds=0.02, Ns=40)
        state = default_initial_state(asm)
        res = mb.simulate(state, mb.SchemeConfig(dt=0.02), 2.0, sample_every=5)
        E = np.array([r.E for r in res.records])
        assert np.all(np.diff(E) < 0.0)

    @pytest.mark.parametrize("scheme", ["full_implicit_midpoint", "split_semilagrangian"])
    def test_matches_oracle(self, scheme):
        dt = 0.01
        asm = make_assembly(Nx=4, ds=dt if scheme == "split_semilagrangian" else 0.125,
                            Ns=8, p=np.full(4, 0.01))
        state = default_initial_state(asm)
        res = mb.simulate(state, mb.SchemeConfig(dt=dt, scheme=scheme), 0.5,
                          sample_every=10**6)
        ref = mb.oracle_evolve(asm, state.flatten(), 0.5)
        err = hnorm(asm, res.final_state.flatten() - ref) / hnorm(asm, ref)
        assert err < (1e-3 if scheme == "full_implicit_midpoint" else 0.2)


def _assert_records_close(rec, full, tol):
    """Every field within tol * max(|full|, E) of the full-quadrature record."""
    for f in dataclasses.fields(full):
        ref = getattr(full, f.name)
        if math.isnan(ref):
            continue
        assert abs(getattr(rec, f.name) - ref) <= tol * max(abs(ref), full.E), f.name


class TestRunningHistorySums:
    """A Prony split run samples from per-mode running sums; every record
    must match the full quadrature on the materialized state."""

    TOL = 1e-11

    def test_default_run_records_and_refresh_drift(self, monkeypatch):
        real = an.diagnostics_record
        checked = []

        def checking(src, mcfg):
            rec = real(src, mcfg)
            if not isinstance(src, State):
                _assert_records_close(rec, real(src.to_state(), mcfg), self.TOL)
                checked.append(rec.t)
            return rec

        monkeypatch.setattr(an, "diagnostics_record", checking)
        asm = build_default_assembly()
        res = mb.simulate(default_initial_state(asm), mb.SchemeConfig(dt=1e-3), 10.0,
                          sample_every=10)
        assert len(checked) == 1000
        assert 0.0 < res.refresh_drift <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(4, 8), st.integers(1, 20),
           st.floats(0.01, 0.2), st.integers(0, 2**31 - 1))
    def test_prony_kernels_small_grids(self, modes, nx, ns, dt, seed):
        rng = np.random.default_rng(seed)
        kernel = mb.MemoryKernel.prony(rng.uniform(0.1, 2.0, modes),
                                       rng.uniform(0.2, 5.0, modes))
        asm = make_assembly(Nx=nx, ds=dt, Ns=ns, kernel=kernel)
        mcfg = mb.choose_multipliers_for(asm)
        cfg = mb.SchemeConfig(dt=dt)
        run = stepper._get_runner(asm, cfg).run(
            State.unflatten(rng.standard_normal(asm.dim), asm))
        for _ in range(40):
            run.advance()
            _assert_records_close(an.diagnostics_record(run, mcfg),
                                  an.diagnostics_record(run.to_state(), mcfg), self.TOL)

    def test_refresh_replaces_running_sums(self):
        asm = make_assembly(Nx=6, ds=0.05, Ns=12,
                            kernel=mb.MemoryKernel.prony([1.0, 0.5], [1.0, 4.0]))
        run = stepper._get_runner(asm, mb.SchemeConfig(dt=0.05)).run(
            default_initial_state(asm))
        for _ in range(7):
            run.advance()
        run.quad_modes = run.quad_modes * (1.0 + 1e-6)
        run.refresh_mode_sums()
        assert run.max_drift == pytest.approx(1e-6, rel=1e-3)
        full = an.history_sums(run.to_state().eta, asm)
        assert run.history_sums().hist_mu == pytest.approx(full.hist_mu, rel=1e-13)


def _parent_table_trajectory(state, cfg, n_steps):
    """Reference table-kernel split step: gather the ring into s order for
    the shifted sum, and recompute sigma from the whole ring every step."""
    asm = state.assembly
    runner = stepper._get_runner(asm, cfg)
    mg = asm.memory_grid
    nx, ns, dt = asm.Nx, asm.Ns, cfg.dt
    wmu = mg.weights * mg.mu
    mu0w = float(np.sum(wmu))
    lu = splu(runner.M)
    u, v, th = state.u.copy(), state.v.copy(), state.theta.copy()
    zeta, head, C = state.eta.copy(), 0, np.zeros(nx)
    sigma = zeta @ wmu
    for k in range(1, n_steps + 1):
        m_n = sigma + mu0w * C
        order = (head + np.arange(ns - 1)) % ns
        m_shift = zeta[:, order] @ wmu[1:] + (mu0w - wmu[0]) * C
        rhs = runner.P @ np.concatenate([u, v, th])
        rhs[2 * nx:] += dt * (runner.lap @ (0.5 * (m_n + m_shift) + (mu0w * dt / 4.0) * th))
        w_new = lu.solve(rhs)
        q = 0.5 * dt * (th + w_new[2 * nx:])
        u, v, th = w_new[:nx], w_new[nx:2 * nx], w_new[2 * nx:]
        C = C + q
        head = (head - 1) % ns
        zeta[:, head] = -(C - q)
        sigma = zeta[:, (head + np.arange(ns)) % ns] @ wmu
        yield State(t=k * dt, u=u, v=v, theta=th,
                    eta=np.roll(zeta, -head, axis=1) + C[:, None], assembly=asm)


def test_table_kernel_step_matches_gather_reference():
    s = np.linspace(0.0, 5.0, 501)
    kernel = mb.MemoryKernel.tabulated(s, np.exp(-s) / (1 + s),
                                       -np.exp(-s) * (2 + s) / (1 + s) ** 2)
    dt = 0.05
    asm = make_assembly(Nx=6, ds=dt, Ns=40, kernel=kernel)
    state = default_initial_state(asm)
    cfg = mb.SchemeConfig(dt=dt)
    run = stepper._get_runner(asm, cfg).run(state)
    ref = None
    for ref in _parent_table_trajectory(state, cfg, 500):
        run.advance()
        new = run.to_state()
        assert mb.energy(new) == pytest.approx(mb.energy(ref), rel=1e-10, abs=0)
    diff = new.flatten() - ref.flatten()
    assert hnorm(asm, diff) <= 1e-10 * hnorm(asm, ref.flatten())


class TestOracle:
    def test_identity_at_t_zero(self):
        asm = make_assembly(Nx=4, ds=0.125, Ns=8)
        phi = np.random.default_rng(0).standard_normal(asm.dim)
        np.testing.assert_array_equal(mb.oracle_evolve(asm, phi, 0.0), phi)

    def test_diagonal_decay(self):
        out = expm_multiply_dense(np.diag([-1.0, -2.0]), np.array([1.0, 1.0]), 1.0)
        np.testing.assert_allclose(out, [math.exp(-1), math.exp(-2)], rtol=1e-12)

    def test_h_norm_nonincreasing(self):
        asm = make_assembly(Nx=4, ds=0.125, Ns=8)
        state = default_initial_state(asm)
        phi0 = state.flatten()
        norms = [hnorm(asm, mb.oracle_evolve(asm, phi0, t)) for t in (0.0, 0.5, 1.0)]
        assert norms[0] >= norms[1] >= norms[2]

    def test_dimension_guard(self):
        asm = make_assembly(Nx=32, ds=0.05, Ns=80)
        assert asm.dim > 2000
        with pytest.raises(DimensionTooLarge):
            mb.oracle_evolve(asm, np.zeros(asm.dim), 1.0)

    def test_defective_fallback_matches_expm(self):
        # a Jordan block has a maximally ill-conditioned eigenbasis
        n = 12
        A = np.diag(-np.ones(n)) + np.diag(np.ones(n - 1), 1)
        phi = np.ones(n)
        out = expm_multiply_dense(A, phi, 0.7)
        import scipy.linalg as sla
        np.testing.assert_allclose(out, sla.expm(0.7 * A) @ phi, rtol=1e-12)


class TestConvergenceOrders:
    def test_midpoint_second_order(self):
        asm = make_assembly(Nx=4, ds=0.125, Ns=8, p=np.full(4, 0.01))
        state = default_initial_state(asm)
        T = 0.5
        ref = mb.oracle_evolve(asm, state.flatten(), T)
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            res = mb.simulate(state, mb.SchemeConfig(dt=dt, scheme="full_implicit_midpoint"),
                              T, sample_every=10**6)
            errs.append(hnorm(asm, res.final_state.flatten() - ref) / hnorm(asm, ref))
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(slopes) >= 1.9

    def test_split_at_least_first_order(self, default_params, exp_kernel):
        grid = mb.build_spatial_grid(1.0, 4)
        coeff = mb.certify_coefficients(np.full(4, 0.01), np.ones(4), grid)
        ops = mb.build_operators(grid, coeff, default_params)
        T = 0.5
        errs = []
        for dt in (0.05, 0.025, 0.0125):
            mg = mb.memory_grid_from_counts(exp_kernel, ds=dt, Ns=8)
            asm = mb.assemble_generator(ops, mg, default_params)
            state = default_initial_state(asm)
            ref = mb.oracle_evolve(asm, state.flatten(), T)
            res = mb.simulate(state, mb.SchemeConfig(dt=dt, scheme="split_semilagrangian"),
                              T, sample_every=10**6)
            errs.append(hnorm(asm, res.final_state.flatten() - ref) / hnorm(asm, ref))
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(slopes) >= 0.9


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        state = default_initial_state(asm)
        state = mb.step(state, mb.SchemeConfig(dt=0.05))
        path = tmp_path / "state.npz"
        mb.write_checkpoint(path, state, config_hash="abc123")
        back = mb.read_checkpoint(path, asm)
        assert back.t == state.t
        np.testing.assert_array_equal(back.eta, state.eta)
        np.testing.assert_array_equal(back.u, state.u)

    def test_spacing_mismatch_rejected(self, tmp_path):
        # same (Nx, Ns), different ds: the stored history means other s nodes
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        other = make_assembly(Nx=5, ds=0.1, Ns=6)
        path = tmp_path / "state.npz"
        mb.write_checkpoint(path, default_initial_state(asm))
        with pytest.raises(DimensionMismatch):
            mb.read_checkpoint(path, other)

    def test_grid_mismatch_rejected(self, tmp_path):
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        other = make_assembly(Nx=6, ds=0.05, Ns=6)
        state = default_initial_state(asm)
        path = tmp_path / "state.npz"
        mb.write_checkpoint(path, state)
        with pytest.raises(DimensionMismatch):
            mb.read_checkpoint(path, other)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.01, 0.2), st.integers(0, 2**31 - 1))
def test_split_contraction_property(dt, seed):
    """One-step H-norm contraction for random states and step sizes."""
    asm = make_assembly(Nx=5, ds=dt, Ns=6)
    phi = np.random.default_rng(seed).standard_normal(asm.dim)
    state = mb.State.unflatten(phi, asm)
    out = mb.step(state, mb.SchemeConfig(dt=dt, scheme="split_semilagrangian"))
    assert hnorm(asm, out.flatten()) <= hnorm(asm, phi) * (1.0 + 1e-10)
