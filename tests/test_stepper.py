import dataclasses
import gc
import logging
import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from hypothesis import given, settings
from hypothesis import strategies as st

import membeam as mb
import membeam.analysis as an
from membeam import discretization, stepper
from membeam.errors import (
    DimensionTooLarge,
    InconsistentGrid,
    LinearSolveFailure,
    ParamOutOfRange,
    SimulationAborted,
)
from membeam.model import State

from conftest import default_initial_state, make_assembly, peak_history_copies, step
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
        out = step(zero, mb.SchemeConfig(dt=0.05, scheme=scheme))
        assert np.all(out.flatten() == 0.0)

    def test_scalar_cayley_transform(self):
        # x^1 = x^0 (1 + a dt/2) / (1 - a dt/2) for a scalar generator
        a, dt, x0 = -2.0, 0.3, 1.7
        A = np.array([[a]])
        M = sp.identity(1, format="csc") - (dt / 2) * sp.csc_matrix(A)
        P = sp.identity(1, format="csr") + (dt / 2) * sp.csr_matrix(A)
        from scipy.sparse.linalg import splu
        x1 = splu(M).solve(P @ np.array([x0]))
        assert x1[0] == pytest.approx(x0 * (1 + a * dt / 2) / (1 - a * dt / 2), rel=1e-14)

    def test_split_requires_matching_ds(self):
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        state = default_initial_state(asm)
        with pytest.raises(InconsistentGrid):
            step(state, mb.SchemeConfig(dt=0.01, scheme="split_semilagrangian"))

    def test_split_inflow_is_trapezoid_of_theta(self):
        dt = 0.05
        asm = make_assembly(Nx=6, ds=dt, Ns=8)
        state = default_initial_state(asm)
        out = step(state, mb.SchemeConfig(dt=dt, scheme="split_semilagrangian"))
        np.testing.assert_allclose(out.eta[:, 0], dt * 0.5 * (state.theta + out.theta),
                                   rtol=0, atol=1e-15)

    def test_split_transport_is_exact_shift_plus_source(self):
        dt = 0.05
        asm = make_assembly(Nx=6, ds=dt, Ns=8)
        state = default_initial_state(asm)
        out = step(state, mb.SchemeConfig(dt=dt, scheme="split_semilagrangian"))
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
                state = step(state, mb.SchemeConfig(dt=dt, scheme=scheme))
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
        lhs = step(combo, cfg).flatten()
        rhs = a * step(s1, cfg).flatten() + b * step(s2, cfg).flatten()
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
            sa = step(sa, cfg)
            sb = step(sb, cfg)
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

    @pytest.mark.parametrize("scheme", ["full_implicit_midpoint", "split_semilagrangian"])
    def test_final_time_must_be_whole_steps(self, monkeypatch, scheme):
        # T = 1 at dt = 0.3 would take 4 steps and end at t = 1.2
        def no_step(run):
            raise AssertionError("stepped")

        monkeypatch.setattr(stepper._SplitRun, "advance", no_step)
        monkeypatch.setattr(stepper._MidpointRun, "advance", no_step)
        asm = make_assembly(Nx=5, ds=0.3, Ns=6)
        with pytest.raises(ParamOutOfRange, match="whole number of steps") as err:
            mb.simulate(default_initial_state(asm), mb.SchemeConfig(dt=0.3, scheme=scheme), 1.0)
        assert err.value.field == "T"

    def test_record_count_bounded_before_first_step(self, monkeypatch):
        # 200,000 steps sampled every 2 keep 100,001 records, at the limit;
        # every step keeps 200,001 and is refused before the first step
        def no_step(run):
            raise AssertionError("stepped")

        monkeypatch.setattr(stepper._SplitRun, "advance", no_step)
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        state, cfg = default_initial_state(asm), mb.SchemeConfig(dt=0.05)
        with pytest.raises(ParamOutOfRange) as err:
            mb.simulate(state, cfg, 200_000 * 0.05, sample_every=1)
        assert err.value.field == "sample_every"
        assert stepper.MAX_RECORDS == 100_001
        with pytest.raises(SimulationAborted, match="stepped") as err:
            mb.simulate(state, cfg, 200_000 * 0.05, sample_every=2)
        assert err.value.step_index == 1

    def test_prony_split_materializes_history_once(self, monkeypatch):
        # sampling reads the running sums; only the final state rotates the
        # ring, in place, and no snapshot copies it
        calls = {"final_state": [], "_logical_eta": []}
        for name in calls:
            def counting(run, name=name, real=getattr(stepper._SplitRun, name)):
                calls[name].append(run.t)
                return real(run)

            monkeypatch.setattr(stepper._SplitRun, name, counting)
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        res = mb.simulate(default_initial_state(asm), mb.SchemeConfig(dt=0.05), 1.0)
        assert len(res.records) == 21
        assert calls == {"final_state": [pytest.approx(1.0)], "_logical_eta": []}

    @pytest.mark.parametrize("form", ["prony", "table"])
    def test_split_run_builds_only_the_final_state(self, monkeypatch, form):
        # every record comes from the run's own history sums; the one
        # State built is the final one, which takes over the ring
        calls = []
        for name in ("final_state", "to_state"):
            def counting(run, name=name, real=getattr(stepper._SplitRun, name)):
                calls.append((name, run.t))
                return real(run)

            monkeypatch.setattr(stepper._SplitRun, name, counting)
        asm = make_assembly(Nx=5, ds=0.05, Ns=6,
                            kernel=_table_kernel() if form == "table" else None)
        res = mb.simulate(default_initial_state(asm), mb.SchemeConfig(dt=0.05), 1.0)
        assert len(res.records) == 21
        assert calls == [("final_state", pytest.approx(1.0))]

    def test_midpoint_run_builds_only_the_final_state(self, monkeypatch):
        # a midpoint run is sampled in place, as a split run is: the one
        # State simulate builds is the final one
        built, real = [], stepper.State

        def counting(**fields):
            built.append(fields["t"])
            return real(**fields)

        monkeypatch.setattr(stepper, "State", counting)
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        res = mb.simulate(default_initial_state(asm),
                          mb.SchemeConfig(dt=0.05, scheme="full_implicit_midpoint"), 1.0)
        assert len(res.records) == 21
        assert built == [pytest.approx(1.0)]
        assert res.final_state.t == pytest.approx(1.0)

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
        # one factorization of the mechanical block per simulate call,
        # made when its run starts
        calls = []
        real = stepper.splu

        def counting(matrix):
            calls.append(matrix.shape)
            return real(matrix)

        monkeypatch.setattr(stepper, "splu", counting)
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        mb.simulate(default_initial_state(asm), mb.SchemeConfig(dt=0.05), 20 * 0.05)
        assert calls == [(15, 15)]

    @pytest.mark.parametrize("scheme", ["full_implicit_midpoint", "split_semilagrangian"])
    def test_simulate_leaves_no_runner_cached(self, scheme):
        # a midpoint run's tables would outlive it in the assembly's cache;
        # the cache holds only the mechanical block
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        mb.simulate(default_initial_state(asm), mb.SchemeConfig(dt=0.05, scheme=scheme), 0.5)
        assert list(asm._cache) == ["B"]

    def test_split_never_assembles_generator(self):
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        mb.simulate(default_initial_state(asm), mb.SchemeConfig(dt=0.05), 0.5)
        assert "B" in asm._cache
        assert "A" not in asm._cache

    @pytest.mark.parametrize("scheme", ["full_implicit_midpoint", "split_semilagrangian"])
    def test_assembly_freed_without_cycle_collector(self, scheme):
        # Nothing a run leaves behind may form a cycle with the assembly: it
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
    """A split run samples from its running per-mode sums and its ring of
    column norms; every record must match the full quadrature on the
    materialized state."""

    TOL = 1e-11

    def test_default_run_records_and_refresh_drift(self, monkeypatch):
        # each record, evaluated in a batch from the run's sums, against the
        # record of the state materialized where the sample was taken
        real = an.take_sample
        refs = []

        def checking(src):
            if not isinstance(src, State):
                refs.append(an.diagnostics_record(src.to_state(), mcfg))
            return real(src)

        monkeypatch.setattr(an, "take_sample", checking)
        asm = build_default_assembly()
        mcfg = mb.choose_multipliers_for(asm)
        res = mb.simulate(default_initial_state(asm), mb.SchemeConfig(dt=1e-3), 10.0,
                          sample_every=10, mcfg=mcfg)
        assert len(refs) == 1000
        for rec, ref in zip(res.records[1:], refs):
            assert rec.t == ref.t
            _assert_records_close(rec, ref, self.TOL)
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
        run = stepper._start(State.unflatten(rng.standard_normal(asm.dim), asm), cfg)
        for _ in range(40):
            run.advance()
            _assert_records_close(an.diagnostics_record(run, mcfg),
                                  an.diagnostics_record(run.to_state(), mcfg), self.TOL)

    def test_recenter_measures_and_replaces_running_sums(self):
        asm = make_assembly(Nx=6, ds=0.05, Ns=12,
                            kernel=mb.MemoryKernel.prony([1.0, 0.5], [1.0, 4.0]))
        run = stepper._start(default_initial_state(asm), mb.SchemeConfig(dt=0.05))
        for _ in range(7):
            run.advance()
        run._x[:run.modes] *= 1.0 + 1e-6
        run._recenter()
        assert run.max_drift == pytest.approx(1e-6, rel=1e-3)
        full = an.history_sums(run.to_state().eta, asm)
        assert run.history_sums().hist_mu == pytest.approx(full.hist_mu, rel=1e-13)


@pytest.mark.parametrize("scheme", ["split_semilagrangian", "full_implicit_midpoint"])
def test_nan_running_sum_is_a_nan_drift(scheme):
    # the drift check must fail on a NaN, so the drift may not drop it
    asm = make_assembly(Nx=5, ds=0.05, Ns=6)
    run = stepper._start(default_initial_state(asm), mb.SchemeConfig(dt=0.05, scheme=scheme))
    for _ in range(3):
        run.advance()
    (run._x[0] if scheme == "split_semilagrangian" else run._m_w)[2] = np.nan
    run.finish()
    assert math.isnan(run.max_drift)


def _reference_rhs(asm, dt, w, m_n, m_shift):
    """The split step's right-hand side, unfused: P w plus the memory flux
    dt lap m at the known part of the averaged history."""
    nx = asm.Nx
    mu0w = float(np.sum(asm.memory_grid.weights * asm.memory_grid.mu))
    P = sp.identity(3 * nx, format="csr") + (dt / 2.0) * asm.mechanical_block
    rhs = P @ w
    rhs[2 * nx:] += dt * (asm.ops.lap @ (0.5 * (m_n + m_shift) + (mu0w * dt / 4.0) * w[2 * nx:]))
    return rhs


def _parent_table_trajectory(state, cfg, n_steps):
    """Reference table-kernel split step: gather the ring into s order for
    the shifted sum, and recompute sigma from the whole ring every step."""
    asm = state.assembly
    mg = asm.memory_grid
    nx, ns, dt = asm.Nx, asm.Ns, cfg.dt
    wmu = mg.weights * mg.mu
    mu0w = float(np.sum(wmu))
    lu = splu(stepper._start(state, cfg).M)
    u, v, th = state.u.copy(), state.v.copy(), state.theta.copy()
    zeta, head, C = state.eta.copy(), 0, np.zeros(nx)
    sigma = zeta @ wmu
    for k in range(1, n_steps + 1):
        m_n = sigma + mu0w * C
        order = (head + np.arange(ns - 1)) % ns
        m_shift = zeta[:, order] @ wmu[1:] + (mu0w - wmu[0]) * C
        rhs = _reference_rhs(asm, dt, np.concatenate([u, v, th]), m_n, m_shift)
        w_new = lu.solve(rhs)
        q = 0.5 * dt * (th + w_new[2 * nx:])
        u, v, th = w_new[:nx], w_new[nx:2 * nx], w_new[2 * nx:]
        C = C + q
        head = (head - 1) % ns
        zeta[:, head] = -(C - q)
        sigma = zeta[:, (head + np.arange(ns)) % ns] @ wmu
        yield State(t=k * dt, u=u, v=v, theta=th,
                    eta=np.roll(zeta, -head, axis=1) + C[:, None], assembly=asm)


def _table_kernel():
    """mu(s) = e^-s / (1 + s) tabulated on [0, 5]."""
    s = np.linspace(0.0, 5.0, 501)
    return mb.MemoryKernel.tabulated(s, np.exp(-s) / (1 + s),
                                     -np.exp(-s) * (2 + s) / (1 + s) ** 2)


class TestTableKernelRing:
    """A table-kernel split run takes its shifted sum in Hankel blocks; a
    split run of either kernel form takes its history sums from a ring of
    column norms."""

    @pytest.mark.parametrize("ns", [1, 2, 5, 15, 16, 17, 40])
    def test_blocked_shifted_sum_matches_rolled_product(self, ns):
        dt = 0.05
        asm = make_assembly(Nx=6, ds=dt, Ns=ns, kernel=_table_kernel())
        run = stepper._start(default_initial_state(asm), mb.SchemeConfig(dt=dt))
        for _ in range(3 * ns + 2 * discretization.SHIFT_BLOCK + 1):
            weights = np.roll(run.wshift, run.head)
            e_1 = run._x[run.modes, 1:-1]
            terms = np.abs(run.zeta) @ np.abs(weights)
            assert np.all(np.abs(e_1 - run.zeta @ weights) <= 1e-14 * terms)
            run.advance()

    @pytest.mark.parametrize("kernel", [_table_kernel(),
                                        mb.MemoryKernel.prony([1.0, 0.5], [1.0, 4.0]),
                                        mb.MemoryKernel.prony([1.0, 0.5, 4.0], [1.0, 4.0, 60.0])],
                             ids=["table", "prony", "prony_spread"])
    def test_history_sums_match_full_quadrature(self, monkeypatch, kernel):
        # 200 steps take the history sum down by orders of magnitude (9.9 to
        # 6.5e-9 for the table kernel), so the ring is re-centred on C
        # along the way; with a fast mode the wmu' terms cancel more than
        # the wmu terms, and the check reads both
        recentred = []
        real = stepper._SplitRun._recenter

        def counting(run):
            recentred.append(run.t)
            real(run)

        monkeypatch.setattr(stepper._SplitRun, "_recenter", counting)
        dt = 0.05
        asm = make_assembly(Nx=6, ds=dt, Ns=40, kernel=kernel)
        state = default_initial_state(asm)
        cfg = mb.SchemeConfig(dt=dt)
        run = stepper._start(state, cfg)
        for _ in range(200):
            run.advance()
            full = an.history_sums(run.to_state().eta, asm)
            sums = run.history_sums()
            for name in ("hist_mu", "hist_mup"):
                assert getattr(sums, name) == pytest.approx(getattr(full, name), rel=1e-12)
            scale = np.max(np.abs(full.moment))
            assert np.max(np.abs(sums.moment - full.moment)) <= 1e-12 * scale
            assert sums.mass == full.mass
            # the upwind moment is a difference quotient of moments: its
            # error is bounded against the moment's, over ds
            assert np.max(np.abs(sums.upwind_moment - full.upwind_moment)) \
                <= 1e-12 * scale / asm.memory_grid.ds
        assert recentred
        # re-centring leaves the trajectory as it was, up to rounding
        unsampled = stepper._start(state, cfg)
        for _ in range(200):
            unsampled.advance()
        ref = unsampled.to_state().flatten()
        assert hnorm(asm, run.to_state().flatten() - ref) <= 1e-10 * hnorm(asm, ref)

    def test_memory_guard_counts_the_hankel_block(self, monkeypatch):
        nx, ns = 64, 15612
        ring = 8 * discretization._HISTORY_COPIES * nx * ns
        hankel = 8 * discretization.SHIFT_BLOCK * ns
        for have, fits in ((ring + hankel - 8, False), (ring + hankel, True)):
            monkeypatch.setattr(os, "sysconf",
                                lambda name, have=have: 1 if name == "SC_PAGE_SIZE" else have)
            if fits:
                discretization.check_history_fits(nx, ns)
            else:
                with pytest.raises(DimensionTooLarge):
                    discretization.check_history_fits(nx, ns)


def test_table_kernel_step_matches_gather_reference():
    s = np.linspace(0.0, 5.0, 501)
    kernel = mb.MemoryKernel.tabulated(s, np.exp(-s) / (1 + s),
                                       -np.exp(-s) * (2 + s) / (1 + s) ** 2)
    dt = 0.05
    asm = make_assembly(Nx=6, ds=dt, Ns=40, kernel=kernel)
    state = default_initial_state(asm)
    cfg = mb.SchemeConfig(dt=dt)
    run = stepper._start(state, cfg)
    ref = None
    for ref in _parent_table_trajectory(state, cfg, 500):
        run.advance()
        new = run.to_state()
        assert mb.energy(new) == pytest.approx(mb.energy(ref), rel=1e-10, abs=0)
    diff = new.flatten() - ref.flatten()
    assert hnorm(asm, diff) <= 1e-10 * hnorm(asm, ref.flatten())


def _parent_prony_trajectory(state, cfg, n_steps):
    """Reference Prony split step, unfused: per-mode sums sigma_j shifted
    with exp(-r_j ds) and their end-node terms, m(eta^n) and m_shift
    summed over the modes, and the right-hand side P w + dt lap m_mid."""
    asm = state.assembly
    mg, kern = asm.memory_grid, asm.memory_grid.kernel
    nx, ns, dt = asm.Nx, asm.Ns, cfg.dt
    wmu = mg.weights * mg.mu
    mu0w = float(np.sum(wmu))
    lu = splu(stepper._start(state, cfg).M)
    decay = np.exp(-kern.rates * mg.ds)
    mode_mu = kern.amplitudes[None, :] * np.exp(-np.multiply.outer(mg.s_nodes, kern.rates))
    u, v, th = state.u.copy(), state.v.copy(), state.theta.copy()
    zeta, head, C = state.eta.copy(), 0, np.zeros(nx)
    sigma = zeta @ (mg.weights[:, None] * mode_mu)
    for k in range(1, n_steps + 1):
        tail = np.multiply.outer(zeta[:, (head - 1) % ns], mode_mu[ns - 1])
        if ns > 1:
            tail = tail + np.multiply.outer(zeta[:, (head - 2) % ns], mode_mu[ns - 2])
        sig_shift = (sigma - 0.5 * mg.ds * tail) * decay
        rhs = _reference_rhs(asm, dt, np.concatenate([u, v, th]), sigma.sum(axis=1) + mu0w * C,
                             sig_shift.sum(axis=1) + (mu0w - wmu[0]) * C)
        w_new = lu.solve(rhs)
        q = 0.5 * dt * (th + w_new[2 * nx:])
        u, v, th = w_new[:nx], w_new[nx:2 * nx], w_new[2 * nx:]
        sigma = sig_shift + mg.weights[0] * np.outer(-C, mode_mu[0])
        C = C + q
        head = (head - 1) % ns
        zeta[:, head] = -(C - q)
        yield State(t=k * dt, u=u, v=v, theta=th,
                    eta=np.roll(zeta, -head, axis=1) + C[:, None], assembly=asm)


class TestFusedPronyStep:
    """The fused split step against the unfused reference formula."""

    KERNEL = mb.MemoryKernel.prony([1.0, 0.5], [1.0, 4.0])

    def test_one_step_from_random_states(self):
        asm = make_assembly(Nx=8, ds=0.05, Ns=30, kernel=self.KERNEL,
                            p=np.linspace(0.8, 1.4, 8), g=np.linspace(1.5, 0.5, 8))
        cfg = mb.SchemeConfig(dt=0.05)
        rng = np.random.default_rng(3)
        for _ in range(20):
            state = State.unflatten(rng.standard_normal(asm.dim), asm)
            ref = next(_parent_prony_trajectory(state, cfg, 1)).flatten()
            diff = step(state, cfg).flatten() - ref
            assert hnorm(asm, diff) <= 1e-10 * hnorm(asm, ref)

    def test_energy_of_every_step(self):
        asm = make_assembly(Nx=6, ds=0.01, Ns=50, kernel=self.KERNEL)
        state = default_initial_state(asm)
        cfg = mb.SchemeConfig(dt=0.01)
        run = stepper._start(state, cfg)
        E0 = mb.energy(state)
        for ref in _parent_prony_trajectory(state, cfg, 2000):
            run.advance()
            assert abs(mb.energy(run.to_state()) - mb.energy(ref)) <= 1e-12 * E0


def _identity_columns(solve, asm):
    """The matrix of a blockwise solve, applied to each unit vector."""
    n3, cols = 3 * asm.Nx, []
    for e in np.eye(asm.dim):
        w, eta = solve(e[:n3], e[n3:].reshape(asm.Ns, asm.Nx).T)
        cols.append(np.concatenate([w, eta.T.ravel()]))
    return np.array(cols).T


class TestSchurSolver:
    """The history-eliminating solver of (I - tau A_h) x = r."""

    @pytest.mark.parametrize("q", [0.25, 0.5, 100.0])
    @pytest.mark.parametrize("ns", [1, 2, 64])
    @pytest.mark.parametrize("form", ["prony", "table"])
    def test_solves_equal_dense_inverse(self, form, ns, q):
        if form == "prony":
            kernel, ds = mb.MemoryKernel.prony([1.0, 0.5], [1.0, 3.0]), 0.05
        else:
            # mu(s) = 1 - s/5 vanishes at the last node s = Ns ds = 5
            s = np.linspace(0.0, 5.0, 501)
            kernel, ds = mb.MemoryKernel.tabulated(s, 1.0 - s / 5.0, np.full(s.size, -0.2)), 5.0 / ns
        asm = make_assembly(Nx=5, ds=ds, Ns=ns, kernel=kernel,
                            p=[1.0, 1.2, 0.9, 1.1, 1.3], g=[0.5, 1.0, 1.5, 1.0, 0.7])
        if form == "table":
            assert asm.memory_grid.weights[-1] * asm.memory_grid.mu[-1] == 0.0
        tau = q * ds
        solver = stepper.SchurSolver(asm, tau)
        inv = np.linalg.inv(np.eye(asm.dim) - tau * asm.generator_matrix.toarray())
        scale = np.abs(inv).max()
        assert np.abs(_identity_columns(solver.solve, asm) - inv).max() <= 1e-12 * scale
        assert np.abs(_identity_columns(solver.solve_transposed, asm) - inv.T).max() \
            <= 1e-12 * scale

    @pytest.mark.parametrize("transposed", [False, True])
    def test_strided_transposed_views(self, transposed):
        # resolvent_check passes transposed views of its vectors; these are
        # strided too, and the solver must neither write to them nor
        # depend on their layout
        asm = make_assembly(Nx=5, ds=0.05, Ns=9)
        solver = stepper.SchurSolver(asm, 0.1)
        M = np.eye(asm.dim) - 0.1 * asm.generator_matrix.toarray()
        rng = np.random.default_rng(3)
        w_base = rng.standard_normal(6 * asm.Nx)
        eta_base = rng.standard_normal((2 * asm.Ns, asm.Nx))
        w_copy, eta_copy = w_base.copy(), eta_base.copy()
        r_w, r_eta = w_base[::2], eta_base[::2].T
        assert not (r_eta.flags.c_contiguous or r_eta.flags.f_contiguous)
        solve = solver.solve_transposed if transposed else solver.solve
        w, eta = solve(r_w, r_eta)
        ref = np.linalg.solve(M.T if transposed else M, np.concatenate([r_w, r_eta.T.ravel()]))
        got = np.concatenate([w, eta.T.ravel()])
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(w_base, w_copy) and np.array_equal(eta_base, eta_copy)

    def test_singular_mechanical_block_is_a_linear_solve_failure(self):
        # M = I - B = 0: dgbtrf reports a zero pivot (info > 0)
        with pytest.raises(LinearSolveFailure, match="singular"):
            stepper._mechanical_lu(sp.identity(3, format="csr"), sp.csr_matrix((1, 1)), 1.0, 0.0)

    def test_singular_block_given_to_splu_is_a_linear_solve_failure(self):
        # a zero v row at the second node: the fourth pivot in node order
        block = sp.diags([1.0, 0.0, 1.0, 1.0, 1.0, 1.0]).tocsc()
        with pytest.raises(LinearSolveFailure) as err:
            stepper.splu(block)
        assert str(err.value) == ("mechanical block of the implicit step: "
                                  "Factor is exactly singular: U(4, 4) = 0")

    def test_apply_is_the_assembled_matrix(self):
        # apply_w and apply_eta are the (u, v, theta) and the history rows
        asm = make_assembly(Nx=5, ds=0.05, Ns=7)
        solver = stepper.SchurSolver(asm, 0.3)
        M = np.eye(asm.dim) - 0.3 * asm.generator_matrix.toarray()
        got = _identity_columns(lambda w, eta: _apply(solver, w, eta), asm)
        assert np.abs(got - M).max() <= 1e-13 * np.abs(M).max()


def _apply(solver, w, eta):
    """(I - tau A_h)(w, eta) blockwise, from the solver's row blocks."""
    return solver.apply_w(w, eta @ solver.wmu), solver.apply_eta(w[2 * solver.nx:], eta)


def _mechanical_block(nx, beta):
    """The mechanical block B at any Nx, also below the 4 nodes a run
    needs, with varying coefficients."""
    params = mb.derive_params(0.5, 1.0, 0.5, beta)
    h = 1.0 / (nx + 1)
    grid = mb.SpatialGrid(L=1.0, Nx=nx, h=h, nodes=h * np.arange(1, nx + 1))
    rng = np.random.default_rng(nx)
    coeffs = mb.certify_coefficients(rng.uniform(0.5, 2.0, nx), rng.uniform(0.5, 2.0, nx))
    ops = mb.build_operators(grid, coeffs, params)
    asm = discretization.GeneratorAssembly(params=params, grid=grid, memory_grid=None, ops=ops)
    return asm.mechanical_block, ops.lap


class TestBandedLU:
    """The banded LU of the mechanical block against dense solves."""

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("nx", [2, 3, 4, 5, 16, 64])
    def test_solves_match_dense(self, nx, beta):
        # at Nx <= 4 the 3Nx rows are fewer than kl + ku + 1, so dgbmv runs
        # over padded rows
        B, lap = _mechanical_block(nx, beta)
        rng = np.random.default_rng(nx)
        b = rng.standard_normal(3 * nx)
        # the forward error is bounded by cond(M) eps: compared at the
        # default run's tau = dt/2 (cond 4e8 at Nx = 64); at the resolvent's
        # tau = 1 the backward error is compared
        for tau in (5e-4, 1.0):
            M, lu = stepper._mechanical_lu(B, lap, tau, 0.7)
            assert (lu.n < lu.kl + lu.ku + 1) == (nx <= 4)
            dense = M.toarray()
            for trans, A in (("N", dense), ("T", dense.T)):
                x = lu.solve(b, trans)
                backward = np.abs(A @ x - b).max() / (np.abs(A).sum(axis=1).max()
                                                      * np.abs(x).max())
                assert backward <= 1e-15
                if tau < 1.0:
                    ref = np.linalg.solve(A, b)
                    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
            # the checked solve is the same solve in node order
            np.testing.assert_array_equal(lu.solve_checked(b[lu.order]),
                                          lu.solve(b)[lu.order])

    def test_corrupted_factor_aborts_the_run(self, monkeypatch):
        # the run simulate starts gets one entry of U's diagonal off
        real = stepper._start

        def corrupted(state, cfg):
            run = real(state, cfg)
            run.lu._lu[run.lu.kl + run.lu.ku, 7] *= 1.0 + 1e-6
            return run

        monkeypatch.setattr(stepper, "_start", corrupted)
        asm = make_assembly(Nx=6, ds=0.05, Ns=8)
        cfg = mb.SchemeConfig(dt=0.05)
        with pytest.raises(SimulationAborted) as err:
            mb.simulate(default_initial_state(asm), cfg, 0.5)
        assert err.value.step_index == 1
        assert isinstance(err.value.cause, LinearSolveFailure)
        assert "residual" in str(err.value.cause)
        assert [r.t for r in err.value.records] == [0.0]


class TestBatchedRecords:
    """simulate evaluates its samples in batches; each record must equal
    the one-sample diagnostics_record of what was sampled."""

    @pytest.mark.parametrize("scheme, form", [
        ("split_semilagrangian", "prony"), ("split_semilagrangian", "table"),
        ("full_implicit_midpoint", "prony")])
    def test_batched_records_equal_per_state_records(self, scheme, form):
        # 151 samples: two full batches and a part of one
        dt = 0.02
        asm = make_assembly(Nx=8, ds=dt, Ns=50,
                            kernel=_table_kernel() if form == "table" else None)
        cfg = mb.SchemeConfig(dt=dt, scheme=scheme)
        mcfg = mb.choose_multipliers_for(asm)
        state = default_initial_state(asm)
        res = mb.simulate(state, cfg, 300 * dt, sample_every=2, mcfg=mcfg)
        run = stepper._start(state, cfg)
        refs = [an.diagnostics_record(state, mcfg)]
        for k in range(1, 301):
            run.advance()
            if k % 2 == 0:
                refs.append(an.diagnostics_record(
                    run if scheme == "split_semilagrangian" else run.to_state(), mcfg))
        assert len(res.records) == len(refs) == 151
        for rec, ref in zip(res.records, refs):
            assert rec.t == ref.t
            _assert_records_close(rec, ref, 1e-12)

    @pytest.mark.parametrize("fail_at", [1, 64, 150])
    def test_aborted_run_keeps_every_earlier_sample(self, monkeypatch, fail_at):
        asm = make_assembly(Nx=6, ds=0.05, Ns=8)
        cfg = mb.SchemeConfig(dt=0.05)
        state = default_initial_state(asm)
        full = mb.simulate(state, cfg, 200 * 0.05).records
        real, steps = stepper._SplitRun.advance, []

        def failing(run):
            steps.append(run.t)
            if len(steps) == fail_at:
                raise LinearSolveFailure("injected")
            real(run)

        monkeypatch.setattr(stepper._SplitRun, "advance", failing)
        with pytest.raises(SimulationAborted) as err:
            mb.simulate(state, cfg, 200 * 0.05)
        assert err.value.step_index == fail_at
        kept = err.value.records
        assert len(kept) == fail_at
        for j, (rec, ref) in enumerate(zip(kept, full)):
            # the derivative fields of an aborted run are filled from its own
            # records, so only its last one (one-sided there) differs
            assert rec.t == ref.t and math.isfinite(rec.dE_numeric)
            if j == fail_at - 1:
                ref = dataclasses.replace(ref, dE_numeric=math.nan, identity_residual=math.nan)
            _assert_records_close(rec, ref, 1e-12)

    def test_run_aborted_after_its_last_step_has_complete_records(self, monkeypatch):
        # the check after the last step aborts the run with every record
        # taken, derivatives filled as in a finished run
        asm = make_assembly(Nx=6, ds=0.05, Ns=8)
        cfg = mb.SchemeConfig(dt=0.05)
        state = default_initial_state(asm)
        full = mb.simulate(state, cfg, 20 * 0.05).records

        def failing(run):
            raise LinearSolveFailure("injected")

        monkeypatch.setattr(stepper._SplitRun, "finish", failing)
        with pytest.raises(SimulationAborted) as err:
            mb.simulate(state, cfg, 20 * 0.05)
        assert err.value.step_index == 20
        assert len(err.value.records) == len(full) == 21
        for rec, ref in zip(err.value.records, full):
            assert math.isfinite(rec.dE_numeric) and math.isfinite(rec.identity_residual)
            assert rec == ref


def _assembled_cayley_trajectory(state, dt, n_steps):
    """Reference midpoint step: sparse LU of the assembled I - dt/2 A_h."""
    asm = state.assembly
    eye = sp.identity(asm.dim, format="csc")
    A = asm.generator_matrix
    lu = splu((eye - (dt / 2.0) * A).tocsc())
    P = (eye + (dt / 2.0) * A).tocsr()
    phi = state.flatten()
    for k in range(1, n_steps + 1):
        phi = lu.solve(P @ phi)
        yield k * dt, phi


def _midpoint_run(dt, state):
    return stepper._start(state, mb.SchemeConfig(dt=dt, scheme="full_implicit_midpoint"))


class TestMidpointStep:
    def test_matches_assembled_cayley_loop(self):
        # dt = 4 ds: q = tau/ds = 2 away from the split scheme's 1/2
        kernel = mb.MemoryKernel.prony([1.0, 0.5], [1.0, 4.0])
        for ns in (30, 1):
            asm = make_assembly(Nx=8, ds=0.05, Ns=ns, kernel=kernel,
                                p=np.linspace(0.8, 1.4, 8), g=np.linspace(1.5, 0.5, 8))
            state = default_initial_state(asm)
            run = _midpoint_run(0.2, state)
            for t, ref in _assembled_cayley_trajectory(state, 0.2, 200):
                run.advance()
                assert run.t == pytest.approx(t, rel=1e-12)
                assert hnorm(asm, run.to_state().flatten() - ref) <= 1e-10 * hnorm(asm, ref)

    def test_state_is_not_a_view_of_the_run(self):
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        run = _midpoint_run(0.1, default_initial_state(asm))
        run.advance()
        state = run.to_state()
        fields = [f.copy() for f in (state.u, state.v, state.theta, state.eta)]
        for _ in range(5):
            run.advance()
        assert all(np.array_equal(a, b) for a, b in
                   zip((state.u, state.v, state.theta, state.eta), fields))

    def test_factorizes_only_the_mechanical_block(self, monkeypatch):
        calls = []
        real = stepper.splu

        def counting(matrix):
            calls.append(matrix.shape)
            return real(matrix)

        monkeypatch.setattr(stepper, "splu", counting)
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        mb.simulate(default_initial_state(asm),
                    mb.SchemeConfig(dt=0.05, scheme="full_implicit_midpoint"), 0.5)
        assert calls == [(15, 15)]
        assert "A" not in asm._cache

    # a midpoint step reads its history as _a[:, i], wmu . G^(i+1) eta_0 of
    # its block: two steps in, _a[2, 2] is what the next step reads at x_2
    @pytest.mark.parametrize("scheme,field", [
        ("full_implicit_midpoint", "w"), ("full_implicit_midpoint", "_a"),
        ("split_semilagrangian", "theta"), ("split_semilagrangian", "u")])
    def test_non_finite_value_fails_the_residual_check(self, scheme, field):
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        run = stepper._start(default_initial_state(asm), mb.SchemeConfig(dt=0.05, scheme=scheme))
        for _ in range(2):
            run.advance()
        getattr(run, field)[(2,) * getattr(run, field).ndim] = np.nan
        with pytest.raises(LinearSolveFailure):
            run.advance()


def _banded_cayley_trajectory(state, dt, n_steps):
    """Reference midpoint step on the history grid: SchurSolver's row blocks
    and its banded (dtbtrs) solve, Phi' = M^{-1} (2 Phi - M Phi)."""
    asm = state.assembly
    solver = stepper.SchurSolver(asm, dt / 2.0)
    n3 = 3 * asm.Nx
    w, eta = state.flatten()[:n3], state.eta
    for k in range(1, n_steps + 1):
        m_w, m_eta = _apply(solver, w, eta)
        w, eta = solver.solve(2.0 * w - m_w, 2.0 * eta - m_eta)
        yield k * dt, np.concatenate([w, eta.T.ravel()])


class TestFourierMidpointRun:
    """The midpoint run steps its history a block of steps at a time on the
    rfft of a padded s-grid and re-projects it every run.period steps."""

    @pytest.mark.parametrize("ns", [1, 30])
    @pytest.mark.parametrize("q", [0.5, 2.0])
    @pytest.mark.parametrize("form", ["prony", "table"])
    def test_matches_banded_and_assembled_references(self, form, q, ns):
        # every step's w reads the block's history sum; every third step
        # the whole state, formed mid-block
        ds = 0.05
        kernel = _table_kernel() if form == "table" else mb.MemoryKernel.prony([1.0, 0.5],
                                                                               [1.0, 4.0])
        asm = make_assembly(Nx=8, ds=ds, Ns=ns, kernel=kernel,
                            p=np.linspace(0.8, 1.4, 8), g=np.linspace(1.5, 0.5, 8))
        state = default_initial_state(asm)
        dt = 2.0 * q * ds
        run = _midpoint_run(dt, state)
        n3, n_steps = 3 * asm.Nx, 2 * run.period + 3
        banded = _banded_cayley_trajectory(state, dt, n_steps)
        for k, ((t, ref), (_, ref_banded)) in enumerate(
                zip(_assembled_cayley_trajectory(state, dt, n_steps), banded), start=1):
            run.advance()
            assert run.t == pytest.approx(t, rel=1e-12)
            w_ref = ref_banded[:n3]
            assert np.abs(run.w - w_ref).max() <= 1e-10 * np.abs(w_ref).max()
            if k % 3 == 0:
                got = run.to_state().flatten()
                # the two references differ by as much (rounding)
                assert hnorm(asm, got - ref_banded) <= 1e-10 * hnorm(asm, ref_banded)
                assert hnorm(asm, got - ref) <= 1e-10 * hnorm(asm, ref)
        assert run.reprojections == 2
        run.finish()
        assert run.reprojections == 3
        assert run.max_drift <= 1e-11

    @pytest.mark.parametrize("period", [None, 23])
    def test_blocks_within_a_period_match_the_banded_reference(self, monkeypatch, period):
        # blocks of 5 steps: a period of several blocks, each started by the
        # step after the last; a period of 23 re-projects 3 steps into a block
        monkeypatch.setattr(stepper, "_HISTORY_BLOCK", 5)
        if period is not None:
            real = stepper._fourier_grid
            monkeypatch.setattr(stepper, "_fourier_grid",
                                lambda q, ns: (real(q, ns)[0], period, real(q, ns)[2]))
        asm = make_assembly(Nx=6, ds=0.05, Ns=30)
        state = default_initial_state(asm)
        run = _midpoint_run(0.05, state)
        assert run.block == 5 and run.period > 10
        n_steps = 2 * run.period + 4
        for _, ref in _banded_cayley_trajectory(state, 0.05, n_steps):
            run.advance()
            got = run.to_state().flatten()
            assert hnorm(asm, got - ref) <= 1e-10 * hnorm(asm, ref)
        assert run.reprojections == 2
        run.finish()
        assert run.max_drift <= 1e-11

    def test_grid_holds_the_history_between_reprojections(self):
        # what K steps move into the pad stays below _PAD_TOL before its
        # checked last R nodes: measured on a unit history at s_Ns
        for q, ns in ((0.5, 1843), (0.5, 30), (2.0, 30), (2.0, 1), (0.04, 8)):
            size, period, reach = stepper._fourier_grid(q, ns)
            assert size % 2 == 0 and period >= 1 and size - ns > reach
            assert period < stepper._HISTORY_BLOCK or period % stepper._HISTORY_BLOCK == 0
            z = np.exp(-2j * np.pi * np.arange(size // 2 + 1) / size)
            l_hat = (1.0 + q) - q * z
            impulse = np.zeros(size)
            impulse[ns - 1] = 1.0
            moved = np.fft.irfft(np.fft.rfft(impulse) * ((2.0 - l_hat) / l_hat) ** period / l_hat
                                 * (1.0 + q), n=size)
            assert np.all(np.abs(moved[size - reach:]) <= 1e-15)
            assert np.all(np.abs(moved[:ns - 1]) <= 1e-15)      # nothing carried round

    @pytest.mark.parametrize("name,how", [("powers", "frequency"), ("powers", "rows"),
                                          ("ell_powers", "all")])
    def test_corrupted_table_aborts_the_run(self, monkeypatch, name, how):
        # one frequency off in every power spreads the history over the
        # whole grid (the tail check fires first); powers off by a different
        # factor in each row, or l-powers scaled throughout, keep it in
        # place, and only the history rows of the residual see them.  The
        # tables are corrupted after the run's setup has checked them.
        real = stepper._start

        def corrupted(state, cfg):
            run = real(state, cfg)
            table = getattr(run, name)
            if how == "frequency":
                table[:, 3] *= 1.0 + 1e-6
            elif how == "rows":
                table *= (1.0 + 1e-6 * np.arange(1, len(table) + 1))[:, None]
            else:
                table *= 1.0 + 1e-6
            return run

        asm = make_assembly(Nx=6, ds=0.05, Ns=30)
        cfg = mb.SchemeConfig(dt=0.05, scheme="full_implicit_midpoint")
        state = default_initial_state(asm)
        period = real(state, cfg).period
        monkeypatch.setattr(stepper, "_start", corrupted)
        # caught at the first re-projection, and by the check after the
        # last step of a shorter run
        for n_steps, index in ((period + 5, period), (3, 3)):
            with pytest.raises(SimulationAborted) as err:
                mb.simulate(state, cfg, n_steps * cfg.dt)
            assert err.value.step_index == index
            assert isinstance(err.value.__cause__, LinearSolveFailure)
            if how != "frequency":
                assert str(err.value.__cause__).startswith("residual")

    @pytest.mark.parametrize("name", ["proj", "c"])
    def test_corrupted_history_sum_table_shows_as_drift(self, monkeypatch, name):
        # the steps carry wmu . eta as they read it, so every residual
        # holds; the materialized history at a re-projection does not agree
        real = stepper._start

        def corrupted(state, cfg):
            run = real(state, cfg)
            getattr(run, name)[...] *= 1.0 + 1e-5
            return run

        asm = make_assembly(Nx=6, ds=0.05, Ns=30)
        cfg = mb.SchemeConfig(dt=0.05, scheme="full_implicit_midpoint")
        state = default_initial_state(asm)
        period = real(state, cfg).period
        monkeypatch.setattr(stepper, "_start", corrupted)
        res = mb.simulate(state, cfg, (2 * period + 1) * cfg.dt)
        assert res.refresh_drift > 1e-9

    def test_symbols_checked_against_the_banded_solve(self, monkeypatch):
        # a pad of two nodes carries the history round at once
        monkeypatch.setattr(stepper, "_fourier_grid", lambda q, ns: (ns + 2, 10, 1))
        asm = make_assembly(Nx=6, ds=0.05, Ns=30)
        with pytest.raises(LinearSolveFailure, match="residual"):
            stepper._start(default_initial_state(asm),
                           mb.SchemeConfig(dt=0.05, scheme="full_implicit_midpoint"))

    def test_short_pad_is_caught_by_the_tail_check(self, monkeypatch):
        # the history moves one node a step at q = 1/2: 40 pad nodes do not
        # hold a block of 32 steps (the block check refuses them at setup);
        # 80 hold a block but not 200 steps
        real = stepper._fourier_grid
        asm = make_assembly(Nx=6, ds=0.05, Ns=30)
        cfg = mb.SchemeConfig(dt=0.05, scheme="full_implicit_midpoint")
        monkeypatch.setattr(stepper, "_fourier_grid",
                            lambda q, ns: (ns + 40, 200, real(q, ns)[2]))
        state = default_initial_state(asm)
        with pytest.raises(LinearSolveFailure, match="residual"):
            stepper._start(state, cfg)
        monkeypatch.setattr(stepper, "_fourier_grid",
                            lambda q, ns: (ns + 80, 200, real(q, ns)[2]))
        assert stepper._start(state, cfg).block == 32
        for n_steps, index in ((250, 200), (150, 150)):
            with pytest.raises(SimulationAborted) as err:
                mb.simulate(state, cfg, n_steps * cfg.dt, sample_every=50)
            assert err.value.step_index == index
            assert isinstance(err.value.__cause__, LinearSolveFailure)
            assert "end of the padded s-grid" in str(err.value.__cause__)

    def test_simulate_reports_the_drift_of_the_carried_sum(self):
        asm = make_assembly(Nx=6, ds=0.05, Ns=30)
        cfg = mb.SchemeConfig(dt=0.05, scheme="full_implicit_midpoint")
        state = default_initial_state(asm)
        period = stepper._start(state, cfg).period
        res = mb.simulate(state, cfg, (2 * period + 1) * cfg.dt)
        assert 0.0 < res.refresh_drift <= 1e-11

    def test_last_reprojection_is_not_repeated(self, caplog):
        # 2K steps: the last step re-projects, and simulate's finish after
        # it has no step left to check
        asm = make_assembly(Nx=5, ds=0.05, Ns=6)
        cfg = mb.SchemeConfig(dt=0.1, scheme="full_implicit_midpoint")
        run = stepper._start(default_initial_state(asm), cfg)
        for _ in range(run.period):
            run.advance()
        assert run.reprojections == 1
        run.finish()
        assert run.reprojections == 1
        with caplog.at_level(logging.INFO, logger="membeam.stepper"):
            mb.simulate(default_initial_state(asm), cfg, 2 * run.period * cfg.dt)
        line, = [r.getMessage() for r in caplog.records if r.name == "membeam.stepper"]
        assert (f"padded s-grid P = {run.size}, K = {run.period}, k = {run.block}, "
                "2 re-projections") in line

    def test_memory_guard_counts_the_block_tables(self, monkeypatch):
        # q = 100: a padded grid of 340 times Ns, on which the run's
        # tables outweigh the history; what a run allocates stays within
        # what the guard counts for it
        asm = make_assembly(Nx=5, ds=0.05, Ns=64)
        cfg = mb.SchemeConfig(dt=10.0, scheme="full_implicit_midpoint")
        size, period, _ = stepper._fourier_grid(100.0, 64)
        counted = []
        real = stepper.check_history_fits

        def counting(nx, ns, columns):
            counted.append(8.0 * ns * (discretization._HISTORY_COPIES * nx + columns))
            real(nx, ns, columns)

        monkeypatch.setattr(stepper, "check_history_fits", counting)
        state = default_initial_state(asm)
        tracemalloc.start()
        try:
            run = stepper._start(state, cfg)
            for _ in range(period + 3):
                run.advance()
            run.to_state()
            run.finish()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak > 0.25 * counted[0] > 8 * size
        assert peak <= counted[0]

    def test_oversized_padded_grid_refused_before_allocation(self, monkeypatch):
        # q = 1e4, Ns = 10 pads the s-grid to millions of nodes; with
        # physical memory 1.5 times what the history copies alone need, the
        # block tables do not fit, and the run is refused before anything
        # of the grid's length is built
        asm = make_assembly(Nx=5, ds=0.05, Ns=10)
        state = default_initial_state(asm)
        cfg = mb.SchemeConfig(dt=1000.0, scheme="full_implicit_midpoint")
        size = stepper._fourier_grid(1e4, 10)[0]
        history = 8.0 * size * (discretization._HISTORY_COPIES * 5 + discretization.SHIFT_BLOCK)
        pages, real = int(1.5 * history) // os.sysconf("SC_PAGE_SIZE"), os.sysconf
        monkeypatch.setattr(os, "sysconf",
                            lambda name: pages if name == "SC_PHYS_PAGES" else real(name))
        tracemalloc.start()
        try:
            with pytest.raises(DimensionTooLarge, match="needs about"):
                stepper._start(state, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * size


def _long_assembly(form):
    """Nx = 64, Ns = 16384 at ds = 1e-3: an 8 MiB history, against which
    the runs' own tables are small."""
    kernel = None
    if form == "table":
        s = np.linspace(0.0, 20.0, 2001)
        kernel = mb.MemoryKernel.tabulated(s, np.exp(-s) / (1 + s),
                                           -np.exp(-s) * (2 + s) / (1 + s) ** 2)
    return make_assembly(Nx=64, ds=1e-3, Ns=16384, kernel=kernel)


class TestHistoryMemory:
    """What a run holds at its peak, in histories (Nx Ns float64s) above
    the caller's state."""

    @pytest.mark.parametrize("form", ["prony", "table"])
    def test_split_run_holds_one_history_of_its_own(self, form):
        # the ring, which the final state takes over; every other temporary
        # is a block of columns or a few rows
        asm = _long_assembly(form)
        state, cfg = default_initial_state(asm), mb.SchemeConfig(dt=1e-3)
        assert peak_history_copies(lambda: mb.simulate(state, cfg, 5e-3), asm) < 2.0
        assert peak_history_copies(lambda: step(state, cfg), asm) < 2.0

    def test_midpoint_run_fits_its_memory_guard(self, monkeypatch):
        # the run's allowance: _HISTORY_COPIES (Nx, P + 2) arrays and
        # 3k + 16 columns of length P + 2; the re-projection after the last
        # step holds one (Nx, Ns) residual buffer and writes the new block's
        # spectrum over the old one, so the peak stays below 8.5 histories
        asm = _long_assembly("prony")
        cfg = mb.SchemeConfig(dt=1e-3, scheme="full_implicit_midpoint")
        allowed = []
        real = stepper.check_history_fits

        def counting(nx, ns, columns):
            allowed.append(ns * (discretization._HISTORY_COPIES * nx + columns))
            real(nx, ns, columns)

        monkeypatch.setattr(stepper, "check_history_fits", counting)
        state = default_initial_state(asm)
        peak = peak_history_copies(lambda: mb.simulate(state, cfg, 5e-3), asm)
        assert len(allowed) == 1
        assert peak <= allowed[0] / (asm.Nx * asm.Ns)
        assert peak <= 8.5

    @pytest.mark.parametrize("steps", [7, 40])
    @pytest.mark.parametrize("form", ["prony", "table"])
    def test_final_state_is_the_last_snapshot(self, monkeypatch, form, steps):
        # 40 steps bring the ring head back to storage column 0
        snapshots = []
        real = stepper._SplitRun.final_state

        def snapshot_first(run):
            snapshots.append(run.to_state())
            return real(run)

        monkeypatch.setattr(stepper._SplitRun, "final_state", snapshot_first)
        asm = make_assembly(Nx=6, ds=0.05, Ns=40,
                            kernel=_table_kernel() if form == "table" else None)
        final = mb.simulate(default_initial_state(asm), mb.SchemeConfig(dt=0.05),
                            steps * 0.05).final_state
        snap, = snapshots
        assert final.t == snap.t
        for name in ("u", "v", "theta", "eta"):
            assert getattr(final, name).tobytes() == getattr(snap, name).tobytes()


class TestOracle:
    def test_identity_at_t_zero(self):
        asm = make_assembly(Nx=4, ds=0.125, Ns=8)
        phi = np.random.default_rng(0).standard_normal(asm.dim)
        np.testing.assert_array_equal(mb.oracle_evolve(asm, phi, 0.0), phi)

    def test_semigroup_property(self):
        # exp(0.7 A) = exp(0.4 A) exp(0.3 A)
        asm = make_assembly(Nx=4, ds=0.125, Ns=8)
        phi0 = np.random.default_rng(1).standard_normal(asm.dim)
        once = mb.oracle_evolve(asm, phi0, 0.7)
        twice = mb.oracle_evolve(asm, mb.oracle_evolve(asm, phi0, 0.3), 0.4)
        assert hnorm(asm, once - twice) <= 1e-12 * hnorm(asm, once)

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
        coeff = mb.certify_coefficients(np.full(4, 0.01), np.ones(4))
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


@settings(max_examples=20, deadline=None)
@given(st.floats(0.01, 0.2), st.integers(0, 2**31 - 1))
def test_split_contraction_property(dt, seed):
    """One-step H-norm contraction for random states and step sizes."""
    asm = make_assembly(Nx=5, ds=dt, Ns=6)
    phi = np.random.default_rng(seed).standard_normal(asm.dim)
    state = mb.State.unflatten(phi, asm)
    out = step(state, mb.SchemeConfig(dt=dt, scheme="split_semilagrangian"))
    assert hnorm(asm, out.flatten()) <= hnorm(asm, phi) * (1.0 + 1e-10)
