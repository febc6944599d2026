import os

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import membeam as mb
from membeam.errors import (
    DimensionMismatch,
    DimensionTooLarge,
    GridTooCoarse,
    ParamOutOfRange,
    TruncationUnreachable,
)

from conftest import default_initial_state, make_assembly

CLAMPED_EIGENVALUE = 4.7300407**4  # root of cosh(x) cos(x) = 1, to the fourth


class TestSpatialGrid:
    def test_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            mb.build_spatial_grid(1.0, 3)

    def test_unit_interval_four_nodes(self):
        grid = mb.build_spatial_grid(1.0, 4)
        assert grid.h == pytest.approx(0.2)
        np.testing.assert_allclose(grid.nodes, [0.2, 0.4, 0.6, 0.8])

    def test_spacing(self):
        assert mb.build_spatial_grid(2.0, 7).h == pytest.approx(0.25)

    def test_bad_length(self):
        with pytest.raises(ParamOutOfRange):
            mb.build_spatial_grid(0.0, 8)


def _count_mu_nodes(monkeypatch) -> list:
    """The number of nodes of each MemoryKernel.mu call from now on."""
    evaluated, real = [], mb.MemoryKernel.mu

    def counting(self, s):
        evaluated.append(np.size(s))
        return real(self, s)

    monkeypatch.setattr(mb.MemoryKernel, "mu", counting)
    return evaluated


class TestMemoryGrid:
    def test_unit_exponential_truncation(self, exp_kernel):
        mg = mb.build_memory_grid(exp_kernel, dt=0.01, trunc_tol=1e-8)
        assert mg.Ns * mg.ds >= np.log(1e8)
        assert mg.Ns == 1843
        assert mg.ds == 0.01
        # trapezoid mass misses ~ds/2 mu(0) plus the truncated tail
        assert mg.weights @ mg.mu == pytest.approx(1.0, abs=1e-2)

    def test_fast_kernel_truncation(self):
        kern = mb.MemoryKernel.prony([2.0], [3.0])
        mg = mb.build_memory_grid(kern, dt=0.1, trunc_tol=1e-6)
        assert mg.Ns * mg.ds >= np.log(1e6) / 3.0
        assert mg.Ns == 47

    @pytest.mark.parametrize("amps, rates, dt, tol, ns", [
        ([1.0], [1e-4], 1.0, 1e-8, 184208),
        ([0.7, 0.3], [2e-4, 3.0], 0.5, 1e-8, 182364),
        ([1.0], [1e-5], 10.0, 1e-6, 138156),
    ])
    def test_slow_kernel_truncation(self, amps, rates, dt, tol, ns):
        # crossings beyond s = 16384; Ns as brentq's root of mu(s) = bound,
        # rounded up to the grid, gave it
        kern = mb.MemoryKernel.prony(amps, rates)
        assert mb.build_memory_grid(kern, dt=dt, trunc_tol=tol).Ns == ns

    @pytest.mark.parametrize("kern, dt, tol", [
        (mb.MemoryKernel.prony([1.0], [1.0]), 1e-3, 1e-8),
        (mb.MemoryKernel.prony([2.0, 0.5], [3.0, 0.4]), 0.07, 1e-6),
        (mb.MemoryKernel.prony([1.0, 5.0, 0.2], [0.5, 40.0, 0.05]), 5e-4, 1e-12),
        (mb.MemoryKernel.prony([1.0], [2.0]), 0.1, 0.7),
        # table nodes every 0.013 against ds = 0.01 and 0.0337
        (mb.MemoryKernel.tabulated(np.arange(0, 1501) * 0.013,
                                   np.exp(-np.arange(0, 1501) * 0.013)), 0.01, 1e-8),
        (mb.MemoryKernel.tabulated(np.arange(0, 1501) * 0.013,
                                   np.exp(-np.arange(0, 1501) * 0.013)), 0.0337, 1e-6),
    ])
    def test_truncation_is_the_first_node_below_the_bound(self, kern, dt, tol, monkeypatch):
        bound = tol * float(kern.mu(0.5 * dt))
        evaluated = _count_mu_nodes(monkeypatch)
        mg = mb.build_memory_grid(kern, dt=dt, trunc_tol=tol)
        assert mg.mu[-1] <= bound
        assert np.all(mg.mu[:-1] > bound)
        # the scan evaluates at most about 2 Ns nodes, the grid Ns more
        assert sum(evaluated) <= 3 * mg.Ns + 2

    def test_crossing_beyond_the_cap_unreachable(self):
        # mu = bound near s = 1.8e10, beyond the cap at s = 1e9
        kern = mb.MemoryKernel.prony([1.0], [1e-9])
        with pytest.raises(TruncationUnreachable):
            mb.build_memory_grid(kern, dt=0.01, trunc_tol=1e-8)

    def test_scan_checks_memory_as_it_grows(self, exp_kernel, monkeypatch):
        # with 1 MiB of memory a history of one x node holds about 5000
        # s-nodes: the scan for Ns = 18422 stops at the block beyond that
        pages, real = 2**20 // os.sysconf("SC_PAGE_SIZE"), os.sysconf
        monkeypatch.setattr(os, "sysconf",
                            lambda name: pages if name == "SC_PHYS_PAGES" else real(name))
        evaluated = _count_mu_nodes(monkeypatch)
        with pytest.raises(DimensionTooLarge):
            mb.build_memory_grid(exp_kernel, dt=1e-3, trunc_tol=1e-8)
        assert sum(evaluated) < 2**13

    def test_scan_counts_the_x_nodes(self, monkeypatch):
        # a rate of 3e-8 at dt = 1 crosses its bound near s = 6e8: with one
        # x node counted the scan ran to blocks of 2^25 nodes (1.1 s,
        # 454 MiB) before DimensionTooLarge; with 64 x nodes and 8 GiB a
        # history stops fitting near 2 million nodes
        import tracemalloc
        pages, real = 2**33 // os.sysconf("SC_PAGE_SIZE"), os.sysconf
        monkeypatch.setattr(os, "sysconf",
                            lambda name: pages if name == "SC_PHYS_PAGES" else real(name))
        evaluated = _count_mu_nodes(monkeypatch)
        kern = mb.MemoryKernel.prony([1.0], [3e-8])
        tracemalloc.start()
        try:
            with pytest.raises(DimensionTooLarge):
                mb.build_memory_grid(kern, dt=1.0, trunc_tol=1e-8, nx=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # blocks end at 1, 2, 4, ... nodes; the one to 2^21 nodes is refused
        assert 2**20 < 2**33 / (8 * (8 * 64 + 16)) < 2**21
        assert sum(evaluated) == 2**20 + 2      # and mu(ds/2), mu at the cap
        assert peak < 64 * 2**20

    def test_short_table_unreachable(self):
        s = np.linspace(0.0, 1.0, 101)
        kern = mb.MemoryKernel.tabulated(s, np.exp(-s), -np.exp(-s))
        with pytest.raises(TruncationUnreachable):
            mb.build_memory_grid(kern, dt=0.01, trunc_tol=1e-12)

    def test_weights_are_trapezoid(self, exp_kernel):
        mg = mb.memory_grid_from_counts(exp_kernel, ds=0.5, Ns=4)
        np.testing.assert_allclose(mg.weights, [0.5, 0.5, 0.5, 0.25])
        np.testing.assert_allclose(mg.s_nodes, [0.5, 1.0, 1.5, 2.0])
        np.testing.assert_array_equal(mg.wmu, mg.weights * mg.mu)
        np.testing.assert_array_equal(mg.wmup, mg.weights * mg.muprime)

    def test_history_weights_computed_once(self, exp_kernel):
        mg = mb.memory_grid_from_counts(exp_kernel, ds=0.1, Ns=50)
        for name, factor in (("wmu", mg.mu), ("wmup", mg.muprime)):
            arr = getattr(mg, name)
            assert getattr(mg, name) is arr
            np.testing.assert_array_equal(arr, mg.weights * factor)
            assert not arr.flags.writeable


class TestOperators:
    def test_d1_exactly_skew(self, default_params):
        for nx in (4, 9, 32):
            grid = mb.build_spatial_grid(1.0, nx)
            coeff = mb.certify_coefficients(np.ones(nx), np.ones(nx))
            ops = mb.build_operators(grid, coeff, default_params)
            asym = sp.linalg.norm(ops.d1 + ops.d1.T, np.inf)
            assert asym == 0.0

    def test_dplus_gram_equals_neg_laplacian(self, default_params):
        grid = mb.build_spatial_grid(1.0, 12)
        coeff = mb.certify_coefficients(np.ones(12), np.ones(12))
        ops = mb.build_operators(grid, coeff, default_params)
        err = sp.linalg.norm(ops.dplus.T @ ops.dplus + ops.lap, np.inf)
        assert err <= 1e-12 * sp.linalg.norm(ops.lap, np.inf)

    def test_bih_symmetric_positive_definite(self, default_params):
        rng = np.random.default_rng(3)
        nx = 24
        grid = mb.build_spatial_grid(1.0, nx)
        p = 1.0 + rng.random(nx)
        coeff = mb.certify_coefficients(p, np.ones(nx))
        ops = mb.build_operators(grid, coeff, default_params)
        bih = ops.bih.toarray()
        assert np.max(np.abs(bih - bih.T)) == 0.0
        assert sla.eigvalsh(bih)[0] > 0.0

    def test_lap_negative_definite(self, default_params):
        grid = mb.build_spatial_grid(1.0, 16)
        coeff = mb.certify_coefficients(np.ones(16), np.ones(16))
        ops = mb.build_operators(grid, coeff, default_params)
        assert sla.eigvalsh(-ops.lap.toarray())[0] > 0.0

    def test_clamped_beam_eigenvalue_converges(self, default_params):
        lam = {}
        for nx in (64, 128):
            grid = mb.build_spatial_grid(1.0, nx)
            coeff = mb.certify_coefficients(np.ones(nx), np.ones(nx))
            ops = mb.build_operators(grid, coeff, default_params)
            lam[nx] = sla.eigvalsh(ops.bih.toarray())[0]
        richardson = lam[128] + (lam[128] - lam[64]) / 3.0
        assert richardson == pytest.approx(CLAMPED_EIGENVALUE, rel=5e-3)

    def test_coefficient_length_checked(self, default_params):
        grid = mb.build_spatial_grid(1.0, 8)
        coeff = mb.certify_coefficients(np.ones(6), np.ones(6))
        with pytest.raises(DimensionMismatch):
            mb.build_operators(grid, coeff, default_params)


class TestGeneratorAssembly:
    def test_total_dimension(self):
        asm = make_assembly(Nx=8, Ns=16)
        assert asm.dim == 8 * (3 + 16)

    def test_beta_zero_block_triangular(self, exp_kernel):
        params = mb.derive_params(0.5, 1.0, 0.5, 0.0)
        asm = make_assembly(Nx=6, Ns=8, params=params, kernel=exp_kernel)
        A = asm.generator_matrix.tocsr()
        nx = asm.Nx
        mech = A[: 2 * nx, 2 * nx:]
        assert mech.nnz == 0  # (u, v) rows never touch theta or eta

    def test_mu_zero_limit_reduces_to_fourier(self, default_params, exp_kernel):
        asm = make_assembly(Nx=6, Ns=8)
        mg = asm.memory_grid
        dead = mb.MemoryGrid(Ns=mg.Ns, ds=mg.ds, s_nodes=mg.s_nodes,
                             weights=mg.weights, mu=np.zeros(mg.Ns),
                             muprime=np.zeros(mg.Ns), kernel=mg.kernel)
        asm0 = mb.assemble_generator(asm.ops, dead, default_params)
        A = asm0.generator_matrix.tocsr()
        nx = asm.Nx
        theta_row = A[2 * nx: 3 * nx, :]
        expected = sp.hstack([
            sp.csr_matrix((nx, nx)),
            (-default_params.beta * asm.ops.d1).tocsr(),
            (default_params.l * asm.ops.lap).tocsr(),
            sp.csr_matrix((nx, nx * mg.Ns)),
        ]).tocsr()
        assert (theta_row - expected).nnz == 0

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_blocks_match_dense_formulas(self, beta):
        """A_h and H entry by entry against the block formulas of the
        GeneratorAssembly docstring; mu(s) = 1 - s makes w_4 mu_4 = 0."""
        nx, ns, ds = 5, 4, 0.25
        params = mb.derive_params(0.5, 1.0, 0.5, beta)
        kernel = mb.MemoryKernel.tabulated([0.0, 1.0], [1.0, 0.0])
        x = np.linspace(0.0, 1.0, nx)
        asm = make_assembly(Nx=nx, ds=ds, Ns=ns, params=params, kernel=kernel,
                            p=1.0 + x, g=0.5 + x**2)
        ops, mg, h = asm.ops, asm.memory_grid, asm.grid.h
        wmu = mg.weights * mg.mu
        assert wmu[-1] == 0.0 and np.all(wmu[:-1] > 0.0)
        kap, l = params.kappa, params.l
        bih, lap, d1 = ops.bih.toarray(), ops.lap.toarray(), ops.d1.toarray()
        I, Z = np.eye(nx), np.zeros((nx, nx))
        B = np.block([[Z, I, Z],
                      [-bih + kap**2 * lap, -2.0 * np.diag(ops.g) - 2.0 * kap * d1, -beta * d1],
                      [Z, -beta * d1, l * lap]])
        F = np.vstack([np.zeros((2 * nx, nx * ns)), np.kron(wmu[None, :], lap)])
        T = (np.eye(ns, k=-1) - np.eye(ns)) / ds
        A = np.block([[B, F], [np.kron(np.ones((ns, 1)), np.hstack([Z, Z, I])), np.kron(T, I)]])
        H = sla.block_diag(h * (bih - kap**2 * lap), h * I, h * I,
                           np.kron(np.diag(wmu * h), -lap))
        np.testing.assert_array_equal(asm.mechanical_block.toarray(), B)
        np.testing.assert_array_equal(asm.generator_matrix.toarray(), A)
        np.testing.assert_array_equal(asm.metric_matrix.toarray(), H)

    def test_metric_positive_definite(self):
        asm = make_assembly(Nx=6, Ns=8)
        H = asm.metric_matrix.toarray()
        assert np.allclose(H, H.T)
        assert sla.eigvalsh(H)[0] > 0.0

    def test_energy_matches_metric_quadratic_form(self):
        asm = make_assembly(Nx=8, Ns=12)
        rng = np.random.default_rng(11)
        phi = rng.standard_normal(asm.dim)
        state = mb.State.unflatten(phi, asm)
        quad = 0.5 * phi @ (asm.metric_matrix @ phi)
        assert mb.energy(state) == pytest.approx(quad, rel=1e-12)

    def test_dissipativity_on_random_states(self):
        asm = make_assembly(Nx=10, Ns=20, p=1.0 + np.linspace(0, 1, 10) ** 2,
                            g=0.5 + np.linspace(0, 1, 10))
        worst = mb.check_dissipativity(asm)
        assert worst <= 1e-10

    def test_resolvent_nonsingular(self):
        for beta in (0.0, 1.0):
            params = mb.derive_params(0.5, 1.0, 0.5, beta)
            asm = make_assembly(Nx=6, Ns=10, params=params)
            assert np.isfinite(mb.resolvent_check(asm))

    @pytest.mark.parametrize("kappa,lambda2,field", [
        (0.5, 1e-300, "l"), (1e300, 1.0, "mechanical_block"), (1e150, 1.0, "mechanical_block")])
    def test_entry_with_overflowing_square_is_refused(self, kappa, lambda2, field):
        asm = make_assembly(params=mb.derive_params(0.5, lambda2, kappa, 1.0))
        with pytest.raises(ParamOutOfRange) as info:
            asm.mechanical_block
        assert info.value.field == field


class TestDissipativityStructure:
    """The symmetric part of H A_h must reduce exactly to damping, thermal
    gradient, and upwind history dissipation; transport and coupling terms
    must cancel."""

    def test_pure_u_state_is_neutral(self):
        asm = make_assembly(Nx=8, Ns=10)
        phi = np.zeros(asm.dim)
        phi[: asm.Nx] = np.random.default_rng(0).standard_normal(asm.Nx)
        num = phi @ (asm.metric_matrix @ (asm.generator_matrix @ phi))
        assert num == pytest.approx(0.0, abs=1e-12)

    def test_pure_v_state_matches_damping(self):
        asm = make_assembly(Nx=8, Ns=10)
        h = asm.grid.h
        j = 3
        phi = np.zeros(asm.dim)
        phi[asm.Nx + j] = 1.0
        num = phi @ (asm.metric_matrix @ (asm.generator_matrix @ phi))
        assert num == pytest.approx(-2.0 * h, rel=1e-12)

    def test_rayleigh_quotient_formula(self):
        """<Phi, H A Phi> equals the dissipation functional plus the upwind
        history form for arbitrary states (here checked against the
        dissipation functional on states with constant-in-s history, whose
        upwind form is computable in closed form)."""
        asm = make_assembly(Nx=6, Ns=9)
        state = default_initial_state(asm)
        phi = state.flatten()
        num = phi @ (asm.metric_matrix @ (asm.generator_matrix @ phi))
        assert num < 0.0
