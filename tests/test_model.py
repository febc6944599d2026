import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import membeam as mb
from membeam.errors import KernelHypothesisError, MembeamError

from conftest import exactly, make_assembly

H4_FAILS = "H4 fails: cannot certify delta1 > 0 with mu' + delta1*mu <= 0"
H3_FAILS = "H3 fails: mu0 is not positive and finite"


class TestDeriveParams:
    def test_direct_formula(self):
        p = mb.derive_params(0.5, 1.0, 1.0, 1.0)
        assert p.l == pytest.approx(0.5, abs=0)

    def test_small_conductivity(self):
        p = mb.derive_params(0.999, 2.0, 0.1, 0.2)
        assert p.l == pytest.approx(0.0005, rel=1e-14)

    def test_lambda1_boundary_rejected(self):
        with pytest.raises(MembeamError, match=exactly("lambda1 = 1.0 not in (0, 1)")):
            mb.derive_params(1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("kw,field", [
        (dict(lambda1=0.0), "lambda1"),
        (dict(lambda2=0.0), "lambda2"),
        (dict(kappa=0.0), "kappa"),
        (dict(beta=-0.5), "beta"),
    ])
    def test_out_of_range_names_field(self, kw, field):
        base = dict(lambda1=0.5, lambda2=1.0, kappa=1.0, beta=1.0)
        base.update(kw)
        bound = {"lambda1": "not in (0, 1)", "beta": "negative"}.get(field, "not > 0")
        with pytest.raises(MembeamError, match=exactly(f"{field} = {kw[field]} {bound}")):
            mb.derive_params(**base)


class TestValidateKernel:
    def test_unit_exponential(self):
        report = mb.validate_kernel(mb.MemoryKernel.prony([1.0], [1.0]))
        assert (report.h1, report.h2, report.h3, report.h4) == (True,) * 4
        assert report.mu0 == pytest.approx(1.0, abs=0)
        assert report.delta1 == pytest.approx(1.0, abs=0)

    def test_scaled_exponential(self):
        report = mb.validate_kernel(mb.MemoryKernel.prony([2.0], [3.0]))
        assert report.mu0 == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert report.delta1 == 3.0

    def test_power_law_fails_h4(self):
        s = np.linspace(0.0, 50.0, 4001)
        kern = mb.MemoryKernel.tabulated(s, (1 + s) ** -2.0, -2.0 * (1 + s) ** -3.0)
        with pytest.raises(KernelHypothesisError, match=exactly(H4_FAILS)) as exc:
            mb.validate_kernel(kern)
        report = exc.value.report
        assert report.h1 and report.h2 and report.h3 and not report.h4

    def test_power_law_fails_for_short_table_too(self):
        s = np.linspace(0.0, 1.0, 201)
        kern = mb.MemoryKernel.tabulated(s, (1 + s) ** -2.0, -2.0 * (1 + s) ** -3.0)
        with pytest.raises(KernelHypothesisError, match=exactly(H4_FAILS)):
            mb.validate_kernel(kern)

    def test_negative_kernel_rejected(self):
        s = np.linspace(0.0, 2.0, 50)
        kern = mb.MemoryKernel.tabulated(s, np.cos(2 * s))
        with pytest.raises(KernelHypothesisError,
                           match=exactly("H1 fails: mu(s) < 0 at a probe point")):
            mb.validate_kernel(kern)

    def test_increasing_kernel_rejected(self):
        s = np.linspace(0.0, 2.0, 50)
        kern = mb.MemoryKernel.tabulated(s, 1.0 + s, np.ones_like(s))
        with pytest.raises(KernelHypothesisError,
                           match=exactly("H2 fails: mu'(s) > 0 at a probe point")):
            mb.validate_kernel(kern)

    def test_zero_mass_rejected(self):
        s = np.linspace(0.0, 2.0, 50)
        kern = mb.MemoryKernel.tabulated(s, np.zeros_like(s))
        with pytest.raises(KernelHypothesisError, match=exactly(H3_FAILS)):
            mb.validate_kernel(kern)

    def test_vanishing_prony_rate_has_infinite_mass(self):
        # 1 / 5e-324 overflows: H3 names it, with no numpy warning on the way
        with pytest.raises(KernelHypothesisError, match=exactly(H3_FAILS)):
            mb.validate_kernel(mb.MemoryKernel.prony([1.0], [5e-324]))

    def test_tabulated_exponential_passes(self):
        s = np.linspace(0.0, 30.0, 3001)
        kern = mb.MemoryKernel.tabulated(s, np.exp(-s), -np.exp(-s))
        report = mb.validate_kernel(kern)
        assert (report.h1, report.h2, report.h3, report.h4) == (True,) * 4
        assert report.delta1 == pytest.approx(1.0, rel=1e-9)
        assert report.mu0 == pytest.approx(1.0, rel=1e-4)

    def test_prony_requires_positive_parameters(self):
        with pytest.raises(MembeamError, match=exactly("prony amplitudes must be > 0")):
            mb.MemoryKernel.prony([1.0, -1.0], [1.0, 2.0])
        with pytest.raises(MembeamError, match=exactly("prony rates must be > 0")):
            mb.MemoryKernel.prony([1.0], [0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_prony_requires_finite_parameters(self, bad):
        for a, d in (([1.0, bad], [1.0, 2.0]), ([1.0], [bad])):
            with pytest.raises(MembeamError,
                               match=exactly("prony amplitudes and rates must be finite")):
                mb.MemoryKernel.prony(a, d)

    def test_prony_certificate_evaluates_no_kernel(self, monkeypatch):
        def fail(kernel, s):
            raise AssertionError("evaluated")

        monkeypatch.setattr(mb.MemoryKernel, "mu", fail)
        monkeypatch.setattr(mb.MemoryKernel, "muprime", fail)
        report = mb.validate_kernel(mb.MemoryKernel.prony([1.0, 0.5], [2.0, 0.25]))
        assert (report.mu0, report.delta1) == (2.5, 0.25)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.01, 50.0), st.floats(0.01, 50.0)),
                    min_size=1, max_size=6))
    def test_prony_always_passes_with_exact_certificate(self, modes):
        # the closed-form certificate against samples over several decades
        # of the slowest mode: mu > 0 > mu' and mu' + delta1 mu <= 0, the
        # last to the rounding of its two sums
        a = np.array([m[0] for m in modes])
        d = np.array([m[1] for m in modes])
        kernel = mb.MemoryKernel.prony(a, d)
        report = mb.validate_kernel(kernel)
        assert (report.h1, report.h2, report.h3, report.h4) == (True,) * 4
        assert report.delta1 == float(d.min())
        assert report.mu0 == pytest.approx(float(np.sum(a / d)), rel=1e-12)
        s = np.linspace(0.0, 20.0 / d.min(), 200)
        mu, mup = kernel.mu(s), kernel.muprime(s)
        assert np.all(mu > 0) and np.all(mup < 0)
        assert np.all(mup + report.delta1 * mu <= 1e-12 * (np.abs(mup) + report.delta1 * mu))


class TestTableKernel:
    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_refused(self, column, bad):
        # a nan passes the s column's diff <= 0 test, and validate_kernel
        # then read a nan mu as H1 failing with H4 passing; the table is
        # refused when it is built
        s = np.linspace(0.0, 2.0, 5)
        columns = [s, np.exp(-s), -np.exp(-s)]
        columns[column][2] = bad
        with pytest.raises(MembeamError, match=exactly("kernel table holds a non-finite value")):
            mb.MemoryKernel.tabulated(*columns)

    def test_interpolation_copies_no_column(self):
        # np.interp copies a read-only column on every call: 6.1 MiB for
        # this table; the kernel interpolates on writeable columns of its own
        import tracemalloc
        s = np.linspace(0.0, 40.0, 400_001)
        mu, mup = np.exp(-s) / (1 + s), -np.exp(-s) * (2 + s) / (1 + s) ** 2
        kern = mb.MemoryKernel.tabulated(s, mu, mup)
        nodes = np.array([0.5, 3.25, 39.9])
        tracemalloc.start()
        try:
            got = kern.mu(nodes), kern.muprime(nodes), kern.mu(0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16
        np.testing.assert_array_equal(got[0], np.interp(nodes, s, mu))
        np.testing.assert_array_equal(got[1], np.interp(nodes, s, mup))
        assert got[2] == np.interp(0.5, s, mu)

    def test_public_columns_are_read_only_copies(self):
        s = np.linspace(0.0, 2.0, 21)
        mu = np.exp(-s)
        kern = mb.MemoryKernel.tabulated(s, mu)
        for column, given in ((kern.s_table, s), (kern.mu_table, mu),
                              (kern.muprime_table, np.gradient(mu, s))):
            assert not column.flags.writeable
            np.testing.assert_array_equal(column, given)
            with pytest.raises(ValueError):
                column[0] = 1.0
        s[1] = 5.0                          # the caller's arrays are not shared
        assert kern.s_table[1] == 0.1 and kern.mu(0.1) == mu[1]


class TestCertifyCoefficients:
    def test_constant_fields(self):
        field = mb.certify_coefficients(np.ones(10), np.ones(10))
        assert (field.alpha1, field.alpha2, field.alpha3, field.alpha4) == (1, 1, 1, 1)

    def test_quadratic_extrema_on_inclusive_grid(self):
        x = np.linspace(0.0, 1.0, 65)
        p = 1.0 + x * (1.0 - x)
        field = mb.certify_coefficients(p, np.ones_like(p))
        assert field.alpha1 == 1.0
        assert field.alpha2 == 1.25
        # the bounds are read off the samples, not stored beside them
        assert [f.name for f in dataclasses.fields(field)] == ["p_values", "g_values"]

    def test_zero_sample_rejected_with_index(self):
        g = np.ones(8)
        g[3] = 0.0
        with pytest.raises(MembeamError,
                           match=exactly("coefficient g is not strictly positive at node 3")):
            mb.certify_coefficients(np.ones(8), g)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        p = 1.0 + rng.random(16)
        g = 0.5 + rng.random(16)
        first = mb.certify_coefficients(p, g)
        second = mb.certify_coefficients(first.p_values, first.g_values)
        assert (first.alpha1, first.alpha2, first.alpha3, first.alpha4) == \
               (second.alpha1, second.alpha2, second.alpha3, second.alpha4)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=40))
    def test_bounds_enclose_samples(self, values):
        arr = np.array(values)
        field = mb.certify_coefficients(arr, arr)
        assert 0 < field.alpha1 <= arr.min()
        assert arr.max() <= field.alpha2

    def test_empty_rejected(self):
        with pytest.raises(MembeamError, match=exactly(
                "p and g sample arrays must be nonempty and equal length")):
            mb.certify_coefficients(np.array([]), np.array([]))


class TestBuildInitialState:
    def test_zero_data_zero_energy(self):
        asm = make_assembly()
        nx = asm.Nx
        init = mb.InitialData(u0=np.zeros(nx), v0=np.zeros(nx), theta0=np.zeros(nx),
                              history_mode="zero")
        state = mb.build_initial_state(init, asm)
        assert mb.functionals(state).E == 0.0

    def test_constant_past_forces_linear_history(self):
        asm = make_assembly()
        x = asm.grid.nodes
        theta0 = np.sin(np.pi * x)
        init = mb.InitialData(u0=np.zeros(asm.Nx), v0=np.zeros(asm.Nx), theta0=theta0)
        state = mb.build_initial_state(init, asm)
        expected = theta0[:, None] * asm.memory_grid.s_nodes[None, :]
        np.testing.assert_array_equal(state.eta, expected)

    def test_shape_mismatch_rejected(self):
        asm = make_assembly()
        init = mb.InitialData(u0=np.zeros(3), v0=np.zeros(3), theta0=np.zeros(3))
        with pytest.raises(MembeamError, match=exactly("u0 has shape (3,), expected (8,)")):
            mb.build_initial_state(init, asm)

    def test_unknown_history_mode_rejected(self):
        with pytest.raises(MembeamError, match=exactly("unknown history mode 'bogus'")):
            mb.InitialData(u0=np.zeros(4), v0=np.zeros(4), theta0=np.zeros(4),
                           history_mode="bogus")

    def test_flatten_unflatten_roundtrip(self):
        asm = make_assembly()
        from conftest import default_initial_state
        state = default_initial_state(asm)
        rebuilt = mb.State.unflatten(state.flatten(), asm, t=state.t)
        np.testing.assert_array_equal(rebuilt.u, state.u)
        np.testing.assert_array_equal(rebuilt.eta, state.eta)
