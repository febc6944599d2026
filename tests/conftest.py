import tracemalloc

import numpy as np
import pytest

import membeam as mb
from membeam import stepper


@pytest.fixture(scope="session")
def default_params():
    return mb.derive_params(0.5, 1.0, 0.5, 1.0)


@pytest.fixture(scope="session")
def exp_kernel():
    return mb.MemoryKernel.prony([1.0], [1.0])


def make_assembly(Nx=8, ds=0.1, Ns=16, params=None, kernel=None, p=None, g=None, L=1.0):
    """Small assembled system for unit tests."""
    params = params or mb.derive_params(0.5, 1.0, 0.5, 1.0)
    kernel = kernel or mb.MemoryKernel.prony([1.0], [1.0])
    grid = mb.build_spatial_grid(L, Nx)
    p = np.ones(Nx) if p is None else np.asarray(p, dtype=float)
    g = np.ones(Nx) if g is None else np.asarray(g, dtype=float)
    coeff = mb.certify_coefficients(p, g)
    ops = mb.build_operators(grid, coeff, params)
    mg = mb.memory_grid_from_counts(kernel, ds=ds, Ns=Ns)
    return mb.assemble_generator(ops, mg, params)


def default_initial_state(assembly):
    """u0 = x^2 (1-x)^2, v0 = 0, theta0 = sin(pi x / L), constant past."""
    x = assembly.grid.nodes
    L = assembly.grid.L
    init = mb.InitialData(u0=x**2 * (L - x) ** 2, v0=np.zeros(x.size),
                          theta0=np.sin(np.pi * x / L))
    return mb.build_initial_state(init, assembly)


def step(state, cfg):
    """One step of cfg's scheme from state, by a new run: its final state.
    simulate(state, cfg, cfg.dt).final_state also samples the run and
    checks it once more after the step."""
    run = stepper._start(state, cfg)
    run.advance()
    return run.final_state()


def peak_history_copies(call, assembly):
    """The traced peak of call() in units of one history, Nx Ns float64s:
    what it allocates on top of what exists when it starts."""
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8.0 * assembly.Nx * assembly.Ns)


@pytest.fixture
def small_assembly():
    return make_assembly()
