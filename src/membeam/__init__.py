"""membeam: thermoelastic microbeam with fading-memory heat conduction.

Simulates the coupled transverse-beam / Coleman-Gurtin heat system in its
history-variable form, certifies dissipativity and resolvent solvability
of the assembled generator, verifies the Lyapunov-functional inequalities
along trajectories, and fits the exponential energy decay rate.
"""

from .errors import MembeamError
from .model import (
    CoefficientField,
    InitialData,
    KernelReport,
    MemoryKernel,
    PhysicalParams,
    State,
    build_initial_state,
    certify_coefficients,
    derive_params,
    validate_kernel,
)
from .discretization import (
    DiscreteOperators,
    GeneratorAssembly,
    MemoryGrid,
    SpatialGrid,
    assemble_generator,
    build_memory_grid,
    build_operators,
    build_spatial_grid,
    memory_grid_from_counts,
)
from .stepper import (
    SchemeConfig,
    SimulationResult,
    oracle_evolve,
    simulate,
)
from .analysis import (
    DecayFit,
    DiagnosticsRecord,
    MultiplierConfig,
    check_dissipativity,
    choose_multipliers,
    choose_multipliers_for,
    dissipation,
    energy,
    eigenvalues,
    fit_decay,
    lyap_F1,
    lyap_F2,
    lyap_I,
    poincare_constant,
    resolvent_check,
    spectral_abscissa,
)

__version__ = "0.1.0"
