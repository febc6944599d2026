"""Exception hierarchy shared by all membeam modules."""


class MembeamError(Exception):
    """Base class for every error raised by this package."""


class ParamOutOfRange(MembeamError):
    """A physical parameter violates its admissible range."""

    def __init__(self, field: str, message: str = ""):
        self.field = field
        super().__init__(message or f"parameter out of range: {field}")


# --- kernel hypothesis failures (H1..H4) ---

class KernelHypothesisError(MembeamError):
    """A kernel hypothesis fails; report is the full KernelReport (H1..H4)."""

    def __init__(self, message: str, report):
        self.report = report
        super().__init__(message)


class NonPositiveKernel(KernelHypothesisError):
    """H1 fails: the memory kernel takes a negative value."""


class IncreasingKernel(KernelHypothesisError):
    """H2 fails: the memory kernel increases somewhere."""


class InfiniteMass(KernelHypothesisError):
    """H3 fails: the kernel mass is not positive and finite."""


class NoExponentialDomination(KernelHypothesisError):
    """H4 fails: no delta1 > 0 with mu' + delta1*mu <= 0 can be certified."""


class NonPositiveCoefficient(MembeamError):
    """A stiffness or damping sample is not strictly positive."""

    def __init__(self, name: str, index: int):
        self.name = name
        self.index = index
        super().__init__(f"coefficient {name} is not strictly positive at node {index}")


class IncompatibleBoundary(MembeamError):
    """Supplied initial profile violates the clamped/Dirichlet boundary values."""


# --- discretization ---

class GridTooCoarse(MembeamError):
    """Spatial grid has fewer interior nodes than the scheme supports."""


class TruncationUnreachable(MembeamError):
    """A tabulated kernel is too short for the requested truncation tolerance."""


class StructureViolation(MembeamError):
    """A structural invariant of the discrete operators failed at build time."""

    def __init__(self, invariant: str, measured: float):
        self.invariant = invariant
        self.measured = measured
        super().__init__(f"structure check failed: {invariant} (measured {measured:.3e})")


class DimensionMismatch(MembeamError):
    """Arrays or operators with inconsistent dimensions were combined."""


# --- time stepping ---

class LinearSolveFailure(MembeamError):
    """Linear solve residual exceeded the configured tolerance."""


class InconsistentGrid(MembeamError):
    """Semi-Lagrangian stepping requires the s-grid spacing to equal dt."""


class DimensionTooLarge(MembeamError):
    """A computation exceeds its supported dimension or the physical memory."""


class SimulationAborted(MembeamError):
    """A step failed mid-run; carries the partial trajectory."""

    def __init__(self, step_index: int, cause: Exception, records=None):
        self.step_index = step_index
        self.cause = cause
        self.records = records or []
        super().__init__(f"simulation aborted at step {step_index}: {cause}")


# --- analysis ---

class InfeasibleMultipliers(MembeamError):
    """No Lyapunov multiplier choice satisfies the required inequalities."""


class EigensolveFailed(MembeamError):
    """Eigenvalue computation did not converge."""


class SingularResolvent(MembeamError):
    """(I - A_h) could not be factorized; contradicts resolvent solvability."""


class WindowTooSmall(MembeamError):
    """Decay-fit window holds too few usable samples."""


class EnergyUnderflow(MembeamError):
    """Energy samples underflowed below the representable fitting range."""


# --- configuration / CLI ---

class ConfigError(MembeamError):
    """Run configuration file is malformed or holds unknown keys."""
