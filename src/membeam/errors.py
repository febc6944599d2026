"""The errors of membeam: one class for each way a caller reacts.

MembeamError        any failure of a run or a check (the CLI: exit 1)
ConfigError         a malformed run file or flag, or an unwritable path (exit 2)
KernelHypothesisError
                    a kernel fails H1-H4; validate prints its report
DimensionTooLarge   a computation past its dimension cap or physical memory
                    (the report's skipped abscissa, the sweep's nan)
LinearSolveFailure  a linear solve failed or missed its residual bound
                    (resolvent_check names a failed condition estimate)
SimulationAborted   a step failed mid-run; carries the partial trajectory
"""


class MembeamError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(MembeamError):
    """Run configuration file is malformed or holds unknown keys."""


class KernelHypothesisError(MembeamError):
    """A kernel hypothesis fails; report is the full KernelReport (H1..H4)."""

    def __init__(self, message: str, report):
        self.report = report
        super().__init__(message)


class DimensionTooLarge(MembeamError):
    """A computation exceeds its supported dimension or the physical memory."""


class LinearSolveFailure(MembeamError):
    """Linear solve residual exceeded the configured tolerance."""


class SimulationAborted(MembeamError):
    """A step failed mid-run; carries the partial trajectory."""

    def __init__(self, step_index: int, cause: Exception, records):
        self.step_index = step_index
        self.records = records   # the analysis.Trajectory of every sample taken
        super().__init__(f"simulation aborted at step {step_index}: {cause}")
