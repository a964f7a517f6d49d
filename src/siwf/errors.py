"""Exception types raised across the package."""

from __future__ import annotations


def _rebuild(cls, args, state):
    """An error of type ``cls`` with ``args`` and attributes ``state``, made
    without calling its ``__init__``, whose arguments differ from ``args``."""
    exc = cls.__new__(cls, *args)
    exc.args = args
    exc.__dict__.update(state)
    return exc


class SiwfError(Exception):
    """Base class for all errors raised by this package.

    Every subclass pickles with its type, message and attributes, so an
    error raised in a Monte Carlo worker process reaches the caller whole.
    """

    def __reduce__(self):
        return _rebuild, (type(self), self.args, self.__dict__)


class DimensionMismatchError(SiwfError, ValueError):
    """Operands live in incompatible Hilbert spaces."""

    def __init__(self, message: str, *, expected=None, got=None):
        super().__init__(message)
        self.expected = expected
        self.got = got


class NotHermitianError(SiwfError, ValueError):
    """A matrix required to be Hermitian is not, within tolerance.

    ``defect`` carries the max-norm of (A - A^dagger).
    """

    def __init__(self, message: str, defect: float):
        super().__init__(f"{message} (hermiticity defect {defect:.3e})")
        self.defect = defect


class DensityMatrixError(SiwfError, ValueError):
    """A matrix violates the density-matrix invariants."""

    def __init__(self, message: str, violation: float):
        super().__init__(f"{message} (violation {violation:.3e})")
        self.violation = violation


class NormViolationError(SiwfError, ValueError):
    """A state or ensemble violates its normalization contract."""

    def __init__(self, message: str, violation: float):
        super().__init__(f"{message} (violation {violation:.3e})")
        self.violation = violation


class ReconstructionError(SiwfError, ValueError):
    """A supplied decomposition does not reconstruct the target operator."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class TrajectoryExtinctError(SiwfError, RuntimeError):
    """A reweighted trajectory's importance weight collapsed to numerical zero.

    ``trajectory`` is the trajectory's index, which is also its noise stream.
    """

    def __init__(self, weight: float, step: int, trajectory: int):
        super().__init__(
            f"trajectory {trajectory} weight {weight:.3e} fell below the "
            f"extinction threshold at step {step}"
        )
        self.weight = weight
        self.step = step
        self.trajectory = trajectory


class StepFailureError(SiwfError, RuntimeError):
    """A time-stepping loop failed; carries the failing step index."""

    def __init__(self, step: int, cause: Exception):
        super().__init__(f"integration failed at step {step}: {cause}")
        self.step = step
        self.cause = cause


class ConfigError(SiwfError, ValueError):
    """A configuration document violates the schema.

    ``key`` names the offending entry, ``constraint`` the rule it broke.
    """

    def __init__(self, key: str, constraint: str):
        super().__init__(f"config key '{key}': {constraint}")
        self.key = key
        self.constraint = constraint
