"""Exception types shared across the package."""


class FluctLabError(Exception):
    """Base class for every error raised by this package."""


class NotSquare(FluctLabError):
    """A matrix expected to be square is not."""


class NonFinite(FluctLabError, ValueError):
    """A NaN or infinite entry, or a Hamiltonian entry beyond half the float range."""


class NotHermitian(FluctLabError):
    """A matrix deviates from its own adjoint beyond tolerance."""


class NotDensityMatrix(FluctLabError, ValueError):
    """A state's trace differs from 1 or it has a negative eigenvalue."""


class DimensionMismatch(FluctLabError):
    """Operands act on incompatible Hilbert-space dimensions."""


class InvalidBeta(FluctLabError):
    """Inverse temperature must be positive and finite."""


class NotTracePreserving(FluctLabError):
    """A Kraus list fails the trace-preservation condition."""


class UnknownPreset(FluctLabError):
    """No channel preset is registered under the requested name."""


class ParamOutOfRange(FluctLabError):
    """A preset parameter lies outside its valid range."""


class ZeroMass(FluctLabError):
    """A distribution carries no mass and cannot be renormalized."""


class SupportMismatch(FluctLabError):
    """Forward and backward distributions disagree on which atoms carry mass."""


class UnknownParam(FluctLabError):
    """The sweep parameter is not one of the supported names."""


class ScenarioError(FluctLabError):
    """A scenario or batch document failed to parse or validate."""
