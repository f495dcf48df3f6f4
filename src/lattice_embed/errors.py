"""Exception types shared across the package."""


class LatticeEmbedError(Exception):
    """Base class for all library errors."""


class OutOfDomainError(LatticeEmbedError):
    """Parameter point lies outside the chart's parameter box."""


class RankDeficientError(LatticeEmbedError):
    """Chart Jacobian does not have full column rank where it must."""


class NoConvergenceError(LatticeEmbedError):
    """Iterative routine exhausted its budget without converging."""


class DegenerateProjectionWarning(UserWarning):
    """Closest-point projection hit an equidistant tie; a deterministic
    smallest-lexicographic parameter was returned."""


class StencilOutOfDomainError(LatticeEmbedError):
    """Finite-difference stencil does not fit inside the parameter box."""


class DegeneratePlaneError(LatticeEmbedError):
    """Tangent vectors are numerically parallel; the 2-plane is undefined."""


class BadResolutionError(LatticeEmbedError):
    """Quadrature resolution below the supported minimum."""


class OutOfHullError(LatticeEmbedError):
    """Query point lies outside the lattice bounding box."""


class EmptyLatticeError(LatticeEmbedError):
    """Lattice bounds contain no points."""


class NoSolutionError(LatticeEmbedError):
    """Reduced stationarity equation has no solution (zero curvature, q != 0)."""


class IndeterminateError(LatticeEmbedError):
    """Reduced stationarity equation is satisfied by every weight."""


class ExpressionError(LatticeEmbedError):
    """Chart expression failed to parse or cannot be differentiated."""


class ConfigError(LatticeEmbedError):
    """Base class for configuration problems (CLI exit code 2)."""


class UnknownKeyError(ConfigError):
    """Configuration contains a key that no section defines."""


class TypeMismatchError(ConfigError):
    """Configuration value has the wrong type for its key."""


class ValidationError(ConfigError):
    """Configuration value is of the right type but out of range."""


class MissingRequiredError(ConfigError):
    """A required configuration key is absent."""
