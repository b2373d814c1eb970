"""Exception types shared across the library."""


class GeometryError(Exception):
    """Base class for all randersflag errors."""


class DimensionMismatch(GeometryError, ValueError):
    """A vector or tensor has the wrong shape for the owning algebra."""


class ParameterError(GeometryError, ValueError):
    """A scalar parameter is outside its admissible range."""


class DomainError(GeometryError, ValueError):
    """Input lies outside the mathematical domain of the operation."""


class DegenerateReferenceVector(DomainError):
    """The reference vector of an osculating object is numerically zero."""


class InternalConsistencyError(GeometryError, RuntimeError):
    """A construction invariant was violated (not a user error)."""


class SearchFailure(GeometryError, RuntimeError):
    """A sampling search exhausted its budget without the required witnesses."""


class ConfigError(GeometryError, ValueError):
    """A model configuration file or preset is invalid."""
