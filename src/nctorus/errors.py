"""Exception types shared across the package."""


class NCTorusError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(NCTorusError):
    """Operands live on tori of different dimension."""


class AxisError(NCTorusError):
    """Derivative axis outside 0..d-1."""


class TruncationOverflowError(NCTorusError):
    """A product would create modes beyond the hard mode cap."""


class UnderResolvedGridError(NCTorusError):
    """Sampling grid too coarse for the element's spectrum."""


class SeriesDivergenceError(NCTorusError):
    """Deformed exponential series failed to converge at this truncation."""


class RealityError(NCTorusError):
    """An element required to be real-valued failed the reality test."""


class ConfigError(NCTorusError):
    """Invalid experiment configuration."""
