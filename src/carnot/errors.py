"""Exception types shared across the toolkit, and its one integer rule."""

import numbers


def is_integer(value) -> bool:
    """The one integer rule for counts, indices and seeds: an int or NumPy
    integer, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class CarnotError(Exception):
    """Base class for all toolkit errors."""


class StructureError(CarnotError):
    """Malformed structural input: bad basis index, dimension mismatch, bad file."""


class NotStepTwoError(CarnotError):
    """Raised when an operation requiring a step-2 algebra gets another step."""


class DomainError(CarnotError):
    """A field was evaluated outside its positivity domain (log / fractional power)."""


class ParameterError(CarnotError):
    """Invalid numeric parameters for a sampler, estimator or checker."""


class ConfigError(CarnotError):
    """Invalid experiment configuration."""
