"""Exception types shared across the toolkit."""


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
