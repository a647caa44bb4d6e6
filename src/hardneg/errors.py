"""Exception types shared across the package."""


class HardNegError(Exception):
    """Base class for all package errors."""


class NearZeroVector(HardNegError):
    """Vector too close to zero to normalize."""


class DegenerateArc(HardNegError):
    """Arc endpoints parallel or antiparallel; rotation plane undefined."""


class DegenerateSegment(HardNegError):
    """Both segments collapse to points."""


class NonFiniteInput(HardNegError):
    """A coordinate handed to a solver is NaN or infinite."""


class DimensionMismatch(HardNegError):
    """Vectors of different dimension mixed in one problem."""


class OddClassCount(HardNegError):
    """A class appears an odd number of times and cannot be paired."""


class InvalidBatchShape(HardNegError):
    """Batch size / samples-per-class combination is inconsistent."""


class NoNegatives(HardNegError):
    """Batch contains a single class; no negative pairs exist."""


class InsufficientSamples(HardNegError):
    """Not enough samples per class for the requested statistic."""


class DivergenceDetected(HardNegError):
    """Training loss became non-finite."""


class ConfigError(HardNegError):
    """Experiment configuration is invalid."""


class ParseError(HardNegError):
    """Input file could not be parsed."""
