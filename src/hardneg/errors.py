"""Exception types shared across the package."""


class HardNegError(Exception):
    """Base class for all package errors."""


class InputError(HardNegError):
    """The caller's input is bad; the command line exits 2 on it, 1 on other errors."""


class NearZeroVector(InputError):
    """Vector too close to zero to normalize."""


class DegenerateArc(InputError):
    """Arc endpoints parallel or antiparallel; rotation plane undefined."""


class DegenerateSegment(InputError):
    """Both segments collapse to points."""


class NonFiniteInput(InputError):
    """A coordinate handed to a solver is NaN or infinite."""


class DimensionMismatch(InputError):
    """Vectors of different dimension mixed in one problem."""


class OddClassCount(InputError):
    """A class appears an odd number of times and cannot be paired."""


class InvalidBatchShape(InputError):
    """Batch size / samples-per-class combination is inconsistent."""


class NoNegatives(HardNegError):
    """Batch contains a single class; no negative pairs exist."""


class InsufficientSamples(HardNegError):
    """Not enough samples per class for the requested statistic."""


class DivergenceDetected(HardNegError):
    """Training loss became non-finite."""


class ConfigError(InputError):
    """Experiment configuration is invalid."""


class ParseError(InputError):
    """Input file could not be parsed."""
