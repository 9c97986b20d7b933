"""Exception hierarchy for the lab.

Every error raised on purpose by this package derives from MmseLabError so
callers (and the CLI) can distinguish engine failures from programming bugs.
"""


class MmseLabError(Exception):
    """Base class for all errors raised by mmse_lab."""


class InvalidDistribution(MmseLabError, ValueError):
    """A finite joint / channel / moment summary violates its invariants."""


class InsufficientSamples(MmseLabError, ValueError):
    """Too few samples to carry out the requested empirical computation."""


class NonPositiveStep(MmseLabError, ValueError):
    """A quantization step must be strictly positive."""


class AlphabetMismatch(MmseLabError, ValueError):
    """Channel and joint (or two channels) disagree on an alphabet."""


class SelfCheckError(MmseLabError, ArithmeticError):
    """Two independent internal computations of the same quantity disagree
    beyond tolerance.  Indicates a bug, not bad input."""


class ScenarioRunError(MmseLabError, RuntimeError):
    """An engine error occurred while running a scenario; carries context."""
