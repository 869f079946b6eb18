"""Exception types shared across the package."""


class DplfitError(Exception):
    """Base class for all errors raised by dplfit."""


class EmptyTailError(DplfitError, ValueError):
    """Truncating a sample left no observations (cutoff above the maximum)."""


class DegenerateDataError(DplfitError, ValueError):
    """Data cannot identify the exponent (e.g. every value equals the cutoff)."""


class ConvergenceError(DplfitError, RuntimeError):
    """The likelihood maximizer exhausted its budget or ran into a search bound."""


class TailTooLargeError(DplfitError, MemoryError):
    """A tail has too many observations to simulate a replica of in memory."""


class ParseError(DplfitError, ValueError):
    """An input file violates its format grammar."""

    def __init__(self, path, lineno, message):
        self.path = str(path)
        self.lineno = lineno
        super().__init__(f"{path}:{lineno}: {message}")
