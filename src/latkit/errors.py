"""Exception types shared across the toolkit."""


class LatticeError(Exception):
    """Base class for every error raised by this package."""


class CycleDetected(LatticeError):
    """The cover relation contains a directed cycle."""


class NotALattice(LatticeError):
    """Some pair of elements has no meet or no join."""

    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.pair = pair


class NoBounds(LatticeError):
    """The order has no unique minimum or maximum."""


class TrivialLattice(LatticeError):
    """Bottom equals top; one-element lattices are rejected."""


class InvalidParameter(LatticeError, ValueError):
    """A parameter is out of range or malformed; a ValueError too."""


class SizeCapExceeded(LatticeError):
    """Input is larger than the configured enumeration cap."""


class ParseError(LatticeError):
    """A lattice text file could not be parsed; carries the line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
