"""Exception types shared across the package."""


class YRelayError(Exception):
    """Base class for all errors raised by this package; `index`, when
    given, is the failing matrix's place in a stack, or its draw in a block."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class DimensionError(YRelayError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class RankDeficient(YRelayError, ArithmeticError):
    """Matrix failed the conditioning check (sigma_min/sigma_max below
    threshold)."""


class Infeasible(YRelayError, ValueError):
    """Requested DoF vector does not fit the relay signal space.

    `excess` is the number of slot symbols by which the layout overflows
    the length-T*N relay word.
    """

    def __init__(self, message, excess):
        super().__init__(message)
        self.excess = excess


class ModeUnavailable(YRelayError, ValueError):
    """Requested relay mode is not one of the known modes (genie, raw)."""


class ScalarUnderflow(YRelayError, ArithmeticError):
    """A scale factor leaves the float range: a recovery scale too small to
    divide by, or a normalized inverse's alpha or beta whose square is too
    large for a float."""


class TooLarge(YRelayError, ValueError):
    """Problem size exceeds the guard for exhaustive enumeration."""


class Underdetermined(YRelayError, ValueError):
    """Not enough data points for the requested fit."""


class LpError(YRelayError, RuntimeError):
    """Linear program is malformed or unbounded."""


class WitnessInvalid(YRelayError, RuntimeError):
    """A computed witness failed one of its defining checks."""
