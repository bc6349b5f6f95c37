"""Exception types shared across the package."""


class FlagcalcError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedRankError(FlagcalcError, ValueError):
    """A Cartan type was requested with a rank outside its legal range."""


class NotARootError(FlagcalcError, ValueError):
    """A vector that is not a root of the ambient root system was supplied."""


class OutOfRangeError(FlagcalcError, ValueError):
    """An index or degree argument lies outside its documented range."""


class NonHomogeneousError(FlagcalcError, ValueError):
    """A polynomial that must be homogeneous mixes several degrees."""


class NonIntegralExpansionError(FlagcalcError, ArithmeticError):
    """A Schubert-basis expansion produced a non-integer coefficient.

    This signals that the input polynomial does not represent an integral
    cohomology class (it lies outside the image of the characteristic map
    over the integers).
    """


class NotDivisibleByMultiplierError(FlagcalcError, ArithmeticError):
    """An expansion was not divisible by the torsion-free multiplier (2 or 3)."""


class ParseError(FlagcalcError, ValueError):
    """The polynomial expression grammar was violated."""


class InvalidWordError(FlagcalcError, ValueError):
    """A word contained letters out of range, or was required reduced but is not."""
