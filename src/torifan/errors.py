"""Exception types shared across the package.

Error text prints every rational as p/q, never as a Python repr;
``format_integer`` and ``format_rationals`` print an integer of more than
20 digits as its digit count.
"""


def format_rational(x) -> str:
    """An integer or Fraction as "p/q", the form of every report and error."""
    return f"{x.numerator}/{x.denominator}"


def format_integer(x) -> str:
    """An integer as its digits, or past 20 digits as its digit count, so
    that error text stays short; str() itself refuses past 4,300 digits.
    (bit_length - 1) * 3 // 10 digits is a lower bound, as 10**0.3 < 2."""
    if -10**20 < x < 10**20:
        return str(x)
    x = abs(x)
    k = (x.bit_length() - 1) * 3 // 10
    while 10 ** (k + 1) <= x:
        k += 1
    return f"an integer of {k + 1} digits"


def format_rationals(values) -> str:
    """Integers or Fractions as "(p/q, ...)" for error text: a numerator or
    denominator of more than 20 digits is printed by ``format_integer``,
    the numerator's sign before it."""
    return "(" + ", ".join(
        f"{'-' * (x < 0)}{format_integer(abs(x.numerator))}/"
        f"{format_integer(x.denominator)}"
        for x in values
    ) + ")"


class TorifanError(Exception):
    """Base class for all torifan errors."""


class ParseError(TorifanError):
    """Malformed input file or rational literal."""


class ValidationError(TorifanError):
    """Structurally invalid fan or divisor data."""


class NotSimplicial(ValidationError):
    """A maximal cone whose rays are linearly dependent."""


class NotSmooth(ValidationError):
    """A maximal cone whose rays do not form a lattice basis."""


class NotComplete(ValidationError):
    """A wall not shared by exactly two cones, or a disconnected fan."""


class NotFano(ValidationError):
    """A fan whose anticanonical class -K is not ample."""


class NotNef(TorifanError):
    """Divisor fails wall-nonnegativity where nef is required."""


class NotAmple(TorifanError):
    """Divisor fails wall-positivity where ample is required."""


class NotBig(TorifanError):
    """Divisor whose section polytope is not full-dimensional."""


class DegeneratePolytope(TorifanError):
    """Zero-volume polytope where positive volume is required."""


class ThresholdExceeded(TorifanError):
    """Truncation parameter outside the valid range."""


class EmptyGrid(TorifanError):
    """No ample sample on the requested sweep grid."""


class VerificationError(TorifanError):
    """An exact check asserted by the harness failed.

    Carries enough provenance to reproduce the failing sample.
    """

    def __init__(self, message, variety=None, sample=None):
        super().__init__(message)
        self.variety = variety
        self.sample = sample
