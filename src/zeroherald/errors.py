"""Exception taxonomy shared across the package.

Grouped by how the command line maps them to exit codes: parameter and
config problems, output paths among them (3), tag-file format and
integrity problems (4), and numerical or degenerate-data problems (5).

check_count is the one count rule: a pulse count, dead window, header
field or cell tally that is not a whole number is rejected, never truncated.
check_real is the one rule for real parameters: a delay, period,
probability or ratio that is not a real number, or falls outside its
range (NaN outside every one), is rejected.
"""

import math
from numbers import Integral, Real


class ZeroHeraldError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ZeroHeraldError):
    """A parameter value is outside its allowed domain."""


class ConfigError(ValidationError):
    """A config file is malformed, has unknown keys, or bad values."""


class OutputError(ValidationError):
    """An output path cannot be opened or written, e.g. its directory is missing."""


class CapacityError(ValidationError):
    """A requested run would overflow the 64-bit timestamp range."""


class FormatError(ZeroHeraldError):
    """A tag file has a bad magic string, version, or record layout."""


class IntegrityError(ZeroHeraldError):
    """A tag stream's content violates its own invariants, or disagrees
    with the streams it is reduced with."""


class InsufficientReferenceError(IntegrityError):
    """Fewer than two reference tags: the pulse train cannot be rebuilt."""


class ClockGlitchError(IntegrityError):
    """Reference tag spacing deviates too far from the median period."""

    def __init__(self, message, indices=()):
        super().__init__(message)
        self.indices = tuple(indices)


class NumericalError(ZeroHeraldError):
    """A computation failed or produced an out-of-domain result."""


class DegenerateInputError(NumericalError):
    """Inputs make the requested quantity undefined (division by zero)."""


class NoSolutionError(NumericalError):
    """An inversion target lies outside the attainable range."""


class EmptyTableError(NumericalError):
    """An event table has no live pulses to compute rates over."""


class HeraldUndefinedError(NumericalError):
    """No herald events occurred, so conditional rates are undefined."""


class FitConvergenceError(NumericalError):
    """The curve fit ended on a non-positive baseline; carries its report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class WrongShapeError(NumericalError):
    """A fit has the wrong sign of amplitude for the requested quantity."""


def check_count(name: str, value, least: int = 0) -> int:
    """value as an int; ValidationError unless it is a
    non-negative integer (least=0) or a positive integer (least=1).
    Python and numpy integers pass; bool, floats, strings and None fail."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        kind = "positive" if least == 1 else "non-negative"
        raise ValidationError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


# check_real's ranges: each test, and how its message states the range
_REAL_RANGES = {
    "finite": (math.isfinite, "finite"),
    "positive": (lambda x: 0 < x < math.inf, "positive and finite"),
    "non-negative": (lambda x: 0 <= x < math.inf, "finite and >= 0"),
    "unit": (lambda x: 0 <= x <= 1, "in [0, 1]"),
}


def check_real(name: str, value, within: str = "finite") -> float:
    """value as a float; ValidationError unless it is a real number in
    the range within names: finite, positive (and finite), non-negative
    (and finite) or unit, [0, 1]. Python and numpy reals pass; bool,
    strings and None fail, and NaN is in no range."""
    test, text = _REAL_RANGES[within]
    # exact floats and ints pass before the slower ABC test; bool is neither
    if type(value) is not float and type(value) is not int and (
            isinstance(value, bool) or not isinstance(value, Real)):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int too large for a float is in no range
        number = math.nan
    if not test(number):
        raise ValidationError(f"{name} must be {text}, got {number!r}")
    return number
