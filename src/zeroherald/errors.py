"""Exception taxonomy shared across the package.

Each class carries its command-line exit code as exit_code, by group: 3
for parameter, config and output-path problems, 4 for tag-file format and
integrity problems, and 5 for numerical or degenerate-data problems.

check_count is the one count rule: a pulse count, dead window, header field
or cell tally that is not a whole number is rejected, never truncated.
check_counts is its rule for arrays (pulse indices, timestamps, channel
codes, photon numbers). check_real is the one rule for real parameters: a
delay, period, probability or ratio that is not a real number, or falls
outside its range (NaN outside every one), is rejected. check_reals is its
rule for arrays. No array rule parses or casts a string, bool or ragged list.
"""

import math
from numbers import Integral, Real

import numpy as np


class ZeroHeraldError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 3


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
    exit_code = 4


class IntegrityError(ZeroHeraldError):
    """A tag stream's content violates its own invariants, or disagrees
    with the streams it is reduced with."""
    exit_code = 4


class InsufficientReferenceError(IntegrityError):
    """Fewer than two reference tags: the pulse train cannot be rebuilt."""


class ClockGlitchError(IntegrityError):
    """Reference tag spacing deviates too far from the median period."""

    def __init__(self, message, indices=()):
        super().__init__(message)
        self.indices = tuple(indices)


class NumericalError(ZeroHeraldError):
    """A computation failed or produced an out-of-domain result."""
    exit_code = 5


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


def _array(values) -> np.ndarray:
    """values as an array; a list or tuple of anything but non-bool reals (a ragged
    one, or one with a bool numpy would promote) as an object array, which no rule takes."""
    if isinstance(values, (list, tuple)) and values:
        try:
            entries = np.array(values, dtype=object)
        except ValueError:  # arrays whose shapes differ past the first axis
            return np.fromiter(values, dtype=object, count=len(values))
        if not all(isinstance(x, Real) and not isinstance(x, bool) for x in entries.flat):
            return entries
    return np.asarray(values)


def check_counts(name: str, values, below: int | None = None) -> np.ndarray:
    """values as a 1-d array, its dtype kept; ValidationError unless, when not
    empty, its dtype is integer and no entry is negative or, given below, at or
    above below. A float, bool or string array fails, as does a list of them."""
    counts = _array(values)
    if counts.ndim != 1 or counts.size and (
            counts.dtype.kind not in "ui" or counts.dtype.kind == "i" and counts.min() < 0
            or below is not None and counts.max() >= below):
        bound = "" if below is None else f" below {below}"
        raise ValidationError(f"{name} must be a 1-d array of non-negative integers{bound}, "
                              f"got {counts.dtype} of shape {counts.shape}")
    return counts


# the real ranges: each test, elementwise on arrays, and how a message states it
_REAL_RANGES = {
    "finite": (lambda x: abs(x) < math.inf, "finite"),
    "positive": (lambda x: (0 < x) & (x < math.inf), "positive and finite"),
    "non-negative": (lambda x: (0 <= x) & (x < math.inf), "finite and >= 0"),
    "unit": (lambda x: (0 <= x) & (x <= 1), "in [0, 1]"),
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


def check_reals(name: str, values, within: str = "finite") -> np.ndarray:
    """values as a float64 array of their shape; ValidationError unless their
    dtype is integer or float and every entry is in check_real's range within,
    naming the first entry out of range. A bool, string or ragged list fails."""
    test, text = _REAL_RANGES[within]
    arr = _array(values)
    if arr.dtype.kind not in "uif":
        raise ValidationError(f"{name} must be real numbers, got {arr.dtype} of shape {arr.shape}")
    reals = arr.astype(np.float64, copy=False)
    inside = test(reals)
    if not inside.all():
        at = tuple(int(i) for i in np.unravel_index(np.argmin(inside), reals.shape))
        where = f" at index {at}" if at else ""
        raise ValidationError(f"{name} must be {text}, got {float(reals[at])!r}{where}")
    return reals
