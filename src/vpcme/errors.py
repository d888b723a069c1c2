"""Exception types shared across the package, and the integer- and float-argument checks."""

import numbers
import operator


class VpcmeError(Exception):
    """Base class for all errors raised by this package."""


class CsvFormatError(VpcmeError):
    """A data file could not be parsed; the message names the offending line."""


class ConfigError(VpcmeError):
    """A configuration value is out of range or inconsistent."""


class ValidationError(VpcmeError):
    """An input violates a documented precondition (shape, symmetry, ...)."""


class UndefinedMetricError(VpcmeError):
    """A metric has no defined value for the given inputs (e.g. zero instances)."""


def checked_int(name, value, minimum):
    """``value`` as an ``int`` of at least ``minimum``, else ``ConfigError``.

    Python and numpy integers pass; bools and floats (``2.0``, NaN and the
    infinities included) do not.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value}") from None
    if number < minimum:
        rule = f"at least {minimum}" if minimum else "a non-negative integer"
        raise ConfigError(f"{name} must be {rule}")
    return number


def checked_float(name, value):
    """``value`` as a ``float``, else ``ConfigError``. Python and numpy reals
    pass, NaN and the infinities included (range rules stay with the caller);
    strings, None and bools do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return float(value)
