"""Exception types shared across the package, and the one integer-argument check."""

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
