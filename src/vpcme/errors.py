"""Exception types shared across the package, and the argument checks."""

import numbers
import operator

import numpy as np


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
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
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


def checked_bool(name, value):
    """``value`` as a ``bool``, else ``ConfigError``. Python and numpy bools
    pass; integers, strings and None do not."""
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def checked_matrix(name, value, dtype, columns=None, finite=False):
    """``value`` as a C-contiguous 2-D ``dtype`` array, else ``ValidationError``: a
    rectangular array of numbers, ``columns`` wide if given, finite if ``finite``."""
    try:
        matrix = np.asarray(value)
    except ValueError:  # a ragged list
        matrix = np.asarray(None)
    if matrix.dtype.kind not in "biuf":  # also a string cell
        raise ValidationError(f"{name} must be a rectangular matrix of numbers")
    if matrix.ndim != 2 or columns not in (None, matrix.shape[1]):
        width = "" if columns is None else f" of width {columns}"
        raise ValidationError(f"{name} must be a 2-D matrix{width}, got shape {matrix.shape}")
    matrix = np.ascontiguousarray(matrix, dtype=dtype)
    if finite and not np.isfinite(matrix).all():
        raise ValidationError(f"{name} matrix contains non-finite values")
    return matrix
