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


def checked_array(name, value, dtype, shape, finite=False, bound=None):
    """``value`` as a C-contiguous ``dtype`` array of ``shape`` (a ``None`` size
    takes any size), else ``ValidationError``: a rectangular array of numbers,
    of integers (not floats or bools) for an integer ``dtype``, of bools or
    0/1 for ``bool``, finite if ``finite``, and with every entry in
    ``[0, bound)`` if ``bound`` is given (``math.inf`` for any index)."""
    kind = {1: "vector", 2: "matrix"}.get(len(shape), "array")
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged list
        array = np.asarray(None)
    if array.dtype.kind not in "biuf":  # also a string cell
        raise ValidationError(f"{name} must be a rectangular {kind} of numbers")
    if array.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, array.shape)):
        wanted = str(tuple(shape)).replace("None", "any")
        raise ValidationError(f"{name} must be a {len(shape)}-D {kind} of shape {wanted}, "
                              f"got shape {array.shape}")
    target = np.dtype(dtype)
    if target.kind in "iu" and array.dtype.kind not in "iu":
        raise ValidationError(f"{name} must hold integers, got {array.dtype} entries")
    if target.kind == "b" and array.dtype.kind != "b" and not ((array == 0) | (array == 1)).all():
        raise ValidationError(f"{name} must hold bools or 0/1 entries only")
    array = np.ascontiguousarray(array, dtype=target)
    if finite and not np.isfinite(array).all():
        raise ValidationError(f"{name} {kind} contains non-finite values")
    outside = None if bound is None else ~((array >= 0) & (array < bound))  # NaN included
    if outside is not None and outside.any():
        raise ValidationError(f"{name} must hold entries in [0, {bound}), got {array[outside][0]}")
    return array


def frozen_array(name, value, dtype, shape, bound=None):
    """``checked_array(..., finite=True, bound=bound)``, read-only, and copied if
    it may share memory with a writable ``value`` or base of it: how a frozen
    type keeps an array, so that later writes by the caller do not reach it."""
    array = checked_array(name, value, dtype, shape, finite=True, bound=bound)
    shared = value
    while isinstance(shared, np.ndarray) and not shared.flags.writeable:
        shared = shared.base
    if isinstance(shared, np.ndarray) and np.may_share_memory(array, shared):
        array = array.copy()
    array.setflags(write=False)
    return array
