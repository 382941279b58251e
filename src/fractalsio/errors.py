"""Exception types shared across the package, and the checked readers of numbers.

Every integer, radius, exponent, Lipschitz constant and other real constant
a public entry point takes is read by ``integer``, ``positive``,
``nonnegative`` or ``real``: each returns a plain ``int`` or ``float`` or
raises an ``InputError`` naming the value.
Bools are never numbers here, and strings are never parsed.
"""

import math
import numbers
from contextlib import contextmanager


class FractalsioError(Exception):
    """Base class for every error raised by this library."""


class InputError(FractalsioError, ValueError):
    """Bad argument values: wrong shapes, out-of-range letters, invalid ratios."""


class ConfigError(FractalsioError, ValueError):
    """Structurally readable input that violates a configuration contract."""


class EvaluationError(FractalsioError, RuntimeError):
    """An integrand or kernel produced a non-finite value during quadrature."""


class ResourceLimitError(FractalsioError, RuntimeError):
    """A computation would exceed its cell or node budget."""


def integer(value, name: str, least) -> int:
    """``value`` as an ``int`` if it is an integral number (a Python or numpy
    integer, not a bool) of at least ``least``; else an InputError."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least:
        return int(value)
    what = {0: "a nonnegative integer", 1: "a positive integer"}.get(
        least, f"an integer >= {least}")
    raise InputError(f"{name} must be {what}, got {value!r}")


def _real(value, name: str, what: str, ok) -> float:
    """``value`` as a ``float`` if it is a finite real number, not a bool, for
    which ``ok`` holds; else an InputError saying it must be ``what``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer past the float range
            x = math.inf
        if math.isfinite(x) and ok(x):
            return x
    raise InputError(f"{name} must be {what}, got {value!r}")


def positive(value, name: str, below: float = math.inf) -> float:
    """``value`` as a ``float`` if it is a finite number with 0 < value < ``below``."""
    what = "a finite number > 0" if below == math.inf else f"a number in (0, {below:.6g})"
    return _real(value, name, what, lambda x: 0.0 < x < below)


def nonnegative(value, name: str) -> float:
    """``value`` as a ``float`` if it is a finite number >= 0."""
    return _real(value, name, "a finite number >= 0", lambda x: x >= 0.0)


def real(value, name: str) -> float:
    """``value`` as a ``float`` if it is a finite number."""
    return _real(value, name, "a finite number", lambda x: True)


@contextmanager
def config_section(name: str):
    """Re-raise a TypeError or ValueError from reading section ``name``, an
    InputError from a reader included, as a ConfigError naming the section."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config section {name!r}: {exc}") from None
