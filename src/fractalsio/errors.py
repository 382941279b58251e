"""Exception types shared across the package."""

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


@contextmanager
def config_section(name: str):
    """Re-raise a TypeError or ValueError from reading section ``name`` as a ConfigError."""
    try:
        yield
    except FractalsioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config section {name!r}: {exc}") from None
