"""Exception types shared across the package, and the integer check that
the configs share."""

from numbers import Integral


class ShapeMismatchError(ValueError):
    """Operands have incompatible shapes; the message carries both shapes."""


class DegenerateInputError(ValueError):
    """Input is numerically degenerate (zero-norm row, non-stochastic row, ...)."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class DataError(ValueError):
    """Malformed or misaligned data on disk."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where only finite values are allowed."""


def require_integers(cfg, names) -> None:
    """Raise ``ConfigError`` naming the first field of ``names`` on ``cfg``
    that is not a Python or numpy integer.  A bool is not a count."""
    for name in names:
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
