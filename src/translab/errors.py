"""Exception types shared across the package, and the one integer rule of every count."""

import operator


class TranslabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(TranslabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ShapeError(TranslabError, ValueError):
    """A function has the wrong domain/codomain shape for an operation."""


class EnumerationCapError(TranslabError, RuntimeError):
    """A cube enumeration would exceed the hard cell cap."""


class RangeEscapeError(TranslabError, RuntimeError):
    """A composed evaluation left the chart's admissible region."""


class ConfigError(TranslabError, ValueError):
    """A sweep configuration is malformed or inconsistent."""


def require_int(value, name: str, error: type = DomainError) -> int:
    """value as an int if ``operator.index`` takes it (a numpy integer does), else ``error`` naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
