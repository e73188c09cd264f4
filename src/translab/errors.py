"""Exception types shared across the package, and the rules every count, budget and codimension m - p follow."""

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


def require_count(value, name: str, least: int) -> int:
    """value as an int under ``require_int``, else ``DomainError`` when it is below least."""
    count = require_int(value, name)
    if count < least:
        raise DomainError(f"need {name} >= {least}, got {count}")
    return count


def require_budget(eps) -> None:
    """``DomainError`` unless eps > 0; NaN is refused too."""
    if not eps > 0.0:
        raise DomainError(f"budget must be positive, got {eps}")


def require_codim(m, p) -> int:
    """The codimension m - p of counts m and p with 0 <= p < m, each under ``require_int``, else ``DomainError``."""
    m, p = require_int(m, "m"), require_int(p, "p")
    if not 0 <= p < m:
        raise DomainError(f"need 0 <= p < m, got p={p}, m={m}")
    return m - p
