"""The closed-form zero-count envelopes for power moduli, kept as test oracles."""

import math
from fractions import Fraction

from translab import DomainError


def holder_lower_bound(lam: float, alpha: float, eps: float, m: int, p: int, gamma: float) -> float:
    """``theory_lower_bound`` for the power modulus lam * s**alpha, in closed form.

    Uses the explicit inverse (s/lam)**(1/alpha) folded into the
    exponents, so it agrees with ``theory_lower_bound`` on the equivalent
    power ``ModulusSpec`` to floating-point accuracy.
    """
    return 2.0 ** holder_lower_bound_log2(lam, alpha, eps, m, p, gamma)


def holder_lower_bound_log2(lam: float, alpha: float, eps: float, m: int, p: int, gamma: float) -> float:
    """log2 of ``holder_lower_bound``, finite also where the bound is past the double range."""
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"need alpha in (0, 1], got {alpha}")
    if lam <= 0.0:
        raise DomainError(f"need lam > 0, got {lam}")
    if not eps > 0.0:  # NaN too
        raise DomainError(f"budget must be positive, got {eps}")
    if not (0 <= p < m):
        raise DomainError(f"need 0 <= p < m, got p={p}, m={m}")
    codim = m - p
    # gamma * eps / lam as an exact rational, so it never rounds, also where the
    # double quotient would be subnormal, and a unit ratio has log2 exactly 0
    ratio = Fraction(gamma) * Fraction(eps) / Fraction(lam)
    log_ratio = math.log2(ratio.numerator) - math.log2(ratio.denominator)
    return 4.0 * codim - codim / alpha * log_ratio - 4.0 * codim * math.sqrt(abs(log_ratio) / alpha)


def upper_curve_log2(norm: float, eps: float, alpha: float, m: int, p: int, cw: float = 1.0) -> float:
    """log2 of ``theory_upper_curve``'s cw * (norm/eps)**((m-p)/alpha)."""
    return math.log2(cw) + (m - p) / alpha * (math.log2(norm) - math.log2(eps))
