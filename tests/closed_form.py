"""The closed-form zero-count envelope for power moduli, kept as a test oracle."""

import math

from translab import DomainError


def holder_lower_bound(lam: float, alpha: float, eps: float, m: int, p: int, gamma: float) -> float:
    """``theory_lower_bound`` for the power modulus lam * s**alpha, in closed form.

    Uses the explicit inverse (s/lam)**(1/alpha) folded into the
    exponents, so it agrees with ``theory_lower_bound`` on the equivalent
    power ``ModulusSpec`` to floating-point accuracy.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"need alpha in (0, 1], got {alpha}")
    if lam <= 0.0:
        raise DomainError(f"need lam > 0, got {lam}")
    if not eps > 0.0:  # NaN too
        raise DomainError(f"budget must be positive, got {eps}")
    if not (0 <= p < m):
        raise DomainError(f"need 0 <= p < m, got p={p}, m={m}")
    codim = m - p
    ratio = gamma * eps / lam
    log_term = math.sqrt(abs(math.log2(ratio)) / alpha)
    return 16.0**codim * ratio ** (-codim / alpha) * 2.0 ** (-4.0 * codim * log_term)
