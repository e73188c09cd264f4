"""Moduli of continuity: evaluation, axiom checking, and inversion.

A modulus of continuity is a non-decreasing, subadditive function beta
with beta(0) = 0.  Two concrete representations are supported:

* power form    beta(s) = lam * s**alpha    with finite lam > 0 and
  0 < alpha <= 1;
* table form    linear interpolation through a finite increasing list of
  (delta, value) breakpoints, each number finite, extended from (0, 0)
  below the first breakpoint and clamped to the last value above the
  final one.

The inverse of a modulus is the largest separation that guarantees a
given oscillation,

    inverse(s) = sup{delta >= 0 : beta(delta) <= s},

which saturates to +inf once s reaches sup beta.  For the power form the
closed form (s/lam)**(1/alpha) is used; for tables a monotone bisection
resolves the supremum to 1e-12 relative accuracy.

Concavity of table moduli is deliberately not enforced at construction;
``check_modulus_axioms`` reports monotonicity, subadditivity, and the
vanishing value at zero on a caller-supplied grid instead, so adversarial
tables remain representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError

AXIOM_TOL = 1e-12
INVERSE_REL_TOL = 1e-12


@dataclass(frozen=True)
class ModulusSpec:
    """A modulus of continuity in power or table form.

    Instances are immutable and callable: ``beta(s)`` evaluates the
    modulus, ``beta.inverse(s)`` the (possibly infinite) inverse.  The
    fields of the other form must keep their defaults.
    """

    kind: str
    lam: float = 1.0
    alpha: float = 1.0
    breakpoints: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "power":
            if self.breakpoints:
                raise DomainError("power modulus takes no breakpoints")
            if not (0.0 < self.lam < math.inf):
                raise DomainError(f"power modulus needs a finite lam > 0, got {self.lam}")
            if not (0.0 < self.alpha <= 1.0):
                raise DomainError(f"power modulus needs alpha in (0, 1], got {self.alpha}")
        elif self.kind == "table":
            if (self.lam, self.alpha) != (1.0, 1.0):
                raise DomainError(f"table modulus takes no lam or alpha, got lam={self.lam}, alpha={self.alpha}")
            pts = tuple((float(d), float(v)) for d, v in self.breakpoints)
            if not pts:
                raise DomainError("table modulus needs at least one breakpoint")
            for d, v in pts:
                if not (math.isfinite(d) and math.isfinite(v)):
                    field = "delta" if not math.isfinite(d) else "value"
                    raise DomainError(f"table breakpoint {field} must be finite, got ({d}, {v})")
            deltas = [d for d, _ in pts]
            if any(b <= a for a, b in zip(deltas, deltas[1:])) or deltas[0] < 0.0:
                raise DomainError("table breakpoints must be nonnegative and strictly increasing")
            object.__setattr__(self, "breakpoints", pts)
        else:
            raise DomainError(f"unknown modulus kind {self.kind!r}")

    @classmethod
    def power(cls, lam: float, alpha: float) -> "ModulusSpec":
        return cls(kind="power", lam=float(lam), alpha=float(alpha))

    @classmethod
    def table(cls, points: Iterable[tuple[float, float]]) -> "ModulusSpec":
        return cls(kind="table", breakpoints=tuple(points))

    def __call__(self, s: float) -> float:
        s = float(s)
        if s < 0.0:
            raise DomainError(f"modulus argument must be nonnegative, got {s}")
        if self.kind == "power":
            if s == 0.0:
                return 0.0
            return self.lam * s ** self.alpha
        return float(np.interp(s, *self._table_nodes()))

    def many(self, s: np.ndarray) -> np.ndarray:
        """beta elementwise on a float array, as a new array.

        Table moduli and alpha = 1 agree with ``beta(s)`` bit for bit;
        for alpha < 1 numpy's power may differ from Python's in the last
        ulp.  A power modulus is computed as s**alpha, multiplied in
        place by lam, plus 0.0: the sum maps -0.0 to +0.0, as
        ``__call__`` does, and leaves every other value as it is (NaN
        and inf included).
        """
        s = np.asarray(s, dtype=float)
        if np.any(s < 0.0):
            raise DomainError(f"modulus argument must be nonnegative, got {s[s < 0.0].flat[0]}")
        if self.kind == "power":
            out = np.asarray(s**self.alpha)  # 0-d input gives a 0-d array
            out *= self.lam
            out += 0.0
            return out
        return np.interp(s, *self._table_nodes())

    def _table_nodes(self) -> tuple[list[float], list[float]]:
        """Interpolation nodes of a table modulus, with (0, 0) prepended if absent."""
        deltas = [0.0] + [d for d, _ in self.breakpoints]
        values = [0.0] + [v for _, v in self.breakpoints]
        if self.breakpoints[0][0] == 0.0:
            deltas, values = deltas[1:], values[1:]
        return deltas, values

    @property
    def saturation(self) -> float:
        """sup beta: the oscillation level above which the inverse is +inf."""
        if self.kind == "power":
            return math.inf
        return self.breakpoints[-1][1]

    def inverse(self, s: float) -> float:
        """sup{delta >= 0 : beta(delta) <= s}, +inf once s >= sup beta."""
        s = float(s)
        if s < 0.0:
            raise DomainError(f"inverse argument must be nonnegative, got {s}")
        if self.kind == "power":
            return (s / self.lam) ** (1.0 / self.alpha)
        if s >= self.saturation:
            return math.inf
        # beta(lo) <= s < beta(hi) throughout; the supremum lies in [lo, hi).
        lo, hi = 0.0, self.breakpoints[-1][0]
        while hi - lo > INVERSE_REL_TOL * max(hi, 1.0):
            mid = 0.5 * (lo + hi)
            if self(mid) <= s:
                lo = mid
            else:
                hi = mid
        return lo


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of checking the three modulus axioms on a sample grid."""

    monotone: bool
    subadditive: bool
    vanishes_at_zero: bool

    @property
    def all_hold(self) -> bool:
        return self.monotone and self.subadditive and self.vanishes_at_zero


def check_modulus_axioms(beta: ModulusSpec, grid: Sequence[float]) -> AxiomReport:
    """Check monotonicity, subadditivity, and beta(0) = 0 on a grid.

    Each flag is true iff the axiom holds at every grid point or pair
    within absolute tolerance 1e-12.  Subadditivity is tested on all
    pairs (s1, s2) from the grid, with beta evaluated directly at s1+s2.
    """
    pts = [float(s) for s in grid]
    if not pts:
        raise DomainError("axiom grid must be nonempty")
    if any(b < a for a, b in zip(pts, pts[1:])):
        raise DomainError("axiom grid must be sorted")
    vals = [beta(s) for s in pts]
    monotone = all(vb >= va - AXIOM_TOL for va, vb in zip(vals, vals[1:]))
    subadditive = True
    for i, (si, vi) in enumerate(zip(pts, vals)):
        for sj, vj in zip(pts[i:], vals[i:]):
            if beta(si + sj) > vi + vj + AXIOM_TOL:
                subadditive = False
                break
        if not subadditive:
            break
    vanishes = beta(0.0) <= AXIOM_TOL
    return AxiomReport(monotone=monotone, subadditive=subadditive, vanishes_at_zero=vanishes)
