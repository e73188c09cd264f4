"""Moduli of continuity: evaluation, exact axiom checking, and inversion.

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

which saturates to +inf once s reaches sup beta.  It is closed form for
both: (s/lam)**(1/alpha), and for a table the linear solve after the
last node whose value is <= s (0 if there is none).

Tables need not be moduli, so adversarial tables remain representable;
``check_modulus_axioms`` decides the three axioms exactly, and
``require_modulus`` refuses a table that fails them, and a beta that is
no modulus spec at all.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError
from .funcrep import check_work

VERTEX_CAP = 10**6  # arrangement vertices the axiom check may visit; 10**6 took 3 s on a 2-vCPU machine


@dataclass(frozen=True)
class ModulusSpec:
    """A modulus of continuity in power or table form.

    Instances are immutable and callable: ``beta(s)`` evaluates the
    modulus, ``beta.inverse(s)`` the (possibly infinite) inverse; each
    refuses a negative or NaN s with ``DomainError``, as ``beta.many`` does.  The
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
            xs, vs = (np.array(col) for col in zip(*(pts if pts[0][0] == 0.0 else ((0.0, 0.0),) + pts)))
            if not (xs[1:] > xs[:-1]).all():  # a negative first delta falls below the (0, 0) put before it
                raise DomainError("table breakpoints must be nonnegative and strictly increasing")
            xs.flags.writeable = vs.flags.writeable = False
            object.__setattr__(self, "breakpoints", pts)
            object.__setattr__(self, "_nodes", (xs, vs))  # not a field: repr and equality see breakpoints only
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
        if not s >= 0.0:  # NaN too
            raise DomainError(f"modulus argument must be nonnegative, got {s}")
        if self.kind == "power":
            return float(self._power(s))
        return float(np.interp(s, *self._nodes))

    def many(self, s: np.ndarray) -> np.ndarray:
        """beta elementwise on a float array, as a new array equal to ``beta(s)`` at each element, bit for bit."""
        s = np.asarray(s, dtype=float)
        if not s.min(initial=0.0) >= 0.0:  # NaN too, as min carries it
            raise DomainError(f"modulus argument must be nonnegative, got {s[~(s >= 0.0)].flat[0]}")
        if self.kind == "power":
            return np.asarray(self._power(s))  # 0-d input gives a 0-d array
        return np.interp(s, *self._nodes)

    def _power(self, s):
        """lam * s**alpha + 0.0 on a float or a float array, in one arithmetic for both.

        s**alpha is numpy's power, whose call on a float runs the loop of
        a block, and s itself at alpha = 1.  The sum with 0.0 maps -0.0 to
        +0.0 and leaves every other value as it is (NaN and inf included).
        The product, or the power scaled in place, is the one array a block
        call makes, and the sum goes into it; on a float ``*=`` and ``+=``
        simply rebind.
        """
        if self.alpha == 1.0:
            r = s * self.lam
        else:
            r = np.power(s, self.alpha)
            r *= self.lam
        r += 0.0
        return r

    @property
    def saturation(self) -> float:
        """sup beta: the oscillation level above which the inverse is +inf."""
        if self.kind == "power":
            return math.inf
        return self.breakpoints[-1][1]

    def inverse(self, s: float) -> float:
        """sup{delta >= 0 : beta(delta) <= s}, +inf once s >= sup beta."""
        s = float(s)
        if not s >= 0.0:  # NaN too
            raise DomainError(f"inverse argument must be nonnegative, got {s}")
        if self.kind == "power":
            try:
                return (s / self.lam) ** (1.0 / self.alpha)
            except OverflowError:  # beyond every double, like a saturated table
                return math.inf
        if s >= self.saturation:
            return math.inf
        xs, vs = self._nodes
        below = np.flatnonzero(vs <= s)  # every node right of the last one has beta > s
        if not len(below):
            return 0.0
        i = below[-1]  # not the last node: its value is sup beta > s
        return float(xs[i] + (s - vs[i]) / (vs[i + 1] - vs[i]) * (xs[i + 1] - xs[i]))


@dataclass(frozen=True)
class AxiomReport:
    """Exact verdict on the axioms; ``failure`` is "" or the first to fail (zero, monotone, subadditive) and where."""

    monotone: bool
    subadditive: bool
    vanishes_at_zero: bool
    failure: str = ""

    @property
    def all_hold(self) -> bool:
        return self.monotone and self.subadditive and self.vanishes_at_zero


def check_modulus_axioms(beta: ModulusSpec) -> AxiomReport:
    """Decide beta(0) = 0, monotonicity and subadditivity exactly, never calling beta.

    A power modulus holds all three by construction.  A table's nodes
    0 = d_0 < ... < d_k become Python ints over one power-of-two
    denominator.  beta(s + t) - beta(s) - beta(t) is linear on each cell
    of the lines s = d_i, t = d_j, s + t = d_l in [0, d_k]**2 (past d_k it
    is -beta(t), as at s = d_k), so it is largest at a vertex: (d_i, d_l)
    or (d_i, d_l - d_i), l >= i, up to symmetry.  Over ``VERTEX_CAP``
    vertices are refused before any is visited.
    """
    if beta.kind == "power":
        return AxiomReport(monotone=True, subadditive=True, vanishes_at_zero=True)
    n = len(beta._nodes[0])
    check_work(n * (n + 1), VERTEX_CAP, f"the axiom check of a table of {n} nodes", "vertices")
    ratios = [x.as_integer_ratio() for x in np.concatenate(beta._nodes).tolist()]
    shift = max(den.bit_length() for _, den in ratios)  # every denominator is a power of two
    ints = [num << (shift - den.bit_length()) for num, den in ratios]
    X, V, unit = ints[:n], ints[n:], 1 << (shift - 1)

    def at(x):  # beta(x) for an int x >= 0, as a numerator and a positive denominator
        i = bisect_right(X, x)
        return (V[-1], 1) if i == n else (V[i - 1] * (X[i] - x) + V[i] * (x - X[i - 1]), X[i] - X[i - 1])

    def exceeds(s, t):  # beta(s + t) > beta(s) + beta(t)
        (a, wa), (b, wb), (c, wc) = at(s + t), at(s), at(t)
        return a * wb * wc > (b * wc + c * wb) * wa

    vertices = ((s, v) for i, s in enumerate(X) for u in X[i:] for v in (u, u - s))
    zero = (0,) if V[0] else None
    drop = next(((X[i], X[i + 1]) for i in range(n - 1) if V[i + 1] < V[i]), None)
    cross = next(((s, t) for s, t in vertices if exceeds(s, t)), None)
    found = (("vanishes_at_zero", zero), ("monotone", drop), ("subadditive", cross))
    axiom, point = next(((a, p) for a, p in found if p), ("", ()))
    return AxiomReport(monotone=drop is None, subadditive=cross is None, vanishes_at_zero=zero is None,
                       failure=axiom and f"{axiom} fails at ({', '.join(repr(x / unit) for x in point)})")


def require_modulus(beta: ModulusSpec) -> None:
    """Refuse with ``DomainError`` a table that is not a modulus of continuity; beta is never called.

    A beta with no ``kind``, so neither a ``ModulusSpec`` nor a delegate
    of one, is refused first, naming its type.
    """
    if not hasattr(beta, "kind"):
        raise DomainError(f"beta must be a ModulusSpec, got {type(beta).__name__}")
    failure = check_modulus_axioms(beta).failure
    if failure:
        raise DomainError(f"beta is not a modulus of continuity: {failure}")
