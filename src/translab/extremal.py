"""Exact evaluation of the multi-scale extremal map.

The scalar profile is an infinite train of bumps packed level by level:
level n >= 1 occupies [1 - 2**(1-n), 1 - 2**(-n)] and carries 2**(n*n)
bumps of quarter-width

    scale_n = 2**(-n*n - n - 2),

so each level's train fills its slot exactly (2**(n*n) bumps of support
4*scale_n cover width 2**(-n)).  One bump rises along beta/2, falls back
symmetrically, and repeats negated over the second half of its support;
its extrema sit at odd multiples of scale_n with values +-beta(scale_n)/2.

Bump-corner evaluation is exact: there is no truncation error, only the
float rounding of beta itself.  ``profile_many``, the array kernel,
locates a point in float arithmetic that never rounds:

* every s < 1/2 lies on level 1; for s >= 1/2 the difference 1 - s is
  exact (Sterbenz lemma), and its binary exponent is the level;
* the offset s - start_n is exact by the same lemma (start_n <= s <
  2*start_n once n >= 2, and start_1 = 0);
* the offset within the bump, fmod(offset, 4*scale_n), is exact (fmod
  never rounds, and the period is an exact power of two), and so are
  the mirror differences 4*scale_n - t and 2*scale_n - t, each taken on
  the half of the period where Sterbenz applies.

The scalar ``profile`` does the same reduction one float at a time.
Every level start and scale is an exact double, so doubles are the only
number type here; a number that is not exactly a double is refused, not
rounded.  From level 7 on the bump period 4*scale_n = 2**(-n*n - n) is
finer than the spacing 2**-53 of doubles in [1/2, 1), so every double
on such a level is a multiple of the period past start_n, a bump zero:
the profile is exactly 0 at every double beyond level 6.  Levels beyond
``MAX_LEVEL`` evaluate to 0 with a ``ResolutionWarning``.

The d-dimensional extremal map applies the profile coordinatewise to the
first q domain coordinates, scaled by 1/sqrt(q), and prepends p zero
components (the padding used to handle flat rectangle targets).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .funcrep import SampledFunction
from .modulus import ModulusSpec

MAX_LEVEL = 30


class ResolutionWarning(UserWarning):
    """Evaluation requested beyond the deepest representable level."""


@dataclass(frozen=True)
class LevelSchedule:
    """Dyadic layout of one bump-train level, every length an exact double."""

    n: int
    start: float          # left end of the level's slot, 1 - 2**(1-n)
    scale: float          # bump quarter-width, 2**(-n*n-n-2)
    bump_count: int       # 2**(n*n)
    width: float          # slot width, bump_count * 4 * scale = 2**(-n)


def level_schedule(n: int) -> LevelSchedule:
    if not (1 <= n <= MAX_LEVEL):
        raise DomainError(f"level must lie in [1, {MAX_LEVEL}], got {n}")
    return LevelSchedule(
        n=n,
        start=1.0 - math.ldexp(1.0, 1 - n),
        scale=math.ldexp(1.0, -(n * n + n + 2)),
        bump_count=2 ** (n * n),
        width=math.ldexp(1.0, -n),
    )


def _as_double(s, what: str) -> float:
    """s as a float, refusing numbers that a double cannot hold exactly."""
    x = float(s)
    if x != s and x == x:
        raise DomainError(f"{what} {s!r} is not exactly a double")
    return x


def _as_doubles(s, what: str) -> np.ndarray:
    """``_as_double`` for arrays, checking element by element only the
    dtypes that can hold a non-double (objects, long doubles)."""
    s = np.asarray(s)
    if s.dtype.kind not in "biuf" or s.dtype.itemsize > 8:
        return np.array([_as_double(v, what) for v in s.flat]).reshape(s.shape)
    return np.asarray(s, dtype=float)


def _bump_at(beta: ModulusSpec, scale: float, t: float) -> float:
    """One bump of quarter-width ``scale`` evaluated at offset t."""
    if t < 0.0 or t > 4.0 * scale:
        return 0.0
    sign = 1.0
    if t > 2.0 * scale:
        t, sign = 4.0 * scale - t, -1.0
    return sign * beta(t if t < scale else 2.0 * scale - t) / 2.0


def bump(beta: ModulusSpec, n: int, t) -> float:
    """The level-n bump: beta(t)/2 rising, mirrored falling, then negated.

    Zero outside [0, 4*scale_n]; continuous everywhere.
    """
    return _bump_at(beta, level_schedule(n).scale, _as_double(t, "bump offset"))


def profile(beta: ModulusSpec, s) -> float:
    """The scalar multi-scale profile at s in [0, 1], evaluated exactly.

    Locates the unique level containing s, reduces to the bump offset,
    and evaluates a single bump; level supports are disjoint so no
    truncation of the level sum occurs.  The reduction is the one
    ``profile_many`` makes per point, exact for the same reasons; s
    must be exactly a double.
    """
    s = _as_double(s, "profile argument")
    if not (0.0 <= s <= 1.0):
        raise DomainError(f"profile argument must lie in [0, 1], got {s}")
    n = 1
    if s >= 0.5:
        mant, exp = math.frexp(1.0 - s)
        n = 1 - exp + (mant == 0.5)
    if n > MAX_LEVEL:
        warnings.warn(
            f"point {s} lies beyond level {MAX_LEVEL}; returning 0", ResolutionWarning, stacklevel=2
        )
        return 0.0
    scale = math.ldexp(1.0, -(n * n + n + 2))
    return _bump_at(beta, scale, math.fmod(s - (1.0 - math.ldexp(1.0, 1 - n)), 4.0 * scale))


def profile_many(beta: ModulusSpec, s) -> np.ndarray:
    """``profile`` elementwise on a float array (or scalar) in [0, 1].

    Returns an array of the input's shape (a numpy scalar for 0-d input).
    Every step but beta is exact (see the module docstring), so the
    result equals ``profile`` bit for bit whenever ``beta.many`` and
    ``beta`` agree: table moduli and power moduli with alpha = 1.  For
    alpha < 1 numpy's power and Python's may differ in the last ulp, and
    so may the two profiles.  Points beyond ``MAX_LEVEL`` evaluate to 0
    with one ``ResolutionWarning`` per call.  Like ``profile`` it refuses
    a number that is not exactly a double.
    """
    s = _as_doubles(s, "profile argument")
    outside = ~((s >= 0.0) & (s <= 1.0))
    if np.any(outside):
        raise DomainError(f"profile argument must lie in [0, 1], got {s[outside].flat[0]}")
    # 1 - s = mant * 2**exp with mant in [1/2, 1): level 1 - exp, one
    # deeper when 1 - s is a power of two (the slot's right end).
    mant, exp = np.frexp(1.0 - s)
    n = np.where(s < 0.5, 1, 1 - exp + (mant == 0.5))
    deep = n > MAX_LEVEL
    if np.any(deep):
        warnings.warn(
            f"{np.count_nonzero(deep)} points lie beyond level {MAX_LEVEL}, "
            f"the first at {s[deep].flat[0]}; returning 0",
            ResolutionWarning,
            stacklevel=2,
        )
    n = np.where(deep, 1, n)  # placeholder level, masked out below
    scale = np.ldexp(1.0, -(n * n + n + 2))
    t = np.fmod(s - (1.0 - np.ldexp(1.0, 1 - n)), 4.0 * scale)  # offset within the bump
    falling = t > 2.0 * scale  # the negated second half, mirrored onto the first
    t = np.where(falling, 4.0 * scale - t, t)
    t = np.where(t < scale, t, 2.0 * scale - t)
    out = np.where(deep, 0.0, np.where(falling, -1.0, 1.0) * beta.many(t) / 2.0)
    return out[()]  # unwraps 0-d input, a no-op view otherwise


def level_profile(beta: ModulusSpec, n: int, s) -> float:
    """The level-n train alone: equals ``profile`` on the level's slot, 0 off it."""
    lev = level_schedule(n)
    if not (lev.start <= s < lev.start + lev.width):
        return 0.0
    return profile(beta, s)


@dataclass(frozen=True)
class ExtremalFunction:
    """The product extremal map [0,1]^d -> R^(p+q).

    Components are p leading zeros followed by profile(x_i)/sqrt(q) for
    i = 1..q; only the first q domain coordinates matter.  The map
    admits beta as a modulus of continuity.
    """

    beta: ModulusSpec
    d: int
    q: int
    p: int = 0

    def __post_init__(self) -> None:
        if self.d < 1:
            raise DomainError(f"domain dimension must be >= 1, got {self.d}")
        if not (1 <= self.q <= self.d):
            raise DomainError(f"need 1 <= q <= d, got q={self.q}, d={self.d}")
        if self.p < 0:
            raise DomainError(f"padding dimension must be >= 0, got {self.p}")

    @property
    def m(self) -> int:
        return self.p + self.q

    def __call__(self, x) -> np.ndarray:
        pt = _as_doubles(x, "coordinate")
        if pt.ndim == 0:  # a bare number, a point when d = 1
            pt = pt.reshape(1)
        if pt.shape != (self.d,):
            raise DomainError(f"expected a point in [0,1]^{self.d}, got shape {pt.shape}")
        coords = pt.tolist()
        if not all(0.0 <= c <= 1.0 for c in coords):  # NaN fails too, in any coordinate
            raise DomainError(f"point {tuple(coords)} outside [0,1]^{self.d}")
        root = math.sqrt(self.q)
        return np.array([0.0] * self.p + [profile(self.beta, c) / root for c in coords[: self.q]])

    def as_scalar(self):
        """The active profile as a callable on floats and float arrays (d = q = 1 maps)."""
        if self.q != 1 or self.p != 0 or self.d != 1:
            raise DomainError("as_scalar needs d = q = 1 and p = 0")
        beta = self.beta
        return lambda s: profile_many(beta, s)

    def sample(self, step: float) -> SampledFunction:
        """Sample onto the uniform grid of the given step (1/step integral).

        The profile is evaluated once per distinct knot coordinate and
        broadcast across the product grid.
        """
        count = round(1.0 / step)
        if not math.isclose(count * step, 1.0, rel_tol=0, abs_tol=1e-12):
            raise DomainError(f"step must divide 1 exactly, got {step}")
        knots = np.linspace(0.0, 1.0, count + 1)
        root = math.sqrt(self.q)
        line = profile_many(self.beta, knots) / root
        lens = (len(knots),) * self.d
        vals = np.zeros(lens + (self.m,))
        for i in range(self.q):
            shape = [1] * self.d
            shape[i] = len(knots)
            vals[..., self.p + i] = line.reshape(shape)
        return SampledFunction(grid=(knots,) * self.d, values=vals)
