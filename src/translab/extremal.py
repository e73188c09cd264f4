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
locates a point in float arithmetic that never rounds, and reads no
level table:

* every s < 1/2 lies on level 1, where the offset in units of scale_1 =
  2**-4 is u = 16*s, exact; for s >= 1/2 the difference 1 - s is exact
  (Sterbenz lemma), and ``frexp`` splits it as mant * 2**e with mant in
  [1/2, 1), so s lies on level g = 1 - e, or on level g + 1 at its very
  start when mant = 1/2;
* s - start_g = 2**e - mant * 2**e = (1 - mant) * 2**e, and 1 - mant is
  exact (Sterbenz again), so the offset in units of scale_g is u =
  ldexp(1 - mant, g*g + 3), a power-of-two scaling that only shifts the
  exponent (1 - mant <= 1/2, so level 30's u stays below 2**903, far
  from overflow; deeper points are computed on level 30 and zeroed); at
  a slot's end u = 4 * 2**(g*g) is a whole number of bump periods,
  offset 0 of the next level, as it should be, and s = 1, where
  frexp(0) = (0, 0), gives u = 16, offset 0 of level 1;
* the offset within the bump, u - 4*floor(u/4), is exact: floor(u/4)
  is (u/4 is exact once u >= 4, and below 4 the floor is 0), so is
  4*floor(u/4), and the true remainder is a multiple of the last place
  of u smaller than u, so it is a double and the subtraction returns it
  unrounded.  The mirror difference 4 - u is exact on the falling half
  (2, 4) where it is taken, and 2 - u on [1, 2], where min(u, 2 - u)
  picks it (Sterbenz again; below 1, 2 - u rounds to at least 1 > u).
  Scaling the folded offset back by scale_g = 2**-(g*g + g + 2) with
  ``ldexp`` cannot round: the true product is the same fold taken in
  units of length, a double by the same steps.

The scalar ``profile`` reduces one float at a time with
``math.fmod(s - start_n, 4*scale_n)``, which never rounds either (the
period is a power of two), so the two paths agree bit for bit.  Its
level starts and scales are Python float copies, made with ``tolist()``,
of numpy tables built at import (the same doubles, without an
``ndarray.item`` call per point).
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

from .errors import DomainError, EnumerationCapError
from .funcrep import MESH_CAP, SampledFunction
from .modulus import ModulusSpec, require_modulus

MAX_LEVEL = 30

# Level geometry indexed by level 1..MAX_LEVEL (entry 0 is unused): the
# slot start 1 - 2**(1-n), the bump quarter-width scale_n = 2**-(n*n+n+2)
# and its reciprocal, each an exact double.
_LEVELS = np.arange(MAX_LEVEL + 1)
_START = 1.0 - np.ldexp(1.0, 1 - _LEVELS)
_SCALE = np.ldexp(1.0, -(_LEVELS * _LEVELS + _LEVELS + 2))
_INV_SCALE = np.ldexp(1.0, _LEVELS * _LEVELS + _LEVELS + 2)
# The same starts and scales as Python floats, for the scalar paths.
_START_FLOATS = _START.tolist()
_SCALE_FLOATS = _SCALE.tolist()
# Points per block of profile_many: 64 KiB per temporary, under glibc's
# default mmap threshold of 128 KiB, so blocks reuse freed heap memory.
_BLOCK = 2**13


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
    start = _START_FLOATS[n]
    return LevelSchedule(
        n=n,
        start=start,
        scale=_SCALE_FLOATS[n],
        bump_count=2 ** (n * n),
        width=(1.0 - start) / 2.0,  # the slot ends at 1 - 2**-n
    )


def _as_double(s, what: str) -> float:
    """s as a float, refusing numbers that a double cannot hold exactly."""
    x = float(s)
    if x != s and x == x:
        raise DomainError(f"{what} {s!r} is not exactly a double")
    return x


def _as_doubles(s, what: str) -> np.ndarray:
    """``_as_double`` for arrays, checking element by element only the
    dtypes that can hold a non-double (objects, long doubles).  A native
    float64 array comes back as it is, without a copy."""
    s = np.asarray(s)
    if s.dtype == np.float64:
        return s
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
    scale = _SCALE_FLOATS[n]
    return _bump_at(beta, scale, math.fmod(s - _START_FLOATS[n], 4.0 * scale))


def _levels(x: np.ndarray, what: str) -> np.ndarray:
    """The level of each point of a flat float64 array in [0, 1].

    Levels past ``MAX_LEVEL`` are returned as they are; a point outside
    [0, 1] or NaN is refused.
    """
    inside = (x >= 0.0) & (x <= 1.0)  # false for NaN
    if not inside.all():
        raise DomainError(f"{what} must lie in [0, 1], got {x[~inside][0]}")
    # 1 - x = mant * 2**exp with mant in [1/2, 1): level 1 - exp, one
    # deeper when 1 - x is a power of two (the slot's right end).
    mant, exp = np.frexp(1.0 - x)
    return np.where(x < 0.5, 1, 1 - exp + (mant == 0.5)).astype(np.intp)  # intp gathers fastest


def profile_many(beta: ModulusSpec, s) -> np.ndarray:
    """``profile`` elementwise on a float array (or scalar) in [0, 1].

    Returns an array of the input's shape (a numpy scalar for 0-d input).
    Each point's level comes from ``frexp(1 - s)``, its offset in units
    of scale_n is formed with ``ldexp`` and reduced with a floor
    remainder, and beta is called once per block.  Every step but beta
    is exact (see the module docstring), so the result equals
    ``profile`` bit for bit whenever ``beta.many`` and ``beta`` agree:
    table moduli and power moduli with alpha = 1.  For alpha < 1 numpy's
    power and Python's may differ in the last ulp, and so may the two
    profiles.  Points beyond ``MAX_LEVEL`` evaluate to 0 with one
    ``ResolutionWarning`` per call, naming their total count and the
    first of them.  Like ``profile`` it refuses a number that is not
    exactly a double, and a point outside [0, 1] or NaN, naming the
    first; a refusal raises before any warning.

    The output is allocated once and filled in blocks of ``_BLOCK``
    points, so each temporary stays small and a large call does not
    grow the heap by several copies of its input.  Every point is
    computed on its own, so the blocks change no bit of the result.
    """
    s = _as_doubles(s, "profile argument")
    x = s.ravel()
    if len(x) and not (x.min() >= 0.0 and x.max() <= 1.0):  # false for NaN too
        _levels(x, "profile argument")  # refuses, naming the first offender
    out = np.empty(x.shape)
    deep_count, first_deep = 0, None
    for lo in range(0, len(x), _BLOCK):
        xb, ob = x[lo : lo + _BLOCK], out[lo : lo + _BLOCK]
        mant, exp = np.frexp(1.0 - xb)
        g = np.maximum(1 - exp, 1)  # geometry level: 1 below 1/2, where 1 - exp is 0 or 1
        deep = None
        if g.max() >= MAX_LEVEL:
            deep = g + (mant == 0.5) > MAX_LEVEL  # a slot's end is offset 0 of the next level
            if deep.any():
                first_deep = xb[deep][0] if first_deep is None else first_deep
                deep_count += np.count_nonzero(deep)
            np.minimum(g, MAX_LEVEL, out=g)  # keeps ldexp finite; deep points are zeroed below
        gg = g * g
        u = np.ldexp(1.0 - mant, gg + 3)  # offset in units of scale_g
        np.multiply(xb, 16.0, out=u, where=xb < 0.5)  # level 1 starts at 0
        u -= 4.0 * np.floor(u / 4.0)  # offset within the bump, in [0, 4)
        falling = u > 2.0  # the negated second half, mirrored onto the first
        np.subtract(4.0, u, out=u, where=falling)
        np.minimum(u, 2.0 - u, out=u)
        gg += g + 2
        np.ldexp(u, np.negative(gg, out=gg), out=u)  # back to units of length
        np.multiply(beta.many(u), 0.5, out=ob)
        np.negative(ob, out=ob, where=falling)
        if deep is not None:
            ob[deep] = 0.0
    if deep_count:
        warnings.warn(
            f"{deep_count} points lie beyond level {MAX_LEVEL}, the first at {first_deep}; returning 0",
            ResolutionWarning,
            stacklevel=2,
        )
    return out.reshape(s.shape)[()]  # unwraps 0-d input


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
        """F at one point x of [0,1]^d, as a new float array of length m.

        x may be any array-like of d numbers (a list, a tuple, an array of
        any real dtype or byte order), or a bare number when d = 1.  A
        ``DomainError`` refuses a shape other than (d,), a coordinate
        outside [0, 1] or NaN, and a number that is not exactly a double.
        The result is built fresh on every call, never a view of x, and
        its active components equal ``profile(beta, x_i) / sqrt(q)`` bit
        for bit.
        """
        pt = _as_doubles(x, "coordinate")
        if pt.shape != (self.d,):
            if pt.ndim == 0:  # a bare number, a point when d = 1
                pt = pt.reshape(1)
            if pt.shape != (self.d,):
                raise DomainError(f"expected a point in [0,1]^{self.d}, got shape {pt.shape}")
        coords = pt.tolist()
        for c in coords:
            if not 0.0 <= c <= 1.0:  # NaN fails too, in any coordinate
                raise DomainError(f"point {tuple(coords)} outside [0,1]^{self.d}")
        beta, root = self.beta, math.sqrt(self.q)
        out = [0.0] * self.p
        for c in coords[: self.q]:
            out.append(profile(beta, c) / root)
        return np.array(out)

    def evaluate_many(self, pts) -> np.ndarray:
        """F at every row of an (N, d) block of points, as a new (N, m) float array.

        The block version of the point call, with its refusals: a
        ``DomainError`` for a shape other than (N, d), a coordinate
        outside [0, 1] or NaN (naming the first row that holds one), and a
        number that is not exactly a double.  Active components are
        ``profile_many(beta, x_i) / sqrt(q)`` in one call, so they equal
        the point call's bit for bit whenever ``profile_many`` and
        ``profile`` agree: table moduli and power moduli with alpha = 1.
        """
        pts = _as_doubles(pts, "coordinate")
        if pts.ndim != 2 or pts.shape[1] != self.d:
            raise DomainError(f"expected an (N, {self.d}) block of points in [0,1]^{self.d}, got shape {pts.shape}")
        inside = ((pts >= 0.0) & (pts <= 1.0)).all(axis=1)  # false for NaN too
        if not inside.all():
            raise DomainError(f"point {tuple(pts[np.argmin(inside)].tolist())} outside [0,1]^{self.d}")
        out = np.zeros((len(pts), self.m))
        out[:, self.p :] = profile_many(self.beta, pts[:, : self.q]) / math.sqrt(self.q)
        return out

    def as_scalar(self):
        """The active profile as a callable on floats and float arrays (d = q = 1 maps).

        A table that is not a modulus of continuity is refused first.
        For the power modulus with alpha = 1, the one the adversary
        accepts, f carries two hints that let flatten skip scans (see
        ``adversary``); for any other modulus it carries none.

        ``f.sup_from(s)``, of the shape of s, is lam * scale_n / 2 at s,
        n the level of s, and 0 past ``MAX_LEVEL`` (x = 1, on level 1 at
        offset 0, gives beta(0)/2 = 0).  It is at least the computed
        |f(x)| at every double x in [s, 1]: f(x) is +-beta.many(t)/2 with
        t an exact double in [0, scale_k], k >= n the level of x (see the
        module docstring), and beta.many(t) is lam * t rounded once, so
        monotone rounding keeps it at most lam * scale_n rounded.

        ``f.peak_from(s)``, of the shape of s, is start_n + k * scale_n:
        the first level-n extremum at or right of s, with n the level of
        s (``MAX_LEVEL`` past it) and k the smallest odd integer at or
        above the offset of s in units of scale_n.  On levels 1..6, at or
        left of a level's last extremum, it is exact and |f| there is
        lam * scale_n / 2; elsewhere it may be any double, which flatten
        only uses to choose which scan samples to try first.
        """
        if self.q != 1 or self.p != 0 or self.d != 1:
            raise DomainError("as_scalar needs d = q = 1 and p = 0")
        beta = self.beta
        require_modulus(beta)

        def f(s):
            return profile_many(beta, s)

        if not (beta.kind == "power" and beta.alpha == 1.0):
            return f
        bounds = 0.5 * beta.many(np.append(_SCALE, 0.0))  # by level, entry 0 unused; 0 past MAX_LEVEL

        def sup_from(s):
            s = _as_doubles(s, "sup_from argument")
            n = _levels(s.ravel(), "sup_from argument")
            return bounds.take(np.minimum(n, MAX_LEVEL + 1)).reshape(s.shape)[()]

        def peak_from(s):
            s = _as_doubles(s, "peak_from argument")
            x = s.ravel()
            n = np.minimum(_levels(x, "peak_from argument"), MAX_LEVEL)
            start, scale = _START.take(n), _SCALE.take(n)
            u = (x - start) * _INV_SCALE.take(n)  # offset in units of scale_n
            k = 2.0 * np.ceil((u - 1.0) / 2.0) + 1.0  # the smallest odd integer >= u
            return (start + k * scale).reshape(s.shape)[()]

        f.sup_from, f.peak_from = sup_from, peak_from
        return f

    def sample(self, step: float) -> SampledFunction:
        """Sample onto the uniform grid of the given step (1/step integral).

        The profile is evaluated once per distinct knot coordinate and
        broadcast across the product grid.  A step that is not finite
        and positive is refused with ``DomainError``, and a grid of more
        than ``MESH_CAP`` cells with ``EnumerationCapError``, both before
        any array is built.
        """
        if not 0.0 < step < math.inf:
            raise DomainError(f"step must be finite and > 0, got {step}")
        count = 1.0 / step  # cells per axis; inf for a subnormal step
        if count > MESH_CAP or round(count) ** self.d > MESH_CAP:
            raise EnumerationCapError(
                f"sample at step {step!r} needs {count:.15g}**{self.d} cells, over the cap of {MESH_CAP}"
            )
        count = round(count)
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
