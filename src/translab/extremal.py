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
float rounding of beta itself.  Every level start and bump period is an
exact double, formed with ``ldexp`` from the level alone; no level table
is read.  ``profile`` and ``profile_many`` fold a point s by one rule, in
float arithmetic that never rounds:

* level: s < 1/2 lies on level 1.  For s >= 1/2, 1 - s is exact
  (Sterbenz lemma) and s lies on level n = 1 - k, 2**(k-1) < 1 - s <= 2**k
  (k = 0 at s = 1).  ``frexp`` reads k off 1 - s times the largest double
  below 1, a product that moves a power of two, and no other double, into
  the binade below.  The level is not read below 1/2, where 1 - s may
  round up to 1/2;
* offset: s - start_n is exact, as start_1 = 0 and start_n lies in
  [1/2, s] for n >= 2 (Sterbenz), and u = ldexp(s - start_n, p) counts it
  in bump periods 4*scale_n = 2**-p, p = n*n + n.  u stays below the
  level's bump count 2**(n*n), but for s = 1, where u = 4 periods is
  offset 0 of level 1.  A point past ``MAX_LEVEL`` is located on level
  ``MAX_LEVEL``, so u < 2**901, far from overflow, and its value is 0;
* floor remainder: f = u - floor(u) is exact, since the true remainder
  is a multiple of the last place of u smaller than u, so a double;
* mirror and sign: the offset from the nearest bump zero is min(f,
  |1/2 - f|, 1 - f), where 1/2 - f is exact on [1/4, 1] and 1 - f on
  [1/2, 1] (Sterbenz), so each term is exact where it is the least.  The
  value is beta of that offset times 2**-p, an ``ldexp`` that cannot
  round (the true product is the same fold in units of length), times
  the sign 1/2 - (f > 1/2), a comparison: -1/2 on the bump's second
  half, where 1/2 - f < 0, and 1/2 elsewhere.

Doubles are the only number type here; a number that is not exactly a
double is refused, not rounded.  From level 7 on the bump period
4*scale_n = 2**(-n*n - n) is finer than the spacing 2**-53 of doubles in
[1/2, 1), so every double on such a level is a multiple of the period
past start_n, a bump zero: the profile is exactly 0 at every double
beyond level 6.  Levels beyond ``MAX_LEVEL`` evaluate to 0 with a
``ResolutionWarning``.

The d-dimensional extremal map applies the profile coordinatewise to the
first q domain coordinates, scaled by 1/sqrt(q), and prepends p zero
components (the padding used to handle flat rectangle targets).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_int
from .funcrep import MESH_CAP, SampledFunction, blocks, check_work
from .modulus import ModulusSpec, require_modulus

MAX_LEVEL = 30
_BELOW_ONE = 1.0 - 2.0**-53  # the largest double below 1


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


@functools.lru_cache(maxsize=None)  # frozen and pure in n, at most MAX_LEVEL entries: resolve_depth asks on every step
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
    dtypes that can hold a non-double (objects, long doubles).  A native
    float64 array comes back as it is, without a copy."""
    s = np.asarray(s)
    if s.dtype == np.float64:
        return s
    if s.dtype.kind not in "biuf" or s.dtype.itemsize > 8:
        return np.array([_as_double(v, what) for v in s.flat]).reshape(s.shape)
    return np.asarray(s, dtype=float)


def profile(beta: ModulusSpec, s) -> float:
    """The scalar multi-scale profile at s in [0, 1], evaluated exactly.

    Folds s by the module docstring's rule on Python floats and evaluates
    beta once; level supports are disjoint so no truncation of the level
    sum occurs.  The mirror and the sign are comparisons that form only
    the least difference, and ``beta`` equals ``beta.many`` bit for bit,
    so ``profile`` equals ``profile_many``.  s must be exactly a double.
    """
    s = _as_double(s, "profile argument")
    if not (0.0 <= s <= 1.0):
        raise DomainError(f"profile argument must lie in [0, 1], got {s}")
    n = 1 - math.frexp((1.0 - s) * _BELOW_ONE)[1] if s >= 0.5 else 1
    if n > MAX_LEVEL:
        warnings.warn(
            f"point {s} lies beyond level {MAX_LEVEL}; returning 0", ResolutionWarning, stacklevel=2
        )
        return 0.0
    p = n * n + n
    u = math.ldexp(s - (1.0 - math.ldexp(1.0, 1 - n)), p)  # offset in bump periods
    u -= math.floor(u)
    if u > 0.5:  # the negated second half
        return -0.5 * beta(math.ldexp(u - 0.5 if u < 0.75 else 1.0 - u, -p))
    return 0.5 * beta(math.ldexp(u if u < 0.25 else 0.5 - u, -p))


def _locate(x: np.ndarray, what: str):
    """(n, p, start, u) for a flat float64 block: on level c = min(n,
    ``MAX_LEVEL``), n each point's level, the period exponent p = c*c + c,
    start_c and the exact offset u = ldexp(x - start_c, p) in periods.
    n is the level array as it is, past ``MAX_LEVEL`` too, when some point
    may lie past ``MAX_LEVEL``, and None when none can.  Refuses a point
    outside [0, 1] or NaN, naming the first.
    """
    hi = x.max(initial=0.0)  # an empty block passes
    if not (x.min(initial=0.0) >= 0.0 and hi <= 1.0):  # false for NaN too
        raise DomainError(f"{what} must lie in [0, 1], got {x[~((x >= 0.0) & (x <= 1.0))][0]}")
    t = np.subtract(1.0, x)
    t *= _BELOW_ONE
    start, k = np.frexp(t, out=(t, None))  # 2**(k-1) < 1 - x <= 2**k: level 1 - k
    k *= x >= 0.5  # level 1 below 1/2, where 1 - x may round up to 1/2
    n = None
    c = 1 - k
    if hi >= 1.0 - 2.0**-MAX_LEVEL:  # some point may lie past MAX_LEVEL
        np.maximum(k, 1 - MAX_LEVEL, out=k)
        n, c = c, 1 - k
    p = c + 1
    p *= c
    np.subtract(1.0, np.ldexp(1.0, k, out=start), out=start)
    u = np.subtract(x, start)
    np.ldexp(u, p, out=u)
    return n, p, start, u


def profile_many(beta: ModulusSpec, s) -> np.ndarray:
    """``profile`` elementwise on a float array (or scalar) in [0, 1].

    Returns an array of the input's shape (a numpy scalar for 0-d input).
    ``_locate`` gives each point's level and its offset in bump periods,
    a floor remainder reduces the offset to one period, min(f, |1/2 - f|,
    1 - f) mirrors it onto the rising quarter and the comparison
    1/2 - (f > 1/2) gives the sign, with no branch and no mask; beta is
    called once per block, and the levels are searched for points past
    ``MAX_LEVEL`` only in a block that ``_locate`` says may hold one.
    Every step but beta is exact (see the module docstring), and
    ``beta.many`` equals ``beta`` bit for bit, so the result equals
    ``profile`` bit for bit.  Points beyond ``MAX_LEVEL`` evaluate to 0
    with one ``ResolutionWarning`` per call, naming their total count and
    the first of them.  Like ``profile`` it refuses a number that is not
    exactly a double, and a point outside [0, 1] or NaN, naming the
    first; a refusal raises before any warning.

    The output is allocated once and filled a ``funcrep.blocks`` block
    at a time, so each temporary stays small and a large call does not
    grow the heap by several copies of its input.  Every point is
    computed on its own, so the blocks change no bit of the result.
    """
    s = _as_doubles(s, "profile argument")
    x = s.ravel()
    out = np.empty(x.shape)
    deep_count, first_deep = 0, None
    for lo, hi in blocks(len(x)):
        xb, ob = x[lo:hi], out[lo:hi]
        n, p, a, u = _locate(xb, "profile argument")
        u -= np.floor(u, out=a)  # offset within the bump, in [0, 1)
        np.subtract(0.5, u > 0.5, out=ob)  # the sign, times beta below: -1/2 on the bump's second half
        np.minimum(np.abs(np.subtract(0.5, u, out=a), out=a), 1.0 - u, out=a)
        np.minimum(u, a, out=u)
        np.ldexp(u, np.negative(p, out=p), out=u)  # back to units of length
        ob *= beta.many(u)
        if n is not None and n.max() > MAX_LEVEL:
            deep = n > MAX_LEVEL
            first_deep = xb[deep][0] if first_deep is None else first_deep
            deep_count += np.count_nonzero(deep)
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
    admits beta as a modulus of continuity: a table that is not one, and
    a d, q or p that is not an integer, are refused when F is built.
    """

    beta: ModulusSpec
    d: int
    q: int
    p: int = 0

    def __post_init__(self) -> None:
        for name in ("d", "q", "p"):
            require_int(getattr(self, name), name)
        if self.d < 1:
            raise DomainError(f"domain dimension must be >= 1, got {self.d}")
        if not (1 <= self.q <= self.d):
            raise DomainError(f"need 1 <= q <= d, got q={self.q}, d={self.d}")
        if self.p < 0:
            raise DomainError(f"padding dimension must be >= 0, got {self.p}")
        require_modulus(self.beta)

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
        the point call's bit for bit.
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

        def f(s):
            return profile_many(beta, s)

        if not (beta.kind == "power" and beta.alpha == 1.0):
            return f

        def sup_from(s):
            s = _as_doubles(s, "sup_from argument")
            n, p, _, _ = _locate(s.ravel(), "sup_from argument")
            scale = np.ldexp(0.25, -p)  # scale_n, a quarter period
            if n is not None:
                scale[n > MAX_LEVEL] = 0.0
            return (0.5 * beta.many(scale)).reshape(s.shape)[()]

        def peak_from(s):
            s = _as_doubles(s, "peak_from argument")
            _, p, start, u = _locate(s.ravel(), "peak_from argument")
            u *= 4.0  # in units of scale_n = 2**-(p + 2)
            k = 2.0 * np.ceil((u - 1.0) / 2.0) + 1.0  # the smallest odd integer >= u
            return (start + np.ldexp(k, -2 - p)).reshape(s.shape)[()]

        f.sup_from, f.peak_from = sup_from, peak_from
        return f

    def sample(self, step: float) -> SampledFunction:
        """Sample onto the uniform grid of the given step (1/step integral).

        The profile is evaluated once per distinct knot coordinate and
        broadcast across the product grid.  A step that is not finite
        and positive is refused with ``DomainError``, and a grid of more
        than ``MESH_CAP`` cells, (1/step)**d, with ``EnumerationCapError``,
        both before any array is built.
        """
        if not 0.0 < step < math.inf:
            raise DomainError(f"step must be finite and > 0, got {step}")
        cells = math.prod((1.0 / step,) * self.d)  # in floats: inf, not an error, for a tiny step
        check_work(cells, MESH_CAP, f"sample at step {step!r}")
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
