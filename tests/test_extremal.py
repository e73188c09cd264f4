import functools
import math
import re
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translab import (
    DomainError,
    EnumerationCapError,
    ExtremalFunction,
    ModulusSpec,
    ResolutionWarning,
    certify,
    level_schedule,
    profile,
    profile_many,
    resolve_depth,
)
from translab import extremal, modulus
from translab.extremal import MAX_LEVEL, _as_doubles
from translab.funcrep import BLOCK_POINTS

IDENTITY = ModulusSpec.power(1.0, 1.0)


def rational_profile(beta, s):
    """The profile reduced in exact rational arithmetic, kept as the reference.

    Only the final beta call rounds; points beyond MAX_LEVEL give 0.
    """
    s = Fraction(s)
    if s == 1:
        return 0.0
    n = 1
    while 1 - s <= Fraction(1, 2**n):
        n += 1
        if n > MAX_LEVEL:
            return 0.0
    scale = Fraction(1, 2 ** (n * n + n + 2))
    t = (s - (1 - Fraction(1, 2 ** (n - 1)))) % (4 * scale)
    sign = 1.0
    if t > 2 * scale:
        t, sign = 4 * scale - t, -1.0
    return sign * beta(float(t if t < scale else 2 * scale - t)) / 2.0


def fmod_profile_many(beta, s):
    """The profile kernel computed with np.ldexp and np.fmod, kept as the reference."""
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


class TestLevelSchedule:
    def test_every_level_holds_the_exact_dyadic_geometry(self):
        for n in range(1, MAX_LEVEL + 1):
            lev = level_schedule(n)
            assert all(type(x) is float for x in (lev.start, lev.scale, lev.width))
            assert Fraction(lev.start) == 1 - Fraction(1, 2 ** (n - 1))
            assert Fraction(lev.scale) == Fraction(1, 2 ** (n * n + n + 2))
            assert Fraction(lev.width) == Fraction(1, 2**n)
            assert lev.bump_count == 2 ** (n * n)

    def test_level_one(self):
        lev = level_schedule(1)
        assert all(type(x) is float for x in (lev.start, lev.scale, lev.width))
        assert lev.scale == Fraction(1, 16)
        assert lev.bump_count == 2
        assert lev.start == 0
        assert lev.width == Fraction(1, 2)

    def test_level_two(self):
        lev = level_schedule(2)
        assert lev.scale == Fraction(1, 256)
        assert lev.bump_count == 16
        assert lev.start == Fraction(1, 2)
        assert lev.width == Fraction(1, 4)

    def test_level_three(self):
        lev = level_schedule(3)
        assert lev.scale == Fraction(1, 2**14)
        assert lev.bump_count == 512
        assert lev.start == Fraction(3, 4)

    def test_slots_tile_the_interval(self):
        for n in range(1, 10):
            a, b = level_schedule(n), level_schedule(n + 1)
            assert a.start + a.width == b.start
            assert a.bump_count * 4 * a.scale == a.width

    def test_bounds(self):
        with pytest.raises(DomainError):
            level_schedule(0)
        with pytest.raises(DomainError):
            level_schedule(31)

    def test_cached_per_level(self):
        # a frozen function of n, so one schedule serves every call of a
        # level; a refused level is not cached, and is refused again
        assert level_schedule(3) is level_schedule(3)
        for _ in range(2):
            with pytest.raises(DomainError):
                level_schedule(31)


class TestBump:
    """One bump of a level: the profile at start_n + t, t in [0, 4 * scale_n]."""

    def test_peak_value(self):
        assert profile(IDENTITY, level_schedule(1).start + 0.0625) == 0.03125

    def test_zero_at_midpoint(self):
        assert profile(IDENTITY, level_schedule(1).start + 0.125) == 0.0

    def test_odd_symmetry_value(self):
        assert profile(IDENTITY, level_schedule(1).start + 3 * 0.0625) == -0.03125

    def test_continuity_at_breakpoints(self):
        # the first breakpoint is the level's start, the last the next bump's start
        lev = level_schedule(2)
        eps = 1e-9
        for brk in (0.0, lev.scale, 2 * lev.scale, 3 * lev.scale, 4 * lev.scale):
            left = profile(IDENTITY, lev.start + brk - eps)
            right = profile(IDENTITY, lev.start + brk + eps)
            assert abs(left - right) < 3e-9

    def test_general_modulus(self):
        beta = ModulusSpec.power(2.0, 0.5)
        lev = level_schedule(1)
        assert profile(beta, lev.start + lev.scale) == beta(lev.scale) / 2.0


class TestProfile:
    def test_level_one_peak(self):
        assert profile(IDENTITY, 0.0625) == 0.03125

    def test_level_two_peak(self):
        assert profile(IDENTITY, 0.5 + 2.0**-8) == 2.0**-9

    def test_endpoints(self):
        assert profile(IDENTITY, 0.0) == 0.0
        assert profile(IDENTITY, 1.0) == 0.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            profile(IDENTITY, -0.01)
        with pytest.raises(DomainError):
            profile(IDENTITY, 1.01)

    def test_deep_point_warns_and_returns_zero(self):
        s = 1.0 - 2.0**-40
        with pytest.warns(ResolutionWarning):
            assert profile(IDENTITY, s) == 0.0

    def test_sign_pattern_at_cube_corners(self):
        # positive at start+(4k+1)*scale, negative at start+(4k+3)*scale,
        # for every bump of every level up to 3
        for n in (1, 2, 3):
            lev = level_schedule(n)
            peak = IDENTITY(float(lev.scale)) / 2.0
            for k in range(lev.bump_count):
                base = lev.start + 4 * k * lev.scale
                assert profile(IDENTITY, base + lev.scale) == peak
                assert profile(IDENTITY, base + 3 * lev.scale) == -peak

    def test_matches_single_level_on_slot(self):
        # on its slot the profile is the level-n train alone: one level-n
        # bump at the offset within its period, taken in exact rationals
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            lev = level_schedule(n)
            lo, hi = float(lev.start), float(lev.start + lev.width)
            for s in rng.uniform(lo, hi, size=50):
                t = (Fraction(s) - Fraction(lev.start)) % (4 * Fraction(lev.scale))
                first = lev.start + float(t)  # the same offset on the level's first bump, exactly
                assert first == Fraction(lev.start) + t
                assert profile(IDENTITY, s) == profile(IDENTITY, first)

    def test_odd_symmetry_within_period(self):
        rng = np.random.default_rng(13)
        for n in (1, 2):
            lev = level_schedule(n)
            for k in (0, lev.bump_count - 1):
                base = lev.start + 4 * k * lev.scale
                for frac in rng.uniform(0.0, 1.0, size=20):
                    t = Fraction(frac).limit_denominator(2**20) * 4 * lev.scale
                    left = profile(IDENTITY, float(base + t))
                    right = profile(IDENTITY, float(base + 4 * lev.scale - t))
                    assert left == pytest.approx(-right, abs=1e-15)

    def test_exactness_at_deep_levels(self):
        # level 7 has scale 2**-58, finer than the doubles near 1: the
        # rational oracle lands the corner exactly, and profile refuses
        # the corner because it is not a double
        lev = level_schedule(7)
        corner = Fraction(lev.start) + Fraction(lev.scale)
        assert rational_profile(IDENTITY, corner) == lev.scale / 2.0
        with pytest.raises(DomainError, match="not exactly a double"):
            profile(IDENTITY, corner)

    def test_non_doubles_are_refused(self):
        third = Fraction(1, 3)
        with pytest.raises(DomainError, match="not exactly a double"):
            profile(IDENTITY, third)
        with pytest.raises(DomainError, match="not exactly a double"):
            profile(IDENTITY, Fraction(level_schedule(1).start) + third / 16)
        assert profile(IDENTITY, Fraction(1, 16)) == 0.03125


def point_profiles(beta, xs):
    """The scalar profile point by point."""
    return np.array([profile(beta, x) for x in xs])


def scalar_profiles(beta, xs):
    """The scalar profile point by point, deep-level warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        return point_profiles(beta, xs)


def kernel_profiles(beta, xs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        return profile_many(beta, np.asarray(xs, dtype=float))


# Points on every level: s = 1 - u * 2**-k with u in [1/2, 1] sits on level
# k + 1 or k + 2, so k in [0, 40] reaches past MAX_LEVEL; plain floats in
# [0, 1] cover level 1 and the subnormals.
level_points = st.one_of(
    st.builds(lambda u, k: 1.0 - math.ldexp(u, -k), st.floats(0.5, 1.0), st.integers(0, 40)),
    st.floats(0.0, 1.0),
)


# Slot ends 1 - 2**-k of every level and beyond MAX_LEVEL, the ends of
# [0, 1], signed zero, the double below 1/2 whose 1 - s rounds to 1/2 and
# a double whose 1 - s rounds to 1.
EDGE_POINTS = [0.0, -0.0, 1.0, 0.5 - 2.0**-54, 2.0**-60] + [1.0 - 2.0**-k for k in range(1, 41)]

# Power moduli with alpha < 1 take numpy's power, tables np.interp.
POWER_MODULI = [ModulusSpec.power(lam, alpha) for lam in (1.0, 3.0) for alpha in (0.25, 1 / 3, 0.5, 0.75, 1.0)]
ORACLE_MODULI = [ModulusSpec.power(lam, alpha) for lam in (1.0, 8.0) for alpha in (0.25, 0.5, 0.75, 1.0)] + [
    ModulusSpec.table([(2.0**-40, 2.0**-30), (2.0**-12, 2.0**-9), (0.25, 0.2)])
]


def nudged(x, ulps):
    """x moved by ulps units in the last place, kept in [0, 1]."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return min(max(x, 0.0), 1.0)


@st.composite
def bump_corners(draw):
    """A bump corner start_n + (4k + c) * scale_n of any level, c in 0..4, a few ulps off."""
    lev = level_schedule(draw(st.integers(1, MAX_LEVEL)))
    k, c = draw(st.integers(0, lev.bump_count - 1)), draw(st.integers(0, 4))
    return nudged(lev.start + (4 * k + c) * lev.scale, draw(st.integers(-3, 3)))


def with_warnings(kernel, beta, xs):
    """kernel(beta, xs) and the (category, text) of every warning it raised."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        out = kernel(beta, xs)
    return out, [(w.category, str(w.message)) for w in seen]


class TestProfileKernel:
    @pytest.mark.parametrize("beta", ORACLE_MODULI, ids=repr)
    @given(xs=st.lists(st.one_of(st.sampled_from(EDGE_POINTS), bump_corners(), level_points), min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_fmod_oracle(self, beta, xs):
        xs = np.array(xs)
        got, got_warned = with_warnings(profile_many, beta, xs)
        want, want_warned = with_warnings(fmod_profile_many, beta, xs)
        # through int64, so -0.0 differs from 0.0
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # one warning per call, with the same text, when a point lies beyond MAX_LEVEL
        deep = (xs >= 1.0 - 2.0**-MAX_LEVEL) & (xs < 1.0)
        assert got_warned == want_warned
        assert [c for c, _ in got_warned] == [ResolutionWarning] * int(deep.any())

    @pytest.mark.parametrize("beta", ORACLE_MODULI, ids=repr)
    @given(xs=st.lists(st.one_of(st.sampled_from(EDGE_POINTS), bump_corners(), level_points), min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_scalar_bit_identical_to_fmod_oracle(self, beta, xs):
        got, got_warned = with_warnings(point_profiles, beta, xs)
        want, _ = with_warnings(fmod_profile_many, beta, np.array(xs))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # one warning per point beyond MAX_LEVEL, naming it
        assert got_warned == [(ResolutionWarning, f"point {x} lies beyond level {MAX_LEVEL}; returning 0")
                              for x in xs if 1.0 - 2.0**-MAX_LEVEL <= x < 1.0]

    @pytest.mark.parametrize("beta", ORACLE_MODULI, ids=repr)
    def test_scalar_edges_and_neighbours_match_fmod_oracle(self, beta):
        xs = [nudged(x, ulps) for x in EDGE_POINTS for ulps in (-1, 0, 1)]  # -0.0 is kept at 0 ulps
        got = scalar_profiles(beta, xs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            want = fmod_profile_many(beta, np.array(xs))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("beta", ORACLE_MODULI, ids=repr)
    def test_shapes_match_fmod_oracle(self, beta):
        xs = np.array(EDGE_POINTS)
        for x in xs:  # 0-d input, as a Python float and as a numpy scalar
            for arg in (float(x), x):
                got, warned = with_warnings(profile_many, beta, arg)
                want, want_warned = with_warnings(fmod_profile_many, beta, arg)
                assert np.ndim(got) == 0 and warned == want_warned
                assert np.asarray(got).view(np.int64) == np.asarray(want).view(np.int64)
        grid = xs.reshape(5, -1)
        got, warned = with_warnings(profile_many, beta, grid)
        want, want_warned = with_warnings(fmod_profile_many, beta, grid)
        assert got.shape == grid.shape and len(warned) == 1 and warned == want_warned
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("lam", [1.0, 3.0])
    @given(xs=st.lists(level_points, min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_rational_oracle(self, lam, xs):
        beta = ModulusSpec.power(lam, 1.0)
        want = np.array([rational_profile(beta, x) for x in xs])
        for got in (scalar_profiles(beta, xs), kernel_profiles(beta, xs)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # levels 7 and deeper start at 1 - 2**-6; every double there is a bump zero
        assert np.all(want[np.array(xs) >= 1.0 - 2.0**-6] == 0.0)

    @pytest.mark.parametrize("beta", POWER_MODULI, ids=repr)
    @given(xs=st.lists(level_points, min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_scalar_profile(self, beta, xs):
        got, want = kernel_profiles(beta, xs), scalar_profiles(beta, xs)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_level_edges(self):
        edges = [0.0, 0.5 - 2.0**-54, 0.5, 1.0, 0.0625, 0.5 + 2.0**-8, -0.0]
        got = profile_many(IDENTITY, np.array(edges))
        assert np.array_equal(got.view(np.uint64), scalar_profiles(IDENTITY, edges).view(np.uint64))
        assert got[0] == 0.0 and got[3] == 0.0
        assert got[4] == 0.03125 and got[5] == 2.0**-9

    @pytest.mark.parametrize("k", range(1, 41))
    def test_slot_ends_and_deep_levels(self, k):
        # 1 - 2**-k is the left end of level k + 1, a bump zero
        s = 1.0 - 2.0**-k
        if k + 1 > MAX_LEVEL:
            with pytest.warns(ResolutionWarning):
                assert profile_many(IDENTITY, np.array([s]))[0] == 0.0
        else:
            assert profile_many(IDENTITY, np.array([s]))[0] == profile(IDENTITY, s) == 0.0

    def test_deep_points_are_zero_among_regular_ones(self):
        xs = np.array([0.0625, 1.0 - 2.0**-40, 0.5 + 2.0**-8])
        with pytest.warns(ResolutionWarning, match="1 points"):
            got = profile_many(IDENTITY, xs)
        assert list(got) == [0.03125, 0.0, 2.0**-9]

    def test_zero_dimensional_input(self):
        got = profile_many(IDENTITY, 0.0625)
        assert np.ndim(got) == 0 and got == 0.03125
        assert profile_many(IDENTITY, np.float64(0.5 + 2.0**-8)) == 2.0**-9

    def test_shape_is_kept(self):
        xs = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        got = profile_many(IDENTITY, xs)
        assert got.shape == (3, 4)
        assert np.array_equal(got.ravel(), scalar_profiles(IDENTITY, xs.ravel()))

    def test_zero_d_empty_and_one_point_inputs(self):
        # a numpy scalar for 0-d input, an empty array of the input's shape, a 1-point array
        for s in (0.3, np.float64(0.0625), np.array(0.75), 1.0):
            got = profile_many(IDENTITY, s)
            assert type(got) is np.float64 and got == profile(IDENTITY, float(s))
        for shape in ((0,), (0, 3)):
            got = profile_many(IDENTITY, np.empty(shape))
            assert got.shape == shape and got.dtype == np.float64
        assert profile_many(IDENTITY, [0.0625]).tolist() == [0.03125]
        assert profile_many(IDENTITY, np.array([[0.3]])).tolist() == [[profile(IDENTITY, 0.3)]]
        with pytest.warns(ResolutionWarning, match="^1 points lie beyond level 30"):
            assert profile_many(IDENTITY, 1.0 - 2.0**-40) == 0.0

    def test_non_doubles_are_refused(self):
        # as in profile: a number a double cannot hold is refused, not rounded
        lev = level_schedule(7)
        corner = Fraction(lev.start) + Fraction(lev.scale)
        for bad in (Fraction(1, 3), [Fraction(1, 3)], corner, [0.25, corner],
                    np.array([0.0625, Fraction(1, 3)], dtype=object)):
            with pytest.raises(DomainError, match="not exactly a double"):
                profile_many(IDENTITY, bad)
        exact = np.array([Fraction(1, 16), 0.5 + 2.0**-8], dtype=object)
        assert list(profile_many(IDENTITY, exact)) == [0.03125, 2.0**-9]
        assert profile_many(IDENTITY, Fraction(1, 16)) == profile(IDENTITY, Fraction(1, 16))
        if np.finfo(np.longdouble).nmant > 52:  # a long double wider than a double
            with pytest.raises(DomainError, match="not exactly a double"):
                profile_many(IDENTITY, np.array([np.longdouble(1) / 3]))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            profile_many(IDENTITY, np.array([0.5, 1.01]))
        with pytest.raises(DomainError):
            profile_many(IDENTITY, np.array([-0.01]))
        with pytest.raises(DomainError):
            profile_many(IDENTITY, np.array([math.nan]))


def whole_array_profile_many(beta, s):
    """The profile kernel over the whole array in one pass, kept as the reference for the blocked one."""
    s = _as_doubles(s, "profile argument")
    x = s.ravel()
    inside = (x >= 0.0) & (x <= 1.0)  # false for NaN
    if not inside.all():
        raise DomainError(f"profile argument must lie in [0, 1], got {x[~inside][0]}")
    mant, exp = np.frexp(1.0 - x)
    n = np.where(x < 0.5, 1, 1 - exp + (mant == 0.5))
    deep = n > MAX_LEVEL
    any_deep = bool(np.any(deep))
    if any_deep:
        warnings.warn(
            f"{np.count_nonzero(deep)} points lie beyond level {MAX_LEVEL}, "
            f"the first at {x[deep][0]}; returning 0",
            ResolutionWarning,
            stacklevel=2,
        )
        n[deep] = 1
    scale = np.ldexp(1.0, -(n * n + n + 2))
    u = (x - (1.0 - np.ldexp(1.0, 1 - n))) / scale  # offset in units of scale_n, from the level's start
    u -= 4.0 * np.floor(u / 4.0)
    falling = u > 2.0
    np.subtract(4.0, u, out=u, where=falling)
    np.subtract(2.0, u, out=u, where=u >= 1.0)
    out = beta.many(u * scale) * 0.5
    np.negative(out, out=out, where=falling)
    if any_deep:
        out[deep] = 0.0
    return out.reshape(s.shape)[()]


def mixed_points(size, seed):
    """Points on levels 1..7 and uniform in [0, 1], with slot ends and signed zero mixed in."""
    rng = np.random.default_rng(seed)
    xs = np.where(
        rng.random(size) < 0.5,
        1.0 - rng.uniform(0.5, 1.0, size) * np.ldexp(1.0, -rng.integers(0, 7, size)),
        rng.uniform(0.0, 1.0, size),
    )
    edges = np.array(EDGE_POINTS[:31])  # slot ends up to level 27, none deep
    xs[rng.integers(0, size, len(edges))] = edges
    return xs


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


class TestBlockedKernel:
    """profile_many runs in blocks of BLOCK_POINTS points and gives the whole-array kernel's bits and warnings."""

    @pytest.mark.parametrize(
        "size", [BLOCK_POINTS - 1, BLOCK_POINTS, BLOCK_POINTS + 1, 2 * BLOCK_POINTS + 1, 3 * BLOCK_POINTS + 7])
    @pytest.mark.parametrize("beta", ORACLE_MODULI, ids=repr)
    def test_bit_identical_to_whole_array_kernel(self, beta, size):
        xs = mixed_points(size, size)
        got, got_warned = with_warnings(profile_many, beta, xs)
        want, want_warned = with_warnings(whole_array_profile_many, beta, xs)
        assert got.shape == (size,) and same_bits(got, want)
        assert got_warned == want_warned == []
        xs[[size // 3, size - 1]] = [1.0 - 2.0**-35, 1.0 - 2.0**-31]  # deep, in the first and last block
        got, got_warned = with_warnings(profile_many, beta, xs)
        want, want_warned = with_warnings(whole_array_profile_many, beta, xs)
        assert same_bits(got, want) and got_warned == want_warned and len(got_warned) == 1

    @pytest.mark.parametrize("beta", ORACLE_MODULI, ids=repr)
    def test_shapes(self, beta):
        for xs in (0.0625, np.float64(0.75 + 2.0**-14), np.array(0.3), np.array([]), np.empty((0, 3)),
                   mixed_points(2 * BLOCK_POINTS + 6, 1).reshape(2, -1),
                   mixed_points(3 * BLOCK_POINTS, 2).reshape(BLOCK_POINTS, 3)):
            got, want = profile_many(beta, xs), whole_array_profile_many(beta, xs)
            assert np.shape(got) == np.shape(want) == np.shape(xs)
            assert np.ndim(got) or isinstance(got, np.float64)
            assert same_bits(got, want)

    def test_one_warning_for_deep_points_in_two_blocks(self):
        xs = mixed_points(3 * BLOCK_POINTS, 3)
        first, second, third = 1.0 - 2.0**-33, 1.0 - 2.0**-40, 1.0 - 2.0**-31
        xs[[BLOCK_POINTS + 3, BLOCK_POINTS + 9, 2 * BLOCK_POINTS + 5]] = [first, second, third]  # none in block 0
        got, warned = with_warnings(profile_many, IDENTITY, xs)
        assert warned == [(ResolutionWarning, f"3 points lie beyond level {MAX_LEVEL}, the first at {first}; returning 0")]
        assert got[BLOCK_POINTS + 3] == got[BLOCK_POINTS + 9] == got[2 * BLOCK_POINTS + 5] == 0.0
        want, want_warned = with_warnings(whole_array_profile_many, IDENTITY, xs)
        assert same_bits(got, want) and warned == want_warned

    @pytest.mark.parametrize("bad", [math.nan, -0.5, 1.5])
    def test_refusal_in_a_later_block_warns_nothing(self, bad):
        xs = mixed_points(3 * BLOCK_POINTS, 4)
        xs[7] = 1.0 - 2.0**-35  # deep, in block 0
        xs[[2 * BLOCK_POINTS + 1, 2 * BLOCK_POINTS + 2]] = [bad, 2.0]  # the first offending point is named
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match=rf"must lie in \[0, 1\], got {bad}$"):
                profile_many(IDENTITY, xs)
            with pytest.raises(DomainError, match=rf"must lie in \[0, 1\], got {bad}$"):
                whole_array_profile_many(IDENTITY, xs)
        assert seen == []

    def test_footprint(self):
        # the whole-array kernel peaked at 2.7 MiB here, for a 512 KiB result
        xs = np.linspace(0.0, 1.0, 2**16 + 1)
        tracemalloc.start()
        try:
            profile_many(IDENTITY, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_one_block_footprint(self):
        # one 8192-point call at alpha = 1 peaked at 449 KiB with the sign
        # in its own array, 385 KiB with the sign written into the output,
        # and 321 KiB with beta's + 0.0 formed in the product's array
        xs = mixed_points(BLOCK_POINTS, 6)
        want = whole_array_profile_many(IDENTITY, xs)
        profile_many(IDENTITY, xs)
        tracemalloc.start()
        try:
            got = profile_many(IDENTITY, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert same_bits(got, want)
        assert peak <= 340 * 2**10

    def test_power_below_one_holds_one_block(self):
        # alpha = 1/2 peaked at 385 KiB, against 321 KiB at alpha = 1, while
        # np.power's block and the product were held at once
        xs = mixed_points(BLOCK_POINTS, 7)

        def peak(alpha):
            beta = ModulusSpec.power(1.0, alpha)
            profile_many(beta, xs)
            tracemalloc.start()
            try:
                profile_many(beta, xs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(0.5) <= peak(1.0) + 8 * 2**10


class TestExtremalFunction:
    def test_scalar_case(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        assert F([0.0625])[0] == 0.03125
        assert F.m == 1

    def test_two_active_coordinates(self):
        F = ExtremalFunction(beta=IDENTITY, d=2, q=2)
        out = F([0.0625, 0.0625])
        expected = 0.03125 / math.sqrt(2.0)
        assert out == pytest.approx([expected, expected], rel=1e-15)

    def test_padding(self):
        F = ExtremalFunction(beta=IDENTITY, d=2, q=1, p=1)
        out = F([0.0625, 0.77])
        assert out[0] == 0.0
        assert out[1] == 0.03125

    def test_validation(self):
        with pytest.raises(DomainError):
            ExtremalFunction(beta=IDENTITY, d=1, q=2)
        with pytest.raises(DomainError):
            ExtremalFunction(beta=IDENTITY, d=1, q=0)
        with pytest.raises(DomainError):
            ExtremalFunction(beta=IDENTITY, d=1, q=1, p=-1)
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        with pytest.raises(DomainError):
            F([1.2])
        with pytest.raises(DomainError):
            F([0.1, 0.2])

    def test_the_axiom_check_runs_once_when_f_is_built(self, monkeypatch):
        # F checks a table modulus when it is built; as_scalar and certify never check it again
        checked = []
        check = modulus.check_modulus_axioms

        def counted(beta):
            checked.append(beta)
            return check(beta)

        monkeypatch.setattr(modulus, "check_modulus_axioms", counted)
        xs = np.linspace(0.0, 1.0, 30)
        beta = ModulusSpec.table(zip(xs.tolist(), np.sqrt(xs).tolist()))  # concave, so a modulus
        F = ExtremalFunction(beta=beta, d=1, q=1)
        assert checked == [beta]
        F.as_scalar()
        for j in range(6, 15):
            assert certify(F, 2.0**-j).mode == "theoretical"
        assert checked == [beta]

    @pytest.mark.parametrize("d,q,p", [(1, 1, 0), (2, 1, 1), (3, 2, 0), (3, 1, 2)])
    def test_nan_in_any_coordinate_is_refused(self, d, q, p):
        F = ExtremalFunction(beta=IDENTITY, d=d, q=q, p=p)
        for i in range(d):
            x = [0.5] * d
            x[i] = math.nan
            with pytest.raises(DomainError, match="outside"):
                F(x)
            x[i] = -math.inf
            with pytest.raises(DomainError, match="outside"):
                F(np.array(x))

    @given(x=st.lists(level_points, min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_point_call_matches_profile(self, x):
        F = ExtremalFunction(beta=IDENTITY, d=3, q=2, p=1)
        want = np.concatenate([[0.0], scalar_profiles(IDENTITY, x[:2]) / math.sqrt(2.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            got = F(np.array(x))
            assert np.array_equal(F(x), got) and np.array_equal(F(tuple(x)), got)
        assert got.shape == (3,) and got.dtype == float
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_non_double_coordinates_are_refused(self):
        F = ExtremalFunction(beta=IDENTITY, d=2, q=1, p=1)
        for i in range(2):
            x = [0.5, 0.5]
            x[i] = Fraction(1, 3)
            with pytest.raises(DomainError, match="not exactly a double"):
                F(x)
        assert F([Fraction(1, 16), 0.5]).tolist() == [0.0, 0.03125]

    def test_point_shape(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        assert F(0.0625).tolist() == F([0.0625]).tolist() == [0.03125]
        for bad in ([[0.0625]], [], [0.1, 0.2]):
            with pytest.raises(DomainError, match="expected a point"):
                F(bad)
        with pytest.raises(DomainError, match="expected a point"):
            ExtremalFunction(beta=IDENTITY, d=2, q=1)(0.5)

    def test_as_scalar(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        f = F.as_scalar()
        assert f(0.0625) == 0.03125
        assert list(f(np.array([0.0625, 0.5 + 2.0**-8]))) == [0.03125, 2.0**-9]
        with pytest.raises(DomainError):
            ExtremalFunction(beta=IDENTITY, d=2, q=2).as_scalar()

    @pytest.mark.parametrize("lam,alpha", [(1.0, 1.0), (1.0, 0.5), (3.0, 1.0)])
    def test_modulus_admission(self, lam, alpha):
        beta = ModulusSpec.power(lam, alpha)
        F = ExtremalFunction(beta=beta, d=1, q=1)
        rng = np.random.default_rng(17)
        xs = rng.uniform(0.0, 1.0, size=(1000, 2))
        for x, y in xs:
            osc = abs(F([x])[0] - F([y])[0])
            assert osc <= beta(abs(x - y)) + 1e-12

    def test_modulus_admission_2d(self):
        beta = ModulusSpec.power(1.0, 0.5)
        F = ExtremalFunction(beta=beta, d=2, q=2)
        rng = np.random.default_rng(19)
        for _ in range(300):
            x, y = rng.uniform(0.0, 1.0, size=(2, 2))
            osc = float(np.linalg.norm(F(x) - F(y)))
            assert osc <= beta(float(np.linalg.norm(x - y))) + 1e-12


# The moduli whose as_scalar callable carries flatten's hints: power moduli with alpha = 1.
TAIL_MODULI = [ModulusSpec.power(lam, 1.0) for lam in (0.5, 1.0, 2.0, 8.0)]

tail_points = st.one_of(st.sampled_from(EDGE_POINTS), bump_corners(), level_points)


class TestSupFrom:
    """as_scalar().sup_from(s) bounds |profile_many| on [s, 1]."""

    @pytest.mark.parametrize("beta", TAIL_MODULI, ids=repr)
    @given(pairs=st.lists(st.tuples(tail_points, tail_points), min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_bounds_the_profile_on_the_tail(self, beta, pairs):
        s, x = np.sort(np.array(pairs), axis=1).T  # s <= x
        bound = ExtremalFunction(beta=beta, d=1, q=1).as_scalar().sup_from(s)
        assert np.all(np.abs(kernel_profiles(beta, x)) <= bound)

    @pytest.mark.parametrize("beta", TAIL_MODULI, ids=repr)
    def test_bounds_every_extremum_of_deeper_levels(self, beta):
        sup_from = ExtremalFunction(beta=beta, d=1, q=1).as_scalar().sup_from
        for n in range(1, 7):
            lev = level_schedule(n)
            k = np.arange(min(lev.bump_count, 2**12))
            extrema = np.concatenate([lev.start + (4 * k + c) * lev.scale for c in (1, 3)])
            peak = np.abs(profile_many(beta, extrema)).max()
            starts = np.array([level_schedule(i).start for i in range(1, n + 1)])
            assert np.all(peak <= sup_from(starts))

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 8.0])
    def test_attained_for_alpha_one_and_zero_past_max_level(self, lam):
        beta = ModulusSpec.power(lam, 1.0)
        sup_from = ExtremalFunction(beta=beta, d=1, q=1).as_scalar().sup_from
        for n in range(1, 7):
            lev = level_schedule(n)
            assert sup_from(lev.start) == profile(beta, lev.start + lev.scale) == lam * lev.scale / 2.0
        last = 1.0 - 2.0**-MAX_LEVEL  # the first point past level MAX_LEVEL
        assert sup_from(math.nextafter(last, 0.0)) == lam * level_schedule(MAX_LEVEL).scale / 2.0
        assert sup_from(last) == sup_from(1.0 - 2.0**-40) == 0.0

    @pytest.mark.parametrize(
        "beta",
        [ModulusSpec.power(lam, alpha) for lam in (1.0, 8.0) for alpha in (0.25, 0.5, 0.75)]
        + ORACLE_MODULI[-1:],
        ids=repr,
    )
    def test_no_hints_for_other_moduli(self, beta):
        f = ExtremalFunction(beta=beta, d=1, q=1).as_scalar()
        assert not hasattr(f, "sup_from") and not hasattr(f, "peak_from")
        xs = np.array([0.0625, 0.5 + 2.0**-8, 1.0])
        assert np.array_equal(f(xs), profile_many(beta, xs))

    @pytest.mark.parametrize(
        "beta, reason",
        [  # a table that rises and falls back, and one with beta(0) != 0 that turns negative
            (ModulusSpec.table([(2.0**-24, 2.0**-8), (2.0**-15, 2.0**-8), (2.0**-14, 2.0**-12), (1.0, 2.0**-12)]),
             "monotone fails at (3.0517578125e-05, 6.103515625e-05)"),
            (ModulusSpec.table([(0.0, 2.0**-20), (2.0**-10, -0.25)]), "vanishes_at_zero fails at (0.0)"),
        ],
        ids=repr,
    )
    def test_tables_that_are_not_moduli_are_refused(self, beta, reason):
        with pytest.raises(DomainError, match=re.escape(f"beta is not a modulus of continuity: {reason}")):
            ExtremalFunction(beta=beta, d=1, q=1)  # refused when F is built, before any as_scalar
        xs = np.array([0.0625, 0.5 + 2.0**-8, 1.0])  # the profile itself still takes the table
        assert np.array_equal(profile_many(beta, xs), [profile(beta, x) for x in xs])

    def test_shape_and_refusals(self):
        sup_from = ExtremalFunction(beta=IDENTITY, d=1, q=1).as_scalar().sup_from
        assert np.shape(sup_from(0.25)) == () and sup_from(np.zeros((2, 3))).shape == (2, 3)
        for bad in (-0.25, 1.5, math.nan):
            with pytest.raises(DomainError, match="sup_from argument must lie in"):
                sup_from(np.array([0.5, bad]))
        with pytest.raises(DomainError, match="not exactly a double"):
            sup_from(np.array([Fraction(1, 3)], dtype=object))


@st.composite
def points_before_last_extremum(draw):
    """(n, s): s a double on level n <= 6, at or left of the level's last extremum."""
    lev = level_schedule(draw(st.integers(1, 6)))
    last = lev.start + (4 * lev.bump_count - 1) * lev.scale
    k, c = draw(st.integers(0, lev.bump_count - 1)), draw(st.integers(0, 3))
    corner = lev.start + (4 * k + c) * lev.scale
    s = draw(st.one_of(st.floats(lev.start, last), st.just(nudged(corner, draw(st.integers(-3, 3))))))
    return lev.n, min(max(s, lev.start), last)


class TestPeakFrom:
    """as_scalar().peak_from(s) is the first extremum of the level of s at or right of s."""

    @pytest.mark.parametrize("beta", TAIL_MODULI, ids=repr)
    @given(drawn=st.lists(points_before_last_extremum(), min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_an_extremum_at_or_right_of_s(self, beta, drawn):
        n, s = (np.array(v) for v in zip(*drawn))
        peak = ExtremalFunction(beta=beta, d=1, q=1).as_scalar().peak_from(s)
        assert np.all(peak >= s)
        start, scale = 1.0 - np.ldexp(1.0, 1 - n), np.ldexp(1.0, -(n * n + n + 2))
        assert np.all(np.abs(kernel_profiles(beta, peak)) == 0.5 * np.abs(beta.many(scale)))
        u = (peak - start) / scale
        assert np.all(u % 2.0 == 1.0) and np.all(u - 2.0 < (s - start) / scale)  # odd, and the first

    def test_values_on_a_level(self):
        peak_from = ExtremalFunction(beta=IDENTITY, d=1, q=1).as_scalar().peak_from
        lev = level_schedule(2)
        s = lev.start + np.array([0.0, 0.5, 1.0, 1.5, 3.0, 4.0]) * lev.scale
        want = lev.start + np.array([1.0, 1.0, 1.0, 3.0, 3.0, 5.0]) * lev.scale
        assert np.array_equal(peak_from(s), want)
        assert peak_from(0.0) == level_schedule(1).scale

    def test_shape_and_refusals(self):
        peak_from = ExtremalFunction(beta=IDENTITY, d=1, q=1).as_scalar().peak_from
        assert np.shape(peak_from(0.25)) == () and peak_from(np.zeros((2, 3))).shape == (2, 3)
        assert np.isfinite(peak_from(np.array([1.0, 1.0 - 2.0**-40, 1.0 - 2.0**-52]))).all()
        for bad in (-0.25, 1.5, math.nan):
            with pytest.raises(DomainError, match="peak_from argument must lie in"):
                peak_from(np.array([0.5, bad]))
        with pytest.raises(DomainError, match="not exactly a double"):
            peak_from(np.array([Fraction(1, 3)], dtype=object))


def reference_levels(x):
    """The level of each point of a flat array in [0, 1], past MAX_LEVEL as it is: 1 below 1/2,
    elsewhere 1 - exp, one deeper when 1 - x is a power of two, from frexp(1 - x)."""
    mant, exp = np.frexp(1.0 - x)
    return np.where(x < 0.5, 1, 1 - exp + (mant == 0.5))


def reference_sup_from(beta, x):
    """sup_from's formula on reference_levels, kept as the reference."""
    n = reference_levels(x)
    scale = np.ldexp(1.0, -(n * n + n + 2))
    scale[n > MAX_LEVEL] = 0.0
    return 0.5 * beta.many(scale)


def reference_peak_from(x):
    """peak_from's formula on reference_levels, kept as the reference."""
    n = np.minimum(reference_levels(x), MAX_LEVEL)
    start, e = 1.0 - np.ldexp(1.0, 1 - n), n * n + n + 2
    u = np.ldexp(x - start, e)
    k = 2.0 * np.ceil((u - 1.0) / 2.0) + 1.0
    return start + np.ldexp(k, -e)


class TestHintFormulas:
    """The hints decide which flatten intervals get scanned, so a changed bit
    changes flatten's work: both keep their reference formulas bit for bit."""

    @pytest.mark.parametrize("beta", TAIL_MODULI, ids=repr)
    def test_edges_and_mixed_points(self, beta):
        f = ExtremalFunction(beta=beta, d=1, q=1).as_scalar()
        edges = np.array([nudged(x, ulps) for x in EDGE_POINTS for ulps in (-1, 0, 1)])
        mixed = mixed_points(3 * BLOCK_POINTS + 7, 6)
        np.random.default_rng(6).shuffle(mixed)
        for xs in (edges, mixed):
            assert same_bits(f.sup_from(xs), reference_sup_from(beta, xs))
            assert same_bits(f.peak_from(xs), reference_peak_from(xs))

    @pytest.mark.parametrize("beta", TAIL_MODULI, ids=repr)
    @given(xs=st.lists(tail_points, min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_drawn_points(self, beta, xs):
        f = ExtremalFunction(beta=beta, d=1, q=1).as_scalar()
        xs = np.array(xs)
        assert same_bits(f.sup_from(xs), reference_sup_from(beta, xs))
        assert same_bits(f.peak_from(xs), reference_peak_from(xs))


class TestPointCall:
    BETA = ModulusSpec.power(2.0, 0.5)

    def expected(self, F, coords):
        """p zeros, then profile(c) / sqrt(q) for each active coordinate."""
        root = math.sqrt(F.q)
        return np.array([0.0] * F.p + [profile(F.beta, float(c)) / root for c in coords[: F.q]])

    @pytest.mark.parametrize(
        "x",
        [
            np.array([0.3, 0.77, 0.1], dtype=np.float32),
            np.array([0.3, 0.9375 + 2.0**-20, 0.1], dtype=">f8"),
            np.array([0, 1, 1]),
            (0.3, 0.77, 0.5),
            [0.8125, 0, 1.0],
        ],
        ids=["float32", "big-endian", "int", "tuple", "list"],
    )
    def test_input_types_give_profile_bits(self, x):
        F = ExtremalFunction(beta=self.BETA, d=3, q=2, p=1)
        got = F(x)
        assert got.shape == (3,) and got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), self.expected(F, list(x)).view(np.uint64))

    @pytest.mark.parametrize("x", [0.6, np.float64(0.6), np.array(0.6), np.float32(0.6)])
    def test_zero_dimensional_input(self, x):
        F = ExtremalFunction(beta=self.BETA, d=1, q=1)
        got = F(x)
        assert np.array_equal(got.view(np.uint64), self.expected(F, [x]).view(np.uint64))

    def test_result_is_fresh(self):
        F = ExtremalFunction(beta=self.BETA, d=2, q=1, p=1)
        x = np.array([0.8125 + 2.0**-9, 0.25])
        first = F(x)
        want = first.copy()
        assert not np.shares_memory(first, x)
        first[1] = 0.0  # as a per-point perturbation may do
        first[0] = 1.0
        assert np.array_equal(F(x), want)
        assert x.tolist() == [0.8125 + 2.0**-9, 0.25]

    @pytest.mark.parametrize("d,q,p", [(1, 1, 0), (2, 1, 1), (3, 2, 0), (3, 3, 2)])
    def test_one_profile_call_per_active_coordinate(self, d, q, p):
        F = ExtremalFunction(beta=self.BETA, d=d, q=q, p=p)
        calls = []

        def counted(beta, s):
            calls.append(s)
            return profile(beta, s)

        with mock.patch.object(extremal, "profile", counted):
            out = F(np.linspace(0.1, 0.9, d))
        assert len(calls) == q
        assert out.tolist() == self.expected(F, np.linspace(0.1, 0.9, d)).tolist()


SHAPES = [(1, 1, 0), (2, 1, 1), (2, 2, 0), (3, 2, 0), (3, 3, 2)]  # (d, q, p)
TABLE_MODULI = [ORACLE_MODULI[-1], ModulusSpec.table([(0.0, 0.0), (2.0**-10, 2.0**-11), (1.0, 0.5)])]


def point_rows(F, pts):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        return np.array([F(x) for x in pts]).reshape(len(pts), F.m)


def block(d, count=200, seed=3):
    """Random points of [0,1]^d with every edge point in every coordinate."""
    rng = np.random.default_rng(seed)
    edges = np.array(EDGE_POINTS)
    pts = rng.uniform(0.0, 1.0, (count, d))
    pts[: len(edges)] = edges[:, None]
    pts[len(edges) : 2 * len(edges)] = np.roll(edges, 7)[:, None]
    return pts


class TestEvaluateMany:
    """``ExtremalFunction.evaluate_many`` is the point call on every row of a block."""

    @pytest.mark.parametrize("beta", [IDENTITY, ModulusSpec.power(2.0, 1.0), ModulusSpec.power(8.0, 1.0)]
                             + [ModulusSpec.power(2.0, alpha) for alpha in (0.25, 1 / 3, 0.5, 0.75)] + TABLE_MODULI, ids=repr)
    @pytest.mark.parametrize("d,q,p", SHAPES)
    def test_bit_identical_to_the_point_call(self, beta, d, q, p):
        F = ExtremalFunction(beta=beta, d=d, q=q, p=p)
        pts = block(d)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            got = F.evaluate_many(pts)
        assert got.shape == (len(pts), F.m) and got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), point_rows(F, pts).view(np.uint64))

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
    def test_certify_counts_match_a_per_point_wrapper(self, alpha):
        # every budget of depth 1 or 2 at q = 2; h = F certifies nothing for
        # alpha < 1 at these budgets, with either evaluator
        beta = ModulusSpec.power(1.0, alpha)
        F = ExtremalFunction(beta=beta, d=2, q=2)
        budgets = [2.0**-j for j in range(2, 17) if 1 <= resolve_depth(beta, 2, 2.0**-j) <= 2]
        assert len(budgets) >= 3
        for eps in budgets:
            assert certify(F, eps, h=F) == certify(F, eps, h=lambda x: F(x))

    def test_certify_at_depth_3_in_one_pass(self):
        # 262 144 level-3 cubes: about 40 s through the point call
        F = ExtremalFunction(beta=IDENTITY, d=2, q=2)
        cert = certify(F, 2.0**-18, h=F)
        assert [(c.n, c.verified, c.total) for c in cert.per_level_counts] == [(1, 4, 4), (2, 256, 256), (3, 262144, 262144)]

    def test_accepted_inputs(self):
        F = ExtremalFunction(beta=IDENTITY, d=2, q=1, p=1)
        want = point_rows(F, [[0.0625, 0.5], [1.0, 0.0]])
        for pts in ([[0.0625, 0.5], [1, 0]], np.array([[0.0625, 0.5], [1.0, 0.0]], dtype=">f8"),
                    np.array([[0.0625, 0.5], [1.0, 0.0]], dtype=np.float32), [[Fraction(1, 16), 0.5], [1, 0]]):
            assert np.array_equal(F.evaluate_many(pts), want)
        assert F.evaluate_many(np.empty((0, 2))).shape == (0, 2)

    def test_result_is_fresh(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        pts = np.array([[0.0625], [0.25]])
        out = F.evaluate_many(pts)
        assert not np.shares_memory(out, pts)
        out[:] = 7.0
        assert pts.tolist() == [[0.0625], [0.25]]

    @pytest.mark.parametrize("shape", [(3,), (), (2, 3), (2, 1), (1, 2, 2)])
    def test_shape_refused(self, shape):
        F = ExtremalFunction(beta=IDENTITY, d=2, q=1, p=1)
        with pytest.raises(DomainError, match=re.escape(f"expected an (N, 2) block of points in [0,1]^2, got shape {shape}")):
            F.evaluate_many(np.full(shape, 0.5))

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf, 1.5, -2.0**-1074])
    @pytest.mark.parametrize("col", [0, 1, 2])
    def test_range_refused_in_any_coordinate(self, bad, col):
        # inactive coordinates too, as the point call checks them
        F = ExtremalFunction(beta=IDENTITY, d=3, q=1, p=1)
        pts = np.full((4, 3), 0.25)
        pts[2, col] = bad
        pts[3, 0] = 2.0
        row = [0.25, 0.25, 0.25]
        row[col] = bad
        with pytest.raises(DomainError, match=re.escape(f"point {tuple(row)} outside [0,1]^3")):
            F.evaluate_many(pts)

    def test_non_doubles_refused(self):
        F = ExtremalFunction(beta=IDENTITY, d=2, q=1, p=1)
        with pytest.raises(DomainError, match="not exactly a double"):
            F.evaluate_many([[0.5, Fraction(1, 3)]])
        with pytest.raises(DomainError, match="not exactly a double"):
            F.evaluate_many(np.array([[0.5, 0.1]], dtype=np.longdouble) + np.longdouble(2.0**-60))

    def test_the_point_call_stays_scalar(self):
        # per-point callers keep reaching profile, once per active coordinate
        F = ExtremalFunction(beta=IDENTITY, d=2, q=2)
        with mock.patch.object(extremal, "profile_many", side_effect=AssertionError("profile_many called")):
            F([0.25, 0.5])


@functools.lru_cache(maxsize=8)
def knot_values(beta, k):
    """F.sample(2**-k).values for the d = q = 1 map, one column per knot."""
    return ExtremalFunction(beta=beta, d=1, q=1).sample(2.0**-k).values[:, 0]


class TestOneValueAtAPoint:
    """F has one value at a point: its point call, its block call and its samples at knots agree bit for bit."""

    @pytest.mark.parametrize("beta", POWER_MODULI + TABLE_MODULI, ids=repr)
    @given(x=st.lists(st.one_of(bump_corners(), level_points), min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_point_call_is_row_zero_of_the_block(self, beta, x):
        F, x = ExtremalFunction(beta=beta, d=3, q=2, p=1), np.array(x)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            got, want = F(x), F.evaluate_many(x[None])[0]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("beta", POWER_MODULI + TABLE_MODULI, ids=repr)
    @given(k=st.integers(0, 16), i=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_point_call_is_the_sample_at_knots(self, beta, k, i):
        i >>= 16 - k  # knot i of the 2**k + 1 at step 2**-k
        got = ExtremalFunction(beta=beta, d=1, q=1)(math.ldexp(i, -k))
        assert got.view(np.uint64) == knot_values(beta, k)[i : i + 1].view(np.uint64)


def knot_pair_oscillation(h, delta):
    """Largest |h(x) - h(y)| over knot pairs x, y at distance <= delta, by brute force."""
    x, v = h.knot_points(), h.values.reshape(-1, h.m)
    near = np.linalg.norm(x[:, None] - x[None], axis=-1) <= delta
    return float(np.linalg.norm(v[:, None] - v[None], axis=-1)[near].max())


class TestSampling:
    def test_exact_at_knots(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        h = F.sample(2.0**-6)
        for s in h.grid[0]:
            assert h([s])[0] == profile(IDENTITY, s)

    def test_sampled_modulus_below_beta(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        h = F.sample(2.0**-6)
        for delta in (0.1, 0.25, 0.5):
            assert knot_pair_oscillation(h, delta) <= IDENTITY(delta) + 1e-12

    def test_2d_product_structure(self):
        F = ExtremalFunction(beta=IDENTITY, d=2, q=2)
        h = F.sample(2.0**-4)
        assert h.m == 2
        assert np.allclose(h([0.0625, 0.4375]), F([0.0625, 0.4375]), atol=1e-15)

    def test_bad_step(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        with pytest.raises(DomainError):
            F.sample(0.3)

    @pytest.mark.parametrize("step", [0.0, -0.0, -0.25, math.nan, math.inf, -math.inf])
    def test_step_must_be_finite_and_positive(self, step):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        with pytest.raises(DomainError, match=rf"step must be finite and > 0, got {step}"):
            F.sample(step)

    @pytest.mark.parametrize(
        "step,d,cells", [(2.0**-25, 1, "33554432"), (2.0**-13, 2, "67108864"), (2.0**-9, 3, "134217728"), (5e-324, 1, "inf")]
    )
    def test_grid_over_the_cap_is_refused_before_any_array(self, monkeypatch, step, d, cells):
        def untouchable(*args, **kwargs):
            raise AssertionError("an array was built")

        monkeypatch.setattr(extremal.np, "linspace", untouchable)
        monkeypatch.setattr(extremal, "profile_many", untouchable)
        with pytest.raises(EnumerationCapError, match=rf"needs {re.escape(cells)} cells, over the cap of 16777216"):
            ExtremalFunction(beta=IDENTITY, d=d, q=1).sample(step)

    @pytest.mark.parametrize("step,d", [(2.0**-24, 1), (2.0**-12, 2), (2.0**-10, 2)])
    def test_grids_up_to_the_cap_pass_the_check(self, monkeypatch, step, d):
        # 2**-10 at d = 2 is certify_q2's grid; the call stops at the knots, before any large array
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(extremal.np, "linspace", reached)
        with pytest.raises(Reached):
            ExtremalFunction(beta=IDENTITY, d=d, q=1).sample(step)
