import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translab import (
    DomainError,
    ExtremalFunction,
    ModulusSpec,
    ResolutionWarning,
    bump,
    level_profile,
    level_schedule,
    minimal_modulus,
    profile,
    profile_many,
)
from translab.extremal import MAX_LEVEL

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


class TestLevelSchedule:
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


class TestBump:
    def test_peak_value(self):
        assert bump(IDENTITY, 1, 0.0625) == 0.03125

    def test_zero_at_midpoint(self):
        assert bump(IDENTITY, 1, 0.125) == 0.0

    def test_odd_symmetry_value(self):
        assert bump(IDENTITY, 1, 3 * 0.0625) == -0.03125

    def test_support(self):
        assert bump(IDENTITY, 1, -0.01) == 0.0
        assert bump(IDENTITY, 1, 0.26) == 0.0
        assert bump(IDENTITY, 1, 0.25) == 0.0

    def test_continuity_at_breakpoints(self):
        lev = level_schedule(2)
        eps = 1e-9
        for brk in (0.0, float(lev.scale), float(2 * lev.scale), float(3 * lev.scale), float(4 * lev.scale)):
            left = bump(IDENTITY, 2, max(brk - eps, 0.0))
            right = bump(IDENTITY, 2, brk + eps)
            assert abs(left - right) < 3e-9

    def test_general_modulus(self):
        beta = ModulusSpec.power(2.0, 0.5)
        ell = float(level_schedule(1).scale)
        assert bump(beta, 1, ell) == pytest.approx(beta(ell) / 2.0, abs=0)


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
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            lev = level_schedule(n)
            lo, hi = float(lev.start), float(lev.start + lev.width)
            for s in rng.uniform(lo, hi, size=50):
                assert profile(IDENTITY, s) == level_profile(IDENTITY, n, s)
            assert level_profile(IDENTITY, n, (lo + hi) / 2 + float(lev.width)) == 0.0

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
            bump(IDENTITY, 1, third / 16)
        with pytest.raises(DomainError, match="not exactly a double"):
            level_profile(IDENTITY, 1, third)
        assert profile(IDENTITY, Fraction(1, 16)) == 0.03125


def scalar_profiles(beta, xs):
    """The scalar profile point by point, deep-level warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        return np.array([profile(beta, x) for x in xs])


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


class TestProfileKernel:
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

    @pytest.mark.parametrize("lam", [1.0, 3.0])
    @given(xs=st.lists(level_points, min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_scalar_profile(self, lam, xs):
        beta = ModulusSpec.power(lam, 1.0)
        got, want = kernel_profiles(beta, xs), scalar_profiles(beta, xs)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @given(xs=st.lists(level_points, min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_within_one_ulp_for_alpha_below_one(self, xs):
        beta = ModulusSpec.power(2.0, 0.5)
        got, want = kernel_profiles(beta, xs), scalar_profiles(beta, xs)
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))

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
            assert minimal_modulus(h, delta) <= IDENTITY(delta) + 1e-12

    def test_2d_product_structure(self):
        F = ExtremalFunction(beta=IDENTITY, d=2, q=2)
        h = F.sample(2.0**-4)
        assert h.m == 2
        assert np.allclose(h([0.0625, 0.4375]), F([0.0625, 0.4375]), atol=1e-15)

    def test_bad_step(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        with pytest.raises(DomainError):
            F.sample(0.3)
