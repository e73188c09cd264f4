import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from translab import (
    DomainError,
    SampledFunction,
    ShapeError,
    count_zero_components,
    nudge_knot_zeros,
    sup_distance,
)
from translab.funcrep import _nudge, count_value_zeros, evaluate_rows

from zero_oracle import count_and_flat


def line(knots, values):
    return SampledFunction(grid=(np.asarray(knots, float),), values=np.asarray(values, float)[:, None])


class TestEvaluate:
    def test_linear_interpolation(self):
        h = line([0.0, 1.0], [0.0, 1.0])
        assert h([0.5])[0] == 0.5

    def test_constant(self):
        h = line([0.0, 1.0], [2.5, 2.5])
        assert h([0.3])[0] == 2.5

    def test_knot_hit_is_exact(self):
        h = line([0.0, 0.3, 1.0], [-0.3, 0.0, 0.7])
        assert h([0.3])[0] == 0.0
        assert h([0.0])[0] == -0.3
        assert h([1.0])[0] == 0.7

    def test_outside_domain(self):
        h = line([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(DomainError):
            h([1.5])
        with pytest.raises(DomainError):
            h([-0.1])

    @pytest.mark.parametrize("d", [1, 2])
    def test_nan_points_refused(self, d):
        knots = np.linspace(0.0, 1.0, 5)
        h = SampledFunction(grid=(knots,) * d, values=np.zeros((5,) * d + (1,)))
        for axis in range(d):
            pts = np.full((3, d), 0.5)
            pts[1, axis] = np.nan
            with pytest.raises(DomainError, match=r"\(row 1\) outside"):
                h.evaluate_many(pts)
            with pytest.raises(DomainError, match="outside"):
                h(pts[1])

    def test_first_bad_row_is_named(self):
        h = line([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(DomainError, match=r"^point \(1\.5,\) \(row 2\) outside"):
            h.evaluate_many(np.array([[0.5], [1.0], [1.5], [np.nan]]))

    def test_bilinear(self):
        knots = np.array([0.0, 1.0])
        vals = np.array([[[0.0], [1.0]], [[2.0], [3.0]]])  # f(x,y) = 2x + y
        h = SampledFunction(grid=(knots, knots), values=vals)
        assert h([0.5, 0.5])[0] == pytest.approx(1.5)
        assert h([0.25, 0.75])[0] == pytest.approx(2 * 0.25 + 0.75)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            line([0.0, 0.9], [0.0, 1.0])
        with pytest.raises(DomainError):
            line([0.1, 1.0], [0.0, 1.0])
        with pytest.raises(DomainError):
            line([0.0, 0.5, 0.5, 1.0], [0.0, 1.0, 1.0, 2.0])
        with pytest.raises(ShapeError):
            SampledFunction(grid=(np.array([0.0, 1.0]),), values=np.zeros((3, 1)))

    @pytest.mark.parametrize(
        "knots",
        [[0.0, math.nan, 1.0], [0.0, 0.5, math.nan, 1.0], [0.0, math.nan, math.nan, 1.0], [0.0, 0.25, math.nan, 0.75, 1.0]],
    )
    def test_nan_knot_refused(self, knots):
        # a NaN difference is not <= 0, so only a strict > test over every pair catches it
        values = [(-1.0) ** i for i in range(len(knots))]
        with pytest.raises(DomainError, match="strictly increasing"):
            line(knots, values)
        with pytest.raises(DomainError, match="strictly increasing"):
            SampledFunction(grid=(np.array([0.0, 1.0]), knots), values=np.zeros((2, len(knots), 1)))
        with pytest.raises(DomainError, match="strictly increasing"):
            SampledFunction.from_callable(lambda x: x[:1], [knots])

    def test_non_finite_vector_value_names_knot_tuple(self):
        knots = np.array([0.0, 0.5, 1.0])
        vals = np.zeros((3, 3, 2))
        vals[2, 1, 1] = math.nan
        with pytest.raises(DomainError, match=re.escape("got nan at knot (1.0, 0.5)")):
            SampledFunction(grid=(knots, knots), values=vals)

    def test_empty_block(self):
        knots = np.array([0.0, 0.5, 1.0])
        h = SampledFunction(grid=(knots, knots), values=np.ones((3, 3, 2)))
        assert h.evaluate_many(np.empty((0, 2))).shape == (0, 2)

    def test_grid_needs_an_axis(self):
        with pytest.raises(ShapeError, match="at least one axis"):
            SampledFunction(grid=(), values=np.zeros(1))

    @pytest.mark.parametrize("d", [1, 2])
    def test_codomain_needs_a_component(self, d):
        knots = np.array([0.0, 1.0])
        with pytest.raises(ShapeError, match=re.escape(f"values need m >= 1 components, got shape {(2,) * d + (0,)}")):
            SampledFunction(grid=(knots,) * d, values=np.zeros((2,) * d + (0,)))

    def test_float64_knots_are_frozen_and_shared(self):
        # the SampledFunction docstring's contract
        knots = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        h = line(knots, [0.0, 1.0, 2.0, 3.0, 4.0])
        assert h.grid[0] is knots
        assert not knots.flags.writeable
        with pytest.raises(ValueError):
            knots[2] = 0.9
        listed = [0.0, 0.5, 1.0]
        assert SampledFunction(grid=(listed,), values=np.zeros(3)).grid[0] is not listed


def tuple_index_evaluate_many(self, points):
    """Reference kernel: one gather with a tuple of per-axis index arrays per corner."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != self.d:
        raise ShapeError(f"expected points of shape (N, {self.d}), got {pts.shape}")
    inside = (pts >= 0.0) & (pts <= 1.0)  # NaN fails both comparisons
    if not inside.all():
        row = int(np.argmin(inside.all(axis=1)))
        raise DomainError(f"point {tuple(pts[row].tolist())} (row {row}) outside [0,1]^{self.d}")
    n = len(pts)
    cell = []
    frac = []
    for axis, knots in enumerate(self.grid):
        i = np.clip(np.searchsorted(knots, pts[:, axis], side="right") - 1, 0, len(knots) - 2)
        w = (pts[:, axis] - knots[i]) / (knots[i + 1] - knots[i])
        cell.append(i)
        frac.append(w)
    out = np.zeros((n, self.m))
    for corner in itertools.product((0, 1), repeat=self.d):
        weight = np.ones(n)
        sel = []
        for axis, c in enumerate(corner):
            weight = weight * (frac[axis] if c else 1.0 - frac[axis])
            sel.append(cell[axis] + c)
        out += weight[:, None] * self.values[tuple(sel)]
    return out


@st.composite
def grid_and_points(draw):
    """A grid function with d, m in {1, 2, 3} and a block of points that lean on knots.

    Axes are non-uniform and may have only their two end knots; values
    include both signed zeros.  Points are knots, knots one ulp either
    side (kept in [0, 1]), 0, -0.0, 1 and arbitrary floats in [0, 1].
    """
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    inner = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    grid = [np.unique([0.0, 1.0] + draw(st.lists(inner, max_size=4))) for _ in range(d)]
    lens = tuple(len(k) for k in grid)
    value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))
    h = SampledFunction(grid=grid, values=draw(arrays(np.float64, lens + (m,), elements=value)))

    def coordinate(knots):
        near = np.concatenate([knots, np.nextafter(knots, -1.0), np.nextafter(knots, 2.0)])
        near = near[(near >= 0.0) & (near <= 1.0)]
        return st.one_of(st.sampled_from(near.tolist() + [-0.0]), st.floats(0.0, 1.0))

    rows = draw(st.lists(st.tuples(*(coordinate(k) for k in grid)), min_size=1, max_size=12))
    return h, [list(r) for r in rows]


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestFlatGather:
    @given(case=grid_and_points())
    @settings(max_examples=300, deadline=None)
    def test_matches_tuple_index_kernel(self, case):
        h, rows = case
        want = tuple_index_evaluate_many(h, np.array(rows))
        assert same_bits(h.evaluate_many(np.array(rows)), want)
        assert same_bits(h.evaluate_many(rows), want)  # list input
        for row, expected in zip(rows, want):  # one-row blocks, the traced path
            assert same_bits(h.evaluate_many(np.array([row])), expected[None, :])
            assert same_bits(h(row), expected)

    def test_negative_zero_terms_sum_to_positive_zero(self):
        h = line([0.0, 1.0], [-0.0, -0.0])
        out = h.evaluate_many(np.array([[0.0], [0.5], [1.0], [-0.0]]))
        assert same_bits(out, np.zeros((4, 1)))

    @pytest.mark.parametrize("d,n,m", [(1, 65537, 1), (2, 1025, 2), (3, 65, 3)])
    def test_large_nonuniform_grids(self, d, n, m):
        rng = np.random.default_rng(d)
        grid = [np.unique(np.r_[0.0, rng.uniform(0.0, 1.0, n - 2), 1.0]) for _ in range(d)]
        h = SampledFunction(grid=grid, values=rng.normal(size=tuple(len(k) for k in grid) + (m,)))
        pts = rng.uniform(0.0, 1.0, (4000, d))
        pts[:1000] = np.stack([rng.choice(k, 1000) for k in grid], axis=1)
        pts[1000:1010] = 1.0
        assert same_bits(h.evaluate_many(pts), tuple_index_evaluate_many(h, pts))


class TestEvaluateRows:
    PTS = np.array([[0.0, 0.25], [0.5, 1.0], [0.75, 0.125]])

    @pytest.mark.parametrize(
        "h",
        [
            lambda x: [x[0], 2 * x[1], -0.0],  # a list
            lambda x: (int(4 * x[0]), 3, -1),  # an int tuple
            lambda x: np.array([x[1], x[0] - 1.0, 0.1]),  # a float64 array
        ],
        ids=["list", "int-tuple", "float64-array"],
    )
    def test_per_point_callable_gives_a_float_block(self, h):
        want = np.array([np.asarray(h(row), dtype=float) for row in self.PTS])  # one asarray per row
        got = evaluate_rows(h, self.PTS)
        assert got.shape == (3, 3) and got.dtype == np.float64
        assert same_bits(got, want)

    def test_ragged_rows_are_refused(self):
        with pytest.raises(ValueError):
            evaluate_rows(lambda x: [0.0] * (1 + (x[0] > 0.25)), self.PTS)

    def test_evaluate_many_is_preferred(self):
        h = line([0.0, 1.0], [0.0, 1.0])
        assert same_bits(evaluate_rows(h, self.PTS[:, :1]), [[0.0], [0.5], [0.75]])


class TestSupDistance:
    def test_identity(self):
        h = line([0.0, 0.5, 1.0], [0.0, 0.2, 1.0])
        assert sup_distance(h, h) == 0.0

    def test_constant_shift(self):
        h1 = line([0.0, 1.0], [0.0, 1.0])
        h2 = line([0.0, 1.0], [0.1, 1.1])
        assert sup_distance(h1, h2) == pytest.approx(0.1, abs=1e-15)

    def test_crossing_lines(self):
        h1 = line([0.0, 1.0], [0.0, 1.0])
        h2 = line([0.0, 1.0], [1.0, 0.0])
        assert sup_distance(h1, h2) == 1.0

    def test_merged_grid_is_exact_in_1d(self):
        # peak of h1 at 0.5 invisible on h2's knots alone
        h1 = line([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        h2 = line([0.0, 1.0], [0.0, 0.0])
        assert sup_distance(h1, h2) == 1.0

    def test_dimension_mismatch(self):
        h1 = line([0.0, 1.0], [0.0, 1.0])
        knots = np.array([0.0, 1.0])
        h2 = SampledFunction(grid=(knots, knots), values=np.zeros((2, 2, 1)))
        with pytest.raises(ShapeError):
            sup_distance(h1, h2)

    @given(
        v1=st.lists(st.floats(-5, 5), min_size=4, max_size=4),
        v2=st.lists(st.floats(-5, 5), min_size=4, max_size=4),
        v3=st.lists(st.floats(-5, 5), min_size=4, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, v1, v2, v3):
        knots = [0.0, 0.25, 0.75, 1.0]
        h1, h2, h3 = line(knots, v1), line(knots, v2), line(knots, v3)
        assert sup_distance(h1, h3) <= sup_distance(h1, h2) + sup_distance(h2, h3) + 1e-12


@st.composite
def grid_pairs(draw):
    """Two grid functions on [0,1]^d, d in {2, 3}, with different knots."""
    d = draw(st.integers(2, 3))
    m = draw(st.integers(1, 2))

    def function():
        axes = [
            np.array([0.0, *sorted(draw(st.sets(st.floats(0.01, 0.99), max_size=3))), 1.0])
            for _ in range(d)
        ]
        shape = tuple(len(k) for k in axes) + (m,)
        values = draw(st.lists(st.floats(-5, 5), min_size=math.prod(shape), max_size=math.prod(shape)))
        return SampledFunction(grid=tuple(axes), values=np.reshape(values, shape))

    return function(), function(), draw(st.integers(0, 2**32 - 1))


class TestSupDistanceExact:
    @given(case=grid_pairs())
    @settings(max_examples=100, deadline=None)
    def test_max_over_merged_knots_bounds_dense_samples(self, case):
        h1, h2, seed = case
        dist = sup_distance(h1, h2)
        knots_diff = h1.refine(h2.grid).values - h2.refine(h1.grid).values
        assert dist == np.sqrt((knots_diff**2).sum(-1)).max()
        pts = np.random.default_rng(seed).uniform(0.0, 1.0, size=(2000, h1.d))
        dense = np.sqrt(((h1.evaluate_many(pts) - h2.evaluate_many(pts)) ** 2).sum(-1))
        assert dense.max() <= dist + 1e-12


class TestZeroComponents:
    def test_single_sign_change(self):
        summary = count_zero_components(line([0.0, 1.0], [-0.5, 0.5]))
        assert summary.component_count == 1
        assert not summary.has_flat_zero_interval

    def test_no_zeros(self):
        summary = count_zero_components(line([0.0, 1.0], [1.0, 1.0]))
        assert summary.component_count == 0
        assert summary.h0 == 0.0

    def test_flat_interval_flagged(self):
        summary = count_zero_components(line([0.0, 1 / 3, 2 / 3, 1.0], [-1.0, 0.0, 0.0, 1.0]))
        assert summary.component_count == 1
        assert summary.has_flat_zero_interval
        assert summary.h0 == math.inf

    def test_touching_zero_is_one_component(self):
        summary = count_zero_components(line([0.0, 0.5, 1.0], [1.0, 0.0, 1.0]))
        assert summary.component_count == 1
        assert not summary.has_flat_zero_interval

    def test_knot_zero_with_sign_change(self):
        summary = count_zero_components(line([0.0, 0.5, 1.0], [-1.0, 0.0, 1.0]))
        assert summary.component_count == 1

    def test_many_crossings(self):
        knots = np.linspace(0.0, 1.0, 9)
        values = [(-1.0) ** k for k in range(9)]
        summary = count_zero_components(line(knots, values))
        assert summary.component_count == 8

    @pytest.mark.parametrize(
        "knots, values, count",
        [
            # float roots round onto the knots between the zeros, which are apart
            ([0.0, 0.5, 1.0], [1.0, -1e-20, 1.0], 2),
            ([0.0, 0.5, 0.5 + 2.0**-53, 1.0], [-1.0, 5e-324, -5e-324, 1.0], 3),
        ],
    )
    def test_sign_changes_next_to_a_knot_stay_apart(self, knots, values, count):
        assert count_zero_components(line(knots, values)).component_count == count

    def test_shape_errors(self):
        knots = np.array([0.0, 1.0])
        h2d = SampledFunction(grid=(knots, knots), values=np.zeros((2, 2, 1)))
        with pytest.raises(ShapeError):
            count_zero_components(h2d)
        hvec = SampledFunction(grid=(knots,), values=np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            count_zero_components(hvec)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_refused(self, bad):
        # refused at construction, naming the first non-finite knot, so zero
        # counting never sees one: a NaN knot value is neither zero nor signed
        with pytest.raises(DomainError, match=re.escape(f"got {bad} at knot (0.5,)")):
            line([0.0, 0.25, 0.5, 0.75, 1.0], [-1.0, 1.0, bad, math.nan, 1.0])

    def test_against_dense_sign_scan(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            knots = np.linspace(0.0, 1.0, 17)
            values = rng.uniform(-1.0, 1.0, size=17)
            h = line(knots, values)
            summary = count_zero_components(h)
            # brute-force scan at resolution far below the knot gap
            xs = np.linspace(0.0, 1.0, 4097)
            vals = h.evaluate_many(xs[:, None])[:, 0]
            signs = np.sign(vals)
            crossings = int(np.sum(signs[:-1] * signs[1:] < 0))
            assert summary.component_count == crossings


# Knot values lean on exact zeros (knot zeros, touching pieces, flat zero
# runs) and on the smallest subnormals, whose float roots round onto knots.
knot_values = st.one_of(
    st.just(0.0),
    st.sampled_from([5e-324, -5e-324, 1.0, -1.0]),
    st.floats(-1.0, 1.0),
)


@st.composite
def piecewise_linear(draw, values=knot_values):
    inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=30))
    knots = np.unique(np.array([0.0, 1.0] + inner))
    return line(knots, draw(st.lists(values, min_size=len(knots), max_size=len(knots))))


class TestZeroComponentsOracle:
    @given(h=piecewise_linear())
    @example(h=line([0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 0.0, 0.0, -1.0, 0.0]))
    @example(h=line([0.0, 0.5, 0.5 + 2.0**-53, 1.0], [-1.0, 5e-324, -5e-324, 1.0]))
    @example(h=line([0.0, 1.0], [0.0, 0.0]))
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_oracle(self, h):
        summary = count_zero_components(h)
        assert (summary.component_count, summary.has_flat_zero_interval) == count_and_flat(h)

    @given(h=piecewise_linear(values=st.floats(2.0**-1074, 1.0)))
    @settings(max_examples=50, deadline=None)
    def test_no_zeros(self, h):
        summary = count_zero_components(h)
        assert count_and_flat(h) == (0, False)
        assert summary.component_count == 0 and not summary.has_flat_zero_interval

    def test_extremal_refinement(self):
        from translab import ExtremalFunction, ModulusSpec, refine_interpolant

        f = ExtremalFunction(beta=ModulusSpec.power(1.0, 1.0), d=1, q=1).as_scalar()
        for j in (6, 9, 12):
            g = refine_interpolant(f, 2.0**-j)
            summary = count_zero_components(g)
            assert (summary.component_count, summary.has_flat_zero_interval) == count_and_flat(g)


def dense_inputs():
    """96 knot vectors: all zero, signed zeros, random signs, subnormals, uniform knots and random ones."""
    rng = np.random.default_rng(96)
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0])
    kinds = [
        lambda n: np.zeros(n),
        lambda n: rng.choice([0.0, -0.0], n),
        lambda n: rng.choice([1.0, -1.0], n),
        lambda n: rng.uniform(-1.0, 1.0, n),
        lambda n: np.where(rng.random(n) < 0.3, 0.0, rng.uniform(-1.0, 1.0, n)),
        lambda n: rng.choice(specials, n),
        lambda n: (-1.0) ** np.arange(n) * rng.uniform(0.5, 1.0, n),
        lambda n: rng.uniform(0.25, 1.0, n),
    ]
    for n in (2, 3, 5, 17, 64, 1025):
        uniform = np.linspace(0.0, 1.0, n)
        spread = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n - 2)), [1.0]))
        for kind in kinds:
            for knots in (uniform, spread):
                yield knots, kind(n)


class TestZeroComponentsDense:
    def test_matches_exact_oracle(self):
        cases = list(dense_inputs())
        assert len(cases) == 96
        for knots, values in cases:
            h = line(knots, values)
            summary = count_zero_components(h)
            assert (summary.component_count, summary.has_flat_zero_interval) == count_and_flat(h)


# Values for the array counter: exact zeros of both signs, the smallest
# subnormals and ordinary values; every tested array is also drawn as a
# strided view of a longer one.
count_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022), 1.0, -1.0]),
    st.floats(-1.0, 1.0),
)
nonzero_values = st.one_of(
    st.sampled_from([5e-324, -5e-324, 2.0**-1022, -(2.0**-1022)]),
    st.floats(-1.0, 1.0).filter(lambda v: v != 0.0),
)


@st.composite
def strided_views(draw, values=count_values):
    """A 1-D value array of at least two entries, as every step-th entry of a longer one from offset on."""
    step, offset = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    n = draw(st.integers(2, 40))
    base = np.array(draw(st.lists(values, min_size=offset + (n - 1) * step + 1, max_size=offset + (n - 1) * step + 1)))
    return base[offset::step]


def oracle_count(v):
    return count_and_flat(line(np.linspace(0.0, 1.0, len(v)), v))


class TestCountValueZeros:
    """The array counter against the exact ``Fraction`` oracle, on any stride."""

    @given(v=strided_views())
    @example(v=np.zeros(7)[::2])
    @example(v=np.array([-0.0, 0.0, -0.0]))
    @example(v=np.array([1.0, -0.0, -1.0, 0.0, 0.0, 5e-324]))
    @example(v=np.sin(np.linspace(0.0, 40.0, 4097))[::64])  # a sweep row: every s-th value of a finer mesh
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_oracle(self, v):
        summary = count_value_zeros(v)
        assert (summary.component_count, summary.has_flat_zero_interval) == oracle_count(v)
        assert summary == count_value_zeros(v.copy()) == count_zero_components(line(np.linspace(0.0, 1.0, len(v)), v))

    @given(v=strided_views(values=nonzero_values))
    @example(v=np.array([5e-324, -5e-324] * 4)[::3])
    @example(v=np.array([1.0, 2.0**-1022]))
    @settings(max_examples=200, deadline=None)
    def test_no_zero_knot_counts_sign_changes(self, v):
        # the shortcut: with no zero knot every component is one strict sign change
        summary = count_value_zeros(v)
        assert not summary.has_flat_zero_interval
        assert summary.component_count == oracle_count(v)[0] == np.count_nonzero(np.signbit(v[1:]) != np.signbit(v[:-1]))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_all_zero_is_one_interval(self, zero, n):
        summary = count_value_zeros(np.full(2 * n, zero)[::2])
        assert (summary.component_count, summary.has_flat_zero_interval, summary.h0) == (1, True, math.inf)


class TestNudge:
    def test_replaces_exact_zero(self):
        h = nudge_knot_zeros(line([0.0, 0.5, 1.0], [1.0, 0.0, 1.0]), 1e-9)
        assert h.values[1, 0] == 1e-9

    def test_noop_when_values_large(self):
        h0 = line([0.0, 0.5, 1.0], [1.0, -2.0, 1.5])
        h1 = nudge_knot_zeros(h0, 1e-9)
        assert np.array_equal(h0.values, h1.values)

    def test_recount_after_nudge(self):
        h = nudge_knot_zeros(line([0.0, 0.5, 1.0], [-1.0, 0.0, 1.0]), 0.1)
        assert list(h.values[:, 0]) == [-1.0, 0.1, 1.0]
        assert count_zero_components(h).component_count == 1

    def test_distance_budget(self):
        h0 = line([0.0, 0.5, 1.0], [-1.0, -0.05, 1.0])
        h1 = nudge_knot_zeros(h0, 0.1)
        assert sup_distance(h0, h1) <= 2 * 0.1

    def test_eta_validation(self):
        with pytest.raises(DomainError):
            nudge_knot_zeros(line([0.0, 1.0], [0.0, 1.0]), 0.0)

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf, -1e-12, -0.0])
    def test_eta_must_be_finite_and_positive(self, eta):
        # a NaN eta used to return h with its knot zeros left in place
        with pytest.raises(DomainError, match=f"eta must be finite and positive, got {eta}"):
            nudge_knot_zeros(line([0.0, 1.0], [0.0, 1.0]), eta)

    @pytest.mark.parametrize("eta", [1e-12, 0.1, 5e-324, 2.0**-1022])
    def test_masked_copy_matches_boolean_index_rule(self, eta):
        # the in-place nudge against the rule it replaced, vals[|vals| < eta] = eta,
        # bit for bit on signed zeros, the threshold and its neighbours,
        # subnormals, infinities, NaN and random bit patterns
        tiny = np.nextafter(0.0, 1.0)
        special = [0.0, -0.0, eta, -eta, np.nextafter(eta, 0.0), -np.nextafter(eta, 0.0), np.nextafter(eta, 1.0),
                   tiny, -tiny, 2.0**-1023, -(2.0**-1023), math.inf, -math.inf, math.nan, -math.nan]
        bits = np.random.default_rng(15).integers(0, 2**64, size=4096, dtype=np.uint64)
        vals = np.concatenate([special, bits.view(np.float64)])
        want = vals.copy()
        want[np.abs(want) < eta] = eta
        got = vals.copy()
        _nudge(got, eta)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestRefinementInvariance:
    def test_outputs_unchanged(self):
        h = line([0.0, 0.25, 1.0], [-1.0, 0.5, -0.25])
        fine = h.refine([[0.1, 0.5, 0.8]])
        xs = np.linspace(0.0, 1.0, 101)[:, None]
        assert np.allclose(h.evaluate_many(xs), fine.evaluate_many(xs), atol=1e-15)
        assert sup_distance(h, fine) <= 1e-15
        a = count_zero_components(h)
        b = count_zero_components(fine)
        assert a.component_count == b.component_count
        assert a.has_flat_zero_interval == b.has_flat_zero_interval

    def test_2d_refinement(self):
        knots = np.array([0.0, 1.0])
        vals = np.array([[[0.0], [1.0]], [[2.0], [3.0]]])
        h = SampledFunction(grid=(knots, knots), values=vals)
        fine = h.refine([[0.5], [0.25, 0.75]])
        pts = np.random.default_rng(1).uniform(0, 1, size=(50, 2))
        assert np.allclose(h.evaluate_many(pts), fine.evaluate_many(pts), atol=1e-15)


class TestFileFormat:
    def test_round_trip_1d(self, tmp_path):
        h = line([0.0, 0.25, 1.0], [1.0, -0.5, 0.125])
        path = tmp_path / "f.txt"
        h.save(path)
        back = SampledFunction.load(path)
        assert back.d == 1 and back.m == 1
        assert np.array_equal(back.grid[0], h.grid[0])
        assert np.array_equal(back.values, h.values)

    def test_round_trip_2d_vector(self, tmp_path):
        knots = np.array([0.0, 0.5, 1.0])
        rng = np.random.default_rng(3)
        h = SampledFunction(grid=(knots, knots), values=rng.normal(size=(3, 3, 2)))
        path = tmp_path / "f2.txt"
        h.save(path)
        back = SampledFunction.load(path)
        assert back.d == 2 and back.m == 2
        assert np.array_equal(back.values, h.values)

    def test_header_and_sorting(self, tmp_path):
        h = line([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
        path = tmp_path / "f.txt"
        h.save(path)
        rows = path.read_text().splitlines()
        assert rows[0] == "1 1"
        xs = [float(r.split()[0]) for r in rows[1:]]
        assert xs == sorted(xs)

    def test_bad_files(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\n0 0\n")
        with pytest.raises(ShapeError):
            SampledFunction.load(path)
        path.write_text("1 1\n0 0 0\n")
        with pytest.raises(ShapeError):
            SampledFunction.load(path)
        path.write_text("1 1\n0 -1\n0.5 nan\n1 1\n")
        with pytest.raises(DomainError, match=re.escape("got nan at knot (0.5,)")):
            SampledFunction.load(path)

    @pytest.mark.parametrize("header, rows", [("-1 2", "5\n"), ("0 1", "5\n"), ("1 0", "0\n1\n"), ("1 -3", "0\n")])
    def test_header_needs_positive_dimensions(self, tmp_path, header, rows):
        path = tmp_path / "bad.txt"
        path.write_text(f"{header}\n{rows}")
        d, m = header.split()
        with pytest.raises(ShapeError, match=re.escape(f"{path} line 1: need d >= 1 and m >= 1, got d={d}, m={m}")):
            SampledFunction.load(path)


class TestFromCallable:
    @pytest.mark.parametrize("m", [None, 2])
    def test_one_call_per_knot_tuple(self, m):
        grid = [np.linspace(0.0, 1.0, 3), np.array([0.0, 0.25, 1.0])]
        calls = []

        def fn(x):
            calls.append(tuple(x))
            return np.array([x[0], x[1]])

        h = SampledFunction.from_callable(fn, grid, m=m)
        assert sorted(calls) == [(a, b) for a in grid[0] for b in grid[1]]
        assert h.values.shape == (3, 3, 2)
        assert np.array_equal(h.values[..., 1], np.broadcast_to(grid[1], (3, 3)))

    def test_scalar_values_broadcast_to_m(self):
        h = SampledFunction.from_callable(lambda x: 2.0 * x[0], [np.linspace(0.0, 1.0, 3)], m=2)
        assert h.values.tolist() == [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]

    def test_sampling(self):
        knots = np.linspace(0.0, 1.0, 5)
        h = SampledFunction.from_callable(lambda x: np.array([x[0] ** 2]), [knots])
        assert h([0.5])[0] == 0.25
        assert h.m == 1

    def test_component_extraction(self):
        knots = np.linspace(0.0, 1.0, 3)
        h = SampledFunction.from_callable(lambda x: np.array([x[0], -x[0]]), [knots])
        second = h.component(1)
        assert second.m == 1
        assert second([1.0])[0] == -1.0
        with pytest.raises(ShapeError):
            h.component(5)
