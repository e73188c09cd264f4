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
    EnumerationCapError,
    ExtremalFunction,
    ModulusSpec,
    SampledFunction,
    ShapeError,
    certify,
    count_zero_components,
    nudge_knot_zeros,
    resolve_depth,
    sup_distance,
)
from translab import funcrep
from translab.certifier import _face_points
from translab.funcrep import BLOCK_POINTS, _nudge, blocks, count_value_zeros, evaluate_rows

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

    def test_component_extraction(self):
        knots = np.linspace(0.0, 1.0, 3)
        h = SampledFunction(grid=(knots,), values=np.stack([knots, -knots], axis=1))
        second = h.component(1)
        assert second.m == 1
        assert second([1.0])[0] == -1.0
        with pytest.raises(ShapeError):
            h.component(5)

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

    def test_non_finite_vector_value_names_knot_tuple(self):
        knots = np.array([0.0, 0.5, 1.0])
        vals = np.zeros((3, 3, 2))
        vals[2, 1, 1] = math.nan
        with pytest.raises(DomainError, match=re.escape("got nan at knot (1.0, 0.5)")):
            SampledFunction(grid=(knots, knots), values=vals)

    def test_empty_block(self):
        knots = np.array([0.0, 0.5, 1.0])
        h = SampledFunction(grid=(knots, knots), values=np.ones((3, 3, 2)))
        got = h.evaluate_many(np.empty((0, 2)))
        assert got.shape == (0, 2) and same_bits(got, tuple_index_evaluate_many(h, np.empty((0, 2))))

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


def uniform_cases():
    """linspace grids, alone and with one knot moved by an ulp either way.

    A moved knot makes ``evaluate_many``'s cell guess miss on the rows
    near it, so guessed and searched rows share one block.
    """
    for K in (1, 2, 3, 7, 1000, 1024):
        knots = np.linspace(0.0, 1.0, K + 1)
        grids = [("uniform", knots)]
        for j in sorted({1, K // 2, K - 1} - {0, K}):
            for direction in (-1.0, 2.0):
                moved = knots.copy()
                moved[j] = np.nextafter(moved[j], direction)
                grids.append((f"knot {j} moved toward {direction:g}", moved))
        for label, grid in grids:
            yield pytest.param(grid, id=f"K={K} {label}")


def leaning_points(knots):
    """Every knot, every knot one ulp to either side (kept in [0, 1]), -0.0, 0 and 1."""
    near = np.concatenate([knots, np.nextafter(knots, -1.0), np.nextafter(knots, 2.0), [-0.0, 0.0, 1.0]])
    return near[(near >= 0.0) & (near <= 1.0)]


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

    @pytest.mark.parametrize("knots", uniform_cases())
    def test_uniform_grids_match_search_1d(self, knots):
        rng = np.random.default_rng(len(knots))
        h = SampledFunction(grid=(knots,), values=rng.normal(size=(len(knots), 2)))
        x = leaning_points(knots)
        pts = np.concatenate([x, rng.uniform(0.0, 1.0, 200)])[:, None]
        assert same_bits(h.evaluate_many(pts), tuple_index_evaluate_many(h, pts))

    @pytest.mark.parametrize("knots", uniform_cases())
    def test_uniform_grids_match_search_2d(self, knots):
        rng = np.random.default_rng(len(knots))
        other = np.linspace(0.0, 1.0, 5)
        h = SampledFunction(grid=(knots, other), values=rng.normal(size=(len(knots), 5, 1)))
        x = leaning_points(knots)
        pts = np.stack([x, rng.choice(leaning_points(other), len(x))], axis=1)
        assert same_bits(h.evaluate_many(pts), tuple_index_evaluate_many(h, pts))
        assert same_bits(h.evaluate_many(pts[:, ::-1].copy()[:, ::-1]), tuple_index_evaluate_many(h, pts))  # strided

    def test_moved_knot_mixes_guessed_and_searched_rows(self, monkeypatch):
        knots = np.linspace(0.0, 1.0, 9)
        knots[4] = np.nextafter(0.5, 1.0)  # x = 0.5 guesses cell 4, which now starts one ulp above it
        h = SampledFunction(grid=(knots,), values=np.arange(9.0)[:, None])
        pts = np.array([[0.125], [0.5], [0.75], [1.0]])
        want = tuple_index_evaluate_many(h, pts)
        searched = []
        search = np.searchsorted

        def spy(a, v, side="left"):
            searched.append(np.asarray(v).tolist())
            return search(a, v, side=side)

        monkeypatch.setattr(np, "searchsorted", spy)
        got = h.evaluate_many(pts)
        assert searched == [[0.5]]  # only the missed row is searched
        assert same_bits(got, want)

    def test_dyadic_grid_never_searches(self, monkeypatch):
        """At every face point of an empirical q = 2 certify, a grid sample of F finds its cells without a search."""
        F = ExtremalFunction(beta=ModulusSpec.power(1.0, 1.0), d=2, q=2)
        h = F.sample(2.0**-10)
        eps = 2.0**-12
        n0 = resolve_depth(F.beta, 2, eps)
        faces = [_face_points(2, np.full(2 ** (2 * n * n), n), np.arange(2 ** (2 * n * n))) for n in range(1, n0 + 1)]
        corners = np.array([[0.0, 1.0], [1.0, -0.0], [1.0, 1.0]])
        pts = np.concatenate(faces + [corners])
        want = tuple_index_evaluate_many(h, pts)

        def refused(*args, **kwargs):
            raise AssertionError("evaluate_many searched for a cell on a dyadic grid")

        monkeypatch.setattr(np, "searchsorted", refused)
        assert n0 == 2 and len(pts) == 4 * 36 + 256 * 36 + 3
        assert same_bits(h.evaluate_many(pts), want)
        assert certify(F, eps, h=h).n0 == 2  # the whole empirical pass, searched nowhere


def signed_zeros(values, rng):
    """values with about a tenth set to -0.0 and a tenth to +0.0."""
    values = values.copy()
    pick = rng.uniform(size=values.shape)
    values[pick < 0.1] = -0.0
    values[pick > 0.9] = 0.0
    return values


class TestComponentMajorSums:
    """The corner sums run over an (m, N) buffer; each element stays that of the tuple-index kernel."""

    def test_noisy_q2_sample_at_its_face_points(self):
        # the input of an empirical q = 2 certify at eps = 2**-12: F's dyadic
        # sample plus noise, evaluated at the face points of levels 1 and 2
        F = ExtremalFunction(beta=ModulusSpec.power(1.0, 1.0), d=2, q=2)
        base = F.sample(2.0**-10)
        rng = np.random.default_rng(12)
        h = base.with_values(signed_zeros(base.values + rng.uniform(-2.0**-12, 2.0**-12, base.values.shape), rng))
        faces = [_face_points(2, np.full(2 ** (2 * n * n), n), np.arange(2 ** (2 * n * n))) for n in (1, 2)]
        ends = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [-0.0, 0.5], [0.5, -0.0]])
        for pts in faces + [ends]:
            got = h.evaluate_many(pts)
            assert same_bits(got, tuple_index_evaluate_many(h, pts))
            assert got.T.flags.c_contiguous  # the (m, N) buffer, returned as its transpose

    @pytest.mark.parametrize("m", [1, 3])
    def test_irregular_3d_grids(self, m):
        rng = np.random.default_rng(m)
        grid = [np.unique(np.r_[0.0, rng.uniform(0.0, 1.0, n), 1.0]) for n in (5, 9, 2)]
        lens = tuple(len(k) for k in grid)
        h = SampledFunction(grid=grid, values=signed_zeros(rng.normal(size=lens + (m,)), rng))
        pts = rng.uniform(0.0, 1.0, (600, 3))
        pts[:200] = np.stack([rng.choice(leaning_points(k), 200) for k in grid], axis=1)
        pts[200:210] = rng.choice([0.0, -0.0, 1.0], (10, 3))
        assert same_bits(h.evaluate_many(pts), tuple_index_evaluate_many(h, pts))

    def test_sup_distance_sums_rows_in_c_order(self):
        # numpy sums a C-order row of m >= 8 values pairwise, and a
        # Fortran-order block's rows one by one, which rounds differently
        grid = (np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 5))
        pts = np.stack(np.meshgrid(*grid, indexing="ij"), axis=-1).reshape(-1, 2)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            h1, h2 = (SampledFunction(grid=grid, values=rng.normal(size=(9, 5, 11))) for _ in range(2))
            diff = np.ascontiguousarray(tuple_index_evaluate_many(h1, pts) - tuple_index_evaluate_many(h2, pts))
            assert same_bits(sup_distance(h1, h2), np.sqrt((diff**2).sum(-1)).max()), seed


def knot_rule_function(d, scale, rng):
    """A grid function with uniform and irregular axes and m = 2 values of magnitude up to scale, some of them +-0.0."""
    grid = [np.linspace(0.0, 1.0, 9), np.unique(np.r_[0.0, rng.uniform(0.0, 1.0, 6), 1.0]), np.linspace(0.0, 1.0, 4)][:d]
    lens = tuple(len(k) for k in grid)
    return SampledFunction(grid=grid, values=signed_zeros(rng.uniform(-1.0, 1.0, lens + (2,)) * scale, rng))


def on_knots(knots, n, rng):
    """n coordinates on the knots of one axis, -0.0 in, 1.0 out: w = 0 at every one."""
    return rng.choice(np.r_[knots[:-1], -0.0], n)


def knot_rule_blocks(h, rng):
    """(label, block, axes with some w != 0) for blocks on knots along all, one or no axes."""
    n = 300
    on = np.stack([on_knots(k, n, rng) for k in h.grid], axis=1)
    off = rng.uniform(0.0, 1.0, (n, h.d))
    yield "on knots", on, 0
    for axis in range(h.d):
        mixed = off.copy()
        mixed[:, axis] = on[:, axis]
        yield f"on knots along axis {axis}", mixed, h.d - 1
    ends = on.copy()
    ends[::7] = 1.0  # the last cell at w = 1 on every axis: nothing is dropped
    yield "on knots and at 1.0", ends, h.d
    yield "one ulp above the knots", np.nextafter(on, 1.0), h.d  # a tiny w > 0 still weighs
    yield "off knots", off, h.d
    yield "off knots but row 0", np.r_[on[:1], off[1:]], h.d  # row 0 has w = 0, so the whole axis is scanned
    yield "empty", np.empty((0, h.d)), 0


class TestKnotRule:
    """An axis with w = 0 on every row drops its hi corners and its factor 1.0; no bit changes."""

    @pytest.mark.parametrize("scale", [1.0, 1.7e308])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_tuple_index_kernel(self, monkeypatch, d, scale):
        rng = np.random.default_rng(d)
        h = knot_rule_function(d, scale, rng)
        calls = {"multiply": 0, "empty_like": 0}

        def counted(name):
            real = getattr(np, name)

            def spy(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return spy

        for label, pts, live in knot_rule_blocks(h, rng):
            want = tuple_index_evaluate_many(h, pts)
            calls.update(multiply=0, empty_like=0)
            with monkeypatch.context() as patch:
                for name in calls:
                    patch.setattr(np, name, counted(name))
                got = h.evaluate_many(pts)
            assert same_bits(got, want), label
            assert got.shape == (len(pts), 2) and got.T.flags.c_contiguous, label
            weighed = 2**live if live else 0  # a corner multiply for each corner of the axes kept
            assert calls == {"multiply": weighed, "empty_like": int(weighed > 0)}, label

    def test_dyadic_face_lattice_is_one_gather(self, monkeypatch):
        # every face point of an empirical q = 2 certify at eps = 2**-12 sits on
        # a knot of F's 2**-10 sample along both axes, so no corner is weighed
        F = ExtremalFunction(beta=ModulusSpec.power(1.0, 1.0), d=2, q=2)
        base = F.sample(2.0**-10)
        rng = np.random.default_rng(28)
        h = base.with_values(signed_zeros(base.values + rng.uniform(-2.0**-12, 2.0**-12, base.values.shape), rng))
        faces = [_face_points(2, np.full(2 ** (2 * n * n), n), np.arange(2 ** (2 * n * n))) for n in (1, 2)]
        want = [tuple_index_evaluate_many(h, pts) for pts in faces]
        monkeypatch.setattr(np, "multiply", lambda *args, **kwargs: pytest.fail("a corner was weighed"))
        for pts, expected in zip(faces, want):
            assert same_bits(h.evaluate_many(pts), expected)

    @pytest.mark.parametrize("d", [2, 3])
    def test_sup_distance_on_one_shared_grid(self, monkeypatch, d):
        rng = np.random.default_rng(d)
        h1 = knot_rule_function(d, 1.0, rng)
        h2 = h1.with_values(signed_zeros(rng.normal(size=h1.values.shape), rng))
        # every other inner knot dropped: the merged grid of h1 and h3 is h1's
        coarse = [np.r_[k[:-1:2], 1.0] for k in h1.grid]
        h3 = SampledFunction(grid=coarse, values=signed_zeros(rng.normal(size=tuple(map(len, coarse)) + (2,)), rng))
        pts = h1.knot_points()
        want = {}
        for a, b in ((h1, h2), (h1, h3), (h3, h1)):
            diff = np.ascontiguousarray(tuple_index_evaluate_many(a, pts) - tuple_index_evaluate_many(b, pts))
            want[a, b] = np.sqrt((diff**2).sum(-1)).max()
        evaluated = []
        real = SampledFunction.evaluate_many
        monkeypatch.setattr(SampledFunction, "evaluate_many", lambda h, x: evaluated.append(h) or real(h, x))
        assert same_bits(sup_distance(h1, h2), want[h1, h2])
        assert sup_distance(h1, h2) == np.sqrt(((h1.values - h2.values) ** 2).sum(-1)).max()
        assert evaluated == []  # both are read off their values
        for a, b in ((h1, h3), (h3, h1)):
            assert same_bits(sup_distance(a, b), want[a, b])
        assert evaluated == [h3, h3]  # only the function off the merged grid is evaluated


class TestLookupBranches:
    """The range test on the block's min and max, the clip only with 1.0 in the block, the offsets divided only off knots."""

    @staticmethod
    def function(rng):
        grid = (np.linspace(0.0, 1.0, 9), np.unique(np.r_[0.0, rng.uniform(0.0, 1.0, 6), 1.0]))
        return SampledFunction(grid=grid, values=signed_zeros(rng.normal(size=tuple(map(len, grid)) + (2,)), rng))

    @staticmethod
    def block(h, rng, top, axes, order):
        """Points off and on the knots, with ``top`` on the given axes of a few rows and below it elsewhere."""
        pts = rng.uniform(0.0, np.nextafter(1.0, 0.0), (300, 2))
        near = [k[k < 1.0] for k in map(leaning_points, h.grid)]
        pts[:100] = np.stack([rng.choice(k, 100) for k in near], axis=1)
        for axis in axes:
            pts[rng.integers(0, 300, 5), axis] = top
        return np.asarray(pts, order=order)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("axes", [(0,), (1,), (0, 1)])
    @pytest.mark.parametrize("top", [1.0, np.nextafter(1.0, 0.0)], ids=["1.0", "below 1.0"])
    def test_block_max_at_and_below_one(self, top, axes, order):
        rng = np.random.default_rng(len(axes))
        h = self.function(rng)
        pts = self.block(h, rng, top, axes, order)
        assert pts.max() == top
        assert same_bits(h.evaluate_many(pts), tuple_index_evaluate_many(h, pts))

    @pytest.mark.parametrize("top", [1.0, np.nextafter(1.0, 0.0)], ids=["1.0", "below 1.0"])
    @pytest.mark.parametrize("on", [0, 1])
    def test_one_axis_on_knots_the_other_off(self, on, top):
        rng = np.random.default_rng(on)
        h = self.function(rng)
        pts = self.block(h, rng, top, (1 - on,), "F")
        pts[:, on] = on_knots(h.grid[on], len(pts), rng)
        assert same_bits(h.evaluate_many(pts), tuple_index_evaluate_many(h, pts))

    @pytest.mark.parametrize("bad", [math.nan, np.nextafter(1.0, 2.0), -5e-324], ids=["nan", "1 + ulp", "-ulp"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_first_bad_row_message(self, bad, axis):
        h = self.function(np.random.default_rng(1))
        pts = np.full((6, 2), 0.5)
        pts[0] = 1.0  # the block reaches 1.0 before the bad row
        pts[3, axis] = bad
        pts[5, 1 - axis] = 2.0
        with pytest.raises(DomainError) as got:
            h.evaluate_many(pts)
        with pytest.raises(DomainError) as want:
            tuple_index_evaluate_many(h, pts)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"point {tuple(pts[3].tolist())} (row 3) outside [0,1]^2")


class TestEvaluateRows:
    PTS =np.array([[0.0, 0.25], [0.5, 1.0], [0.75, 0.125]])

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

    def test_merged_grid_over_the_cap_is_refused_before_any_evaluation(self, monkeypatch):
        # knots {0, 1/2, 1} and {0, 1/4, 1} on both axes merge to 4 x 4 knot tuples
        h1 = SampledFunction(grid=([0.0, 0.5, 1.0],) * 2, values=np.zeros((3, 3, 1)))
        h2 = SampledFunction(grid=([0.0, 0.25, 1.0],) * 2, values=np.ones((3, 3, 1)))
        monkeypatch.setattr(funcrep, "MESH_CAP", 16)
        assert sup_distance(h1, h2) == 1.0
        monkeypatch.setattr(funcrep, "MESH_CAP", 15)
        monkeypatch.setattr(SampledFunction, "evaluate_many", lambda self, pts: pytest.fail("evaluated"))
        with pytest.raises(EnumerationCapError, match="^sup_distance's merged grid needs 16 knot tuples, over the cap of 15$"):
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
        merged = np.array(list(itertools.product(*(np.union1d(a, b) for a, b in zip(h1.grid, h2.grid)))))
        knots_diff = h1.evaluate_many(merged) - h2.evaluate_many(merged)
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


class TestBlocks:
    """blocks, the one cut of profile_many and refine: fixed blocks in order, a lone last point joined."""

    @given(n=st.integers(0, 9 * BLOCK_POINTS + 3))
    @example(n=0)
    @example(n=1)
    @example(n=2)
    @example(n=BLOCK_POINTS)
    @example(n=BLOCK_POINTS + 1)  # refine's mesh of 2**13 cells: one block, not 8192 + 1
    @example(n=BLOCK_POINTS + 2)
    @example(n=8 * BLOCK_POINTS + 1)  # the knots of a default sweep's refine mesh
    @settings(max_examples=300, deadline=None)
    def test_layout(self, n):
        got = blocks(n)
        if n == 0:
            assert got == []
            return
        assert [lo for lo, _ in got] == [0] + [hi for _, hi in got[:-1]]  # in order, no gap and no overlap
        assert got[-1][1] == n
        sizes = [hi - lo for lo, hi in got]
        assert sizes[:-1] == [BLOCK_POINTS] * (len(got) - 1)
        assert 1 <= sizes[-1] <= BLOCK_POINTS + 1
        assert sizes[-1] >= 2 or len(got) == 1
        if n >= 2:
            assert len(got) == math.ceil((n - 1) / BLOCK_POINTS)  # refine's ceil(cells / BLOCK_POINTS) calls


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

    @pytest.mark.parametrize(
        "text, line",
        [
            ("1 1\n0 1\n1 -1\n0.5 0\n", 3),  # was read with -1 at 0.5 and 0 at 1
            ("2 1\n0 0 1\n0 1 2\n1 0 3\n0 0 4\n", 5),  # (0, 0) twice, (1, 1) missing
            ("2 1\n0 0 1\n\n1 0 2\n0 1 3\n1 1 4\n", 4),  # axis 0 before axis 1; blank lines count
            ("2 1\n0 0 1\n0 1 2\n1 0 3\n", 5),  # (1, 1) missing at the end: the file departs where it stops
            ("2 1\n0 0 1\n0 1 2\n1 0 3\n1 1 4\n1 1 5\n", 6),  # a row past the full product
        ],
    )
    def test_rows_out_of_knot_order_refused(self, tmp_path, text, line):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ShapeError, match="^" + re.escape(f"{path} line {line}: knot rows must follow save's lexicographic order") + "$"):
            SampledFunction.load(path)

    def test_round_trip_3d_irregular(self, tmp_path):
        rng = np.random.default_rng(29)
        grid = (np.array([0.0, 0.3, 1.0]), np.array([0.0, 1.0]), np.array([0.0, 0.1, 0.7, 1.0]))
        h = SampledFunction(grid=grid, values=rng.normal(size=(3, 2, 4, 2)))
        path = tmp_path / "f3.txt"
        h.save(path)
        back = SampledFunction.load(path)
        assert all(np.array_equal(a, b) for a, b in zip(back.grid, h.grid))
        assert np.array_equal(back.values, h.values)
        pts = rng.uniform(size=(64, 3))
        assert np.array_equal(back.evaluate_many(pts), h.evaluate_many(pts))

    @pytest.mark.parametrize("header, rows", [("-1 2", "5\n"), ("0 1", "5\n"), ("1 0", "0\n1\n"), ("1 -3", "0\n")])
    def test_header_needs_positive_dimensions(self, tmp_path, header, rows):
        path = tmp_path / "bad.txt"
        path.write_text(f"{header}\n{rows}")
        d, m = header.split()
        with pytest.raises(ShapeError, match=re.escape(f"{path} line 1: need d >= 1 and m >= 1, got d={d}, m={m}")):
            SampledFunction.load(path)
