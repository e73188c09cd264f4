import functools
import itertools
import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translab import certifier
from translab import (
    DomainError,
    EnumerationCapError,
    ExtremalFunction,
    ModulusSpec,
    ShapeError,
    certify,
    enumerate_cubes,
    identity_chart,
    level_schedule,
    resolve_depth,
    theory_lower_bound,
)

from closed_form import holder_lower_bound, holder_lower_bound_log2
from cube_oracle import OracleCube, miranda_verdict, oracle_cubes

IDENTITY = ModulusSpec.power(1.0, 1.0)


def oracle_face_points(cube):
    """Face-lattice points of a cube as exact Fractions, kernel order."""
    q = cube.q
    lattice = [[cube.lo[j] + k * cube.scale / 4 for k in range(9)] for j in range(q)]
    for axis in range(q):
        free = [lattice[j] for j in range(q) if j != axis]
        for coord in (cube.lo[axis], cube.hi[axis]):
            for combo in itertools.product(*free):
                yield combo[:axis] + (coord,) + combo[axis:]


def oracle_verify(h, beta, cube, z=(), p=0):
    """The per-point face loop the level kernel replaced, kept as the reference.

    Exact Fraction lattice, slack beta(scale/4), one call of h per point,
    early exit on the first failure; it reads a NaN value as a negative sign.
    """
    q = cube.q
    slack = beta(float(cube.scale / 4))
    tail = [float(c) for c in np.asarray(z, dtype=float).ravel()]
    lattices = [[float(cube.lo[j] + k * cube.scale / 4) for k in range(9)] for j in range(q)]
    for axis in range(q):
        free = [j for j in range(q) if j != axis]
        orientation = 0.0
        for coord, side in ((cube.lo[axis], 1.0), (cube.hi[axis], -1.0)):
            for combo in itertools.product(*(lattices[j] for j in free)):
                y = [0.0] * q
                y[axis] = float(coord)
                for j, val in zip(free, combo):
                    y[j] = val
                value = float(np.asarray(h(np.array(y + tail)))[p + axis])
                if abs(value) <= slack:
                    return False
                sign = 1.0 if value > 0.0 else -1.0
                if orientation == 0.0:
                    orientation = sign * side
                if sign != orientation * side:
                    return False
    return True


class TestResolveDepth:
    @pytest.mark.parametrize(
        "j,want",
        [(6, 1), (7, 1), (8, 1), (10, 1), (11, 2), (12, 2), (15, 2), (16, 2), (17, 3)],
    )
    def test_identity_bands(self, j, want):
        assert resolve_depth(IDENTITY, 1, 2.0**-j) == want

    def test_large_budget_is_vacuous(self):
        assert resolve_depth(IDENTITY, 1, 0.5) == 0
        assert resolve_depth(IDENTITY, 1, 2.0**-5) == 0

    def test_band_edges_resolve_shallow(self):
        # shared endpoints belong to the band owning them as lower edge
        assert resolve_depth(IDENTITY, 1, 2.0**-10) == 1
        assert resolve_depth(IDENTITY, 1, 2.0**-16) == 2

    def test_q_scaling(self):
        # level-1 band top for q = 2 is 2**-5 / (2 sqrt 2)
        top = 2.0**-5 / (2.0 * math.sqrt(2.0))
        assert resolve_depth(IDENTITY, 2, top) == 1
        assert resolve_depth(IDENTITY, 2, top * 1.01) == 0

    def test_non_identity_modulus(self):
        beta = ModulusSpec.power(1.0, 0.5)
        # band top beta(2**-5)/2 = 2**-3.5
        assert resolve_depth(beta, 1, 2.0**-3.5) == 1
        assert resolve_depth(beta, 1, 2.0**-3) == 0

    def test_budget_validation(self):
        with pytest.raises(DomainError):
            resolve_depth(IDENTITY, 1, 0.0)
        with pytest.raises(DomainError, match="got nan"):
            resolve_depth(IDENTITY, 1, math.nan)


class TestCubes:
    def test_level_one_q_one(self):
        assert list(enumerate_cubes(1, 1)) == [(0,), (1,)]
        # q = 1 face points are each cube's lo and hi
        assert certifier._face_points(1, 1, np.arange(2))[:, 0].tolist() == [0.0625, 0.1875, 0.3125, 0.4375]

    def test_level_one_q_two(self):
        assert list(enumerate_cubes(1, 2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_level_two_q_one(self):
        assert len(list(enumerate_cubes(2, 1))) == 16
        assert certifier._face_points(2, 1, np.array([0]))[0, 0] == 0.5 + 2.0**-8

    @pytest.mark.parametrize("n,q", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_enumeration_is_rank_order(self, n, q):
        assert list(enumerate_cubes(n, q)) == [cube.index for cube in oracle_cubes(n, q)]
        assert [OracleCube.of_rank(n, q, rank) for rank in range(2 ** (q * n * n))] == oracle_cubes(n, q)

    def test_geometry_invariants(self):
        # q = 1 face points are (lo, hi) per cube: side 2 * scale, inside [0, 1], cubes disjoint and ascending
        for n in (1, 2, 3, 4):
            lo, hi = certifier._face_points(n, 1, np.arange(2 ** (n * n))).reshape(-1, 2).T
            assert np.all(hi - lo == 2 * level_schedule(n).scale)
            assert 0 <= lo[0] and hi[-1] <= 1
            assert np.all(hi[:-1] < lo[1:])

    def test_enumeration_cap(self):
        with pytest.raises(EnumerationCapError):
            list(enumerate_cubes(5, 1))
        with pytest.raises(EnumerationCapError):
            list(enumerate_cubes(4, 2))


class TestMiranda:
    def test_extremal_itself_passes(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        for cube in oracle_cubes(1, 1):
            assert miranda_verdict(F, IDENTITY, cube)

    def test_shifted_extremal_passes(self):
        # face values 2**-5 -+ 2**-7 keep their signs above the slack 2**-6
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        shifted = lambda x: F(x) + 2.0**-7
        assert miranda_verdict(shifted, IDENTITY, OracleCube(1, (0,)))

    def test_zero_function_fails(self):
        assert not miranda_verdict(lambda x: np.array([0.0]), IDENTITY, OracleCube(1, (0,)))

    def test_opposite_orientation_accepted(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        flipped = lambda x: -F(x)
        for cube in oracle_cubes(1, 1):
            assert miranda_verdict(flipped, IDENTITY, cube)

    def test_per_axis_orientation(self):
        F = ExtremalFunction(beta=IDENTITY, d=2, q=2)
        mixed = lambda x: F(x) * np.array([1.0, -1.0])
        for cube in oracle_cubes(1, 2):
            assert miranda_verdict(mixed, IDENTITY, cube)

    def test_below_slack_fails(self):
        # scaling the extremal to half the slack kills every strict sign
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        tiny = lambda x: F(x) / 4.0  # face value 2**-7 <= slack 2**-6
        assert not miranda_verdict(tiny, IDENTITY, OracleCube(1, (0,)))

    def test_active_block_indexing(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1, p=1)
        assert miranda_verdict(F, IDENTITY, OracleCube(1, (0,)), (), p=1)

    def test_z_slice_pass_through(self):
        F = ExtremalFunction(beta=IDENTITY, d=2, q=1)
        assert miranda_verdict(F, IDENTITY, OracleCube(1, (0,)), (0.5,))

    def test_soundness_oracle(self):
        # a passing cube always contains a sign change, found by dense
        # sampling at step scale/64
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        rng = np.random.default_rng(31)
        base = F.sample(2.0**-8)
        for _ in range(10):
            noise = rng.uniform(-2.0**-7, 2.0**-7, size=base.values.shape)
            h = base.with_values(base.values + noise)
            for cube in oracle_cubes(1, 1):
                if miranda_verdict(h, IDENTITY, cube):
                    xs = np.arange(float(cube.lo[0]), float(cube.hi[0]), float(cube.scale) / 64.0)
                    vals = h.evaluate_many(xs[:, None])[:, 0]
                    assert vals.min() < 0.0 < vals.max()


@functools.lru_cache(maxsize=None)
def _sampled(d, q, p):
    """The extremal map sampled fine enough for level-1 (and, in d = 1, level-2) faces."""
    return ExtremalFunction(beta=IDENTITY, d=d, q=q, p=p).sample({1: 2.0**-9, 2: 2.0**-6, 3: 2.0**-5}[d])


@st.composite
def miranda_cases(draw):
    """A noisy, sign-flipped, partly zeroed sample of F, a level, a z-slice and a calling style."""
    q = draw(st.sampled_from([1, 2]))
    p = draw(st.integers(0, 2))
    d = q + draw(st.integers(0, 1))
    n = draw(st.sampled_from([1, 2])) if d == 1 else 1
    base = _sampled(d, q, p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amp = draw(st.sampled_from([0.0, 2.0**-9, 2.0**-7, 2.0**-6, 2.0**-5]))
    values = base.values + rng.uniform(-amp, amp, size=base.values.shape)
    values = values * np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=p + q, max_size=p + q)))
    if draw(st.booleans()):
        comp = draw(st.integers(0, p + q - 1))
        a = draw(st.floats(0.0, 1.0))
        knots = base.grid[0]
        values[(knots >= a) & (knots <= a + draw(st.floats(0.0, 0.25))), ..., comp] = 0.0
    h = base.with_values(values)
    if draw(st.booleans()):
        h = lambda x, h=h: h(x)  # hides evaluate_many: one call per point
    z = tuple(draw(st.lists(st.floats(0.01, 0.99), min_size=d - q, max_size=d - q)))
    return h, n, q, z, p


class TestMirandaKernel:
    @pytest.mark.parametrize("q,deepest", [(1, 4), (2, 3)])
    def test_face_points_match_fraction_lattice(self, q, deepest):
        # every face-lattice coordinate is its exact Fraction, so a double,
        # at every level the cap allows: all cubes of the shallower levels,
        # and a seeded sample of the deepest with its first and last rank
        assert q * deepest**2 <= certifier.ENUMERATION_CAP_BITS < q * (deepest + 1) ** 2
        last = 2 ** (q * deepest**2) - 1
        sample = [0, *sorted(np.random.default_rng(q).choice(np.arange(1, last), 62, replace=False).tolist()), last]
        for n, ranks in [*((n, range(2 ** (q * n * n))) for n in range(1, deepest)), (deepest, sample)]:
            got = certifier._face_points(n, q, np.array(ranks))
            want = [pt for rank in ranks for pt in oracle_face_points(OracleCube.of_rank(n, q, rank))]
            assert got.shape == (len(want), q)
            assert all(Fraction(x) == c for row, pt in zip(got.tolist(), want) for x, c in zip(row, pt))

    @given(case=miranda_cases())
    @settings(max_examples=80, deadline=None)
    def test_kernel_matches_oracle(self, case):
        h, n, q, z, p = case
        cubes = oracle_cubes(n, q)
        want = [oracle_verify(h, IDENTITY, cube, z, p) for cube in cubes]
        ranks = np.arange(len(cubes))
        assert certifier._miranda_verdicts(h, IDENTITY, n, q, ranks, z, p).tolist() == want
        assert [miranda_verdict(h, IDENTITY, cube, z, p) for cube in cubes] == want
        with mock.patch.object(certifier, "SCAN_BLOCK_POINTS", 7):
            assert certifier._miranda_verdicts(h, IDENTITY, n, q, ranks, z, p).tolist() == want

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_face_value_rejects(self, bad):
        # F except one non-finite value on the hi face of the first cube;
        # the old loop read it as a negative sign and accepted the cube
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        cube = OracleCube(1, (0,))
        hi = float(cube.hi[0])
        h = lambda x: np.array([bad]) if x[0] == hi else F(x)
        assert oracle_verify(h, IDENTITY, cube)
        assert not miranda_verdict(h, IDENTITY, cube)
        cert = certify(F, 2.0**-7, h=h)
        assert cert.per_level_counts[0].verified == 1

    @pytest.mark.parametrize("q", [1, 2])
    def test_every_lattice_point_is_evaluated(self, q):
        # the zero function fails at the first point, and is still
        # evaluated at all 2q * 9**(q-1) face-lattice points
        calls = []
        h = lambda x: calls.append(x) or np.zeros(q)
        assert not miranda_verdict(h, IDENTITY, OracleCube(1, (0,) * q))
        assert len(calls) == 2 * q * 9 ** (q - 1)

    def test_evaluate_many_is_used_when_present(self):
        base = ExtremalFunction(beta=IDENTITY, d=2, q=2).sample(2.0**-6)
        batches = []

        class Batched:
            def evaluate_many(self, pts):
                batches.append(len(pts))
                return base.evaluate_many(pts)

            def __call__(self, x):
                pytest.fail("single-point call on an evaluator with evaluate_many")

        assert miranda_verdict(Batched(), IDENTITY, OracleCube(1, (0, 0)))
        assert batches == [36]

    @pytest.mark.parametrize(
        "h,shape",
        [(lambda x: np.array([1.0]), "({}, 1)"), (lambda x: 1.0, "({},)"), (lambda x: np.ones(3), "({}, 3)")],
        ids=["one value", "bare float", "three values"],
    )
    def test_wrong_width_is_a_shape_error(self, h, shape):
        # level 1 at q = 1: two cubes of two face points each
        F = ExtremalFunction(beta=IDENTITY, d=2, q=1, p=1)
        cube = OracleCube(1, (0,))
        calls = [(lambda: certify(F, 2.0**-8, h=h), 4), (lambda: miranda_verdict(h, IDENTITY, cube, (0.5,), p=1), 2)]
        for call, n in calls:
            message = rf"h gave values of shape {re.escape(shape.format(n))} at {n} points, expected \({n}, 2\): "
            with pytest.raises(ShapeError, match=message + "m = 2 values per point$"):
                call()

    def test_slack_covers_face_cells_at_q6(self):
        # Component 0 is kappa * t(y_0) * (D - rho), rho the distance of
        # (y_1..y_5) to the face lattice, t = +1 on the lo face and -1 on
        # the hi face; it admits beta(s) = s on the cube (gradient norm
        # <= 0.985).  At every lattice point |value| = kappa*D clears the
        # old slack beta(scale/4), yet it changes sign at a face-cell
        # centre, where rho = (scale/8) sqrt(5) > D: the face holds a zero.
        cube = OracleCube(1, (0,) * 6)
        scale = float(cube.scale)
        step = scale / 4
        lo = np.array([float(c) for c in cube.lo])
        kappa, D = 0.95, 0.017

        class FaceZero:
            def evaluate_many(self, pts):
                rel = (pts - lo) / step
                rho = step * np.sqrt(((rel - np.round(rel))[:, 1:] ** 2).sum(axis=1))
                t = (lo + scale - pts) / scale
                out = 0.5 * scale * t
                out[:, 0] = kappa * t[:, 0] * (D - rho)
                return out

        h = FaceZero()
        old_slack = IDENTITY(step)
        assert kappa * D > old_slack
        assert scale / 8 * math.sqrt(5) > D
        pts = certifier._face_points(1, 6, np.array([0]))
        vals = h.evaluate_many(pts)
        axis0 = slice(0, 2 * 9**5)
        lo_face = slice(0, 9**5)
        assert np.all(np.abs(vals[axis0, 0]) > old_slack)
        assert np.all(vals[lo_face, 0] > 0.0)
        centre = lo + step * np.array([0.0, 0.5, 0.5, 0.5, 0.5, 0.5])
        assert h.evaluate_many(centre[None, :])[0, 0] < 0.0
        assert not miranda_verdict(h, IDENTITY, cube)

    def test_face_block_reaches_the_evaluator_uncopied_at_d_equal_q(self):
        # d = q leaves no free coordinate: h gets the (N, q) block that
        # _face_points built, and with z it gets that block with z appended
        F, built, seen = ExtremalFunction(beta=IDENTITY, d=3, q=2), [], []
        face_points = certifier._face_points

        class Recording:
            def evaluate_many(self, pts):
                seen.append(pts)
                return F.evaluate_many(np.hstack([pts, np.full((len(pts), 3 - pts.shape[1]), 0.5)]))

        ranks = np.arange(256)
        with mock.patch.object(certifier, "_face_points", lambda n, q, r: built.append(face_points(n, q, r)) or built[-1]):
            bare = certifier._miranda_verdicts(Recording(), IDENTITY, 2, 2, ranks)
            assert len(seen) == len(built) >= 1
            assert all(got is block and got.shape == (len(block), 2) for got, block in zip(seen, built))
            seen.clear(), built.clear()
            with_z = certifier._miranda_verdicts(Recording(), IDENTITY, 2, 2, ranks, (0.5,))
        assert all(np.array_equal(got, np.hstack([block, np.full((len(block), 1), 0.5)])) for got, block in zip(seen, built))
        assert bare.all() and np.array_equal(bare, with_z)  # every level-2 cube of F verifies either way

    def test_slack_unchanged_up_to_q5(self):
        # sqrt(q-1)/2 <= 1 keeps the slack at beta(scale/4) bit for bit
        for q in (1, 2, 3, 4, 5):
            seen = []
            beta = lambda s: seen.append(s) or 1.0
            certifier._miranda_verdicts(lambda x: np.ones(q), beta, 1, q, np.array([], dtype=int))
            assert seen == [2.0**-6]



@functools.lru_cache(maxsize=None)
def _noisy_q2_base():
    return ExtremalFunction(beta=IDENTITY, d=2, q=2).sample(2.0**-10)

class TestCertify:
    def test_theoretical_level_one(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        cert = certify(F, 2.0**-7)
        assert (cert.n0, cert.certified_count, cert.paper_bound) == (1, 2, 2)
        assert cert.mode == "theoretical"
        assert not cert.vacuous
        assert cert.envelope_ok

    def test_theoretical_level_two(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        cert = certify(F, 2.0**-12)
        assert (cert.n0, cert.certified_count, cert.paper_bound) == (2, 18, 16)
        assert [lc.total for lc in cert.per_level_counts] == [2, 16]
        assert cert.theory_bound == pytest.approx(3.325337653108057, rel=1e-12)

    def test_vacuous_certificate(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        cert = certify(F, 0.5)
        assert cert.n0 == 0
        assert cert.certified_count == 0
        assert cert.paper_bound == 0
        assert cert.vacuous

    @pytest.mark.parametrize(
        "points, reason",
        [
            ([(0.0, 2.0**-20), (2.0**-10, -0.25)], "vanishes_at_zero fails at (0.0)"),
            ([(0.013, 0.5), (0.026, 1.5)], "subadditive fails at (0.013, 0.013)"),
        ],
    )
    def test_table_that_is_not_a_modulus_is_refused(self, points, reason):
        def h(x):
            raise AssertionError("h was called")

        F = ExtremalFunction(beta=ModulusSpec.table(points), d=1, q=1)
        for kwargs in ({}, {"h": h}):
            with pytest.raises(DomainError, match=re.escape(f"beta is not a modulus of continuity: {reason}")):
                certify(F, 2.0**-7, **kwargs)

    def test_saturated_modulus_flags_vacuous_even_at_depth(self):
        # the modulus rises steeply and saturates at 0.5, so the depth
        # band accepts eps = 0.25 while the inverse at 2*eps is infinite;
        # the certificate keeps its count but is flagged vacuous
        beta = ModulusSpec.table([(2.0**-6, 0.5), (1.0, 0.5)])
        F = ExtremalFunction(beta=beta, d=1, q=1)
        cert = certify(F, 0.25)
        assert cert.n0 == 1
        assert cert.certified_count == 2
        assert cert.theory_bound == 0.0
        assert cert.vacuous

    def test_rectangle_halfwidth_guard(self):
        from translab import identity_chart

        F = ExtremalFunction(beta=IDENTITY, d=1, q=1, p=1)
        small = certify(F, 2.0**-7, chart=identity_chart(2, r0=1.0))
        assert small.n0 == 1 and not small.vacuous
        # a budget beyond the rectangle half-width voids the flat reduction
        wide = certify(F, 2.0**-7, chart=identity_chart(2, r0=2.0**-8))
        assert wide.n0 == 0 and wide.vacuous

    def test_monotone_in_budget(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        counts = []
        theory = []
        for j in range(6, 18):
            cert = certify(F, 2.0**-j)
            counts.append(cert.certified_count)
            theory.append(cert.theory_bound)
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(theory, theory[1:]))

    def test_empirical_matches_theoretical_counts(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        h = F.sample(2.0**-8)
        cert = certify(F, 2.0**-7, h=h)
        assert cert.mode == "empirical"
        assert cert.certified_count == 2
        assert cert.per_level_counts[0].verified == 2

    def test_empirical_failure_is_reported(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        cert = certify(F, 2.0**-7, h=lambda x: np.array([0.0]))
        assert cert.certified_count == 0
        assert cert.per_level_counts[0].verified == 0
        assert not cert.envelope_ok

    def test_z_grid_slices(self):
        F = ExtremalFunction(beta=IDENTITY, d=2, q=1)
        h = F.sample(2.0**-6)
        cert = certify(F, 2.0**-7, h=h, z_grid=3)
        assert cert.certified_count == 2

    def test_budget_validation(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        with pytest.raises(DomainError):
            certify(F, 0.0)
        # NaN fails every band comparison; it is refused on every path, not resolved to a depth
        padded = ExtremalFunction(beta=IDENTITY, d=1, q=1, p=1)
        for fn, chart in ((F, None), (padded, None), (padded, identity_chart(2))):
            with pytest.raises(DomainError, match="budget must be positive, got nan"):
                certify(fn, math.nan, chart=chart)

    @pytest.mark.parametrize("d,q", [(1, 1), (2, 2), (2, 1)])
    def test_z_grid_validated_before_any_work(self, d, q):
        F = ExtremalFunction(beta=IDENTITY, d=d, q=q)

        def never(x):
            pytest.fail("evaluator called before z_grid was checked")

        for h in (None, never):
            with pytest.raises(DomainError, match="z-grid must be >= 1, got 0"):
                certify(F, 2.0**-7, h=h, z_grid=0)

    @pytest.mark.parametrize(
        "d,q,h,why",
        [
            (1, 1, True, r"d = q = 1 leaves none"),
            (2, 2, True, r"d = q = 2 leaves none"),
            (2, 1, False, r"theoretical mode \(no h\) runs none"),
            (1, 1, False, r"d = q = 1 leaves none"),
        ],
    )
    def test_z_grid_that_slices_nothing_is_refused_before_any_work(self, monkeypatch, d, q, h, why):
        F = ExtremalFunction(beta=IDENTITY, d=d, q=q)

        def never(*args):
            pytest.fail("evaluated before z_grid was checked")

        monkeypatch.setattr(ModulusSpec, "__call__", never)
        monkeypatch.setattr(ModulusSpec, "many", never)
        with pytest.raises(DomainError, match=rf"^z-grid 3 slices .*{why}$"):
            certify(F, 2.0**-7, h=never if h else None, z_grid=3)

    def test_z_grid_matches_oracle_over_slices(self):
        # different cubes fail on different slices; a cube counts only
        # when it passes on all of them
        F = ExtremalFunction(beta=IDENTITY, d=2, q=1)
        base = F.sample(2.0**-9)
        values = base.values.copy()
        x, y = np.meshgrid(*base.grid, indexing="ij")
        values[(x < 0.25) & (np.abs(y - 1 / 6) < 0.05), 0] = 0.0
        values[(x > 0.55) & (x < 0.6) & (np.abs(y - 0.5) < 0.05), 0] = 0.0
        h = base.with_values(values)
        eps = 2.0**-12
        cert = certify(F, eps, h=h, z_grid=3)
        slices = [(1 / 6,), (0.5,), (5 / 6,)]
        want = [
            sum(all(oracle_verify(h, IDENTITY, cube, z) for z in slices) for cube in oracle_cubes(n, 1))
            for n in (1, 2)
        ]
        assert [c.verified for c in cert.per_level_counts] == want
        assert 0 < want[0] < 2 and 0 < want[1] < 16

    def test_cap_preflight_starts_no_work(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)

        def never(x):
            pytest.fail("evaluator called before the enumeration cap check")

        assert certify(F, 2.0**-35).n0 == 5  # theoretical mode has no cap
        with pytest.raises(EnumerationCapError, match=r"level 5 at q=1 would enumerate 2\*\*25 cubes"):
            certify(F, 2.0**-35, h=never)
        F2 = ExtremalFunction(beta=IDENTITY, d=2, q=2)
        with pytest.raises(EnumerationCapError, match=r"level 4 at q=2 would enumerate 2\*\*32 cubes"):
            certify(F2, 2.0**-28, h=never)

    @pytest.mark.parametrize("zeroed", [(), (3,), (0, 9), (1, 5, 15)])
    def test_noisy_q2_counts_pinned(self, zeroed):
        # a noisy 2-D sample at eps = 2**-12 (n0 = 2); component 0 vanishes
        # on each zeroed level-2 bump, so the 16 cubes whose first
        # coordinate lies on that bump fail, and no other cube does
        F = ExtremalFunction(beta=IDENTITY, d=2, q=2)
        eps = 2.0**-12
        base = _noisy_q2_base()
        values = base.values + np.random.default_rng(len(zeroed)).uniform(-eps, eps, base.values.shape)
        lev = level_schedule(2)
        knots = base.grid[0]
        for i in zeroed:
            a = float(lev.start + 4 * i * lev.scale)
            values[(knots >= a) & (knots <= a + float(4 * lev.scale)), :, 0] = 0.0
        h = base.with_values(values)
        want = [(1, 4, 4), (2, 256 - 16 * len(zeroed), 256)]
        cert = certify(F, eps, h=h)
        assert [(c.n, c.verified, c.total) for c in cert.per_level_counts] == want
        with mock.patch.object(certifier, "SCAN_BLOCK_POINTS", 7):
            assert certify(F, eps, h=h) == cert


class TestTheoryBounds:
    def test_spot_value(self):
        # independent route: Psi(2 * 2**-12) = 2**-11, so the bound is
        # 2**15 * 2**(-4 sqrt 11)
        ref = math.ldexp(1.0, 15) * 2.0 ** (-4.0 * math.sqrt(11.0))
        got = theory_lower_bound(IDENTITY, 2.0**-12, 1, 0, 2.0)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_square_root_modulus_value(self):
        # beta = s**0.5, eps = 2**-9, gamma = 2: Psi(2**-8) = 2**-16,
        # bound = 2**20 * 2**(-4*4) = 16 exactly
        beta = ModulusSpec.power(1.0, 0.5)
        assert theory_lower_bound(beta, 2.0**-9, 1, 0, 2.0) == pytest.approx(16.0, rel=1e-12)

    def test_unit_inverse_log_term(self):
        # Psi(gamma eps) = 16 gives the pure 2**-8 correction
        assert theory_lower_bound(IDENTITY, 8.0, 1, 0, 2.0) == pytest.approx(2.0**-8, rel=1e-12)

    def test_saturated_modulus_is_vacuous(self):
        beta = ModulusSpec.table([(1.0, 0.5)])
        assert theory_lower_bound(beta, 0.3, 1, 0, 2.0) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            theory_lower_bound(IDENTITY, -1.0, 1, 0, 2.0)
        with pytest.raises(DomainError):
            theory_lower_bound(IDENTITY, math.nan, 1, 0, 2.0)
        with pytest.raises(DomainError):
            theory_lower_bound(IDENTITY, 0.5, 1, 1, 2.0)

    def test_holder_closed_form_consistency(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            lam = rng.uniform(0.3, 3.0)
            alpha = rng.uniform(0.3, 1.0)
            eps = 2.0 ** rng.uniform(-18.0, -3.0)
            via_inverse = theory_lower_bound(ModulusSpec.power(lam, alpha), eps, 1, 0, 2.0)
            closed = holder_lower_bound(lam, alpha, eps, 1, 0, 2.0)
            assert closed == pytest.approx(via_inverse, rel=1e-10)

    def test_holder_no_log_term_at_unit_ratio(self):
        # gamma eps = lam makes the correction vanish: bound = 16**(m-p)
        assert holder_lower_bound(0.7, 1.0, 0.35, 1, 0, 2.0) == pytest.approx(16.0, rel=1e-12)
        assert holder_lower_bound(0.7, 0.5, 0.35, 2, 0, 2.0) == pytest.approx(16.0**2, rel=1e-12)

    def test_holder_validation(self):
        with pytest.raises(DomainError):
            holder_lower_bound(1.0, 1.5, 0.1, 1, 0, 2.0)
        with pytest.raises(DomainError):
            holder_lower_bound(0.0, 1.0, 0.1, 1, 0, 2.0)
        with pytest.raises(DomainError):
            holder_lower_bound(1.0, 1.0, math.nan, 1, 0, 2.0)

    @pytest.mark.parametrize("q", [1, 2])
    def test_envelope_past_the_quotient_overflow_matches_closed_form_in_log2(self, q):
        # (16/psi)**q overflows a double from j = 1021 at q = 1 and j = 510 at
        # q = 2; the envelope itself passes 2**1024 only from j = 608 at q = 2
        gamma = 2.0 * math.sqrt(q)
        for j in [*range(500, 520), *range(600, 615), *range(1015, 1030), 1074]:
            eps = 2.0**-j
            got = theory_lower_bound(IDENTITY, eps, q, 0, gamma)
            want = holder_lower_bound_log2(1.0, 1.0, eps, q, 0, gamma)
            psi = IDENTITY.inverse(gamma * eps)
            try:  # the direct form, which must stay bit for bit wherever it is finite
                direct = (16.0 / psi) ** q * 2.0 ** (-4.0 * q * math.sqrt(abs(math.log2(psi))))
            except OverflowError:
                direct = math.inf
            if math.isfinite(direct):
                assert got == direct
            if want < 1024.0:
                assert math.log2(got) == pytest.approx(want, abs=1e-9)
            else:
                assert got == math.inf
        assert (j, q == 1) == (1074, math.isfinite(got))

    def test_certify_past_the_quotient_overflow(self):
        F = ExtremalFunction(beta=IDENTITY, d=2, q=2)
        cert = certify(F, 2.0**-510)
        want = holder_lower_bound_log2(1.0, 1.0, 2.0**-510, 2, 0, 2.0 * math.sqrt(2.0))
        assert math.log2(cert.theory_bound) == pytest.approx(want, abs=1e-9)
        assert cert.envelope_ok and not cert.vacuous

    def test_envelope_below_certified_on_dyadic_grid(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        for j in range(6, 17):
            cert = certify(F, 2.0**-j)
            assert cert.n0 >= 1
            assert cert.theory_bound <= cert.certified_count


class TestEmpiricalGuarantee:
    def test_random_perturbations_all_verify(self):
        # perturbations within 2**-7 of the sampled extremal always pass
        # level 1 and keep at least two zero components
        from translab import count_zero_components, sup_distance

        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        base = F.sample(2.0**-8)
        eps = 2.0**-7
        amp = eps - 2.0**-15  # headroom for sampling aliasing above level 2
        rng = np.random.default_rng(41)
        cubes = oracle_cubes(1, 1)
        for _ in range(100):
            h = base.with_values(base.values + rng.uniform(-amp, amp, size=base.values.shape))
            assert sup_distance(h, base) <= eps
            assert all(miranda_verdict(h, IDENTITY, cube) for cube in cubes)
            assert count_zero_components(h).component_count >= 2
