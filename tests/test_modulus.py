import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from translab import (
    DomainError,
    EnumerationCapError,
    ModulusSpec,
    check_modulus_axioms,
)
from translab import modulus


class TestEval:
    def test_identity_power(self):
        beta = ModulusSpec.power(1.0, 1.0)
        assert beta(0.25) == 0.25

    def test_power_arithmetic(self):
        beta = ModulusSpec.power(2.0, 0.5)
        assert beta(0.25) == pytest.approx(1.0, abs=0)

    @pytest.mark.parametrize(
        "beta",
        [
            ModulusSpec.power(1.0, 1.0),
            ModulusSpec.power(3.0, 0.5),
            ModulusSpec.table([(0.5, 0.25), (1.0, 0.5)]),
        ],
    )
    def test_vanishes_at_zero(self, beta):
        assert beta(0.0) == 0.0

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            ModulusSpec.power(1.0, 1.0)(-0.1)
        with pytest.raises(DomainError):
            ModulusSpec.power(1.0, 1.0).many(np.array([0.5, -0.1]))

    @pytest.mark.parametrize(
        "beta",
        [
            ModulusSpec.power(1.0, 1.0),
            ModulusSpec.power(3.0, 1.0),
            ModulusSpec.table([(0.5, 0.25), (1.0, 0.5)]),
            ModulusSpec.table([(0.0, 0.0), (0.1, 0.3), (2.0, 0.7)]),
        ],
    )
    def test_many_matches_scalar_calls(self, beta):
        xs = np.concatenate([[0.0, 0.5, 1.0, 3.0], np.random.default_rng(5).uniform(0.0, 2.0, 200)])
        assert np.array_equal(beta.many(xs), [beta(x) for x in xs])

    def test_many_within_one_ulp_for_alpha_below_one(self):
        beta = ModulusSpec.power(3.0, 0.5)
        xs = np.random.default_rng(6).uniform(0.0, 1.0, 2000)
        want = np.array([beta(x) for x in xs])
        assert np.all(np.abs(beta.many(xs) - want) <= np.spacing(want))

    @pytest.mark.parametrize("lam, alpha", [(1.0, 1.0), (3.0, 1.0), (1.0, 0.5), (8.0, 0.25), (1e300, 0.75), (1e-300, 1.0)])
    def test_power_many_bit_identical_to_where_formula(self, lam, alpha):
        # the formula many used before it computed in place, kept as the oracle
        beta = ModulusSpec.power(lam, alpha)
        rng = np.random.default_rng(7)
        edges = [0.0, -0.0, 5e-324, 2.0**-1050, 2.0**-1022, np.nextafter(2.0**-1022, 0.0), 1.0, 1e308,
                 math.inf, math.nan, -math.nan, np.uint64(0x7FF0000000000123).view(np.float64)]
        xs = np.concatenate([edges, rng.uniform(0.0, 1.0, 10000),
                             rng.integers(0, 0x7FF0000000000000, 10000).view(np.float64)])
        with np.errstate(all="ignore"):  # the signalling NaN and the overflows warn in both
            got = beta.many(xs)
            want = np.where(xs == 0.0, 0.0, lam * xs**alpha)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert not np.shares_memory(got, xs)
        for x in (-0.0, 0.25):  # 0-d input gives a 0-d array, +0.0 at -0.0
            got = beta.many(np.array(x))
            assert type(got) is np.ndarray and got.ndim == 0
            assert got.view(np.uint64) == np.asarray(beta(x)).view(np.uint64)

    def test_table_interpolates_from_origin(self):
        beta = ModulusSpec.table([(0.5, 1.0)])
        assert beta(0.25) == pytest.approx(0.5)

    def test_table_clamps_beyond_last_breakpoint(self):
        beta = ModulusSpec.table([(1.0, 0.5)])
        assert beta(2.0) == 0.5

    def test_bad_specs_rejected(self):
        with pytest.raises(DomainError):
            ModulusSpec.power(-1.0, 1.0)
        with pytest.raises(DomainError):
            ModulusSpec.power(1.0, 1.5)
        with pytest.raises(DomainError):
            ModulusSpec.table([])
        with pytest.raises(DomainError):
            ModulusSpec.table([(0.5, 1.0), (0.5, 2.0)])
        with pytest.raises(DomainError):
            ModulusSpec(kind="mystery")

    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
    def test_non_finite_lam_refused(self, lam):
        with pytest.raises(DomainError, match=rf"finite lam > 0, got {lam}$"):
            ModulusSpec.power(lam, 1.0)

    @pytest.mark.parametrize(
        "points, field",
        [
            ([(0.5, math.nan)], "value"),
            ([(math.nan, 1.0)], "delta"),
            ([(0.5, math.inf)], "value"),
            ([(0.25, 0.5), (math.inf, 1.0)], "delta"),
            ([(0.25, -math.inf), (0.5, 1.0)], "value"),
        ],
    )
    def test_non_finite_table_entries_refused(self, points, field):
        with pytest.raises(DomainError, match=f"table breakpoint {field} must be finite"):
            ModulusSpec.table(points)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"kind": "power", "breakpoints": ((0.1, 0.2),)}, "power modulus takes no breakpoints"),
            ({"kind": "table", "breakpoints": ((1.0, 1.0),), "lam": 7.0, "alpha": 0.3}, "lam=7.0, alpha=0.3"),
            ({"kind": "table", "breakpoints": ((1.0, 1.0),), "alpha": 0.5}, "table modulus takes no lam or alpha"),
        ],
    )
    def test_fields_of_the_other_kind_refused(self, fields, message):
        with pytest.raises(DomainError, match=message):
            ModulusSpec(**fields)


class TestAxioms:
    def test_concave_power_passes(self):
        beta = ModulusSpec.power(1.0, 0.5)
        report = check_modulus_axioms(beta)
        assert report.monotone and report.subadditive and report.vanishes_at_zero
        assert report.all_hold and report.failure == ""

    def test_convex_table_fails_subadditivity(self):
        # beta(2) = 1 > beta(1) + beta(1) = 0.2
        beta = ModulusSpec.table([(1.0, 0.1), (2.0, 1.0)])
        report = check_modulus_axioms(beta)
        assert report.monotone
        assert not report.subadditive

    def test_linear_modulus_passes(self):
        beta = ModulusSpec.power(3.0, 1.0)
        report = check_modulus_axioms(beta)
        assert report.all_hold

    def test_decreasing_table_fails_monotone(self):
        beta = ModulusSpec.table([(0.5, 1.0), (1.0, 0.25)])
        report = check_modulus_axioms(beta)
        assert not report.monotone
        assert report.failure == "monotone fails at (0.5, 1.0)"

    @pytest.mark.parametrize(
        "points, failure",
        [  # each fails at one arrangement vertex only; the second by 2**-40, under any 1e-12 tolerance
            ([(0.013, 0.5), (0.026, 1.5)], (0.013, 0.013)),
            ([(2.0**-6, 0.5), (2.0**-5, 1.5)], (2.0**-6, 2.0**-6)),
            ([(2.0**-6, 0.5), (2.0**-5, 1.0 + 2.0**-40)], (2.0**-6, 2.0**-6)),
        ],
    )
    def test_a_single_failing_vertex_is_found(self, points, failure):
        report = check_modulus_axioms(ModulusSpec.table(points))
        assert report.monotone and report.vanishes_at_zero and not report.subadditive
        assert report.failure == f"subadditive fails at ({failure[0]!r}, {failure[1]!r})"

    def test_beta_at_zero_is_the_first_failure(self):
        report = check_modulus_axioms(ModulusSpec.table([(0.0, 2.0**-20), (2.0**-10, -0.25)]))
        assert not (report.vanishes_at_zero or report.monotone or report.subadditive)
        assert report.failure == "vanishes_at_zero fails at (0.0)"

    @given(points=st.lists(st.tuples(st.floats(0.0, 1e6), st.floats(-1e6, 1e6)), min_size=1, max_size=8)
           .map(lambda pts: sorted(dict(pts).items())))
    @settings(max_examples=100, deadline=None)
    def test_never_calls_beta(self, points):
        def fail(*args):
            raise AssertionError("the axiom check called beta")

        beta = ModulusSpec.table(points)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ModulusSpec, "__call__", fail)
            patch.setattr(ModulusSpec, "many", fail)
            check_modulus_axioms(beta)

    def test_cap_refuses_an_oversized_table_before_any_work(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the axiom check called beta")

        big = ModulusSpec.table([(float(k), float(k)) for k in range(1, 1000)])  # 1000 nodes with (0, 0)
        monkeypatch.setattr(ModulusSpec, "__call__", fail)
        monkeypatch.setattr(ModulusSpec, "many", fail)
        with pytest.raises(EnumerationCapError, match=r"^a table of 1000 nodes has 1001000 vertices, over the cap of 1000000$"):
            check_modulus_axioms(big)
        monkeypatch.setattr(modulus, "VERTEX_CAP", 12)  # a table of n nodes has n * (n + 1) vertices
        assert check_modulus_axioms(ModulusSpec.table([(1.0, 1.0), (2.0, 2.0)])).all_hold
        with pytest.raises(EnumerationCapError, match="^a table of 4 nodes has 20 vertices, over the cap of 12$"):
            check_modulus_axioms(ModulusSpec.table([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]))


GRID = Fraction(1, 64)


def oracle_axioms(beta):
    """(vanishes_at_zero, monotone, subadditive, failing pairs) of a table whose deltas lie on the 2**-6 grid.

    Exact in Fractions: every arrangement vertex lies on that grid, so
    checking every grid pair (s, t) in [0, 2 d_last]**2 decides the
    axioms without the vertex argument.  Failing pairs are in grid units.
    """
    nodes = [(Fraction(d), Fraction(v)) for d, v in beta.breakpoints]
    if nodes[0][0] != 0:
        nodes.insert(0, (Fraction(0), Fraction(0)))

    def at(x):
        for (a, va), (b, vb) in zip(nodes, nodes[1:]):
            if a <= x <= b:
                return va + (vb - va) * (x - a) / (b - a)
        return nodes[-1][1]

    top = int(2 * nodes[-1][0] / GRID)
    vals = [at(k * GRID) for k in range(2 * top + 1)]
    failing = {(i, j) for i in range(top + 1) for j in range(i, top + 1) if vals[i + j] > vals[i] + vals[j]}
    monotone = all(a <= b for a, b in zip(vals, vals[1:]))
    return vals[0] == 0, monotone, not failing, failing


@st.composite
def grid_tables(draw):
    """Tables with deltas on the 2**-6 grid in [0, 1/2], concave or non-decreasing, some with one node nudged."""
    ks = sorted(draw(st.sets(st.integers(0, 32), min_size=1, max_size=10)))
    if draw(st.booleans()):  # non-decreasing: often not subadditive
        values = sorted(v / 64 for v in draw(st.lists(st.integers(0, 64), min_size=len(ks), max_size=len(ks))))
    else:  # non-increasing slopes from (0, 0): a concave table, which is a modulus
        slopes = sorted(draw(st.lists(st.integers(0, 8), min_size=len(ks), max_size=len(ks))), reverse=True)
        values = list(itertools.accumulate(sl * (b - a) / 64 for sl, a, b in zip(slopes, [0] + ks, ks)))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(ks) - 1))
        values[i] += draw(st.sampled_from([-1.0, 1.0])) * 2.0 ** -draw(st.integers(1, 40))
    return ModulusSpec.table(zip((k / 64 for k in ks), values))


class TestAxiomOracle:
    @given(beta=grid_tables())
    @example(beta=ModulusSpec.table([(2.0**-6, 0.5), (2.0**-5, 1.5)]))  # 0.013 / 0.026 on the grid
    @example(beta=ModulusSpec.table([(2.0**-6, 0.5), (2.0**-5, 1.0 + 2.0**-40)]))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_all_pairs_oracle(self, beta):
        vanishes, monotone, subadditive, failing = oracle_axioms(beta)
        report = check_modulus_axioms(beta)
        assert (report.vanishes_at_zero, report.monotone, report.subadditive) == (vanishes, monotone, subadditive)
        flags = [("vanishes_at_zero", vanishes), ("monotone", monotone), ("subadditive", subadditive)]
        first = next((name for name, holds in flags if not holds), None)
        if first is None:
            assert report.failure == ""
            return
        axiom, point = re.fullmatch(r"(\w+) fails at \((.*)\)", report.failure).groups()
        point = [float(x) for x in point.split(", ")]
        assert axiom == first
        if first == "monotone":
            a, b = point
            assert a < b and beta(a) > beta(b)
        elif first == "subadditive":
            s, t = (Fraction(x) / GRID for x in point)
            assert s.denominator == t.denominator == 1
            assert (int(min(s, t)), int(max(s, t))) in failing

    def test_oracle_sees_one_failing_pair_in_the_scaled_table(self):
        beta = ModulusSpec.table([(2.0**-6, 0.5), (2.0**-5, 1.5)])
        assert oracle_axioms(beta) == (True, True, False, {(1, 1)})


class TestInverse:
    def test_identity(self):
        assert ModulusSpec.power(1.0, 1.0).inverse(0.5) == 0.5

    def test_square_root_modulus(self):
        # beta(s) = 2 sqrt(s), so the inverse of 1.0 is (1/2)**2
        assert ModulusSpec.power(2.0, 0.5).inverse(1.0) == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize(
        "beta",
        [ModulusSpec.power(1.0, 1.0), ModulusSpec.table([(1.0, 0.5)])],
    )
    def test_zero_maps_to_zero(self, beta):
        assert beta.inverse(0.0) == 0.0

    def test_table_closed_form(self):
        beta = ModulusSpec.table([(1.0, 0.5)])  # beta(d) = d/2
        assert beta.inverse(0.25) == 0.5

    def test_power_inverse_past_the_double_range_is_infinite(self):
        # (2**600)**2 is no double; a sweep at j_min = -600 used to raise here
        beta = ModulusSpec.power(1.0, 0.5)
        assert beta.inverse(2.0**511) == 2.0**1022
        assert beta.inverse(2.0**600) == math.inf

    def test_table_saturates_to_infinity(self):
        beta = ModulusSpec.table([(1.0, 0.5)])
        assert beta.inverse(0.5) == math.inf
        assert beta.inverse(0.75) == math.inf
        assert beta.saturation == 0.5

    def test_power_never_saturates(self):
        assert ModulusSpec.power(1.0, 0.5).saturation == math.inf

    def test_flat_run_resolves_to_right_edge(self):
        # beta is 0.5 on [1, 2]; sup{d : beta(d) <= 0.5} = 2
        beta = ModulusSpec.table([(1.0, 0.5), (2.0, 0.5), (3.0, 1.0)])
        assert beta.inverse(0.5) == 2.0

    def test_no_node_at_or_below_s_gives_zero(self):
        beta = ModulusSpec.table([(0.0, 0.5), (1.0, 1.0)])
        assert beta.inverse(0.25) == 0.0

    @given(
        # rises of 0 (flat runs) or of at least 2**-8: on a near-flat segment the bisection reads
        # beta's rounding as the answer (off by ulp/slope), where the closed form stays exact
        steps=st.lists(st.tuples(st.floats(1e-3, 1.0), st.just(0.0) | st.floats(2.0**-8, 1.0)),
                       min_size=1, max_size=8),
        at_zero=st.booleans(),
        frac=st.floats(0.0, 1.0, exclude_max=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_bisection_on_monotone_tables(self, steps, at_zero, frac):
        # the bisection the closed form replaced: beta(lo) <= s < beta(hi) throughout
        pts = [(0.0, 0.0)] if at_zero else []
        d = v = 0.0
        for dd, dv in steps:
            d, v = d + dd, v + dv
            pts.append((d, v))
        beta = ModulusSpec.table(pts)
        s = frac * beta.saturation
        assume(s < beta.saturation)  # a table of flat steps saturates at 0
        lo, hi = 0.0, pts[-1][0]
        while hi - lo > 1e-12 * max(hi, 1.0):
            mid = 0.5 * (lo + hi)
            if beta(mid) <= s:
                lo = mid
            else:
                hi = mid
        # the bisection's stopping width, plus its misreading of beta's rounding at slopes >= 2**-8
        assert abs(beta.inverse(s) - lo) <= 2e-12 * max(pts[-1][0], 1.0)

    @given(
        lam=st.floats(0.25, 4.0),
        alpha=st.floats(0.25, 1.0),
        s=st.floats(1e-6, 8.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, lam, alpha, s):
        beta = ModulusSpec.power(lam, alpha)
        assert beta(beta.inverse(s)) == pytest.approx(s, rel=1e-10)

    def test_inverse_superadditive_on_grid(self):
        beta = ModulusSpec.power(1.5, 0.5)
        grid = np.linspace(0.0, 2.0, 20)
        for s1 in grid:
            for s2 in grid:
                lhs = beta.inverse(s1 + s2)
                rhs = beta.inverse(s1) + beta.inverse(s2)
                assert lhs >= rhs - 1e-12
