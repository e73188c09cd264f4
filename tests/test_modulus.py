import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translab import (
    DomainError,
    ModulusSpec,
    check_modulus_axioms,
)


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
        report = check_modulus_axioms(beta, np.linspace(0.0, 1.0, 11))
        assert report.monotone and report.subadditive and report.vanishes_at_zero
        assert report.all_hold

    def test_convex_table_fails_subadditivity(self):
        # beta(2) = 1 > beta(1) + beta(1) = 0.2
        beta = ModulusSpec.table([(1.0, 0.1), (2.0, 1.0)])
        report = check_modulus_axioms(beta, [0.0, 1.0, 2.0])
        assert report.monotone
        assert not report.subadditive

    def test_linear_modulus_passes(self):
        beta = ModulusSpec.power(3.0, 1.0)
        report = check_modulus_axioms(beta, [0.0, 0.5, 1.0])
        assert report.all_hold

    def test_decreasing_table_fails_monotone(self):
        beta = ModulusSpec.table([(0.5, 1.0), (1.0, 0.25)])
        report = check_modulus_axioms(beta, [0.0, 0.5, 1.0])
        assert not report.monotone

    def test_grid_validation(self):
        beta = ModulusSpec.power(1.0, 1.0)
        with pytest.raises(DomainError):
            check_modulus_axioms(beta, [])
        with pytest.raises(DomainError):
            check_modulus_axioms(beta, [1.0, 0.5])


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

    def test_table_bisection(self):
        beta = ModulusSpec.table([(1.0, 0.5)])  # beta(d) = d/2
        assert beta.inverse(0.25) == pytest.approx(0.5, rel=1e-9)

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
        assert beta.inverse(0.5) == pytest.approx(2.0, rel=1e-9)

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
