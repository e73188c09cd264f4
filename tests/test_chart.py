import math
import re
from unittest import mock

import numpy as np
import pytest

from translab import certifier
from translab import (
    Chart,
    DomainError,
    ExtremalFunction,
    ModulusSpec,
    RangeEscapeError,
    SampledFunction,
    affine_chart,
    certify,
    count_zero_components,
    gamma_w,
    identity_chart,
    level_schedule,
    polar_demo_chart,
    pullback_perturbation,
    transport_function,
)

from zero_oracle import zero_components

IDENTITY = ModulusSpec.power(1.0, 1.0)


class TestGamma:
    def test_identity_scalar(self):
        assert gamma_w(identity_chart(1), 0) == 2.0

    def test_identity_codim_two(self):
        assert gamma_w(identity_chart(3), 1) == pytest.approx(2.0 * math.sqrt(2.0))

    def test_affine_ratio(self):
        chart = affine_chart(np.diag([3.0, 1.0]))
        assert chart.lam1 == 1.0 and chart.lam2 == 3.0
        assert gamma_w(chart, 1) == pytest.approx(6.0)

    def test_degenerate_codim(self):
        with pytest.raises(DomainError):
            gamma_w(identity_chart(2), 2)

    def test_negative_p_refused(self):
        # p = -1 returned 2*sqrt(3) as though the target had dimension -1
        with pytest.raises(DomainError, match="^" + re.escape("need 0 <= p < m, got p=-1, m=2") + "$"):
            gamma_w(identity_chart(2), -1)


class TestBuiltins:
    def test_affine_validation(self):
        with pytest.raises(DomainError):
            affine_chart(np.zeros((2, 2)))
        with pytest.raises(DomainError):
            affine_chart(np.zeros((2, 3)))
        with pytest.raises(DomainError):
            affine_chart(np.eye(2), b=[1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_affine_non_finite_numbers_refused(self, bad):
        # a NaN matrix reached the SVD and raised LinAlgError; a NaN or inf offset built a chart
        with pytest.raises(DomainError, match="^affine chart needs finite numbers"):
            affine_chart([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(DomainError, match="^affine chart needs finite numbers"):
            affine_chart(np.eye(2), b=[bad, 0.0])

    @pytest.mark.parametrize("m", [0, -1])
    def test_chart_dimension_below_one_refused(self, m):
        # identity_chart(0) built a chart, and gamma_w(identity_chart(0), -1) returned 2.0
        with pytest.raises(DomainError, match="^" + re.escape(f"need m >= 1, got {m}") + "$"):
            identity_chart(m)

    def test_affine_empty_matrix_refused(self):
        # an empty matrix reached svals[-1] and leaked IndexError
        message = "^" + re.escape("affine chart needs a nonempty square matrix, got shape (0, 0)") + "$"
        with pytest.raises(DomainError, match=message):
            affine_chart(np.zeros((0, 0)))

    def test_affine_round_trip(self):
        chart = affine_chart(np.array([[2.0, 1.0], [0.0, 1.0]]), b=[0.5, -0.5])
        y = np.array([0.3, 0.7])
        assert np.allclose(chart.phi_inv(chart.phi(y)), y, atol=1e-12)

    def test_polar_round_trip(self):
        chart = polar_demo_chart()
        rng = np.random.default_rng(5)
        for _ in range(100):
            r = rng.uniform(0.6, 1.9)
            theta = rng.uniform(-1.4, 1.4)
            y = np.array([r * math.cos(theta), r * math.sin(theta)])
            assert chart.in_domain(y)
            assert np.abs(chart.phi_inv(chart.phi(y)) - y).max() < 1e-10

    def test_polar_constants(self):
        chart = polar_demo_chart(rho=2.0)
        assert chart.lam1 == 0.5 and chart.lam2 == 2.0
        assert chart.distortion == 4.0

    def test_polar_validation(self):
        with pytest.raises(DomainError):
            polar_demo_chart(rho=0.9)
        with pytest.raises(DomainError):
            polar_demo_chart(r0=5.0)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -1.0])
    def test_polar_radius_that_is_not_positive_and_finite_refused(self, radius):
        # NaN and inf passed both `radius <= 0` and `r0 >= pi*radius/2`
        message = "^" + re.escape(f"radius must be positive and finite, got {radius}") + "$"
        with pytest.raises(DomainError, match=message):
            polar_demo_chart(radius=radius)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, 1.0, 0.5, -math.inf])
    def test_polar_annulus_ratio_that_is_not_finite_above_one_refused(self, rho):
        # NaN and inf passed `rho <= 1`, and Chart refused them naming lam1 and lam2, not rho
        message = "^" + re.escape(f"annulus ratio must be finite and exceed 1, got {rho}") + "$"
        with pytest.raises(DomainError, match=message):
            polar_demo_chart(rho=rho)

    def test_chart_constant_order(self):
        with pytest.raises(DomainError):
            identity_chart(1, r0=-1.0)

    @pytest.mark.parametrize("r0", [math.nan, 0.0, -0.0, -math.inf])
    def test_half_width_that_is_not_positive_refused(self, r0):
        # r0 = NaN passed a `r0 <= 0` test, and certify then read n0 = 0 through the chart
        message = "^" + re.escape(f"rectangle half-width must be positive, got {r0}") + "$"
        for build in (
            lambda: Chart(name="c", m=1, phi=np.array, phi_inv=np.array, lam1=1.0, lam2=1.0, r0=r0),
            lambda: identity_chart(2, r0=r0),
            lambda: affine_chart(np.eye(2), r0=r0),
            lambda: polar_demo_chart(r0=r0),
        ):
            with pytest.raises(DomainError, match=message):
                build()

    def test_infinite_half_width_accepted(self):
        # certify's default identity chart has an unbounded rectangle
        assert identity_chart(2, r0=math.inf).r0 == math.inf


class TestTransport:
    def test_identity_transport(self):
        g = lambda x: np.array([x[0] - 0.5])
        f = transport_function(identity_chart(1), g)
        assert f(np.array([0.3]))[0] == pytest.approx(-0.2)

    def test_affine_doubling_cancels(self):
        # phi(y) = 2y has lam1 = 2, so phi_inv(lam1 * g) = g
        chart = affine_chart(np.array([[2.0]]))
        g = lambda x: np.array([0.25])
        f = transport_function(chart, g)
        assert f(np.array([0.1]))[0] == pytest.approx(0.25)

    def test_polar_constant_image(self):
        chart = polar_demo_chart()
        g = lambda x: np.zeros(2)
        f = transport_function(chart, g)
        out = f(np.array([0.4]))
        assert np.allclose(out, chart.phi_inv(np.zeros(2)))

    def test_range_escape(self):
        chart = polar_demo_chart()
        g = lambda x: np.array([100.0, 0.0])
        f = transport_function(chart, g)
        with pytest.raises(RangeEscapeError):
            f(np.array([0.2]))

    def test_transport_keeps_modulus(self):
        chart = polar_demo_chart()
        beta = ModulusSpec.power(1.0, 1.0)
        F = ExtremalFunction(beta=beta, d=1, q=1, p=1)
        f = transport_function(chart, F)
        rng = np.random.default_rng(23)
        for _ in range(300):
            x, y = rng.uniform(0.0, 1.0, size=2)
            osc = float(np.linalg.norm(f([x]) - f([y])))
            assert osc <= beta(abs(x - y)) + 1e-12


class TestPullback:
    def test_identity_factor_one(self):
        flat, factor = pullback_perturbation(identity_chart(1), lambda x: np.array([0.5]))
        assert factor == 1.0
        assert flat(np.array([0.1]))[0] == 0.5

    def test_conformal_affine_factor_one(self):
        chart = affine_chart(2.0 * np.eye(2))
        flat, factor = pullback_perturbation(chart, lambda x: np.array([0.1, 0.2]))
        assert factor == 1.0
        assert np.allclose(flat(np.array([0.0])), [0.1, 0.2])

    def test_anisotropic_factor(self):
        chart = affine_chart(np.diag([3.0, 1.0]))
        _, factor = pullback_perturbation(chart, lambda x: np.zeros(2))
        assert factor == pytest.approx(3.0)

    def test_domain_escape(self):
        chart = polar_demo_chart()
        flat, _ = pullback_perturbation(chart, lambda x: np.array([5.0, 5.0]))
        with pytest.raises(RangeEscapeError):
            flat(np.array([0.3]))

    def test_round_trip_through_chart(self):
        # pulling back the transported map recovers the flat model
        chart = polar_demo_chart()
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1, p=1)
        f = transport_function(chart, F)
        flat, factor = pullback_perturbation(chart, f)
        assert factor == 4.0
        for s in np.linspace(0.0, 1.0, 33):
            assert np.abs(flat([s]) - F([s])).max() < 1e-12


def in_flat_target(v, r0, p):
    """Is v in the flat target [-r0, r0]^p x {0}^(m-p)?"""
    v = np.asarray(v, dtype=float)
    return bool(np.all(np.abs(v[:p]) <= r0) and np.all(v[p:] == 0.0))


class TestReductionToActiveBlock:
    def test_zero_set_equals_membership_locus(self):
        # padded target: h within eps of (0, profile) keeps the first
        # component inside the rectangle, so membership reduces to the
        # zeros of the active component
        beta = IDENTITY
        F = ExtremalFunction(beta=beta, d=1, q=1, p=1)
        r0 = 1.0
        eps = min(beta(2.0**-5) / 2.0, r0) / 2.0
        knots = np.linspace(0.0, 1.0, 257)
        base = np.stack([[F([s])[0] for s in knots], [F([s])[1] for s in knots]], axis=-1)
        rng = np.random.default_rng(29)
        h = SampledFunction(grid=(knots,), values=base + rng.uniform(-eps, eps, size=base.shape))
        active = h.component(1)
        comps = zero_components(active)  # exact, from the active block's knot values
        assert count_zero_components(active).component_count == len(comps) >= 2
        # first-block membership holds at zero locations of the active block
        for lo, hi in comps:
            v = h([float((lo + hi) / 2)])
            assert in_flat_target([v[0], 0.0], r0, 1)
        # points with a nonzero active value are not members
        for x in (0.03, 0.2, 0.9):
            v = h([x])
            if v[1] != 0.0:
                assert not in_flat_target(v, r0, 1)


class TestCertifyThroughChart:
    def test_identity_chart_is_invisible(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        assert certify(F, 2.0**-7) == certify(F, 2.0**-7, chart=identity_chart(1))

    def test_identity_chart_empirical(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        h = F.sample(2.0**-8)
        plain = certify(F, 2.0**-7, h=h)
        through = certify(F, 2.0**-7, h=h, chart=identity_chart(1))
        assert plain == through

    def test_transport_preserves_verdict(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        transported = transport_function(identity_chart(1), F)
        assert certify(F, 2.0**-7, h=transported) == certify(F, 2.0**-7, h=F)

    def test_polar_chart_end_to_end(self):
        chart = polar_demo_chart()
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1, p=1)
        f = transport_function(chart, F)
        eps = 2.0**-9  # inflates by lam2/lam1 = 4 to the level-1 band
        cert = certify(F, eps, h=f, chart=chart)
        assert cert.n0 == 1
        assert cert.certified_count == 2
        assert cert.mode == "empirical"
        # theoretical run agrees on the depth and envelope bookkeeping
        theo = certify(F, eps, chart=chart)
        assert theo.n0 == 1 and theo.certified_count == 2
        assert theo.theory_bound <= theo.certified_count

    def test_chart_dimension_mismatch(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        with pytest.raises(DomainError):
            certify(F, 2.0**-7, chart=identity_chart(2))


BUILTIN_CHARTS = {
    "identity": identity_chart(2, r0=0.5),
    "affine": affine_chart([[1.3, 0.7], [-0.2, 0.9]], b=[0.1, -0.3], r0=0.5),  # lam1 != lam2
    "polar": polar_demo_chart(r0=0.5),
}
PADDED = ExtremalFunction(beta=IDENTITY, d=2, q=1, p=1)
NOISE_FREQ = np.array([[13.0, 41.0], [7.5, 60.0]])
NOISE_PHASE = np.array([0.3, 2.0])


def noisy_model(eps, zeroed=(), level=3):
    """The padded extremal map plus noise of size eps, active component 0 on the zeroed level bumps."""
    lev = level_schedule(level)

    def g(x):
        v = PADDED(x) + eps * np.sin(NOISE_FREQ @ x + NOISE_PHASE)
        if math.floor((x[0] - lev.start) / (4 * lev.scale)) in zeroed:
            v[1] = 0.0
        return v

    return g


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def in_blocks(fn, pts, size):
    return np.concatenate([fn(pts[i : i + size]) for i in range(0, len(pts), size)])


class TestBatchedChartPath:
    PTS = np.random.default_rng(31).uniform(0.0, 1.0, size=(4096, 2))

    @pytest.mark.parametrize("name", BUILTIN_CHARTS)
    def test_chart_maps_act_row_by_row(self, name):
        chart = BUILTIN_CHARTS[name]
        # rows in and out of the domain and image, so both mask values occur
        rows = np.random.default_rng(37).uniform(-2.5, 2.5, size=(4096, 2))
        for fn in (chart.phi, chart.phi_inv, chart.in_domain, chart.in_image):
            single = np.array([fn(y) for y in rows])
            for size in (1, 7, 4096):
                assert same_bits(in_blocks(fn, rows, size), single)
        for test in (chart.in_domain, chart.in_image):
            assert test(rows).shape == (4096,) and test(rows).dtype == bool
        if name == "polar":
            assert 0 < chart.in_domain(rows).sum() < 4096 and 0 < chart.in_image(rows).sum() < 4096

    @pytest.mark.parametrize("name", BUILTIN_CHARTS)
    @pytest.mark.parametrize("size", [1, 7, 4096])
    def test_evaluate_many_equals_stacked_points(self, name, size):
        chart = BUILTIN_CHARTS[name]
        f = transport_function(chart, noisy_model(2.0**-12, zeroed=(5, 77)))
        flat, _ = pullback_perturbation(chart, f)
        pts = self.PTS
        assert same_bits(in_blocks(f.evaluate_many, pts, size), [f(x) for x in pts])
        assert same_bits(in_blocks(flat.evaluate_many, pts, size), [flat(x) for x in pts])

    @pytest.mark.parametrize("name", BUILTIN_CHARTS)
    def test_certify_blocks_equal_stacked_points(self, name):
        # every block certify hands the pulled-back evaluator, at 7 points
        # per block, evaluates bit for bit as its points one by one
        chart = BUILTIN_CHARTS[name]
        h = transport_function(chart, noisy_model(2.0**-19 / chart.distortion, zeroed=(5, 77, 300, 511)))
        real, blocks = certifier.evaluate_rows, []

        def checked(ev, pts):
            got = real(ev, pts)
            blocks.append(len(pts))
            assert same_bits(got, [ev(x) for x in pts])
            return got

        with mock.patch.object(certifier, "SCAN_BLOCK_POINTS", 7), \
                mock.patch.object(certifier, "evaluate_rows", checked):
            cert = certify(PADDED, 2.0**-19, h=h, chart=chart, z_grid=3)
        assert max(blocks) == 6  # three q = 1 cubes of two face points
        assert cert == certify(PADDED, 2.0**-19, h=h, chart=chart, z_grid=3)

    def test_transport_escape_names_the_point(self):
        chart = BUILTIN_CHARTS["polar"]
        pts = self.PTS[:32]
        g = lambda x: np.array([100.0, 0.0]) if x[0] == pts[5, 0] else PADDED(x)
        f = transport_function(chart, g)
        f.evaluate_many(pts[:5])
        msg = re.escape(f"lam1*g(x) = (50.0, 0.0) escapes the chart image at x = {tuple(pts[5].tolist())}")
        with pytest.raises(RangeEscapeError, match=msg):
            f.evaluate_many(pts)
        with pytest.raises(RangeEscapeError, match=msg):
            f(pts[5])

    def test_pullback_escape_names_the_point(self):
        chart = BUILTIN_CHARTS["polar"]
        pts = self.PTS[:32]
        h = lambda x: np.array([-1.0, 0.5]) if x[0] in (pts[9, 0], pts[20, 0]) else np.array([1.0, 0.0])
        flat, _ = pullback_perturbation(chart, h)
        flat.evaluate_many(pts[:9])
        msg = re.escape(f"h(x) = (-1.0, 0.5) escapes the chart domain at x = {tuple(pts[9].tolist())}")
        with pytest.raises(RangeEscapeError, match=msg):
            flat.evaluate_many(pts)
        with pytest.raises(RangeEscapeError, match=msg):
            flat(pts[9])

    def test_batched_escape_through_both_layers(self):
        # a transported value outside the image stops the batched pullback too
        chart = BUILTIN_CHARTS["polar"]
        g = lambda x: np.array([0.0, 5.0]) if x[0] == self.PTS[3, 0] else PADDED(x)
        flat, _ = pullback_perturbation(chart, transport_function(chart, g))
        with pytest.raises(RangeEscapeError, match=re.escape(f"at x = {tuple(self.PTS[3].tolist())}")):
            flat.evaluate_many(self.PTS[:8])


# per-level (n, verified, total) of certify through each built-in chart,
# pinned from the per-point chart path
NOISY_COUNTS = ((1, 2, 2), (2, 16, 16), (3, 508, 512))
SAMPLED_COUNTS = ((1, 2, 2), (2, 14, 16))


def counts(cert):
    return tuple((c.n, c.verified, c.total) for c in cert.per_level_counts)


class TestBatchedCertifyThroughCharts:
    @pytest.mark.parametrize("name", BUILTIN_CHARTS)
    def test_noisy_model_counts(self, name):
        chart = BUILTIN_CHARTS[name]
        h = transport_function(chart, noisy_model(2.0**-19 / chart.distortion, zeroed=(5, 77, 300, 511)))
        cert = certify(PADDED, 2.0**-19, h=h, chart=chart, z_grid=3)
        assert counts(cert) == NOISY_COUNTS
        assert (cert.n0, cert.certified_count, cert.paper_bound, cert.mode) == (3, 526, 512, "empirical")
        assert cert.envelope_ok and not cert.vacuous

    @staticmethod
    def sampled(chart):
        """The transported padded map, level-2 bumps 3 and 9 zeroed, sampled on a 4097 x 3 grid."""
        lev = level_schedule(2)

        def g(x):
            v = PADDED(x)
            if math.floor((x[0] - lev.start) / (4 * lev.scale)) in (3, 9):
                v[1] = 0.0
            return v

        grid = (np.linspace(0.0, 1.0, 2**12 + 1), np.linspace(0.0, 1.0, 3))
        knots = np.stack(np.meshgrid(*grid, indexing="ij"), axis=-1).reshape(-1, 2)  # knot tuples, lexicographic
        return SampledFunction(grid=grid, values=transport_function(chart, g).evaluate_many(knots).reshape(2**12 + 1, 3, -1))

    @pytest.mark.parametrize("name", BUILTIN_CHARTS)
    def test_sampled_h_is_only_batched(self, name):
        chart = BUILTIN_CHARTS[name]
        base, batches = self.sampled(chart), []

        class Batched:
            def evaluate_many(self, pts):
                batches.append(len(pts))
                return base.evaluate_many(pts)

            def __call__(self, x):
                pytest.fail("single-point call on an evaluator with evaluate_many")

        cert = certify(PADDED, 2.0**-15, h=Batched(), chart=chart, z_grid=2)
        assert counts(cert) == SAMPLED_COUNTS
        assert cert.certified_count == 16 and cert.envelope_ok
        # two slices, each one block over levels 1 and 2 (2 + 16 cubes of 2
        # points); the second skips the 2 level-2 cubes the first rejected
        assert batches == [36, 32]
        assert cert == certify(PADDED, 2.0**-15, h=base, chart=chart, z_grid=2)
        batches.clear()
        with mock.patch.object(certifier, "SCAN_BLOCK_POINTS", 7):
            assert certify(PADDED, 2.0**-15, h=Batched(), chart=chart, z_grid=2) == cert
        # 3 cubes a block: level 1's 2 cubes share the first block with level 2's first
        assert batches == [6] * 6 + [6] * 5 + [2]

    @pytest.mark.parametrize("name", BUILTIN_CHARTS)
    def test_one_evaluator_call_per_slice_at_the_certify_chart_shape(self, name):
        # n0 = 3 at z_grid = 4: each slice is one block over all three levels
        # (2 + 16 + 512 cubes of 2 points), and the 4 cubes on the zeroed
        # level-3 bumps fail on the first slice and are not asked for again
        chart = BUILTIN_CHARTS[name]
        h = transport_function(chart, noisy_model(2.0**-19 / chart.distortion, zeroed=(5, 77, 300, 511)))
        real, blocks = certifier.evaluate_rows, []
        with mock.patch.object(certifier, "evaluate_rows", lambda h, pts: blocks.append(len(pts)) or real(h, pts)):
            cert = certify(PADDED, 2.0**-19, h=h, chart=chart, z_grid=4)
        assert counts(cert) == NOISY_COUNTS
        assert blocks == [1060, 1052, 1052, 1052]
