import math
import re
import tracemalloc

import numpy as np
import pytest

from translab import (
    DomainError,
    EnumerationCapError,
    ExtremalFunction,
    ModulusSpec,
    SampledFunction,
    certify,
    count_zero_components,
    flatten_perturbation,
    improvement_envelope,
    iterate_improvement,
    nudge_knot_zeros,
    profile,
    refine_interpolant,
    sup_distance,
    theory_upper_curve,
)
from translab import adversary
from translab.adversary import flatten_arrays

from closed_form import upper_curve_log2
from flatten_oracle import flatten_perturbation as flatten_oracle
from zero_oracle import zero_components

IDENTITY = ModulusSpec.power(1.0, 1.0)


def scalar_extremal():
    return ExtremalFunction(beta=IDENTITY, d=1, q=1).as_scalar()


def distance_to(f, h):
    """Sup distance between h and f sampled on h's knot grid (exact there)."""
    ref = SampledFunction(
        grid=h.grid, values=np.array([float(f(x)) for x in h.grid[0]])[:, None]
    )
    return sup_distance(h, ref)


def wave(s):
    return np.sin(2.0 * math.pi * 8.0 * s) / 4.0


def scan_point_by_point(f, a, b, step):
    """Reference interval scan: sampled max |f|, one point at a time."""
    return max(abs(float(f(x))) for x in np.append(np.arange(a, b, step), b))


def flatten_point_by_point(f, eps, C):
    """Reference flatten: breakpoints emitted one by one, the first value at a point wins."""
    cuts = np.linspace(0.0, 1.0, math.ceil(C / (3.0 * eps)) + 1)
    step = eps / 64.0
    xs, vs = [], []

    def emit(x, v):
        if not xs or x > xs[-1]:
            xs.append(x)
            vs.append(v)

    for a, b in zip(cuts[:-1], cuts[1:]):
        peak = scan_point_by_point(f, a, b, step)
        fa, fb = float(f(a)), float(f(b))
        if peak <= eps / 2.0 - step / 2.0:
            for x, v in ((a, fa), (a - fa + eps / 2.0, eps / 2.0), (b + fb - eps / 2.0, eps / 2.0), (b, fb)):
                emit(x, v)
        else:
            for x in np.linspace(a, b, math.ceil(3.0 / C) + 1):
                emit(float(x), float(f(x)))
    return np.array(xs), np.array(vs)


PARTITIONS = [(6, 1.0), (7, 0.25), (8, 1.0)]  # (j, C) of the oracle comparisons


def partition_cuts(j, C):
    return np.linspace(0.0, 1.0, math.ceil(C / (3.0 * 2.0**-j)) + 1)


def lift_threshold(eps):
    return eps / 2.0 - eps / 128.0


def at_points(table):
    """Array callable equal to table[x] at the listed points and zero elsewhere."""
    keys = np.array(sorted(table))
    vals = np.array([table[k] for k in keys])

    def f(s):
        s = np.asarray(s, dtype=float)
        i = np.clip(np.searchsorted(keys, s), 0, len(keys) - 1)
        return np.where(keys[i] == s, vals[i], 0.0)

    return f


def interior_spikes(s):
    """Tents of height 1/4 centred in one interval of each partition, clear of its cuts."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    for j, C in PARTITIONS:
        cuts = partition_cuts(j, C)
        centre, width = (cuts[5] + cuts[6]) / 2.0, (cuts[1] - cuts[0]) / 4.0
        out = out + np.maximum(0.0, 0.25 * (1.0 - np.abs(s - centre) / width))
    return out


def threshold_at_cuts():
    """|f| equal to the lift threshold at the partition points, alternating in sign; zero elsewhere.

    A point shared by several partitions takes the finest partition's threshold.
    """
    table = {}
    for j, C in sorted(PARTITIONS):
        for k, x in enumerate(partition_cuts(j, C)):
            table[x] = (-1.0) ** k * lift_threshold(2.0**-j)
    return at_points(table)


class TestBlockedScans:
    """The array scans reproduce the point-by-point constructions exactly."""

    # (array callable, the same function one point at a time)
    TARGETS = {
        "extremal": (scalar_extremal(), lambda s: profile(IDENTITY, s)),
        "zero": (lambda s: 0.0, lambda s: 0.0),
        "wave": (wave, wave),
        "interior_spike": (interior_spikes, interior_spikes),
        "threshold_cuts": (threshold_at_cuts(), threshold_at_cuts()),
    }

    @pytest.mark.parametrize("block", [7, 2**15])
    @pytest.mark.parametrize("target", sorted(TARGETS))
    @pytest.mark.parametrize("j,C", PARTITIONS)
    def test_flatten_and_peaks(self, monkeypatch, block, target, j, C):
        # "peaks": the sampled interval maxima that classify flatten's intervals
        monkeypatch.setattr(adversary, "SCAN_BLOCK_POINTS", block)
        (f, f_point), eps = self.TARGETS[target], 2.0**-j
        h = flatten_perturbation(f, eps, C)
        xs, vs = flatten_point_by_point(f_point, eps, C)
        # bit for bit, so -0.0 differs from 0.0
        assert np.array_equal(h.grid[0].view(np.int64), xs.view(np.int64))
        assert np.array_equal(h.values[:, 0].view(np.int64), vs.view(np.int64))


class TestScanPruning:
    """Flatten scans only the intervals whose endpoint values can still lift."""

    def test_points_seen_at_j10(self):
        # the full 64/eps scan of every interval showed F 67 377 points here;
        # the 257 re-interpolated intervals reuse their two end values, and
        # the 85 scanned ones theirs too (17 262 points when the scan took them)
        f, seen = scalar_extremal(), []
        flatten_perturbation(lambda xs: seen.append(len(xs)) or f(xs), 2.0**-10, 1.0)
        assert sum(seen) == 17092

    @pytest.mark.parametrize("block", [7, 2**15])
    @pytest.mark.parametrize("target", ["extremal", "interior_spike"])
    def test_no_scan_inside_rejected_intervals(self, monkeypatch, block, target):
        monkeypatch.setattr(adversary, "SCAN_BLOCK_POINTS", block)
        f, j, C = TestBlockedScans.TARGETS[target][0], 8, 1.0
        eps = 2.0**-j
        blocks = []

        def recorded(stage):
            # the scan, and the probe that settles rejections before it
            def run(g, *args):
                return stage(lambda xs: blocks.append(xs.copy()) or g(xs), *args)

            return run

        monkeypatch.setattr(adversary, "_scan", recorded(adversary._scan))
        monkeypatch.setattr(adversary, "_probe", recorded(adversary._probe))
        flatten_perturbation(f, eps, C)
        cuts = partition_cuts(j, C)
        fc = np.abs(f(cuts))
        rejected = np.maximum(fc[:-1], fc[1:]) > lift_threshold(eps)
        assert blocks and rejected.any()
        pts = np.concatenate(blocks)
        k = np.searchsorted(cuts, pts)  # pts[i] in (cuts[k-1], cuts[k]]
        interior = cuts[k] != pts
        assert not rejected[k[interior] - 1].any()


def without_bound(f):
    """f with its ``sup_from`` stripped: flatten scans every candidate interval, the full-scan oracle."""
    return lambda s: f(s)


def counting(f, seen):
    """f recording the length of each array it is called on, keeping f's ``sup_from`` if it has one."""

    def g(xs):
        seen.append(len(xs))
        return f(xs)

    if hasattr(f, "sup_from"):
        g.sup_from = f.sup_from
    return g


# The moduli whose as_scalar callable carries the hints: alpha = 1, with
# F 1-Lipschitz for lambda <= 2 and not for lambda = 8.
BOUND_MODULI = [ModulusSpec.power(lam, 1.0) for lam in (0.5, 1.0, 2.0, 8.0)]


class TestBoundPruning:
    """Intervals settled by the extremal profile's level bound give the full scan's result."""

    @pytest.mark.parametrize("beta", BOUND_MODULI, ids=repr)
    def test_bit_identical_to_full_scan(self, beta):
        f = ExtremalFunction(beta=beta, d=1, q=1).as_scalar()
        saved = 0
        for j in range(6, 17):
            pruned, full = [], []
            h = flatten_perturbation(counting(f, pruned), 2.0**-j, 1.0)
            ref = flatten_perturbation(counting(without_bound(f), full), 2.0**-j, 1.0)
            assert np.array_equal(h.grid[0].view(np.uint64), ref.grid[0].view(np.uint64))
            assert np.array_equal(h.values.view(np.uint64), ref.values.view(np.uint64))
            saved += sum(full) - sum(pruned)
        assert saved > 0  # the bound settled some intervals

    def test_points_sent_to_f_at_j14(self):
        # alpha = lambda = 1: partition, scan and re-interpolation points,
        # the last only inside the 4779 re-interpolated intervals; the scan
        # sends no partition point, which saved 2 of each interval's samples
        f, pruned, full = scalar_extremal(), [], []
        flatten_perturbation(counting(f, pruned), 2.0**-14, 1.0)
        flatten_perturbation(counting(without_bound(f), full), 2.0**-14, 1.0)
        assert sum(pruned) == 145474  # 683 intervals scanned, 146 840 points with their ends
        assert sum(full) == 275736  # every candidate interval scanned: 1365, 278 466 points with their ends

    def test_flatten_zero_counts_at_j15_to_18(self):
        # pinned before the bound existed; refine reaches 1060 here, so the
        # sweep's adversary_ub does not show flatten's counts
        f = scalar_extremal()
        counts = [count_zero_components(flatten_perturbation(f, 2.0**-j, 1.0)).h0 for j in range(15, 19)]
        assert counts == [2768, 3793, 9251, 17444]

    def test_flatten_zero_count_at_lambda_half(self):
        # two pairs of the lift's sign changes sit on either side of a knot
        # value of -5.6e-17 between two of 1.9e-6: each pair's float roots
        # round onto that knot, but the two zeros are apart
        f = ExtremalFunction(beta=ModulusSpec.power(0.5, 1.0), d=1, q=1).as_scalar()
        assert count_zero_components(flatten_perturbation(f, 2.0**-18, 1.0)).h0 == 17444


def same_output(h, ref):
    return np.array_equal(h.grid[0].view(np.uint64), ref.grid[0].view(np.uint64)) and np.array_equal(
        h.values.view(np.uint64), ref.values.view(np.uint64)
    )


def same_lift(pair, ref):
    """A (breakpoints, values) pair of flatten_arrays holds ref's knots and values bit for bit."""
    x, v = pair
    return x.ndim == v.ndim == 1 and np.array_equal(x.view(np.uint64), ref.grid[0].view(np.uint64)) and np.array_equal(
        v.view(np.uint64), ref.values[:, 0].view(np.uint64)
    )


def recording(f, points, **attrs):
    """f recording every point it is called on, carrying the given attributes and no others."""

    def g(xs):
        points.append(xs.copy())
        return f(xs)

    for name, value in attrs.items():
        setattr(g, name, value)
    return g


def wrong_hints():
    rng = np.random.default_rng(2024)
    return {
        "nan": lambda s: np.full(np.shape(s), math.nan),
        "zero": lambda s: np.zeros(np.shape(s)),
        "one": lambda s: 1.0,
        "left_of_a": lambda s: s - 1.0,
        "right_of_b": lambda s: s + 0.5,
        "inf": lambda s: np.full(np.shape(s), math.inf),
        "minus_inf": lambda s: np.full(np.shape(s), -math.inf),
        "random": lambda s: rng.uniform(-2.0, 3.0, size=np.shape(s)),
        "random_bits": lambda s: rng.integers(0, 2**63, size=np.shape(s)).view(np.float64),
    }


class TestPeakProbe:
    """Rejections settled by probing the scan samples next to ``peak_from`` give the full scan's result."""

    @pytest.mark.parametrize("beta", BOUND_MODULI, ids=repr)
    def test_bit_identical_to_full_scan(self, beta):
        # a probe costs two points at most
        f = ExtremalFunction(beta=beta, d=1, q=1).as_scalar()
        for C in (1.0, 0.25):
            for j in range(6, 17):
                probed, bounded = [], []
                h = flatten_perturbation(recording(f, probed, sup_from=f.sup_from, peak_from=f.peak_from), 2.0**-j, C)
                ref = flatten_perturbation(without_bound(f), 2.0**-j, C)
                assert same_output(h, ref)
                flatten_perturbation(counting(f, bounded), 2.0**-j, C)
                assert sum(map(len, probed)) <= sum(bounded) + 2 * (len(partition_cuts(j, C)) - 1)

    @pytest.mark.parametrize("hint", sorted(wrong_hints()))
    @pytest.mark.parametrize("beta", [IDENTITY, ModulusSpec.power(2.0, 1.0), ModulusSpec.power(8.0, 1.0)], ids=repr)
    def test_wrong_hints_change_nothing(self, hint, beta):
        # every point f sees is one the full scan sends it too
        f, peak_from = ExtremalFunction(beta=beta, d=1, q=1).as_scalar(), wrong_hints()[hint]
        for C in (1.0, 0.25):
            for j in range(6, 14):
                points, full = [], []
                h = flatten_perturbation(recording(f, points, sup_from=f.sup_from, peak_from=peak_from), 2.0**-j, C)
                ref = flatten_perturbation(recording(f, full), 2.0**-j, C)
                assert same_output(h, ref)
                seen, every = np.concatenate(points), np.concatenate(full)
                assert np.isin(seen.view(np.uint64), every.view(np.uint64)).all()

    def test_points_sent_to_f_at_j14(self):
        # alpha = lambda = 1: the level bound left 683 intervals to scan, 682
        # of them rejected; probing settles those, and one lifted one is
        # scanned at its interior samples (16 580 points with its two ends)
        f, probed = scalar_extremal(), []
        flatten_perturbation(recording(f, probed, sup_from=f.sup_from, peak_from=f.peak_from), 2.0**-14, 1.0)
        assert sum(map(len, probed)) == 16578

    def test_probe_points_are_scan_samples(self):
        # hints at, between and beyond the samples, NaN and infinities: the
        # probe sends f only points of the interval's own scan
        cuts, step = partition_cuts(9, 0.25), 2.0**-9 / 64.0
        a, b = cuts[:-1], cuts[1:]
        rng = np.random.default_rng(5)
        for hint in (a, b, a - 1.0, b + 1.0, np.nextafter(b, 0.0), rng.uniform(a, b), math.nan, math.inf, -math.inf):
            seen = []
            adversary._probe(lambda xs: seen.append(xs.copy()) or xs, a, b, step, hint)
            pts = seen[0].reshape(len(a), 2)
            for k in range(len(a)):
                samples = np.append(np.arange(a[k], b[k], step), b[k])
                assert np.isin(pts[k].view(np.uint64), samples.view(np.uint64)).all()


class TestMeshCap:
    """Layouts past MESH_CAP are refused before f is called or any array is built."""

    @staticmethod
    def untouchable(s):
        raise AssertionError("f was called")

    @staticmethod
    def refused_lightly(call, match):
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapError, match=match):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # no mesh-sized array was built

    @pytest.mark.parametrize("j", [23, 40])
    def test_refine(self, j):
        cells = f"{4 * 2**j:.15g}"
        self.refused_lightly(
            lambda: refine_interpolant(self.untouchable, 2.0**-j),
            rf"refine_interpolant at eps = {2.0**-j!r} needs {cells} cells, over the cap of 16777216",
        )

    @pytest.mark.parametrize("j,C", [(24, 1.0), (40, 1.0), (27, 2.0**-24)])
    def test_flatten(self, j, C):
        self.refused_lightly(
            lambda: flatten_perturbation(self.untouchable, 2.0**-j, C),
            rf"flatten_perturbation at eps = {2.0**-j!r}, C = {C!r} needs \d+ cells, over the cap",
        )

    def test_subnormal_inputs(self):
        self.refused_lightly(lambda: refine_interpolant(self.untouchable, 5e-324), "needs inf cells")
        self.refused_lightly(lambda: flatten_perturbation(self.untouchable, 5e-324, 1.0), "needs inf cells")
        self.refused_lightly(lambda: flatten_perturbation(self.untouchable, 1e-301, 1e-300), r"needs \S+e\+301 cells")

    @pytest.mark.parametrize(
        "rounds,finest,cells",
        [(10, 2.0**-24, "67108864"), (40, 2.0**-84, f"{2.0**86:.15g}"), (535, 5e-324, "inf"), (10**9, 0.0, "inf")],
    )
    def test_iterate_refuses_the_finest_round_up_front(self, rounds, finest, cells):
        # round 10 from eps0 = 2**-6 re-interpolates at 2**-24: 2**26 cells;
        # round 535 at the least subnormal, and the scale underflows to 0 after it
        self.refused_lightly(
            lambda: iterate_improvement(self.untouchable, 2.0**-6, 1.0, rounds),
            re.escape(f"iterate_improvement's round {rounds} at eps = {finest!r} needs {cells} cells, over the cap"),
        )

    def test_iterate_checks_before_the_first_round(self, monkeypatch):
        # with a cap of 2**10 the third round's 4096 cells are refused before
        # f sees the first round's 257 knots; a cap of 4096 runs all three
        monkeypatch.setattr(adversary, "MESH_CAP", 2**10)
        with pytest.raises(EnumerationCapError, match="round 3 at eps = 0.0009765625 needs 4096 cells"):
            iterate_improvement(self.untouchable, 2.0**-6, 1.0, 3)
        monkeypatch.setattr(adversary, "MESH_CAP", 2**12)
        assert [eps for eps, _ in iterate_improvement(wave, 2.0**-6, 1.0, 3)] == [2.0**-8, 2.0**-10, 2.0**-12]

    def test_largest_accepted_layouts(self):
        # the cap is inclusive: refine at eps = 2**-22 has exactly MESH_CAP cells,
        # and flatten at j = 23, C = 1 lays out ceil(2**23/3) * 4 cells, under it
        assert adversary.MESH_CAP == 4 * 2**22
        adversary._check_cap(float(adversary.MESH_CAP), "refine")
        assert math.ceil(2.0**23 / 3.0) * 4 <= adversary.MESH_CAP


def repeat_scan_blocks(a, b, step, block):
    """The scan's blocks of interior points built with np.repeat and gathers, kept as the reference."""
    inner = np.maximum(np.ceil((b - a) / step) - 1.0, 0.0).astype(np.int64)  # arange's samples after a
    delta = (a + step) - a
    ends = np.cumsum(inner)
    blocks, lo = [], 0
    while lo < len(a):
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + block, side="right")))
        cnt = inner[lo:hi]
        first = ends[lo:hi] - cnt - base  # block offset of each interval's first interior point
        owner = np.repeat(np.arange(hi - lo), cnt)
        blocks.append(a[lo:hi][owner] + (np.arange(len(owner)) - first[owner] + 1) * delta[lo:hi][owner])
        lo = hi
    return blocks


@pytest.mark.parametrize("block", [7, 2**15])
@pytest.mark.parametrize("C", [1.0, 0.25])
@pytest.mark.parametrize("j", range(6, 13))
def test_scan_blocks_match_repeat_oracle(monkeypatch, block, C, j):
    # every interval, and every third one dropped as flatten's pruning drops some
    monkeypatch.setattr(adversary, "SCAN_BLOCK_POINTS", block)
    cuts, step = partition_cuts(j, C), 2.0**-j / 64.0
    for keep in (slice(None), np.arange(len(cuts) - 1) % 3 != 0):
        a, b, seen = cuts[:-1][keep], cuts[1:][keep], []
        adversary._scan(lambda xs: seen.append(xs.copy()) or xs, a, b, step)
        want = repeat_scan_blocks(a, b, step, block)
        assert len(seen) == len(want)
        for got, ref in zip(seen, want):
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_scan_points_follow_arange():
    # a + step rounds here, so numpy's arange steps by (a + step) - a, not step
    cuts, step = np.array([0.0, 0.5 - 2.0**-54, 0.75, 1.0]), 2.0**-10
    seen = []
    adversary._scan(lambda xs: seen.append(xs.copy()) or xs, cuts[:-1], cuts[1:], step)
    want = [np.arange(a, b, step)[1:] for a, b in zip(cuts[:-1], cuts[1:])]  # the interior samples
    assert np.array_equal(np.concatenate(seen), np.concatenate(want))


@pytest.mark.parametrize("block", [1, 3, 2**15])
def test_scan_intervals_without_interior_samples(monkeypatch, block):
    # a point, one step, a step and a bit, and a long interval: f sees only
    # samples strictly after a, and an interval with none reads 0
    monkeypatch.setattr(adversary, "SCAN_BLOCK_POINTS", block)
    step = 2.0**-8
    a = np.array([0.25, 0.25, 0.5, 0.0, 0.75, 0.75])
    b = np.array([0.25, 0.25 + step, 0.5 + 1.5 * step, 0.125, 0.75 + step / 2, 1.0])
    f, seen = lambda xs: np.cos(xs), []
    peak = adversary._scan(lambda xs: seen.append(xs.copy()) or f(xs), a, b, step)
    inner = [np.arange(lo, hi, step)[1:] for lo, hi in zip(a, b)]
    want = [np.abs(f(xs)).max() if len(xs) else 0.0 for xs in inner]
    assert [len(xs) for xs in inner] == [0, 0, 1, 31, 0, 63]
    assert np.array_equal(peak, want)
    assert np.array_equal(np.concatenate(seen), np.concatenate(inner))
    calls = []
    assert not adversary._scan(lambda xs: calls.append(xs) or xs, a[[0, 1, 4]], b[[0, 1, 4]], step).any()
    assert calls == []  # no interior sample anywhere: f is not called


class TestNonFiniteTarget:
    """A NaN or infinite target value is refused, naming the first point that gave it."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["cut", "interior"])
    def test_flatten_refuses(self, bad, where):
        # f is 0 except at one point, so every interval is scanned; a cut
        # point is read in the partition pass, an interior one in the scan
        eps, C = 2.0**-6, 1.0
        x = partition_cuts(6, C)[3] if where == "cut" else 0.5 + eps / 64.0
        with pytest.raises(DomainError, match=rf"got {bad} at {x}$"):
            flatten_perturbation(at_points({x: bad}), eps, C)

    def test_refine_refuses(self):
        # NaN at 0.75, then +inf at 1.0; the first one is named
        f = at_points({0.75: math.nan, 1.0: math.inf})
        with pytest.raises(DomainError, match=r"got nan at 0.75$"):
            refine_interpolant(f, 0.25)

    def test_iterate_refuses_constant_nan(self):
        with pytest.raises(DomainError, match=r"got nan at 0.0$"):
            iterate_improvement(lambda s: math.nan, 2.0**-4, 1.0, 1)


class TestFlatten:
    def test_constant_at_plateau_level(self):
        eps = 2.0**-6
        h = flatten_perturbation(lambda s: eps / 2.0, eps, 1.0)
        assert np.allclose(h.values, eps / 2.0)
        assert count_zero_components(h).component_count == 0
        assert distance_to(lambda s: eps / 2.0, h) == 0.0

    def test_zero_function_touching_zeros(self):
        # every interval lifts: the ramp leaves 0 at each partition point,
        # including both endpoints of [0,1]; K0 = 22 intervals -> 23 zeros
        eps = 2.0**-6
        h = flatten_perturbation(lambda s: 0.0, eps, 1.0)
        summary = count_zero_components(h)
        assert summary.component_count == 23
        assert not summary.has_flat_zero_interval
        assert distance_to(lambda s: 0.0, h) == pytest.approx(eps / 2.0, abs=1e-15)

    def test_extremal_counts_and_sandwich(self):
        eps, C = 2.0**-7, 0.25
        f = scalar_extremal()
        h = flatten_perturbation(f, eps, C)
        count = count_zero_components(h).component_count
        k0 = math.ceil(C / (3.0 * eps))
        k1 = math.ceil(3.0 / C)
        assert 2 <= count <= k0 * max(2, k1 + 1)

    @pytest.mark.parametrize("j", [6, 7, 8])
    def test_distance_contract(self, j):
        eps = 2.0**-j
        f = scalar_extremal()
        h = flatten_perturbation(f, eps, 1.0)
        assert distance_to(f, h) <= eps + 1e-12

    def test_per_interval_zero_budgets(self):
        eps, C = 2.0**-7, 0.25
        f = scalar_extremal()
        h = flatten_perturbation(f, eps, C)
        comps = zero_components(h)
        k0 = math.ceil(C / (3.0 * eps))
        cuts = np.linspace(0.0, 1.0, k0 + 1)
        step = eps / 64.0
        k1 = math.ceil(3.0 / C)
        for a, b in zip(cuts[:-1], cuts[1:]):
            xs = np.append(np.arange(a, b, step), b)
            lifted = max(abs(f(x)) for x in xs) <= eps / 2.0 - step / 2.0
            budget = 2 if lifted else k1 + 1
            inside = sum(1 for lo, hi in comps if hi >= a and lo <= b)
            assert inside <= budget

    @pytest.mark.parametrize("C", [1.0, 0.75, 0.25, 2.0**-10])
    def test_mesh_ends_are_the_partition_points(self, C):
        # flatten reuses the partition values at the re-interpolation mesh's
        # ends, which linspace sets to a and b exactly
        for j in range(6, 17):
            if 2.0**-j > C / 6.0:  # outside flatten's budget range
                continue
            cuts = partition_cuts(j, C)
            mesh = np.linspace(cuts[:-1], cuts[1:], math.ceil(3.0 / C) + 1, axis=1)
            assert np.array_equal(mesh[:, 0].view(np.uint64), cuts[:-1].view(np.uint64))
            assert np.array_equal(mesh[:, -1].view(np.uint64), cuts[1:].view(np.uint64))

    def test_re_interpolation_sends_f_only_interior_points(self):
        # wave's intervals are all re-interpolated at j = 6: its last call
        # holds the k1 - 1 = 2 interior points of each of the 22 intervals
        points = []
        flatten_perturbation(recording(wave, points), 2.0**-6, 1.0)
        cuts = partition_cuts(6, 1.0)
        assert len(points[-1]) == 2 * (len(cuts) - 1)
        assert not np.isin(points[-1], cuts).any()

    def test_budget_validation(self):
        f = scalar_extremal()
        with pytest.raises(DomainError):
            flatten_perturbation(f, 0.3, 1.0)  # eps > C/6
        with pytest.raises(DomainError):
            flatten_perturbation(f, 0.01, 1.5)
        with pytest.raises(DomainError):
            flatten_perturbation(f, 0.0, 1.0)


ORACLE_MODULI = [ModulusSpec.power(lam, alpha) for alpha in (0.25, 0.5, 0.75, 1.0) for lam in (1.0, 2.0, 8.0)]


class TestFlattenArrays:
    """flatten_arrays builds, per budget, bit for bit the lift flatten built one budget at a time."""

    @staticmethod
    def untouchable(s):
        raise AssertionError("f was called")

    @pytest.mark.parametrize("beta", ORACLE_MODULI, ids=repr)
    @pytest.mark.parametrize("C", [1.0, 0.5, 0.3])
    def test_matches_the_per_budget_oracle(self, beta, C):
        # j = 3..16 where eps <= C/6: the list splits into groups, and
        # flatten_perturbation is flatten_arrays at a list of one budget;
        # below alpha = 1 f carries no hints, and both sides scan in full
        f = ExtremalFunction(beta=beta, d=1, q=1).as_scalar()
        budgets = [2.0**-j for j in range(3, 17) if 2.0**-j <= C / 6.0]
        for pair, eps in zip(flatten_arrays(f, budgets, C), budgets, strict=True):
            ref = flatten_oracle(f, eps, C)
            assert same_lift(pair, ref)
            assert same_output(flatten_perturbation(f, eps, C), ref)

    @pytest.mark.parametrize("f", [ExtremalFunction(beta=beta, d=1, q=1).as_scalar() for beta in ORACLE_MODULI] + [wave, interior_spikes])
    def test_matches_the_per_budget_oracle_where_rows_are_mostly_padding(self, f):
        # C = 0.01: k1 = 300, so a lifted row holds a, two ramp ends and b,
        # then 297 copies of b that only the row-local rule drops
        budgets = [2.0**-j for j in range(10, 17)]
        for pair, eps in zip(flatten_arrays(f, budgets, 0.01), budgets, strict=True):
            assert same_lift(pair, flatten_oracle(f, eps, 0.01))

    @pytest.mark.parametrize("js", [[10, 6, 10, 8, 8], [14, 13, 12, 6, 7], [9]])
    def test_any_order_and_repeats(self, js):
        for f in (scalar_extremal(), wave, interior_spikes):
            lifts = list(flatten_arrays(f, [2.0**-j for j in js], 1.0))
            assert len(lifts) == len(js)
            for pair, j in zip(lifts, js):
                assert same_lift(pair, flatten_oracle(f, 2.0**-j, 1.0))

    @pytest.mark.parametrize(
        "js,groups",
        [
            (range(6, 15), [list(range(6, 15))]),  # 10 906 intervals, under SCAN_BLOCK_POINTS
            (range(14, 5, -1), [list(range(14, 5, -1))]),
            ([8, 8, 8], [[8, 8, 8]]),
            ([9, 6, 6, 6, 8], [[9, 6, 6, 6, 8]]),
            (range(6, 18), [list(range(6, 17)), [17]]),  # 43 675 intervals, then 43 691: past 2**15 the largest budget bounds a group
        ],
    )
    def test_groups_hold_no_more_intervals_than_the_largest_budget(self, monkeypatch, js, groups):
        seen, lift_table = [], adversary._lift_table
        monkeypatch.setattr(adversary, "_lift_table", lambda f, b, C: seen.append(b) or lift_table(f, b, C))
        list(flatten_arrays(wave, [2.0**-j for j in js], 1.0))
        assert seen == [[2.0**-j for j in g] for g in groups]

    def test_small_c_tables_stay_within_the_mesh_cap(self, monkeypatch):
        # at C = 0.001 a row holds k1 + 1 = 3001 breakpoints, so MESH_CAP
        # holds 5590 rows, fewer than SCAN_BLOCK_POINTS: j = 13..23 has 5595
        # intervals and splits before its last budget; no table is built
        seen, C = [], 0.001
        monkeypatch.setattr(adversary, "_lift_table", lambda f, b, C: seen.append(b) or [])
        list(flatten_arrays(self.untouchable, [2.0**-j for j in range(13, 24)], C))
        assert seen == [[2.0**-j for j in range(13, 23)], [2.0**-23]]
        for group in seen:
            assert sum(math.ceil(C / (3.0 * eps)) for eps in group) * 3001 <= adversary.MESH_CAP

    def test_one_call_of_f_per_stage_per_group(self):
        # j = 6..14 at alpha = lambda = 1 is one group: partition points,
        # probes, scan and re-interpolation points, one call each; the
        # per-budget flatten sent the same points in 27 calls
        f, points, old = scalar_extremal(), [], []
        probing = recording(f, points, sup_from=f.sup_from, peak_from=f.peak_from)
        list(flatten_arrays(probing, [2.0**-j for j in range(6, 15)], 1.0))
        assert [len(p) for p in points] == [10915, 1438, 764, 17694]
        for j in range(6, 15):
            flatten_oracle(recording(f, old, sup_from=f.sup_from, peak_from=f.peak_from), 2.0**-j, 1.0)
        assert (len(old), sum(map(len, old))) == (27, sum(map(len, points)))
        assert np.array_equal(np.sort(np.concatenate(points)), np.sort(np.concatenate(old)))

    def test_each_group_is_built_at_its_first_budget(self):
        points = []
        lifts = flatten_arrays(recording(wave, points), [2.0**-j for j in range(6, 15)], 1.0)
        assert points == []
        next(lifts)  # row 6 builds all nine rows
        built = len(points)
        assert built > 0
        for _ in range(8):  # rows 7..14
            next(lifts)
        assert len(points) == built
        assert next(lifts, None) is None

    @pytest.mark.parametrize(
        "budgets,C,error,match",
        [
            ([2.0**-6, 2.0**-8, 0.3], 1.0, DomainError, r"eps <= C/6"),
            ([2.0**-6, 0.0], 1.0, DomainError, r"eps <= C/6"),
            ([2.0**-6, math.nan], 1.0, DomainError, r"eps <= C/6"),
            ([2.0**-6], 1.5, DomainError, r"C in \(0, 1\]"),
            ([2.0**-6, 2.0**-40, 0.3], 1.0, EnumerationCapError, r"eps = 9.094947017729282e-13, C = 1.0 needs"),
            ([2.0**-6, 5e-324], 1.0, EnumerationCapError, "needs inf cells"),
        ],
    )
    def test_every_budget_is_checked_before_f_is_called(self, budgets, C, error, match):
        with pytest.raises(error, match=match):
            flatten_arrays(self.untouchable, budgets, C)  # raised by the call, not by the first lift

    def test_no_budget_calls_nothing(self):
        assert list(flatten_arrays(self.untouchable, [], 1.0)) == []

    @pytest.mark.parametrize("C", [1.0, 0.3])
    def test_arrays_are_the_lifts_knots_and_values(self, C):
        # flatten_perturbation wraps flatten_arrays' pair; the sweep counts the bare values
        f, budgets = scalar_extremal(), [2.0**-j for j in range(6, 15)]
        for (x, v), eps in zip(flatten_arrays(f, budgets, C), budgets, strict=True):
            h = flatten_perturbation(f, eps, C)
            assert x.ndim == v.ndim == 1
            assert np.array_equal(x.view(np.uint64), h.grid[0].view(np.uint64))
            assert np.array_equal(v.view(np.uint64), h.values[:, 0].view(np.uint64))


class TestRefine:
    def test_linear_function_is_reproduced(self):
        g = refine_interpolant(lambda s: s - 0.3, 1.0)
        assert len(g.grid[0]) == 5
        assert count_zero_components(g).component_count == 1
        assert distance_to(lambda s: s - 0.3, g) == 0.0

    def test_constant_far_from_zero(self):
        g = refine_interpolant(lambda s: 1.0, 0.25)
        assert count_zero_components(g).component_count == 0
        assert distance_to(lambda s: 1.0, g) == 0.0

    @pytest.mark.parametrize("j", [6, 7, 8])
    def test_distance_contract(self, j):
        eps = 2.0**-j
        f = scalar_extremal()
        g = refine_interpolant(f, eps)
        assert distance_to(f, g) <= eps / 4.0 + 2e-12

    def test_no_knot_zeros_after_nudge(self):
        g = refine_interpolant(scalar_extremal(), 2.0**-6)
        assert np.all(np.abs(g.values) >= 1e-12)
        assert not count_zero_components(g).has_flat_zero_interval

    @staticmethod
    def peak_cells(f, eps):
        """Mesh cells of refine_interpolant(f, eps) holding a sampled point where |f| > eps/2."""
        ys = np.linspace(0.0, 1.0, 2**14 + 1)
        k_eps = math.ceil(4.0 / eps)
        cells = np.minimum(np.floor(ys[np.abs(f(ys)) > eps / 2.0] * k_eps), k_eps - 1)
        return [(c / k_eps, (c + 1) / k_eps) for c in np.unique(cells)]

    def test_count_stays_below_mesh_minus_peaks(self):
        eps = 2.0**-7
        f = scalar_extremal()
        cells = self.peak_cells(f, eps)
        assert cells
        g = refine_interpolant(f, eps)
        assert count_zero_components(g).component_count <= math.ceil(4.0 / eps) - len(cells)

    def test_peak_cells_are_zero_free(self):
        eps = 2.0**-7
        f = scalar_extremal()
        cells = self.peak_cells(f, eps)
        assert cells
        comps = zero_components(refine_interpolant(f, eps))
        for lo, hi in cells:
            assert not any(c_hi >= lo and c_lo <= hi for c_lo, c_hi in comps)

    @pytest.mark.parametrize(
        "f", [scalar_extremal(), wave, lambda s: s - 0.5, lambda s: 0.0], ids=["extremal", "wave", "line", "zero"]
    )
    def test_bit_identical_to_sampling_then_nudging(self, f):
        # the interpolant refine built before it nudged its own values in place
        for j in range(4, 11):
            knots = np.linspace(0.0, 1.0, 2 ** (j + 2) + 1)
            vals = np.broadcast_to(np.asarray(f(knots), dtype=float), knots.shape)
            want = nudge_knot_zeros(SampledFunction(grid=(knots,), values=vals[:, None]), 1e-12)
            assert same_output(refine_interpolant(f, 2.0**-j), want)

    def test_values_of_f_are_not_written(self):
        # f returning its argument or a shared read-only array keeps both intact
        shared = np.zeros(5)
        shared.setflags(write=False)
        for f in (lambda s: s, lambda s: shared):
            g = refine_interpolant(f, 1.0)
            assert g.grid[0][0] == 0.0 and g.values[0, 0] == 1e-12
        assert not shared.any()

    def test_budget_validation(self):
        with pytest.raises(DomainError):
            refine_interpolant(lambda s: s, 0.0)
        with pytest.raises(DomainError, match="budget must be positive, got nan"):
            refine_interpolant(lambda s: s, math.nan)
        with pytest.raises(DomainError, match="budget must be finite, got inf"):
            refine_interpolant(lambda s: s, math.inf)


class TestNestedRefineMeshes:
    """Every s-th knot and value of a refine interpolant, s a power of two, is the coarser interpolant."""

    TARGETS = [scalar_extremal(), wave, lambda s: s - 0.5, lambda s: 0.0]

    @pytest.mark.parametrize("f", TARGETS, ids=["extremal", "wave", "line", "zero"])
    @pytest.mark.parametrize("base", [1, 3, 5, 7])
    def test_power_of_two_strides_match_refine(self, f, base):
        # meshes of base * 2**n cells: linspace's knots nest for any base
        finest = refine_interpolant(f, 4.0 / (base * 2**12))
        for n in range(0, 13):
            coarse, s = refine_interpolant(f, 4.0 / (base * 2**n)), 2 ** (12 - n)
            assert np.array_equal(finest.grid[0][::s].view(np.uint64), coarse.grid[0].view(np.uint64))
            assert np.array_equal(finest.values[::s, 0].view(np.uint64), coarse.values[:, 0].view(np.uint64))


class TestIterate:
    def test_single_transversal_zero_persists(self):
        rows = iterate_improvement(lambda s: s - 0.5, 2.0**-4, 1.0, 2)
        assert [eps for eps, _ in rows] == [2.0**-6, 2.0**-8]
        assert all(count <= 2 for _, count in rows)

    def test_zero_function_stays_trivial(self):
        rows = iterate_improvement(lambda s: 0.0, 2.0**-4, 1.0, 3)
        assert all(count <= 1 for _, count in rows)
        for k, (_, count) in enumerate(rows, start=1):
            assert count <= improvement_envelope(2.0**-4, 1.0, k)

    def test_extremal_below_envelope(self):
        eps0, C = 2.0**-6, 0.25
        rows = iterate_improvement(scalar_extremal(), eps0, C, 2)
        for k, (eps_k, count) in enumerate(rows, start=1):
            assert eps_k == eps0 / 4.0**k
            assert count <= improvement_envelope(eps0, C, k)

    def test_rounds_validation(self):
        with pytest.raises(DomainError):
            iterate_improvement(lambda s: 0.0, 2.0**-4, 1.0, 0)


class TestUpperCurve:
    def test_power_law(self):
        assert theory_upper_curve(1.0, 2.0**-10, 1.0, 1, 0, 1.0) == 1024.0

    def test_unit_budget(self):
        assert theory_upper_curve(1.0, 1.0, 0.5, 2, 0, 3.0) == 3.0

    def test_zero_codimension_is_constant(self):
        assert theory_upper_curve(5.0, 0.01, 1.0, 2, 2, 7.0) == 7.0

    @pytest.mark.parametrize("alpha,codim", [(1.0, 1), (1.0, 2), (0.5, 1), (0.5, 2)])
    def test_past_the_power_overflow_matches_closed_form_in_log2(self, alpha, codim):
        # (1/eps)**(codim/alpha) passes 2**1024 at j = 1024 * alpha / codim:
        # inf there and beyond, the power itself bit for bit below
        edge = int(1024 * alpha / codim)
        for j in [*range(edge - 4, edge + 5), 1074]:
            got = theory_upper_curve(1.0, 2.0**-j, alpha, codim, 0)
            if j < edge:
                assert got == 2.0 ** (j * codim / alpha)
            else:
                assert got == math.inf
        # a small cw brings the quotient's overflow back inside the double range
        for cw in (2.0**-60, 0.3 * 2.0**-51):
            got = theory_upper_curve(1.0, 2.0**-1074, 1.0, 1, 0, cw)
            assert math.log2(got) == pytest.approx(upper_curve_log2(1.0, 2.0**-1074, 1.0, 1, 0, cw), abs=1e-9)
        assert theory_upper_curve(1.0, 2.0**-1074, 1.0, 1, 0, 0.3) == math.inf
        assert theory_upper_curve(3.0, 2.0**-1000, 0.5, 1, 0, 2.0**-1000) == pytest.approx(
            2.0 ** upper_curve_log2(3.0, 2.0**-1000, 0.5, 1, 0, 2.0**-1000), rel=1e-12
        )

    def test_budget_validation(self):
        with pytest.raises(DomainError):
            theory_upper_curve(1.0, 0.0, 1.0, 1, 0)
        with pytest.raises(DomainError, match="budget must be positive, got nan"):
            theory_upper_curve(1.0, math.nan, 1.0, 1, 0)


class TestSandwich:
    def test_certified_never_exceeds_adversary(self):
        F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
        f = F.as_scalar()
        for j in range(6, 11):
            eps = 2.0**-j
            lower = certify(F, eps).certified_count
            counts = [
                count_zero_components(flatten_perturbation(f, eps, 1.0)).h0,
                count_zero_components(refine_interpolant(f, eps)).h0,
            ]
            assert lower <= min(counts)
