"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from translab import (
    ExtremalFunction,
    ModulusSpec,
    SweepConfig,
    certify,
    count_zero_components,
    enumerate_cubes,
    fit_slope,
    flatten_perturbation,
    miranda_verify,
    refine_interpolant,
    resolve_depth,
    sup_distance,
    sweep,
    theory_lower_bound,
)
from translab.funcrep import SampledFunction

from closed_form import holder_lower_bound

IDENTITY = ModulusSpec.power(1.0, 1.0)


def report(number: int, label: str, t0: float, budget: float, detail: str = "") -> None:
    elapsed = time.perf_counter() - t0
    suffix = f" ({detail})" if detail else ""
    print(f"PASS criterion {number} [{label}]: {elapsed:.3f}s < {budget:.0f}s{suffix}")
    assert elapsed < budget


def sampled_reference(f, grid):
    return SampledFunction(grid=grid, values=np.array([float(f(x)) for x in grid[0]])[:, None])


def test_criterion_1_depth_bands():
    t0 = time.perf_counter()
    checked = 0
    # every dyadic on the 2**-12 lattice inside [2**-10, 2**-6] resolves to 1
    for k in range(4, 65):
        assert resolve_depth(IDENTITY, 1, k * 2.0**-12) == 1
        checked += 1
    # every dyadic on the 2**-18 lattice inside [2**-16, 2**-10) resolves to 2
    for k in range(4, 256):
        assert resolve_depth(IDENTITY, 1, k * 2.0**-18) == 2
        checked += 1
    # the power-of-two budgets themselves
    for j in range(6, 11):
        assert resolve_depth(IDENTITY, 1, 2.0**-j) == 1
        checked += 1
    for j in range(11, 17):
        assert resolve_depth(IDENTITY, 1, 2.0**-j) == 2
        checked += 1
    report(1, "depth bands", t0, 1.0, f"{checked} dyadic budgets")


def test_criterion_2_certified_counts():
    t0 = time.perf_counter()
    F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
    c7 = certify(F, 2.0**-7)
    assert c7.certified_count == 2
    c12 = certify(F, 2.0**-12)
    assert c12.certified_count == 18
    assert c12.paper_bound == 16
    report(2, "certified counts", t0, 1.0, "2 @ 2^-7, 18/16 @ 2^-12")


def test_criterion_3_empirical_soundness():
    t0 = time.perf_counter()
    eps = 2.0**-7
    F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
    base = F.sample(2.0**-8)
    # headroom 2**-15 covers the sampling alias of levels deeper than 2,
    # so the true distance to the extremal map also stays within eps
    amp = eps - 2.0**-15
    rng = np.random.default_rng(2024)
    cubes = list(enumerate_cubes(1, 1))
    passes = 0
    for _ in range(100):
        h = base.with_values(base.values + rng.uniform(-amp, amp, size=base.values.shape))
        assert sup_distance(h, base) <= eps
        assert all(miranda_verify(h, IDENTITY, cube, (), p=0) for cube in cubes)
        assert count_zero_components(h).component_count >= 2
        passes += 1
    assert passes == 100
    report(3, "empirical soundness", t0, 30.0, "100/100 trials")


def test_criterion_4_envelope_ordering():
    t0 = time.perf_counter()
    F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
    rows = 0
    for j in range(6, 17):
        cert = certify(F, 2.0**-j)
        assert cert.n0 >= 1
        assert cert.theory_bound <= cert.certified_count
        rows += 1
    # spot value, computed independently: Psi(2 * 2**-12) = 2**-11 by the
    # closed-form inverse, so the bound is 2**15 * 2**(-4 sqrt 11)
    reference = math.ldexp(1.0, 15) * 2.0 ** (-4.0 * math.sqrt(11.0))
    assert reference == pytest.approx(3.325337653108057, rel=1e-12)
    got = theory_lower_bound(IDENTITY, 2.0**-12, 1, 0, 2.0)
    assert got == pytest.approx(reference, rel=1e-9)
    report(4, "envelope ordering", t0, 5.0, f"{rows} rows, spot value {got:.6f}")


def test_criterion_5_adversary_distance_contracts():
    t0 = time.perf_counter()
    f = ExtremalFunction(beta=IDENTITY, d=1, q=1).as_scalar()
    for j in (6, 7, 8):
        eps = 2.0**-j
        h = flatten_perturbation(f, eps, 1.0)
        dist = sup_distance(h, sampled_reference(f, h.grid))
        assert dist <= eps + 1e-12 + 1e-10
        g = refine_interpolant(f, eps)
        dist = sup_distance(g, sampled_reference(f, g.grid))
        assert dist <= eps / 4.0 + 2e-12 + 1e-10
    report(5, "adversary distance contracts", t0, 10.0, "flatten & refine @ 2^-6..2^-8")


def test_criterion_6_sandwich():
    t0 = time.perf_counter()
    eps = 2.0**-7
    F = ExtremalFunction(beta=IDENTITY, d=1, q=1)
    certified = certify(F, eps).certified_count
    assert certified == 2
    achieved = count_zero_components(refine_interpolant(F.as_scalar(), eps)).component_count
    assert certified <= achieved
    report(6, "sandwich", t0, 5.0, f"2 <= {achieved}")


@pytest.mark.parametrize("lam,alpha", [(1.0, 1.0), (1.0, 0.5), (3.0, 1.0)])
def test_criterion_7_modulus_admission(lam, alpha):
    t0 = time.perf_counter()
    beta = ModulusSpec.power(lam, alpha)
    F = ExtremalFunction(beta=beta, d=1, q=1)
    rng = np.random.default_rng(7)
    pairs = rng.uniform(0.0, 1.0, size=(10_000, 2))
    for x, y in pairs:
        assert abs(F([x])[0] - F([y])[0]) <= beta(abs(x - y)) + 1e-12
    report(7, f"modulus admission a={alpha} l={lam}", t0, 10.0, "10^4 pairs")


def test_criterion_8_closed_form_inverse():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    for _ in range(50):
        lam = rng.uniform(0.25, 4.0)
        alpha = rng.uniform(0.25, 1.0)
        eps = 2.0 ** rng.uniform(-20.0, -3.0)
        via_table = theory_lower_bound(ModulusSpec.power(lam, alpha), eps, 1, 0, 2.0)
        closed = holder_lower_bound(lam, alpha, eps, 1, 0, 2.0)
        assert closed == pytest.approx(via_table, rel=1e-10)
    report(8, "closed-form inverse", t0, 1.0, "50 random triples")


def test_criterion_9_slope_property():
    t0 = time.perf_counter()
    settings = [(1.0, 1, 1), (0.5, 1, 1), (1.0, 2, 2)]  # (alpha, m, d)
    for alpha, m, d in settings:
        cfg = SweepConfig(alpha=alpha, lam=1.0, d=d, m=m, p=0, j_min=6, j_max=20)
        records = sweep(cfg)
        target = -m / alpha
        assert fit_slope(records, "theory_ub") == pytest.approx(target, abs=1e-9)
        lb_slope = fit_slope(records, "theory_lb")
        assert lb_slope >= target + 0.05
    report(9, "slope property", t0, 5.0, "3 settings, ub exact, lb shallower")


def test_criterion_10_miranda_oracle_equivalence():
    t0 = time.perf_counter()
    F = ExtremalFunction(beta=IDENTITY, d=2, q=2)
    base = F.sample(2.0**-6)
    rng = np.random.default_rng(10)
    amp = 2.0**-9
    cubes = list(enumerate_cubes(1, 2))
    trials_ok = 0
    total_passing = 0
    for _ in range(20):
        h = base.with_values(base.values + rng.uniform(-amp, amp, size=base.values.shape))
        for cube in cubes:
            if not miranda_verify(h, IDENTITY, cube, (), p=0):
                continue
            total_passing += 1
            xs = np.linspace(float(cube.lo[0]), float(cube.hi[0]), 65)
            ys = np.linspace(float(cube.lo[1]), float(cube.hi[1]), 65)
            pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
            vals = h.evaluate_many(pts)
            for comp in range(2):
                assert vals[:, comp].min() < 0.0 < vals[:, comp].max()
        trials_ok += 1
    assert trials_ok == 20
    assert total_passing == 20 * len(cubes)  # the mild noise never defeats level 1
    report(10, "miranda oracle equivalence", t0, 60.0, f"{total_passing} cube checks")
