"""The three workloads, the correctness gate, and its self-test.

Constructing a workload is its set-up: it builds every input from the
seed.  ``run()`` is one pass, the call a user waits for, and
``problems(output)`` is the gate: an empty list means the pass is correct.
Why each workload exists is in NOTES.md next to this file.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

REFERENCE_CSV = Path(__file__).resolve().parent / "sweep_adv_ref.csv"
ZEROED_LEVEL2_BUMPS = 2  # certify_q2: 16 cubes rejected per bump
ZEROED_LEVEL3_BUMPS = 4  # certify_chart: 1 cube rejected per bump


class Tally:
    """Passes attempted and failed, with the first few reasons kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append("; ".join(problems)[:500])


def csv_problems(text: str, reference: str) -> list[str]:
    """Cells of a sweep CSV that differ from the reference, wall_ms excepted."""
    got = list(csv.reader(io.StringIO(text)))
    want = list(csv.reader(io.StringIO(reference)))
    if got[:1] != want[:1]:
        return [f"header {got[:1]} != {want[:1]}"]
    if len(got) != len(want):
        return [f"{len(got) - 1} rows, expected {len(want) - 1}"]
    header = want[0]
    problems = []
    for i, (g, w) in enumerate(zip(got[1:], want[1:]), start=1):
        if len(g) != len(w):
            problems.append(f"row {i} has {len(g)} cells, expected {len(w)}")
            continue
        problems += [
            f"row {i} {col}: {a!r} != {b!r}"
            for col, a, b in zip(header, g, w)
            if col != "wall_ms" and a != b
        ]
    return problems


def count_problems(cert, expected: list[tuple[int, int, int]]) -> list[str]:
    """Differences between a certificate and the predicted (n, verified, total) per level."""
    got = [(c.n, c.verified, c.total) for c in cert.per_level_counts]
    problems = []
    if got != expected:
        problems.append(f"per-level (n, verified, total) {got}, expected {expected}")
    if cert.certified_count != sum(v for _, v, _ in expected):
        problems.append(f"certified_count {cert.certified_count}, expected {sum(v for _, v, _ in expected)}")
    if cert.mode != "empirical":
        problems.append(f"mode {cert.mode!r}, expected 'empirical'")
    return problems


def gate_self_test() -> list[str]:
    """Feed the gate a corrupted CSV cell and an off-by-one count; both must fail."""
    reference = REFERENCE_CSV.read_text()
    rows = [r.split(",") for r in reference.splitlines()]
    col = rows[0].index("adversary_ub")
    rows[3][col] = str(int(rows[3][col]) + 1)
    corrupted = "\n".join(",".join(r) for r in rows) + "\n"
    expected = [(1, 4, 4), (2, 240, 256)]
    levels = [SimpleNamespace(n=n, verified=v, total=t) for n, v, t in expected]
    exact = SimpleNamespace(per_level_counts=levels, certified_count=244, mode="empirical")
    levels_off = levels[:1] + [SimpleNamespace(n=2, verified=241, total=256)]
    off_by_one = SimpleNamespace(per_level_counts=levels_off, certified_count=245, mode="empirical")

    clean, broken = Tally(), Tally()
    clean.record(csv_problems(reference, reference))
    clean.record(count_problems(exact, expected))
    broken.record(csv_problems(corrupted, reference))
    broken.record(count_problems(off_by_one, expected))
    problems = []
    if clean.failed:
        problems.append(f"gate rejects correct output: {clean.reasons}")
    if broken.failed != 2:
        problems.append(f"gate counted {broken.failed} of 2 corrupted outputs as failures")
    return problems


def _power_beta(tl, tr):
    return tr.modulus(tl.ModulusSpec.power(1.0, 1.0))


class SweepAdv:
    """driver.sweep, alpha = lambda = 1, d = m = 1, p = 0, j = 6..14, adversary on, C = 1."""

    def __init__(self, tl, seed: int, tr, tmp: Path) -> None:
        self.tl = tl
        self.cfg = tl.SweepConfig(alpha=1.0, lam=1.0, d=1, m=1, p=0, j_min=6, j_max=14, adversary=True, C=1.0)
        self.csv_path = tmp / "sweep_adv.csv"
        self.sizes = {"budgets": 9, "refine_knots": sum(2 ** (j + 2) + 1 for j in range(6, 15))}

    def run(self):
        records = self.tl.sweep(self.cfg)
        self.tl.write_csv(records, self.csv_path)
        return records

    def problems(self, records) -> list[str]:
        return csv_problems(self.csv_path.read_text(), REFERENCE_CSV.read_text())

    def rebuild_problems(self, records) -> list[str]:
        """Rebuild the sweep from the stage functions and compare with sweep()."""
        tl, cfg = self.tl, self.cfg
        fn = tl.ExtremalFunction(beta=tl.ModulusSpec.power(cfg.lam, cfg.alpha), d=1, q=1)
        scalar = fn.as_scalar()
        rebuilt = []
        for j in range(cfg.j_min, cfg.j_max + 1):
            eps = 2.0**-j
            cert = tl.certify(fn, eps)
            perturbations = (tl.flatten_perturbation(scalar, eps, cfg.C), tl.refine_interpolant(scalar, eps))
            best = min(tl.count_zero_components(h).h0 for h in perturbations)
            rebuilt.append(
                tl.SweepRecord(
                    eps=eps,
                    n0=cert.n0,
                    certified_lb=cert.certified_count,
                    paper_lb=cert.paper_bound,
                    theory_lb=cert.theory_bound,
                    adversary_ub=int(best) if math.isfinite(best) else None,
                    theory_ub=tl.theory_upper_curve(cfg.lam, eps, cfg.alpha, cfg.m, cfg.p, cfg.cw),
                    wall_ms=0,
                )
            )
        swept = [replace(r, wall_ms=0) for r in records]
        return [f"rebuilt {a} != swept {b}" for a, b in zip(rebuilt, swept) if a != b] + (
            [f"rebuilt {len(rebuilt)} rows, swept {len(swept)}"] if len(rebuilt) != len(swept) else []
        )


class CertifyQ2:
    """Empirical certify of a noisy grid sample, d = m = 2, p = 0, eps = 2**-12 (n0 = 2)."""

    def __init__(self, tl, seed: int, tr, tmp: Path) -> None:
        rng = np.random.default_rng(abs(seed))  # entropy must be non-negative
        self.tl = tl
        self.eps = 2.0**-12
        self.F = tl.ExtremalFunction(beta=_power_beta(tl, tr), d=2, q=2)
        base = self.F.sample(2.0**-10)
        values = base.values + rng.uniform(-self.eps, self.eps, base.values.shape)
        # Component 0 vanishes on each zeroed level-2 bump, so the 16 cubes
        # whose first coordinate lies on that bump fail the face test.  The
        # seed picks which bumps, not how many, so every seed does the same work.
        zeroed = rng.choice(16, size=ZEROED_LEVEL2_BUMPS, replace=False)
        lev = tl.level_schedule(2)
        knots = base.grid[0]
        for i in zeroed:
            a = float(lev.start + 4 * int(i) * lev.scale)
            values[(knots >= a) & (knots <= a + float(4 * lev.scale)), :, 0] = 0.0
        self.h = tr.evaluator("funcrep.evaluate", base.with_values(values), record=True)
        self.expected = [(1, 4, 4), (2, 256 - 16 * len(zeroed), 256)]
        self.sizes = {"grid_knots": values.shape[0] * values.shape[1], "cubes": 260, "zeroed_bumps": len(zeroed)}

    def run(self):
        return self.tl.certify(self.F, self.eps, h=self.h)

    def problems(self, cert) -> list[str]:
        return count_problems(cert, self.expected)


class CertifyChart:
    """Empirical certify through polar_demo_chart(r0=0.5), d = m = 2, p = 1, eps = 2**-19 (n0 = 3)."""

    Z_GRID = 4

    def __init__(self, tl, seed: int, tr, tmp: Path) -> None:
        rng = np.random.default_rng(abs(seed))  # entropy must be non-negative
        self.tl = tl
        self.eps = eps = 2.0**-19
        self.chart = tl.polar_demo_chart(r0=0.5)
        self.F = F = tl.ExtremalFunction(beta=_power_beta(tl, tr), d=2, q=1, p=1)
        freq = rng.uniform(0.0, 64.0, (2, 2))
        phase = rng.uniform(0.0, 2.0 * math.pi, 2)
        lev = tl.level_schedule(3)
        start, width = float(lev.start), float(4 * lev.scale)
        zeroed = frozenset(rng.choice(512, size=ZEROED_LEVEL3_BUMPS, replace=False).tolist())

        def g(x):
            """F plus seeded noise of size <= eps; the active component vanishes on zeroed level-3 bumps."""
            v = F(x) + eps * np.sin(freq @ x + phase)
            if math.floor((x[0] - start) / width) in zeroed:
                v[1] = 0.0
            return v

        h = tl.transport_function(self.chart, tr.wrap("input.g", g))
        self.h = tr.evaluator("chart.transport", h)
        self.expected = [(1, 2, 2), (2, 16, 16), (3, 512 - len(zeroed), 512)]
        self.sizes = {"cubes": 530, "z_slices": self.Z_GRID, "zeroed_bumps": len(zeroed)}

    def run(self):
        return self.tl.certify(self.F, self.eps, h=self.h, chart=self.chart, z_grid=self.Z_GRID)

    def problems(self, cert) -> list[str]:
        return count_problems(cert, self.expected)


WORKLOADS = {"sweep_adv": SweepAdv, "certify_q2": CertifyQ2, "certify_chart": CertifyChart}
