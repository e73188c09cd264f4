"""Reproduce the two measured findings recorded in NOTES.md.

Run from the root of a checkout:

    python3 perfbench/findings.py

1. With q = 1, the Miranda face test makes 2 evaluations per cube.
2. With alpha <= 1/2, empirical certification with h = F verifies no cube,
   because the face value lam*s**alpha/2 never clears the slack lam*(s/4)**alpha.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import translab as tl  # noqa: E402


def certify_with_self(alpha: float):
    """Empirical certify of the d = q = 1 extremal map against itself at depth n0 = 3."""
    beta = tl.ModulusSpec.power(1.0, alpha)
    F = tl.ExtremalFunction(beta=beta, d=1, q=1)
    eps = beta(2.0**-19) / 2.0  # strictly inside the level-3 budget band
    assert tl.resolve_depth(beta, 1, eps) == 3
    calls = 0

    def h(x):
        nonlocal calls
        calls += 1
        return F(x)

    cert = tl.certify(F, eps, h=h)
    return cert, calls


def main() -> None:
    cert, calls = certify_with_self(1.0)
    cubes = sum(lc.total for lc in cert.per_level_counts)
    print(f"q=1, alpha=1: {calls} evaluations for {cubes} cubes, {calls / cubes:g} per cube "
          f"({cert.certified_count} of {cubes} verified)")
    for alpha in (0.5, 0.25):
        cert, _ = certify_with_self(alpha)
        total = sum(lc.total for lc in cert.per_level_counts)
        print(f"alpha={alpha}, h=F: {cert.certified_count} of {total} cubes verified")


if __name__ == "__main__":
    main()
