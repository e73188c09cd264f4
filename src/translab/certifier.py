"""Lower-bound certification of zero sets under sup-norm perturbation.

Given a perturbation budget eps, the certifier resolves the deepest
verifiable level n0 (the budget band), enumerates the dyadic cubes
centered at bump extrema, and certifies a zero of the active block of
any admissible perturbation inside each cube via the Poincare-Miranda
sign condition: componentwise strict opposite signs on opposite faces,
with a modulus-slack margin that keeps the sign constant across each
face-lattice cell.

In theoretical mode every cube of every level n <= n0 counts as
verified (that is exactly what the construction guarantees); in
empirical mode the sign test actually runs against a supplied
evaluator.  The certificate reports both the per-level sum of verified
cubes and the single deepest-level count, next to the theoretical
envelope

    (16 / Psi(gamma * eps))**(m-p) * 2**(-4 (m-p) sqrt(|log2 Psi(gamma*eps)|)).

The face test is sound for evaluators that admit the stated modulus up
to an eps-bounded deviation from the extremal map; it is not an
interval-arithmetic proof.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .chart import Chart, gamma_w, identity_chart, pullback_perturbation
from .errors import DomainError, EnumerationCapError, ShapeError
from .extremal import MAX_LEVEL, ExtremalFunction, level_schedule
from .funcrep import SCAN_BLOCK_POINTS, evaluate_rows
from .modulus import ModulusSpec, require_modulus

ENUMERATION_CAP_BITS = 24  # at most 2**24 cubes per level
FACE_LATTICE_POINTS = 9    # side 2*scale scanned at step scale/4


@dataclass(frozen=True)
class Cube:
    """The level-n cell of side 2*scale_n around one bump-extremum tuple."""

    n: int
    index: tuple[int, ...]
    scale: float
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    @property
    def q(self) -> int:
        return len(self.index)

    @property
    def center(self) -> tuple[float, ...]:
        return tuple(a + self.scale for a in self.lo)


def cube_at(n: int, index: Sequence[int]) -> Cube:
    lev = level_schedule(n)
    # the face lattice steps by scale/4 = 2**-(n*n+n+4); past level 6 those
    # coordinates are not doubles and a cube's faces would round together
    bits = n * n + n + 4
    if bits > sys.float_info.mant_dig:
        raise DomainError(f"level {n} face lattice needs {bits}-bit coordinates, more than a double holds")
    idx = tuple(int(i) for i in index)
    if any(not (0 <= i < lev.bump_count) for i in idx):
        raise DomainError(f"cube index {idx} out of range for level {n}")
    lo = tuple(lev.start + (4 * i + 1) * lev.scale for i in idx)
    hi = tuple(lev.start + (4 * i + 3) * lev.scale for i in idx)
    return Cube(n=n, index=idx, scale=lev.scale, lo=lo, hi=hi)


def _check_cap(n: int, q: int) -> None:
    if q < 1:
        raise DomainError(f"need q >= 1, got {q}")
    bits = q * n * n
    if bits > ENUMERATION_CAP_BITS:
        raise EnumerationCapError(
            f"level {n} at q={q} would enumerate 2**{bits} cubes, "
            f"beyond the 2**{ENUMERATION_CAP_BITS} cap"
        )


def enumerate_cubes(n: int, q: int) -> Iterator[Cube]:
    """All level-n cubes in lexicographic index order (2**(q*n*n) of them)."""
    _check_cap(n, q)
    lev = level_schedule(n)
    for idx in itertools.product(range(lev.bump_count), repeat=q):
        yield cube_at(n, idx)


def resolve_depth(beta: ModulusSpec, q: int, eps: float) -> int:
    """Deepest level n0 whose budget band contains eps.

    Level n verifies when eps <= beta(scale_n/2) / (2 sqrt(q)); bands
    tile with shared endpoints, and a shared endpoint resolves to the
    shallower level (each band owns its lower edge).  Returns 0 when
    even level 1 fails, i.e. the budget is too large and the
    certificate is vacuous.
    """
    if not eps > 0.0:  # NaN too
        raise DomainError(f"budget must be positive, got {eps}")
    root = 2.0 * math.sqrt(q)
    if eps > beta(level_schedule(1).scale / 2.0) / root:
        return 0
    n = 1
    while n < MAX_LEVEL and eps < beta(level_schedule(n + 1).scale / 2.0) / root:
        n += 1
    return n


def _face_points(n: int, q: int, ranks: np.ndarray) -> np.ndarray:
    """Face-lattice points of the level-n cubes numbered ``ranks``, one row each.

    A cube's number is its rank in ``enumerate_cubes`` order.  Per cube,
    rows run axis by axis, lo face before hi face, free coordinates in
    lexicographic order.  Coordinate j is lo_j + k scale/4, lo_j as in
    ``cube_at``: a dyadic of at most n*n + n + 4 bits, so each step of
    the sum is exact at every level under the enumeration cap.  The sum
    is built axis-major, as (q, cubes, rows), so its inner loop runs
    over a cube's rows rather than its q coordinates; the result is its
    transpose, a column-major (cubes * rows, q) view.
    """
    last = FACE_LATTICE_POINTS - 1
    free = list(itertools.product(range(FACE_LATTICE_POINTS), repeat=q - 1))
    offsets = np.array([c[:axis] + (k,) + c[axis:] for axis in range(q) for k in (0, last) for c in free])
    lev = level_schedule(n)
    index = np.stack(np.unravel_index(ranks, (lev.bump_count,) * q))  # (q, cubes)
    lo = lev.start + (4 * index + 1) * lev.scale
    return (lo[:, :, None] + (offsets.T * (lev.scale / 4.0))[:, None, :]).reshape(q, -1).T


def _miranda_verdicts(h: Callable, beta: ModulusSpec, n: int, q: int, ranks, z=(), p: int = 0) -> np.ndarray:
    """The ``miranda_verify`` verdict of each level-n cube numbered ``ranks``.

    h sees the face-lattice points (z appended) in blocks of whole cubes,
    at most SCAN_BLOCK_POINTS points each unless one cube has more (with
    no z, the block ``_face_points`` built, not a copy), and must return
    an (N, p + q) block; any other shape is a ``ShapeError``.  A cube
    passes when every active value is finite and clears the slack, and
    on each active axis sign * side is one constant over both faces
    (side +1 on lo, -1 on hi).
    """
    slack = beta(level_schedule(n).scale / 4.0 * max(1.0, math.sqrt(q - 1) / 2.0))
    tail = np.asarray(z, dtype=float).ravel()
    per_cube = 2 * q * FACE_LATTICE_POINTS ** (q - 1)
    step = max(1, SCAN_BLOCK_POINTS // per_cube)
    side = np.array([1.0, -1.0])[:, None]
    verdicts = np.empty(len(ranks), dtype=bool)
    for lo in range(0, len(ranks), step):
        block = ranks[lo : lo + step]
        active = _face_points(n, q, block)
        vals = evaluate_rows(h, np.hstack([active, np.tile(tail, (len(active), 1))]) if len(tail) else active)
        if vals.shape != (len(active), p + q):
            raise ShapeError(
                f"h gave values of shape {vals.shape} at {len(active)} points, "
                f"expected ({len(active)}, {p + q}): m = {p + q} values per point"
            )
        vals = vals.reshape(len(block), q, 2, -1, p + q)
        v = np.stack([vals[:, axis, :, :, p + axis] for axis in range(q)], axis=1)
        oriented = np.sign(v) * side
        clear = np.isfinite(v) & (np.abs(v) > slack)
        consistent = oriented == oriented[:, :, :1, :1]
        verdicts[lo : lo + step] = (clear & consistent).all(axis=(1, 2, 3))
    return verdicts


def miranda_verify(
    h: Callable,
    beta: ModulusSpec,
    cube: Cube,
    z: Sequence[float] = (),
    p: int = 0,
) -> bool:
    """Poincare-Miranda sign test for the active block of h on a cube.

    For each active axis i the component p+i must hold one strict sign
    on the whole face y_i = lo_i and the opposite strict sign on
    y_i = hi_i, the orientation free per axis (Kulpa, Amer. Math.
    Monthly 104, 1997).  h is evaluated at every point of a face lattice
    of step scale/4, with no early exit: one ``evaluate_many`` call when
    h has it, else one call per point.  A sign counts only when the value
    is finite and exceeds the slack beta(scale/4 * max(1, sqrt(q-1)/2));
    a face point lies within (scale/8) sqrt(q-1) of the lattice, so the
    slack freezes the sign across a lattice cell for any evaluator
    admitting beta.  NaN or infinite values reject the cube.  True
    implies the active block has a zero inside the cube for such an h.
    """
    bump_count = level_schedule(cube.n).bump_count
    rank = np.ravel_multi_index(cube.index, (bump_count,) * cube.q)
    return bool(_miranda_verdicts(h, beta, cube.n, cube.q, np.array([rank]), z, p)[0])


@dataclass(frozen=True)
class LevelCount:
    n: int
    verified: int
    total: int


@dataclass(frozen=True)
class Certificate:
    """Outcome of one certification run at a fixed budget."""

    eps: float
    n0: int
    per_level_counts: tuple[LevelCount, ...]
    certified_count: int
    paper_bound: int
    theory_bound: float
    mode: str
    vacuous: bool
    envelope_ok: bool


def theory_lower_bound(beta: ModulusSpec, eps: float, m: int, p: int, gamma: float) -> float:
    """The theoretical zero-count envelope at budget eps.

    Returns 0.0 (vacuous) when the inverse modulus saturates to +inf,
    which happens for bounded moduli once gamma*eps reaches sup beta.
    """
    if not eps > 0.0:  # NaN too
        raise DomainError(f"budget must be positive, got {eps}")
    if not (0 <= p < m):
        raise DomainError(f"need 0 <= p < m, got p={p}, m={m}")
    psi = beta.inverse(gamma * eps)
    if not math.isfinite(psi) or psi <= 0.0:
        return 0.0
    codim = m - p
    return (16.0 / psi) ** codim * 2.0 ** (-4.0 * codim * math.sqrt(abs(math.log2(psi))))


def _z_slices(free_dims: int, z_grid: int) -> list[tuple[float, ...]]:
    if free_dims == 0:
        return [()]
    axis = [(k + 0.5) / z_grid for k in range(z_grid)]
    return [tuple(c) for c in itertools.product(axis, repeat=free_dims)]


def certify(
    f: ExtremalFunction,
    eps: float,
    h: Optional[Callable] = None,
    chart: Optional[Chart] = None,
    z_grid: int = 1,
) -> Certificate:
    """Certify a zero-count lower bound at budget eps.

    A beta that is not a modulus of continuity is refused first.
    Theoretical mode (no ``h``): every cube of every level n <= n0 is
    verified by construction and the counts are arithmetic.  Empirical
    mode applies the ``miranda_verify`` test to all cubes of a level at
    once, at the midpoint slice of the free coordinates by default or on
    a ``z_grid``-per-axis lattice of slices; a cube counts only when all
    slices pass, and each slice revisits only the cubes still passing.
    A ``z_grid`` above 1 without free coordinates (d = q) or without h
    would slice nothing, so it is refused with ``DomainError``.
    Every face-lattice point of a visited cube is evaluated (no early
    exit), in blocks through ``h.evaluate_many`` when h has it, and a NaN
    or infinite value rejects the cube.  Every level up to n0 is checked
    against the enumeration cap before h is first called.

    With a chart, the budget inflates by lam2/lam1 before depth
    resolution, perturbations are pulled back through the chart, and
    the envelope uses the chart distortion gamma_W.  The pulled-back
    evaluator batches too: one range check and one chart map call per
    block, and h sees one ``evaluate_many`` call per block when it has
    that method.  When the flat target has a rectangle block (p >= 1)
    the reduction also needs eps <= r0, so larger budgets give a
    vacuous certificate.  No chart means ``identity_chart(m, r0=inf)``:
    factor 1, gamma_W = 2 sqrt(q), an unbounded rectangle half-width.
    """
    if not eps > 0.0:  # NaN too
        raise DomainError(f"budget must be positive, got {eps}")
    if z_grid < 1:
        raise DomainError(f"z-grid must be >= 1, got {z_grid}")
    beta, q, p, d = f.beta, f.q, f.p, f.d
    if z_grid > 1 and d == q:
        raise DomainError(f"z-grid {z_grid} slices the free coordinates, but d = q = {q} leaves none")
    if z_grid > 1 and h is None:
        raise DomainError(f"z-grid {z_grid} slices the empirical test, but theoretical mode (no h) runs none")
    require_modulus(beta)
    m = f.m
    if chart is None:
        chart = identity_chart(m, r0=math.inf)
    if chart.m != m:
        raise DomainError(f"chart dimension {chart.m} does not match map codomain {m}")
    gamma = gamma_w(chart, m, p)
    eps_flat = chart.distortion * eps
    evaluator = pullback_perturbation(chart, h)[0] if h is not None else None
    rectangle_ok = p == 0 or eps <= chart.r0

    n0 = resolve_depth(beta, q, eps_flat) if rectangle_ok else 0
    slices = _z_slices(d - q, z_grid)
    if evaluator is not None:
        for n in range(1, n0 + 1):
            _check_cap(n, q)
    levels = []
    certified = 0
    for n in range(1, n0 + 1):
        total = 2 ** (q * n * n)
        if evaluator is None:
            verified = total
        else:
            alive = np.arange(total)
            for z in slices:
                alive = alive[_miranda_verdicts(evaluator, beta, n, q, alive, z, p)]
            verified = len(alive)
        certified += verified
        levels.append(LevelCount(n=n, verified=verified, total=total))

    theory = theory_lower_bound(beta, eps, m, p, gamma)
    vacuous = n0 == 0 or math.isinf(beta.inverse(gamma * eps))
    return Certificate(
        eps=float(eps),
        n0=n0,
        per_level_counts=tuple(levels),
        certified_count=certified,
        paper_bound=2 ** (q * n0 * n0) if n0 >= 1 else 0,
        theory_bound=theory,
        mode="theoretical" if evaluator is None else "empirical",
        vacuous=vacuous,
        envelope_ok=(n0 == 0) or theory <= certified,
    )
