"""Lower-bound certification of zero sets under sup-norm perturbation.

Given a perturbation budget eps, the certifier resolves the deepest
verifiable level n0 (the budget band), numbers the dyadic cubes
centered at bump extrema by rank, and certifies a zero of the active block of
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
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .chart import Chart, gamma_w, identity_chart, pullback_perturbation
from .errors import DomainError, EnumerationCapError, ShapeError
from .extremal import MAX_LEVEL, ExtremalFunction, level_schedule
from .funcrep import SCAN_BLOCK_POINTS, evaluate_rows
from .modulus import ModulusSpec, require_modulus

ENUMERATION_CAP_BITS = 24  # at most 2**24 cubes per level
FACE_LATTICE_POINTS = 9    # side 2*scale scanned at step scale/4


def _check_cap(n: int, q: int) -> None:
    if q < 1:
        raise DomainError(f"need q >= 1, got {q}")
    bits = q * n * n
    if bits > ENUMERATION_CAP_BITS:
        raise EnumerationCapError(
            f"level {n} at q={q} would enumerate 2**{bits} cubes, "
            f"beyond the 2**{ENUMERATION_CAP_BITS} cap"
        )


# certify ranks cubes without enumerating them; this stays because
# perfbench's tracer wraps certifier.enumerate_cubes by name
def enumerate_cubes(n: int, q: int) -> Iterator[tuple[int, ...]]:
    """Every level-n cube index tuple in rank order (2**(q*n*n) of them)."""
    _check_cap(n, q)
    return itertools.product(range(level_schedule(n).bump_count), repeat=q)


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

    A cube's number is the rank of its index tuple in lexicographic
    order; on axis j it spans lo_j = start + (4 i_j + 1) scale to
    lo_j + 2 scale.  Per cube, rows run axis by axis, lo face before hi
    face, free coordinates in lexicographic order.  Coordinate j is
    lo_j + k scale/4: a dyadic of at most n*n + n + 4 bits, so each step
    of the sum is exact at every level under the enumeration cap.  The sum
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
    """Poincare-Miranda sign test of h's active block on each level-n cube numbered ``ranks``.

    A cube passes when on each active axis i component p+i holds one
    strict sign on the face y_i = lo_i and the opposite one on y_i = hi_i,
    the orientation free per axis (Kulpa, Amer. Math. Monthly 104, 1997).
    h is evaluated, with no early exit, on the face lattice of step
    scale/4, and a sign counts only when the value is finite and exceeds
    the slack beta(scale/4 * max(1, sqrt(q-1)/2)): a face point lies
    within (scale/8) sqrt(q-1) of the lattice, so the slack freezes the
    sign across a lattice cell for any h admitting beta, and a pass
    implies a zero of the active block inside the cube.  NaN or infinite
    values reject the cube.

    h sees the points (z appended) in blocks of whole cubes, at most
    SCAN_BLOCK_POINTS points each unless one cube has more (with no z,
    the block ``_face_points`` built, not a copy), and must return an
    (N, p + q) block; any other shape is a ``ShapeError``.
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
    which happens for bounded moduli once gamma*eps reaches sup beta, and
    inf only past the double range: it forms the product in log2 where
    the quotient (16/psi)**codim overflows.
    """
    if not eps > 0.0:  # NaN too
        raise DomainError(f"budget must be positive, got {eps}")
    if not (0 <= p < m):
        raise DomainError(f"need 0 <= p < m, got p={p}, m={m}")
    psi = beta.inverse(gamma * eps)
    if not math.isfinite(psi) or psi <= 0.0:
        return 0.0
    codim = m - p
    log_psi = math.log2(psi)
    try:
        value = (16.0 / psi) ** codim * 2.0 ** (-4.0 * codim * math.sqrt(abs(log_psi)))
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    exponent = codim * (4.0 - log_psi - 4.0 * math.sqrt(abs(log_psi)))
    return 2.0**exponent if exponent < 1024.0 else math.inf  # 2**1024 is past the largest double


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
    mode applies the Poincare-Miranda face test of ``_miranda_verdicts``
    (Kulpa's sign condition, with a slack that freezes each sign across
    a face-lattice cell) to all cubes of a level at once, by rank, at
    the midpoint slice of the free coordinates by default or on a
    ``z_grid``-per-axis lattice of slices; a cube counts only when all
    slices pass, and each slice revisits only the cubes still passing.
    A ``z_grid`` above 1 without free coordinates (d = q) or without h
    would slice nothing, so it is refused with ``DomainError``.  Every
    level up to n0 is checked against the enumeration cap before h is
    first called.

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
    axis = [(k + 0.5) / z_grid for k in range(z_grid)]
    slices = list(itertools.product(axis, repeat=d - q))  # d = q gives the one empty slice
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
