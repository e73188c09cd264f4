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

The adversary's reference curve cw * (norm/eps)**((m-p)/alpha) lives
here too, and every envelope, the adversary's improvement envelope
included, keeps one range rule, ``_double_or_exp2``: the direct formula
where it is finite, else log2, so inf only past 2**1024.

The face test is sound for evaluators that admit the stated modulus up
to an eps-bounded deviation from the extremal map; it is not an
interval-arithmetic proof.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .chart import Chart, gamma_w, identity_chart, pullback_perturbation
from .errors import DomainError, ShapeError, require_budget, require_codim, require_count, require_int
from .extremal import MAX_LEVEL, ExtremalFunction, level_schedule
from .funcrep import MESH_CAP, SCAN_BLOCK_POINTS, check_work, evaluate_rows
from .modulus import ModulusSpec

EVALUATION_CAP = 2**30   # evaluations per empirical certify: 13 min at 722 ns a point (d = q = 6, 2 vCPUs)
SLICE_CAP = 2**23        # level slices (n0 times z-slices) per empirical certify: 13 min at 90 us a depth-1 slice (d = 2, q = 1, h = F, 2 vCPUs)
FACE_LATTICE_POINTS = 9  # side 2*scale scanned at step scale/4


# certify ranks cubes without enumerating them; this stays because
# perfbench's tracer wraps certifier.enumerate_cubes by name
def enumerate_cubes(n: int, q: int) -> Iterator[tuple[int, ...]]:
    """Every level-n cube index tuple in rank order (2**(q*n*n) of them, at most ``MESH_CAP``)."""
    n, q = require_int(n, "n"), require_count(q, "q", 1)
    lev = level_schedule(n)
    check_work(lev.bump_count**q, MESH_CAP, f"level {n} at q = {q}", "cubes")
    return itertools.product(range(lev.bump_count), repeat=q)


def resolve_depth(beta: ModulusSpec, q: int, eps: float) -> int:
    """Deepest level n0 whose budget band contains eps.

    Level n verifies when eps <= beta(scale_n/2) / (2 sqrt(q)); bands
    tile with shared endpoints, and a shared endpoint resolves to the
    shallower level (each band owns its lower edge).  Returns 0 when
    even level 1 fails, i.e. the budget is too large and the
    certificate is vacuous.  A q that is not an integer >= 1 is refused.
    """
    require_budget(eps)
    q = require_count(q, "q", 1)
    root = 2.0 * math.sqrt(q)
    if eps > beta(level_schedule(1).scale / 2.0) / root:
        return 0
    n = 1
    while n < MAX_LEVEL and eps < beta(level_schedule(n + 1).scale / 2.0) / root:
        n += 1
    return n


def _face_points(q: int, levels: np.ndarray, ranks: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Face-lattice points of the cubes numbered ``ranks`` on ``levels``, one cube per entry, one row per point.

    A level-n cube's number is the rank of its index tuple in
    lexicographic order, q fields of n*n bits with i_1 highest; on axis
    j the cube spans lo_j = start_n + (4 i_j + 1) scale_n to lo_j + 2
    scale_n.  Per cube, rows run axis by axis, lo face before hi face,
    free coordinates in lexicographic order.  Coordinate j is lo_j plus
    a step k scale_n/4 taken from its level's table: a dyadic of at most
    n*n + n + 4 bits, so each step of the sum is exact at every level
    under the cube cap.  The sum is built axis-major, as (q, cubes,
    rows), through the transpose of ``out``: the (N, q) rows to fill,
    by default a new column-major block.  Returns ``out``.
    """
    offsets = _face_offsets(q)
    if out is None:
        out = np.empty((q, len(ranks) * offsets.shape[1])).T
    schedules = map(level_schedule, range(1, levels.max(initial=0) + 1))
    start, scale = np.array([(0.0, 0.0), *((lev.start, lev.scale) for lev in schedules)]).T  # entry n: level n
    bits = levels * levels  # a level-n axis has 2**(n*n) bumps
    index = (ranks >> bits * np.arange(q - 1, -1, -1)[:, None]) & ((1 << bits) - 1)  # (q, cubes)
    rows = out.T.reshape(q, len(ranks), -1)
    steps = offsets[:, None, :] * (scale[:, None] / 4.0)  # (q, levels, rows)
    np.take(steps, levels, axis=1, out=rows, mode="clip")  # levels in range: "clip" writes out unbuffered
    rows += (start[levels] + (4 * index + 1) * scale[levels])[:, :, None]
    return out


@functools.lru_cache(maxsize=None)
def _face_offsets(q: int) -> np.ndarray:
    """The lattice steps k of every face row of one cube, as a read-only (q, rows) table in ``_face_points`` order."""
    last = FACE_LATTICE_POINTS - 1
    free = list(itertools.product(range(FACE_LATTICE_POINTS), repeat=q - 1))
    offsets = np.array([c[:axis] + (k,) + c[axis:] for axis in range(q) for k in (0, last) for c in free]).T.copy()
    offsets.setflags(write=False)
    return offsets


def _miranda_verdicts(
    h: Callable, beta: ModulusSpec, q: int, levels: np.ndarray, ranks: np.ndarray, z=(), p: int = 0
) -> np.ndarray:
    """Poincare-Miranda sign test of h's active block on the cubes numbered ``ranks`` on ``levels``.

    A cube passes when on each active axis i component p+i holds one
    strict sign on the face y_i = lo_i and the opposite one on y_i = hi_i,
    the orientation free per axis (Kulpa, Amer. Math. Monthly 104, 1997).
    h is evaluated, with no early exit, on the face lattice of step
    scale/4, and a sign counts only when the value is finite and exceeds
    the slack of the cube's level, beta(scale_n/4 * max(1, sqrt(q-1)/2)):
    a face point lies within (scale_n/8) sqrt(q-1) of the lattice, so the
    slack freezes the sign across a lattice cell for any h admitting
    beta, and a pass implies a zero of the active block inside the cube.
    NaN or infinite values reject the cube.  Returns one verdict per
    cube, in the order of the two parallel arrays.

    The signs are booleans: a value is clear when slack < |v| < inf,
    which also rules out NaN, and its oriented sign is (v > 0) flipped
    on the hi face.  A clear value is nonzero, so there the boolean is
    its sign; a cube passes when every value is clear and every oriented
    sign on an axis equals that axis's first one.  An unclear first
    value fails the cube by itself, so it needs no sign of its own.

    The cubes form one list, whatever their levels, and h sees their
    points (z appended) in blocks of whole cubes: consecutive slices of
    the list, at most SCAN_BLOCK_POINTS points unless one cube has more.
    ``_face_points`` writes each block's rows into it, so h gets the
    block that ``_face_points`` filled, not a copy: column-major, and
    C-order with z.  h must return an (N, p + q) block; any other shape
    is a ``ShapeError``.
    """
    rows = 2 * q * FACE_LATTICE_POINTS ** (q - 1)  # face points per cube
    step = max(1, SCAN_BLOCK_POINTS // rows)  # whole cubes per block
    tail = np.asarray(z, dtype=float).ravel()
    widen = max(1.0, math.sqrt(q - 1) / 2.0)
    used = np.bincount(levels).tolist()  # one slack, so one beta call, per level present
    slack = np.array([beta(level_schedule(n).scale / 4.0 * widen) if k else 0.0 for n, k in enumerate(used)])
    flip = np.array([False, True])[:, None]  # the hi face's sign, read as the lo face's
    verdicts = np.empty(len(ranks), dtype=bool)
    for lo in range(0, len(ranks), step):
        cubes = slice(lo, lo + step)
        size = len(ranks[cubes]) * rows
        block = np.empty((size, q + len(tail))) if len(tail) else np.empty((q, size)).T
        _face_points(q, levels[cubes], ranks[cubes], out=block[:, :q])
        block[:, q:] = tail  # z, if any
        vals = evaluate_rows(h, block)
        if vals.shape != (len(block), p + q):
            raise ShapeError(
                f"h gave values of shape {vals.shape} at {len(block)} points, "
                f"expected ({len(block)}, {p + q}): m = {p + q} values per point"
            )
        vals = vals.reshape(-1, q, 2, FACE_LATTICE_POINTS ** (q - 1), p + q)
        v = np.stack([vals[:, axis, :, :, p + axis] for axis in range(q)], axis=1)
        up = (v > 0.0) ^ flip  # where v is clear, its sign oriented by face
        mag = np.abs(v)
        clear = (mag < math.inf) & (mag > slack[levels[cubes], None, None, None])
        consistent = up == up[:, :, :1, :1]
        verdicts[cubes] = (clear & consistent).all(axis=(1, 2, 3))
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


def _double_or_exp2(direct: Optional[Callable[[], float]], log2: Callable[[], float]) -> float:
    """direct() where it is finite, its bits kept, else 2**log2(): the one range rule of every envelope."""
    try:
        value = direct() if direct is not None else math.inf
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    exponent = log2()
    return 2.0**exponent if exponent < 1024.0 else math.inf  # 2**1024 is past the largest double


def _lower_envelope(beta: ModulusSpec, eps: float, codim: int, gamma: float) -> tuple[float, float]:
    """The lower envelope at budget eps, and the inverse psi = beta.inverse(gamma * eps) it is formed from."""
    psi = beta.inverse(gamma * eps)
    direct = None
    if beta.kind == "power" and not sys.float_info.min <= psi < math.inf:
        # the power inverse left the normal range: log2 psi from logs, and the envelope in log2 only
        log_psi = (math.log2(gamma) + math.log2(eps) - math.log2(beta.lam)) / beta.alpha
    elif 0.0 < psi < math.inf:
        log_psi = math.log2(psi)
        direct = lambda: (16.0 / psi) ** codim * 2.0 ** (-4.0 * codim * math.sqrt(abs(log_psi)))  # noqa: E731
    else:
        return 0.0, psi  # a saturated inverse: the bound is vacuous
    return _double_or_exp2(direct, lambda: codim * (4.0 - log_psi - 4.0 * math.sqrt(abs(log_psi)))), psi


def theory_lower_bound(beta: ModulusSpec, eps: float, m: int, p: int, gamma: float) -> float:
    """The theoretical zero-count envelope at budget eps.

    Returns 0.0 (vacuous) when the inverse modulus saturates to +inf,
    which happens for bounded moduli once gamma*eps reaches sup beta, and
    inf only past the double range: the product is formed in log2 where
    it overflows, and so is psi where a power's inverse leaves the normal range.
    """
    require_budget(eps)
    codim = require_codim(m, p)
    if not gamma > 0.0:
        raise DomainError(f"need gamma > 0, got {gamma}")
    return _lower_envelope(beta, eps, codim, gamma)[0]


def theory_upper_curve(norm: float, eps: float, alpha: float, m: int, p: int, cw: float = 1.0) -> float:
    """Reference upper envelope cw * (norm/eps)**((m-p)/alpha), formed in log2 where that overflows."""
    require_budget(eps)
    if not 0.0 < alpha <= 1.0:  # NaN too
        raise DomainError(f"need 0 < alpha <= 1, got alpha={alpha}")
    codim = require_codim(m, p)
    if not (0.0 < norm < math.inf and 0.0 < cw < math.inf):
        raise DomainError(f"norm and cw must be positive and finite, got norm = {norm}, cw = {cw}")
    power = codim / alpha
    return _double_or_exp2(lambda: cw * (norm / eps) ** power,
                           lambda: math.log2(cw) + power * (math.log2(norm) - math.log2(eps)))


def certify(
    f: ExtremalFunction,
    eps: float,
    h: Optional[Callable] = None,
    chart: Optional[Chart] = None,
    z_grid: int = 1,
) -> Certificate:
    """Certify a zero-count lower bound at budget eps.

    Theoretical mode (no ``h``): every cube of every level n <= n0 is
    verified by construction and the counts are arithmetic.  Empirical
    mode applies the Poincare-Miranda face test of ``_miranda_verdicts``
    (Kulpa's sign condition, with a slack that freezes each sign across
    a face-lattice cell) slice by slice, at the midpoint slice of the
    free coordinates by default or on a ``z_grid``-per-axis lattice of
    slices.  The live cubes of all levels form one list of (level,
    rank) pairs, level-major and rank ascending, and one call per slice
    tests the whole list, each cube against its own level's slack.  A
    cube counts only when all slices pass: each slice keeps the cubes
    that passed it, and once none is left the remaining slices are
    skipped.  A ``z_grid`` that is not an integer (``operator.index``
    refuses it; a numpy integer passes) is refused with ``DomainError``
    before any work, and so is one below 1, or above 1 without free
    coordinates (d = q) or without h, which would slice nothing.  Before
    any slice or h call, ``EnumerationCapError`` refuses more than
    ``MESH_CAP`` cubes on level n0, more than ``EVALUATION_CAP``
    evaluations (the cubes of all levels times 2q * 9**(q-1) face points
    times z_grid**(d-q) slices), or more than ``SLICE_CAP`` level slices
    (n0 levels times z_grid**(d-q)), since each slice is one
    ``_miranda_verdicts`` call with a fixed cost however few points it has.

    With a chart, the budget inflates by lam2/lam1 before depth
    resolution, perturbations are pulled back through the chart, and
    the envelope uses the chart distortion gamma_W.  The pulled-back
    evaluator batches too: one range check and one chart map call per
    block, and h sees one ``evaluate_many`` call per block when it has
    that method.  When the flat target has a rectangle block (p >= 1)
    the reduction also needs eps <= r0, so larger budgets give a
    vacuous certificate.  No chart means the constants of
    ``identity_chart(m, r0=inf)``: factor 1, gamma_W = 2 sqrt(q), an
    unbounded rectangle half-width.  h itself is then the evaluator, not
    its identity pullback: that pullback returns h's values unchanged,
    so the certificate is the same, and h's shape is still checked.
    """
    require_budget(eps)
    z_grid = require_int(z_grid, "z-grid")
    if z_grid < 1:
        raise DomainError(f"z-grid must be >= 1, got {z_grid}")
    beta, q, p, d = f.beta, f.q, f.p, f.d
    if z_grid > 1 and d == q:
        raise DomainError(f"z-grid {z_grid} slices the free coordinates, but d = q = {q} leaves none")
    if z_grid > 1 and h is None:
        raise DomainError(f"z-grid {z_grid} slices the empirical test, but theoretical mode (no h) runs none")
    m = f.m
    evaluator = h if chart is None or h is None else pullback_perturbation(chart, h)[0]
    if chart is None:
        chart = identity_chart(m, r0=math.inf)
    if chart.m != m:
        raise DomainError(f"chart dimension {chart.m} does not match map codomain {m}")
    gamma = gamma_w(chart, p)
    eps_flat = chart.distortion * eps
    rectangle_ok = p == 0 or eps <= chart.r0

    n0 = resolve_depth(beta, q, eps_flat) if rectangle_ok else 0
    totals = [2 ** (q * n * n) for n in range(1, n0 + 1)]  # level n's cubes
    deepest = totals[-1] if totals else 0
    verified = totals
    if evaluator is not None:  # sized before any slice is built or h is called
        check_work(deepest, MESH_CAP, f"certify's level {n0} at q = {q}", "cubes")
        evaluations = sum(totals) * 2 * q * FACE_LATTICE_POINTS ** (q - 1) * z_grid ** (d - q)
        check_work(evaluations, EVALUATION_CAP, f"certify to depth {n0}, q = {q}, z-grid {z_grid}", "evaluations")
        check_work(n0 * z_grid ** (d - q), SLICE_CAP, f"certify to depth {n0}, q = {q}, z-grid {z_grid}", "slices")
        levels = np.repeat(np.arange(1, n0 + 1), totals)  # the live cubes: level-major, rank ascending
        ranks = np.concatenate([np.arange(0), *map(np.arange, totals)])  # arange(0): n0 = 0 lists no cube
        for index in np.ndindex(*(z_grid,) * (d - q)):  # lexicographic; d = q gives the one empty slice
            if not len(ranks):
                break  # no live cube left to decide
            z = [(k + 0.5) / z_grid for k in index]
            passed = _miranda_verdicts(evaluator, beta, q, levels, ranks, z, p)
            levels, ranks = levels[passed], ranks[passed]
        verified = np.bincount(levels, minlength=n0 + 1)[1:].tolist()
    per_level = tuple(map(LevelCount, range(1, n0 + 1), verified, totals))
    certified = sum(verified)

    theory, psi = _lower_envelope(beta, eps, m - p, gamma)
    vacuous = n0 == 0 or math.isinf(psi)
    return Certificate(
        eps=float(eps),
        n0=n0,
        per_level_counts=per_level,
        certified_count=certified,
        paper_bound=deepest,
        theory_bound=theory,
        mode="theoretical" if evaluator is None else "empirical",
        vacuous=vacuous,
        envelope_ok=(n0 == 0) or theory <= certified,
    )
