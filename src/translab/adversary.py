"""Upper-bound perturbations that remove zeros at bounded sup-norm cost.

Two constructions for scalar 1-Lipschitz targets f on [0,1]:

* ``flatten_perturbation`` partitions [0,1] into ceil(C/(3 eps)) equal
  intervals (lengths land in [2 eps/C, 3 eps/C]), lifts each interval
  where |f| stays below eps/2 onto the constant plateau eps/2 via two
  unit-slope ramps, and re-interpolates the remaining intervals
  piecewise-linearly on ceil(3/C) subintervals.  The result stays
  within eps of f and carries at most 2 zeros per lifted interval.
  ``flatten_arrays`` builds the lifts at several budgets from one table
  of their partition intervals, a group of budgets at a time, calling f
  once per stage for each group, drops each row's redundant breakpoints
  by a rule local to the row, and yields each lift as bare
  (breakpoints, values) arrays.  ``flatten_perturbation`` wraps
  ``flatten_arrays``' lift at one budget, so both give the same lift
  bit for bit.

* ``refine_interpolant`` interpolates f on the uniform mesh of
  ceil(4/eps) subintervals (mesh <= eps/4) and nudges knot zeros away,
  so each subinterval carries at most one zero and the distance stays
  within eps/8 + 2e-12; a subinterval holding a point where |f| > eps/2
  ends up zero-free.

``iterate_improvement`` repeats the re-interpolation down a geometric
budget ladder eps0/4**k and reports each interpolant's zero count, read
exactly off its knot signs by ``count_zero_components``, for comparison
with the contradiction envelope (1 - 7 C^2/36)**k * 4**k / eps0.

Every construction calls f on 1-D float arrays of points, so f must
broadcast the way numpy functions do (``np.sin``, not ``math.sin``); a
callable returning a constant is broadcast to the array's shape.  f
must also give the same value at a point whichever array holds it:
flatten classifies intervals by the partition-point values it reuses,
and reuses them again at the ends of each re-interpolation mesh.
f must be finite: a NaN or infinite value is refused with
``DomainError``, naming the first point that gave it.

f may carry an optional ``sup_from`` attribute, as the callable of
``ExtremalFunction.as_scalar`` does for the power modulus with alpha = 1:
``f.sup_from(s)``, on a float array s, bounds |f| on [s, 1]
elementwise, computed values included.  flatten then lifts a candidate
interval whose bound is at or below its threshold without scanning it,
the verdict the scan would have reached.  f may also carry
``peak_from``, as that callable does too: ``f.peak_from(s)``,
on a float array s, is a hint of a point at or right of s where |f|
peaks.  flatten tries the two scan samples of an interval next to the
hint at its left end, and rejects the interval unscanned when either
exceeds the threshold.  The hint may be any double, NaN included; a
probe is always one of the interval's own scan samples.  A callable
without these attributes is scanned in full.

The sweep and ``perturb`` refuse what ``target_refusal`` and
``check_budget`` refuse, the adversary's preconditions.  Layouts that
cannot fit are refused with ``EnumerationCapError`` before f is called:
more than ``MESH_CAP`` refine cells, or more than ``MESH_CAP`` cells in
flatten's breakpoint table (partition intervals times the breakpoints
each one may hold) at any one budget.  A group of
``flatten_arrays`` holds at most max(the largest budget's intervals,
``SCAN_BLOCK_POINTS``) intervals and ``MESH_CAP`` cells, so a short
budget list is one table and a long one splits at its largest budget.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import DomainError
from .funcrep import MESH_CAP, SCAN_BLOCK_POINTS, SampledFunction, _nudge, check_work, count_zero_components

NUDGE_ETA = 1e-12
SCAN_STEP_DIVISOR = 64  # interval maxima sampled at step eps/64


def target_refusal(target, name: str = "the target") -> Optional[str]:
    """Why the adversary refuses target (F, or a grid function called name), or None.

    flatten and refine stay within eps of a scalar 1-Lipschitz target only.  A grid's constant is
    its steepest knot segment (a difference of doubles rounds monotonely, so a 1-Lipschitz grid
    passes); F's is lambda/2 at alpha = 1 for a power modulus, and F is not Lipschitz at alpha < 1.
    Outside that range their outputs were measured up to 32 eps away from F.
    """
    if (target.d, target.m, getattr(target, "p", 0)) != (1, 1, 0):
        return "adversary runs need d = m = 1 and p = 0"
    if isinstance(target, SampledFunction):
        x, v = target.grid[0], target.values[:, 0]
        dx, dv = np.diff(x), np.abs(np.diff(v))
        steep = np.flatnonzero(dv > dx)
        if not len(steep):
            return None
        k = steep[np.argmax(dv[steep] / dx[steep])]
        return (f"adversary runs need a 1-Lipschitz target; {name} has slope {float(dv[k] / dx[k])!r} "
                f"on [{float(x[k])!r}, {float(x[k + 1])!r}]")
    beta, why = target.beta, "adversary runs need a 1-Lipschitz F (alpha = 1, lambda <= 2); "
    if beta.kind != "power":
        return why + f"F's modulus is a {beta.kind}, not lambda * s**alpha"
    if beta.alpha < 1.0:
        return why + f"F is not Lipschitz at alpha = {beta.alpha!r}"
    if beta.lam > 2.0:
        return why + f"F's Lipschitz constant at lambda = {beta.lam!r} is lambda/2 = {beta.lam / 2.0!r}"
    return None


def check_budget(eps: float, C: float) -> None:
    """flatten's C and C/6 rule and refine's mesh cap at eps; flatten's table (<= 2.5/eps cells) never binds first."""
    _check_budget(eps, C)
    _refine_cells(eps)


def _check_budget(eps: float, C: float) -> None:
    # eps <= C/6 keeps the partition lengths inside [2 eps/C, 3 eps/C]
    if not (0.0 < C <= 1.0):
        raise DomainError(f"need C in (0, 1], got {C}")
    if not (0.0 < eps <= C / 6.0):
        raise DomainError(f"need 0 < eps <= C/6 = {C / 6.0}, got {eps}")


def _partition(eps: float, C: float) -> np.ndarray:
    k0 = math.ceil(C / (3.0 * eps))
    return np.linspace(0.0, 1.0, k0 + 1)


def _values(f: Callable, xs: np.ndarray) -> np.ndarray:
    """f on a 1-D float array, broadcast to its shape (constant callables included).

    A NaN or infinite value is refused, naming the first point that gave it.
    """
    vs = np.broadcast_to(np.asarray(f(xs), dtype=float), xs.shape)
    if not np.isfinite(vs).all():
        i = int(np.argmin(np.isfinite(vs)))
        raise DomainError(f"target must be finite, got {vs[i]} at {xs[i]}")
    return vs


def _samples(a: np.ndarray, b: np.ndarray, step) -> tuple[np.ndarray, np.ndarray]:
    """Scan samples per interval [a[k], b[k]] and their spacing: sample i
    is a + i * delta, the last one b, as numpy's arange lays them out.
    step is one float or one per interval, here and in the scans below."""
    return np.maximum(np.ceil((b - a) / step), 0.0).astype(np.int64) + 1, (a + step) - a


def _probe(f: Callable, a: np.ndarray, b: np.ndarray, step, hint) -> np.ndarray:
    """Max |f| over the two scan samples of each interval that start at
    the last sample at or left of hint[k].

    A hint that is NaN or off [a[k], b[k]] is moved to the nearer end, so
    every point f sees is a sample that ``_scan`` would take.
    """
    counts, delta = _samples(a, b, step)
    last = counts - 1
    x = np.fmin(np.fmax(hint, a), b)  # fmax turns NaN into a
    i = np.minimum(np.floor((x - a) / delta), last)
    i = np.stack([i, np.minimum(i + 1.0, last)], axis=1)
    xs = np.where(i == last[:, None], b[:, None], a[:, None] + i * delta[:, None])
    return np.abs(_values(f, xs.ravel())).reshape(i.shape).max(axis=1)


def _scan(f: Callable, a: np.ndarray, b: np.ndarray, step) -> np.ndarray:
    """Sampled max |f| over the interior scan samples of each interval [a[k], b[k]].

    Interval k is sampled at np.arange(a[k], b[k], step) followed by
    b[k], built the way numpy's arange builds it (a + i * ((a + step) - a)),
    so its first and last samples are exactly a[k] and b[k].  Only the
    samples between those two ends are sent to f: the caller holds f at
    the ends already.  An interval with no interior sample gets 0, so its
    ends settle it.  f is called once per block of whole intervals, about
    SCAN_BLOCK_POINTS points each, so memory stays flat however fine the
    step.  A block is built as one row per interval, padded to its
    longest row, which costs little for intervals of about equal length,
    as flatten's are.
    """
    counts, delta = _samples(a, b, step)
    inner = np.maximum(counts - 2, 0)  # samples 1 .. counts - 2
    ends = np.cumsum(inner)
    peak = np.zeros(len(a))
    lo = 0
    while lo < len(a):
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + SCAN_BLOCK_POINTS, side="right")))
        cnt = inner[lo:hi]
        some = cnt > 0
        if some.any():
            i = np.arange(1, cnt.max() + 1)
            grid = a[lo:hi, None] + i * delta[lo:hi, None]  # row k: interval lo + k, padded
            xs = grid[i <= cnt[:, None]]
            # reduceat would read a segment of none as its next point, so only non-empty segments go in
            peak[lo:hi][some] = np.maximum.reduceat(np.abs(_values(f, xs)), (ends[lo:hi] - cnt - base)[some])
        lo = hi
    return peak


def flatten_arrays(
    f: Callable, budgets: Sequence[float], C: float
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The zero-removing lift of f at each budget, in order, one per budget.

    Each lift is a pair of 1-D arrays: its kept breakpoints, strictly
    increasing, and the lift's values there.  ``flatten_perturbation``
    wraps the pair at one budget as a ``SampledFunction``.

    Every budget is checked first: ``DomainError`` for eps > C/6, and
    ``EnumerationCapError`` for a layout of more than ``MESH_CAP``
    breakpoint-table cells, both before f is called.  The lifts are then
    built a group of consecutive budgets at a time, the group growing
    while it holds at most max(the largest budget's intervals,
    ``SCAN_BLOCK_POINTS``) partition intervals and its table at most
    ``MESH_CAP`` cells: j = 6..14 at C = 1 (10 906 intervals) is one
    group, and a list past 2**15 intervals splits at its largest budget,
    whose table alone is as large.  A group's intervals form one table
    with a budget, a scan step, a threshold and a plateau per interval,
    and f is called once per stage for the whole group: partition points,
    ``peak_from`` probes, scan blocks, re-interpolation points.  The
    iterator builds a group when it reaches the group's first budget, so
    a caller that takes one lift per step pays for each group at its
    first budget.

    Intervals are classified by a sampled maximum with a Lipschitz
    safety margin of half the scan step, so a lifted interval truly
    satisfies max |f| <= eps/2 whenever f is 1-Lipschitz; borderline
    intervals fall through to the piecewise-linear branch, which is
    within eps regardless.  An interval with a partition endpoint above
    the threshold is classified without an interior scan: the endpoints
    are the scan's first and last samples, so the verdict is the same.
    For the same reason the scan sends f only each interval's interior
    samples: both ends are partition points already at or below the
    threshold, so the interior decides the verdict.  When f has
    ``sup_from``, an interval [a, b] with both endpoints low and
    ``sup_from(a)`` at or below the threshold is lifted unscanned:
    every scan sample lies in [a, b], where |f| is at most that bound,
    so the scan would have lifted it too.  When f has ``peak_from``, each
    interval still to be scanned is first probed at the two scan samples
    next to ``peak_from(a)``; a probe value above the threshold rejects
    it unscanned, since the scan's maximum counts that sample too.  Only
    the scan's points, and any ``ResolutionWarning`` or refusal of a
    non-finite value they would raise, are skipped.

    Every interval is laid out as a row of k1 + 1 breakpoints, k1 =
    ceil(3/C) >= 3.  An interval that is not lifted keeps its
    re-interpolation mesh, linspace(a, b, k1 + 1), whose ends are exactly
    its partition points, so f is called only at the mesh's interior
    points and the ends reuse the partition values.  A lifted row holds
    a, the two ramp ends and b, padded with copies of b.  A breakpoint
    that does not lie strictly right of every earlier one of its budget
    (a padded copy, a duplicate or a collapsed ramp) is dropped, so the
    first value at a point wins.  Every breakpoint of a row lies in
    [a, b] (the ramp ends lie within eps of a and of b, on an interval at
    least 2 eps long) and the row ends at b, the next row's a, so the
    rule is applied row by row: a breakpoint is kept when it lies
    strictly right of the earlier ones of its own row, and each row's a
    is dropped except in a budget's first row.
    """
    budgets = list(budgets)
    for eps in budgets:
        _check_budget(eps, C)
        cells = np.ceil(C / (3.0 * eps)) * (np.ceil(3.0 / C) + 1.0)  # in floats: inf, not an error, for subnormals
        check_work(cells, MESH_CAP, f"flatten_perturbation at eps = {eps!r}, C = {C!r}")
    return _lift_groups(f, budgets, C)


def _lift_groups(f: Callable, budgets: list[float], C: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The lifts, built a group of consecutive budgets at a time as the caller reaches the group."""
    sizes = [math.ceil(C / (3.0 * eps)) for eps in budgets]
    # the largest budget's own table is within MESH_CAP, checked by flatten_arrays
    most = max(max(sizes, default=0), min(SCAN_BLOCK_POINTS, MESH_CAP // (math.ceil(3.0 / C) + 1)))
    lo = 0
    while lo < len(budgets):
        hi, total = lo + 1, sizes[lo]
        while hi < len(budgets) and total + sizes[hi] <= most:
            total += sizes[hi]
            hi += 1
        yield from _lift_table(f, budgets[lo:hi], C)
        lo = hi


def _lift_table(f: Callable, budgets: list[float], C: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """flatten's lifts at a group of budgets, from one table of their partition intervals."""
    cuts = [_partition(eps, C) for eps in budgets]
    pts = np.concatenate(cuts)
    fc = _values(f, pts)
    left = np.ones(len(pts) - 1, dtype=bool)  # a cut that starts an interval, ended by the next cut
    left[np.cumsum([len(c) for c in cuts])[:-1] - 1] = False  # not a budget's last cut
    a, b, fa, fb = pts[:-1][left], pts[1:][left], fc[:-1][left], fc[1:][left]
    rows = np.cumsum([0] + [len(c) - 1 for c in cuts])
    eps = np.repeat(budgets, np.diff(rows))
    step = eps / SCAN_STEP_DIVISOR
    thr = eps / 2.0 - step / 2.0
    half = eps / 2.0
    lifted = (np.abs(fa) <= thr) & (np.abs(fb) <= thr)
    scan = lifted.copy()
    sup_from = getattr(f, "sup_from", None)
    if sup_from is not None:
        scan[lifted] = sup_from(a[lifted]) > thr[lifted]  # a bound at or below thr settles the lift
    peak_from = getattr(f, "peak_from", None)
    if peak_from is not None and scan.any():
        k = np.flatnonzero(scan)
        high = k[_probe(f, a[k], b[k], step[k], peak_from(a[k])) > thr[k]]  # one sample above thr settles the rejection
        lifted[high] = scan[high] = False
    lifted[scan] = _scan(f, a[scan], b[scan], step[scan]) <= thr[scan]
    # every row starts as f interpolated on k1 equal subintervals; linspace
    # puts a and b exactly at the mesh ends, where fa and fb hold f already
    k1 = math.ceil(3.0 / C)
    xs = np.linspace(a, b, k1 + 1, axis=1).copy()  # row-major, as the table is read
    vs = np.empty_like(xs)
    vs[:, 0], vs[:, k1] = fa, fb
    # lifted rows: two unit-slope ramps onto the plateau eps/2, then b and its copies
    up = np.flatnonzero(lifted)
    xs[up, 1] = a[up] - fa[up] + half[up]
    xs[up, 2] = b[up] + fb[up] - half[up]
    xs[up, 3:] = b[up, None]
    vs[up, 1:3] = half[up, None]
    vs[up, 3:k1] = fb[up, None]
    rest = np.flatnonzero(~lifted)
    if len(rest):
        inner = xs[rest, 1:k1]
        vs[rest, 1:k1] = _values(f, inner.ravel()).reshape(inner.shape)
    # every breakpoint of a row lies in [a, b] and the row ends at b, the next
    # row's a: past a budget's first row, a is dropped, and every other
    # breakpoint need only lie right of the earlier ones of its own row
    keep = np.empty(xs.shape, dtype=bool)
    keep[:, 0] = False
    keep[rows[:-1], 0] = True
    top = xs[:, 0]
    for c in range(1, k1 + 1):  # column by column: numpy accumulates along short rows slowly
        np.greater(xs[:, c], top, out=keep[:, c])
        top = np.maximum(top, xs[:, c])
    return [(xs[lo:hi][keep[lo:hi]], vs[lo:hi][keep[lo:hi]]) for lo, hi in zip(rows[:-1], rows[1:])]


def flatten_perturbation(f: Callable, eps: float, C: float) -> SampledFunction:
    """The zero-removing lift of f at budget eps: ``flatten_arrays``' lift at that one budget."""
    x, v = next(flatten_arrays(f, (eps,), C))
    return SampledFunction(grid=(x,), values=v[:, None])


def _refine_cells(eps: float) -> int:
    """The cell count ceil(4/eps) of refine's mesh, refused past ``MESH_CAP``."""
    if not eps > 0.0:
        raise DomainError(f"budget must be positive, got {eps}")
    if eps == math.inf:
        raise DomainError(f"budget must be finite, got {eps}")
    check_work(np.ceil(4.0 / eps), MESH_CAP, f"refine_interpolant at eps = {eps!r}")  # inf, not an error, if subnormal
    return math.ceil(4.0 / eps)


def refine_interpolant(f: Callable, eps: float) -> SampledFunction:
    """Piecewise-linear interpolant of f on the mesh of ceil(4/eps) cells.

    Knot zeros are nudged to +1e-12 so each cell carries at most one
    zero, and a cell holding a point where |f| > eps/2 carries none.  For
    1-Lipschitz f the result stays within eps/8 + 2e-12 of f: on a cell of
    width h <= eps/4 interpolation errs by at most 2t(1 - t)h <= h/2 at
    a + t*h, and the nudge moves a knot value by under 2e-12.  A mesh of
    more than ``MESH_CAP`` cells is refused before f is called.  The
    nudge is made on a private copy of f's values, with the rule of
    ``nudge_knot_zeros``, and the result is validated once.
    """
    knots = np.linspace(0.0, 1.0, _refine_cells(eps) + 1)
    vals = _values(f, knots).copy()  # f's result may be its argument, or read-only
    _nudge(vals, NUDGE_ETA)
    return SampledFunction(grid=(knots,), values=vals[:, None])


def improvement_envelope(eps0: float, C: float, k: int) -> float:
    """The contradiction envelope (1 - 7C^2/36)**k * 4**k / eps0."""
    return (1.0 - 7.0 * C * C / 36.0) ** k * 4.0**k / eps0


def iterate_improvement(
    f: Callable, eps0: float, C: float, rounds: int
) -> list[tuple[float, int]]:
    """Drive the budget ladder eps0/4**k, k = 1..rounds.

    Round k re-interpolates at scale s = eps0/4**(k-1), within s/8 + 2e-12
    of a 1-Lipschitz f; every round the cap admits has s >= 4/MESH_CAP =
    2**-22, so that is within eps0/4**k = s/4, and its zero count is an
    achieved value at that budget.  Returns (budget, count) pairs.  A
    ladder whose finest round would lay out more than ``MESH_CAP`` cells
    is refused before f is called.
    """
    if rounds < 1:
        raise DomainError(f"need rounds >= 1, got {rounds}")
    _check_budget(eps0, C)
    finest = eps0
    for _ in range(rounds - 1):
        if finest == 0.0:  # underflowed; it stays 0
            break
        finest /= 4.0
    cells = np.ceil(4.0 / finest) if finest else math.inf
    check_work(cells, MESH_CAP, f"iterate_improvement's round {rounds} at eps = {finest!r}")
    out: list[tuple[float, int]] = []
    scale = eps0
    for k in range(1, rounds + 1):
        g = refine_interpolant(f, scale)
        count = count_zero_components(g).component_count
        out.append((eps0 / 4.0**k, count))
        scale /= 4.0
    return out

