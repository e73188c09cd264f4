"""Upper-bound perturbations that remove zeros at bounded sup-norm cost.

Two constructions for scalar 1-Lipschitz targets f on [0,1]:

* ``flatten_perturbation`` partitions [0,1] into ceil(C/(3 eps)) equal
  intervals (lengths land in [2 eps/C, 3 eps/C]), lifts each interval
  where |f| stays below eps/2 onto the constant plateau eps/2 via two
  unit-slope ramps, and re-interpolates the remaining intervals
  piecewise-linearly on ceil(3/C) subintervals.  The result stays
  within eps of f and carries at most 2 zeros per lifted interval.
  ``flatten_arrays`` builds the lifts at several budgets, a group of
  budgets at a time: it classifies the group's partition points
  together, calling f once per stage for the whole group, naming each
  point's row ``MESH``, ``LIFT`` or ``END`` (a budget's last cut), then
  lays out the rows a run of budgets at a time, writes each row's
  breakpoints, as many as its kind keeps, straight to their places, and
  yields each lift as bare (breakpoints, values) slices.
  ``flatten_perturbation`` wraps ``flatten_arrays``' lift at one
  budget, so both give the same lift bit for bit.

* ``refine_interpolant`` interpolates f on the uniform mesh of
  ceil(4/eps) subintervals (mesh <= eps/4) and nudges knot zeros away,
  so each subinterval carries at most one zero and the distance stays
  within eps/8 + 2e-12; a subinterval holding a point where |f| > eps/2
  ends up zero-free.  Its knot values come from ``refine_values``,
  which fills one array a block of knots at a time, cut by
  ``funcrep.blocks`` as ``profile_many``'s points are, so no temporary
  outgrows a block: the sweep counts that bare array.

``iterate_improvement`` repeats the re-interpolation down a geometric
budget ladder eps0/4**k and reports each interpolant's zero count, read
exactly off ``refine_values``' knot signs by ``count_value_zeros``, for
comparison with the contradiction envelope (1 - 7 C^2/36)**k * 4**k / eps0.

Every construction calls f on 1-D float arrays of points, so f must
broadcast the way numpy functions do (``np.sin``, not ``math.sin``); a
callable returning a constant is broadcast to the array's shape, and a
result that does not broadcast to it, such as an (N, 1) column, is
refused with ``ShapeError``.  f
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
budget list is one group and a long one splits at its largest budget.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .certifier import _double_or_exp2
from .errors import DomainError, ShapeError, require_budget, require_count
from .funcrep import MESH_CAP, SCAN_BLOCK_POINTS, SampledFunction, _nudge, _uniform, blocks, check_work, count_value_zeros

NUDGE_ETA = 1e-12
SCAN_STEP_DIVISOR = 64  # interval maxima sampled at step eps/64
MESH, LIFT, END = 0, 1, 2  # flatten's row kinds: re-interpolated, lifted, a budget's last cut


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
    return _uniform(math.ceil(C / (3.0 * eps)))


def _values(f: Callable, xs: np.ndarray) -> np.ndarray:
    """f on a 1-D float array, broadcast to its shape (constant callables included).

    A result that does not broadcast to that shape, such as an (N, 1)
    column, is refused with ``ShapeError`` naming both shapes.  A NaN or
    infinite value is refused, naming the first point that gave it.
    """
    vs = np.asarray(f(xs), dtype=float)
    if vs.shape != xs.shape:
        try:
            vs = np.broadcast_to(vs, xs.shape)
        except ValueError:
            raise ShapeError(f"target returned shape {vs.shape} on points of shape {xs.shape}") from None
    if not (-math.inf < vs.min(initial=0.0) and vs.max(initial=0.0) < math.inf):  # NaN too: min and max carry it
        i = int(np.argmin(np.isfinite(vs)))
        raise DomainError(f"target must be finite, got {vs[i]} at {xs[i]}")
    return vs


def _samples(a: np.ndarray, b: np.ndarray, step) -> tuple[np.ndarray, np.ndarray]:
    """The scan samples strictly inside each interval [a[k], b[k]], as their
    count and spacing: sample i is a + i * delta, i = 0, 1, .., as numpy's
    arange lays them out, and the samples inside are i = 1..count; with a
    and b they are the interval's scan samples.  step is one float or one
    per interval, here and in the scans below.

    arange takes ceil((b - a) / step) samples, and as delta may round up
    from step its last one may land at or past b; it is dropped, as b is
    sampled anyway.  Only that one can: the sample before it lies about a
    step below b, and the roundings of a + i * delta are far below a step.
    With fewer than two arange samples the test reads sample 0 (a) or
    below, left of b, and drops none.
    """
    last = np.ceil((b - a) / step) - 1.0  # arange's last sample
    delta = (a + step) - a
    last -= a + last * delta >= b
    return np.maximum(last, 0.0).astype(np.int64), delta


def _probe(f: Callable, a: np.ndarray, b: np.ndarray, step, hint) -> np.ndarray:
    """Max |f| over the two scan samples of each interval, left of b[k], that
    start at the last sample at or left of hint[k].

    A hint that is NaN or off [a[k], b[k]] is moved to the nearer end, so
    every point f sees is a sample that ``_scan`` would take, or a[k].
    b[k] is never probed: the caller holds f there already.
    """
    top, delta = _samples(a, b, step)  # the last sample left of b
    x = np.fmin(np.fmax(hint, a), b)  # fmax turns NaN into a
    xs = np.empty(2 * len(a))  # the two samples of interval k at 2k and 2k + 1
    i, j = xs[0::2], xs[1::2]
    np.minimum(np.floor((x - a) / delta), top, out=i)
    np.minimum(i + 1.0, top, out=j)
    for col in (i, j):
        col *= delta
        col += a
    v = np.abs(_values(f, xs))
    return np.maximum(v[0::2], v[1::2])


def _scan(f: Callable, a: np.ndarray, b: np.ndarray, step) -> np.ndarray:
    """Sampled max |f| over the interior scan samples of each interval [a[k], b[k]].

    Interval k is sampled at the points of np.arange(a[k], b[k], step)
    below b[k], built the way numpy's arange builds them (a + i * ((a +
    step) - a)), followed by b[k], so its first and last samples are
    exactly a[k] and b[k] (see ``_samples``).  Only the samples between
    those two ends are sent to f: the caller holds f at the ends already.
    An interval with no interior sample gets 0, so its ends settle it.  f
    is called once per block of whole intervals, about SCAN_BLOCK_POINTS
    points each, so memory stays flat however fine the step.  A block is
    built as one row per interval, padded to its longest row, which costs
    little for intervals of about equal length, as flatten's are; |f| goes
    back into the rows, padded with 0, and each row's max is its peak.
    """
    inner, delta = _samples(a, b, step)
    peak = np.zeros(len(a))
    for lo, hi in _runs(inner, SCAN_BLOCK_POINTS):
        i = np.arange(1, inner[lo:hi].max() + 1)
        if len(i):
            on = i <= inner[lo:hi, None]  # row k: interval lo + k's samples, padded
            grid = a[lo:hi, None] + i * delta[lo:hi, None]
            v = np.zeros(grid.shape)
            v[on] = np.abs(_values(f, grid[on]))
            v.max(axis=1, out=peak[lo:hi])
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
    whose table alone is as large.  f is called once per stage for the
    whole group, when the caller asks for the group's first lift:
    partition points, ``peak_from`` probes, scan blocks, re-interpolation
    points.  The rows are then laid out a run of consecutive budgets at a
    time, a run holding no more intervals than the group's largest
    budget, when the caller reaches the run's first budget (j = 6..14
    lays out j = 6..13, then j = 14).  Between runs the group keeps its
    cuts, the re-interpolation points, f at both and the cuts' kinds,
    and fills each run's rows from them, computing nothing twice.

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

    Every cut starts a row to the next cut, of one kind fixed by the
    classification.  A ``MESH`` row keeps its re-interpolation mesh,
    linspace(a, b, k1 + 1) with k1 = ceil(3/C) >= 3, whose ends are
    exactly its partition points, so f is called only at the mesh's
    interior points and the ends reuse the partition values.  A ``LIFT``
    row holds a, the two ramp ends and b.  An ``END`` cut, a budget's
    last, reaches the next budget's first cut.  Every cut is kept, and
    after it a row keeps k1 breakpoints if ``MESH`` (its mesh interior
    and b), 3 if ``LIFT`` (its ramp ends and b) and 1 if ``END`` (the
    next budget's first cut).  A cumsum of those counts gives each
    breakpoint's place in one output array, where it is written
    directly, and each lift is the slice that ends at its ``END`` cut.
    These are the breakpoints that lie strictly right of every earlier
    one of their budget, the per-budget construction's rule: every
    breakpoint of a row but a and b lies strictly inside (a, b), by
    margins far above rounding (README, "Soundness notes").
    """
    budgets = list(budgets)
    for eps in budgets:
        _check_budget(eps, C)
        cells = np.ceil(C / (3.0 * eps)) * (np.ceil(3.0 / C) + 1.0)  # in floats: inf, not an error, for subnormals
        check_work(cells, MESH_CAP, f"flatten_perturbation at eps = {eps!r}, C = {C!r}")
    sizes = [math.ceil(C / (3.0 * eps)) for eps in budgets]
    # the largest budget's own table is within MESH_CAP, checked above
    most = max(max(sizes, default=0), min(SCAN_BLOCK_POINTS, MESH_CAP // (math.ceil(3.0 / C) + 1)))
    return itertools.chain.from_iterable(_lift_table(f, budgets[lo:hi], C) for lo, hi in _runs(sizes, most))


def _runs(sizes, most: int) -> Iterator[tuple[int, int]]:
    """Slices [lo, hi) of consecutive sizes (each >= 0), each growing while its total stays within most (one size at least)."""
    ends = np.cumsum(sizes)  # never falls, so a slice ends before the first end past its start plus most
    lo = 0
    while lo < len(ends):
        hi = max(lo + 1, int(np.searchsorted(ends, (ends[lo - 1] if lo else 0) + most, side="right")))
        yield lo, hi
        lo = hi


def _lift_table(f: Callable, budgets: list[float], C: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """flatten's lifts at a group of budgets: f at each stage for the whole group, then rows a run at a time."""
    pts, fc, kind, starts = _classify(f, budgets, C)
    k1 = math.ceil(3.0 / C)
    rest = np.flatnonzero(kind == MESH)
    mesh = np.empty((k1 - 1, len(rest)))  # row c - 1: mesh point c of every MESH row
    _interior(pts[rest], pts[rest + 1], k1, mesh.T)
    del rest
    inner = _values(f, mesh.ravel()).reshape(mesh.shape)
    sizes = np.diff(starts).tolist()
    used = 0
    for lo, hi in _runs(sizes, max(sizes)):
        run = slice(starts[lo], starts[hi])
        rows = slice(used, used + np.count_nonzero(kind[run] == MESH))
        yield from _lifts(budgets[lo:hi], pts[run], fc[run], kind[run], mesh[:, rows], inner[:, rows], k1)
        used = rows.stop


def _lifts(budgets: list[float], pts: np.ndarray, fc: np.ndarray, kind: np.ndarray,
           mesh: np.ndarray, inner: np.ndarray, k1: int):
    """The lifts of a run of budgets, from a table with a row from each of its cuts to the next.

    f at the cuts pts is fc, and kind names each cut's row: ``MESH``, ``LIFT`` or, at each budget's last
    cut, ``END``, whose row (to the next budget's first cut) keeps no breakpoint but that cut.  mesh holds
    the re-interpolation interiors of the ``MESH`` rows, one column per row, and inner f there.

    Every cut is kept, and a row's kind fixes how many breakpoints it keeps after its a, its b included:
    k1 for ``MESH`` (its mesh interior and b), 3 for ``LIFT`` (its ramp ends and b), and 1 for ``END`` (its
    b, the next budget's first cut).  A cumsum of those counts places every cut, each row's other
    breakpoints follow its a, and each budget is the slice up to its ``END`` cut; a ``LIFT`` row's plateau
    is its budget's eps/2, that budget counted by the ``END`` cuts before it.  Every kept breakpoint but
    a and b lies strictly inside (a, b): mesh steps are >= eps/2, and as b - a >= 2 eps and
    |fa|, |fb| <= eps/2 - eps/128, the ramp ends lie >= eps/128 inside and >= eps/64 apart, far above two
    roundings of 2**-52 each for every budget MESH_CAP admits (eps/128 >= 2**-31).  So no kept breakpoint
    needs comparing.
    """
    at = np.zeros(len(pts), dtype=np.int64)  # each cut's place
    np.cumsum(np.array([k1, 3, 1])[kind[:-1]], out=at[1:])  # kept counts by kind: MESH, LIFT, END
    x, v = np.empty(at[-1] + 1), np.empty(at[-1] + 1)
    x[at], v[at] = pts, fc
    after = at[kind == MESH] + np.arange(1, k1)[:, None]  # a MESH row's places after its a, a column each
    x[after], v[after] = mesh, inner
    # a LIFT row's two unit-slope ramps onto the plateau eps/2
    ends = np.flatnonzero(kind == END)
    rows = np.flatnonzero(kind == LIFT)
    half = np.divide(budgets, 2.0)[np.searchsorted(ends, rows)]
    ramps = np.empty((2, len(rows)))
    np.add(pts[rows] - fc[rows], half, out=ramps[0])
    np.subtract(pts[rows + 1] + fc[rows + 1], half, out=ramps[1])
    after = at[rows] + np.arange(1, 3)[:, None]
    x[after], v[after] = ramps, half
    stops = (at[ends] + 1).tolist()
    return [(x[lo:hi], v[lo:hi]) for lo, hi in zip([0] + stops, stops)]


def _classify(f: Callable, budgets: list[float], C: float):
    """A group's cuts, f there, the kind of the row each cut starts, and each budget's first cut.

    Budget i's cuts are pts[starts[i]:starts[i + 1]].  A cut's kind is
    ``LIFT`` if its interval is lifted, ``MESH`` if it is re-interpolated,
    and ``END`` at a budget's last cut, which starts no interval; nothing
    rewrites it later.  Each budget has one scan step and one threshold,
    gathered per interval only for the intervals that ``sup_from``,
    ``_probe`` or ``_scan`` read.
    """
    cuts = [_partition(eps, C) for eps in budgets]
    starts = np.cumsum([0] + [len(c) for c in cuts])
    pts = np.concatenate(cuts)
    del cuts
    fc = _values(f, pts)
    steps = np.divide(budgets, SCAN_STEP_DIVISOR)
    thrs = np.divide(budgets, 2.0) - steps / 2.0
    low = np.abs(fc) <= np.repeat(thrs, np.diff(starts))
    kind = np.empty(len(pts), dtype=np.int8)
    kind[:-1] = low[:-1] & low[1:]  # LIFT (1) where both ends are low, else MESH (0)
    kind[starts[1:] - 1] = END

    def budget(k):  # each interval's budget, by its first cut
        return np.searchsorted(starts, k, side="right") - 1

    scan = kind == LIFT
    sup_from = getattr(f, "sup_from", None)
    if sup_from is not None:
        k = np.flatnonzero(scan)
        scan[k] = sup_from(pts[k]) > thrs[budget(k)]  # a bound at or below thr settles the lift
    peak_from = getattr(f, "peak_from", None)
    if peak_from is not None and scan.any():
        k = np.flatnonzero(scan)
        i = budget(k)
        high = k[_probe(f, pts[k], pts[k + 1], steps[i], peak_from(pts[k])) > thrs[i]]  # one sample above thr settles the rejection
        kind[high], scan[high] = MESH, False
    k = np.flatnonzero(scan)
    i = budget(k)
    kind[k[_scan(f, pts[k], pts[k + 1], steps[i]) > thrs[i]]] = MESH
    return pts, fc, kind, starts


def _interior(a: np.ndarray, b: np.ndarray, k1: int, out: np.ndarray) -> np.ndarray:
    """Columns 1..k1-1 of np.linspace(a, b, k1 + 1, axis=1) into out, bit for bit: c * ((b - a) / k1) + a."""
    width = (b - a) / k1
    for c in range(1, k1):
        np.add(np.multiply(width, c, out=out[:, c - 1]), a, out=out[:, c - 1])
    return out


def flatten_perturbation(f: Callable, eps: float, C: float) -> SampledFunction:
    """The zero-removing lift of f at budget eps: ``flatten_arrays``' lift at that one budget."""
    x, v = next(flatten_arrays(f, (eps,), C))
    return SampledFunction(grid=(x,), values=v[:, None])


def _refine_cells(eps: float) -> int:
    """The cell count ceil(4/eps) of refine's mesh, refused past ``MESH_CAP``."""
    require_budget(eps)
    if eps == math.inf:
        raise DomainError(f"budget must be finite, got {eps}")
    check_work(np.ceil(4.0 / eps), MESH_CAP, f"refine_interpolant at eps = {eps!r}")  # inf, not an error, if subnormal
    return math.ceil(4.0 / eps)


def refine_values(f: Callable, eps: float) -> np.ndarray:
    """The knot values of ``refine_interpolant(f, eps)``, as one bare array.

    The array is allocated once and filled a block of knots at a time,
    cut by ``funcrep.blocks``: ceil(cells / ``BLOCK_POINTS``) blocks, so
    a mesh of 8 * 8192 cells takes 8 calls of f, not a ninth on the knot
    1.0 alone.  Each block's knots are built, f is called on them and its
    values are copied in and nudged, so no mesh-sized temporary is made.
    Each block's result is checked as it comes: a result of the wrong
    shape is refused with ``ShapeError``, and a non-finite value names
    its knot.  Every knot and value is computed on its own,
    so the blocks change no bit.  A mesh of more than ``MESH_CAP`` cells
    is refused before f is called.
    """
    cells = _refine_cells(eps)
    vals = np.empty(cells + 1)
    for lo, hi in blocks(cells + 1):
        block = vals[lo:hi]
        block[...] = _values(f, _uniform(cells, lo, hi))
        _nudge(block, NUDGE_ETA)
    return vals


def refine_interpolant(f: Callable, eps: float) -> SampledFunction:
    """Piecewise-linear interpolant of f on the mesh of ceil(4/eps) cells.

    Knot zeros are nudged to +1e-12 so each cell carries at most one
    zero, and a cell holding a point where |f| > eps/2 carries none.  For
    1-Lipschitz f the result stays within eps/8 + 2e-12 of f: on a cell of
    width h <= eps/4 interpolation errs by at most 2t(1 - t)h <= h/2 at
    a + t*h, and the nudge moves a knot value by under 2e-12.  A mesh of
    more than ``MESH_CAP`` cells is refused before f is called.  The
    values are ``refine_values``', nudged with the rule of
    ``nudge_knot_zeros`` on a private array, never on f's result.
    """
    vals = refine_values(f, eps)
    return SampledFunction(grid=(_uniform(len(vals) - 1),), values=vals[:, None])


def improvement_envelope(eps0: float, C: float, k: int) -> float:
    """The contradiction envelope (1 - 7C^2/36)**k * 4**k / eps0, in log2 where it overflows; eps0, C as iterate's,
    and k an integer >= 0 (k = 0 gives 1 / eps0)."""
    require_count(k, "k", 0)
    _check_budget(eps0, C)
    return _double_or_exp2(lambda: (1.0 - 7.0 * C * C / 36.0) ** k * 4.0**k / eps0,
                           lambda: k * math.log2(4.0 - 7.0 * C * C / 9.0) - math.log2(eps0))


def iterate_improvement(
    f: Callable, eps0: float, C: float, rounds: int
) -> list[tuple[float, int]]:
    """Drive the budget ladder eps0/4**k, k = 1..rounds.

    Round k re-interpolates at scale s = eps0/4**(k-1), within s/8 + 2e-12
    of a 1-Lipschitz f; every round the cap admits has s >= 4/MESH_CAP =
    2**-22, so that is within eps0/4**k = s/4, and its zero count is an
    achieved value at that budget.  Returns (budget, count) pairs.  A
    rounds that is not an integer >= 1 is refused, and so is a ladder
    whose finest round would lay out more than ``MESH_CAP`` cells, both
    before f is called.
    """
    require_count(rounds, "rounds", 1)
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
        count = count_value_zeros(refine_values(f, scale)).component_count
        out.append((eps0 / 4.0**k, count))
        scale /= 4.0
    return out

